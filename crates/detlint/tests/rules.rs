//! Fixture-driven integration tests: one positive (violating) and one
//! negative (clean) case per rule, with span-accurate assertions.
//!
//! The fixtures live in `tests/fixtures/` and are excluded from the
//! workspace scan (they violate rules on purpose); here each is read
//! from disk and scanned under a path *label* that selects the file
//! class being tested — classification is by label, not location.

use mosaic_detlint::{classify, scan_file, Finding};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Scan a fixture as if it lived at `label` in the workspace.
fn scan(name: &str, label: &str) -> Vec<Finding> {
    scan_file(label, &fixture(name), &classify(label)).findings
}

fn spans(findings: &[Finding], rule: &str) -> Vec<(u32, u32)> {
    findings
        .iter()
        .filter(|f| f.rule == rule)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn d004_float_accumulation() {
    let f = scan("d004_float_acc.rs", "crates/workloads/src/fixture.rs");
    // `acc += x` (the op token) and `.sum::<f64>()` (the `sum` ident);
    // the integer twin of each is clean.
    assert_eq!(spans(&f, "D004"), vec![(6, 13), (8, 21)], "{f:?}");
}

#[test]
fn d006_sync_sites_need_invariant_comments() {
    let f = scan("d006_sync_sites.rs", "crates/sim/src/fixture.rs");
    // Only the undocumented call in `bad` fires: the documented
    // `amo_release`, the delegating `fence` wrapper, and the
    // #[cfg(test)] call are all exempt.
    assert_eq!(spans(&f, "D006"), vec![(14, 18)], "{f:?}");
    // Integration-test files are not sync_documented at all.
    let clean = scan("d006_sync_sites.rs", "crates/sim/tests/fixture.rs");
    assert!(spans(&clean, "D006").is_empty(), "{clean:?}");
}

#[test]
fn d010_malformed_and_unused_directives() {
    // Malformed directives surface in any scan; unused ones only under
    // --self-check, which lives in the workspace driver.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let rel = "tests/fixtures/d010_directives.rs".to_string();
    let report = mosaic_detlint::scan_files(root, &[rel], true).expect("scan");
    assert_eq!(
        spans(&report.findings, "D010"),
        vec![(3, 1), (6, 1)],
        "{report:?}"
    );

    let lax = mosaic_detlint::scan_files(
        root,
        &["tests/fixtures/d010_directives.rs".to_string()],
        false,
    )
    .expect("scan");
    // Without self-check only the malformed one is reported.
    assert_eq!(spans(&lax.findings, "D010"), vec![(3, 1)], "{lax:?}");
}

#[test]
fn cli_exit_codes_gate_on_findings() {
    let bin = env!("CARGO_BIN_EXE_detlint");
    let root = env!("CARGO_MANIFEST_DIR");
    let run = |path: &str| {
        std::process::Command::new(bin)
            .args(["--root", root, path])
            .output()
            .expect("run detlint")
    };
    // A malformed directive fires under any path label.
    let dirty = run("tests/fixtures/d010_directives.rs");
    assert_eq!(dirty.status.code(), Some(1), "{dirty:?}");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        stdout.contains("tests/fixtures/d010_directives.rs:3:1: D010:"),
        "{stdout}"
    );
    // Outside a golden-affecting crate the D004 fixture is clean.
    let clean = run("tests/fixtures/d004_float_acc.rs");
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
}
