//! Fixture-driven integration tests: one positive (violating) and one
//! negative (clean) case per rule, with span-accurate assertions.
//!
//! The fixtures live in `tests/fixtures/` and are excluded from the
//! workspace scan (they violate rules on purpose); here each is read
//! from disk and scanned under a path *label* that selects the file
//! class being tested — classification is by label, not location.

use mosaic_detlint::config::DigestEntry;
use mosaic_detlint::lexer::lex;
use mosaic_detlint::rules::digest_rule;
use mosaic_detlint::{classify, scan_file, Config, Finding};

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
fn d001_unordered_containers_in_golden_crates() {
    let f = scan("d001_unordered.rs", "crates/sim/src/fixture.rs");
    assert_eq!(spans(&f, "D001"), vec![(2, 23), (8, 17), (8, 37)], "{f:?}");
    // BTreeMap never triggers.
    assert!(f.iter().all(|x| !x.message.contains("BTreeMap in")));
    // The same source is fine in a non-golden crate.
    let clean = scan("d001_unordered.rs", "crates/serve/src/fixture.rs");
    assert!(spans(&clean, "D001").is_empty(), "{clean:?}");
}

#[test]
fn d002_wall_clock_outside_host_crates() {
    let f = scan("d002_wall_clock.rs", "crates/mesh/src/fixture.rs");
    assert_eq!(spans(&f, "D002"), vec![(3, 16), (6, 14)], "{f:?}");
    let clean = scan("d002_wall_clock.rs", "crates/bench/src/fixture.rs");
    assert!(spans(&clean, "D002").is_empty(), "{clean:?}");
}

#[test]
fn d003_ambient_host_state() {
    let f = scan("d003_ambient.rs", "crates/core/src/fixture.rs");
    // std::env::var read and thread::current(); the user-defined `env`
    // module in the same file must not trip the rule.
    assert_eq!(spans(&f, "D003"), vec![(4, 10), (8, 18)], "{f:?}");
}

#[test]
fn d004_float_accumulation() {
    let f = scan("d004_float_acc.rs", "crates/workloads/src/fixture.rs");
    // `acc += x` (the op token) and `.sum::<f64>()` (the `sum` ident);
    // the integer twin of each is clean.
    assert_eq!(spans(&f, "D004"), vec![(6, 13), (8, 21)], "{f:?}");
}

#[test]
fn d005_digest_coverage_and_stale_exemptions() {
    let lexed = lex(&fixture("d005_digest.rs"));
    let entry = |exempt: &[(&str, &str)], map: &[(&str, &str)]| DigestEntry {
        struct_name: "Spec".into(),
        file: "crates/serve/src/fixture.rs".into(),
        serializer: "canonical".into(),
        serializer_file: "crates/serve/src/fixture.rs".into(),
        exempt: exempt
            .iter()
            .map(|(n, r)| (n.to_string(), r.to_string()))
            .collect(),
        map: map
            .iter()
            .map(|(f, t)| (f.to_string(), t.to_string()))
            .collect(),
    };

    // Fully specified: flips serializes as `flip=`, host_threads exempt.
    let ok = digest_rule(
        &entry(&[("host_threads", "byte-identical")], &[("flips", "flip")]),
        &lexed,
        &lexed,
    );
    assert!(ok.is_empty(), "{ok:?}");

    // Without the alias and exemption both uncovered fields are D005,
    // anchored at the field declarations (`flip=` does not cover
    // `flips` — word-boundary matching).
    let bare = digest_rule(&entry(&[], &[]), &lexed, &lexed);
    assert_eq!(spans(&bare, "D005"), vec![(5, 9), (6, 9)], "{bare:?}");

    // Exempting a field the serializer covers is a stale allowance.
    let stale = digest_rule(
        &entry(
            &[("seed", "wrong"), ("host_threads", "ok")],
            &[("flips", "flip")],
        ),
        &lexed,
        &lexed,
    );
    assert_eq!(spans(&stale, "D010"), vec![(4, 9)], "{stale:?}");

    // Exempting a nonexistent field is also D010.
    let ghost = digest_rule(
        &entry(
            &[("host_threads", "ok"), ("nope", "gone")],
            &[("flips", "flip")],
        ),
        &lexed,
        &lexed,
    );
    assert_eq!(spans(&ghost, "D010"), vec![(1, 1)], "{ghost:?}");
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
fn d008_unsafe_needs_safety_comment() {
    let f = scan("d008_unsafe.rs", "crates/mem/src/fixture.rs");
    assert_eq!(spans(&f, "D008"), vec![(4, 5)], "{f:?}");
}

#[test]
fn d009_allow_needs_reason() {
    let f = scan("d009_allow.rs", "crates/core/src/fixture.rs");
    assert_eq!(spans(&f, "D009"), vec![(3, 3)], "{f:?}");
}

#[test]
fn d010_malformed_and_unused_directives() {
    // Malformed directives surface in any scan; unused ones only under
    // --self-check, which lives in the workspace driver.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let rel = "tests/fixtures/d010_directives.rs".to_string();
    let report = mosaic_detlint::scan_files(root, &[rel], &Config::default(), true).expect("scan");
    assert_eq!(
        spans(&report.findings, "D010"),
        vec![(3, 1), (6, 1)],
        "{report:?}"
    );

    let lax = mosaic_detlint::scan_files(
        root,
        &["tests/fixtures/d010_directives.rs".to_string()],
        &Config::default(),
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
    let dirty = run("tests/fixtures/d008_unsafe.rs");
    assert_eq!(dirty.status.code(), Some(1), "{dirty:?}");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(
        stdout.contains("tests/fixtures/d008_unsafe.rs:4:5: D008:"),
        "{stdout}"
    );
    // Outside a golden-affecting crate the D001 fixture is clean.
    let clean = run("tests/fixtures/d001_unordered.rs");
    assert_eq!(clean.status.code(), Some(0), "{clean:?}");
}
