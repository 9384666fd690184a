//! The simulator is bit-deterministic: identical configuration and
//! seed produce identical cycle counts, instruction counts, and
//! runtime statistics; changing the seed perturbs victim selection and
//! therefore timing. The last two tests hold the source-level rules
//! behind that: documented sync sites and the float-arithmetic lint
//! scope (docs/determinism.md, "Static checks").

use mosaic_runtime::RuntimeConfig;
use mosaic_sim::MachineConfig;
use mosaic_workloads::uts::Uts;
use mosaic_workloads::{fib::Fib, gen::UtsParams, Benchmark};
use std::path::{Path, PathBuf};

fn run_fib(seed: u64) -> (u64, u64, u64) {
    let mut m = MachineConfig::small(4, 2);
    m.seed = seed;
    let out = Fib { n: 10 }.run(m, RuntimeConfig::work_stealing());
    out.assert_verified();
    (
        out.report.cycles,
        out.report.instructions(),
        out.report.totals().steals,
    )
}

#[test]
fn identical_seeds_identical_runs() {
    assert_eq!(run_fib(42), run_fib(42));
}

#[test]
fn different_seeds_different_timing() {
    // Victim selection changes; the functional result is checked
    // inside run_fib either way.
    let a = run_fib(1);
    let b = run_fib(2);
    assert_ne!((a.0, a.2), (b.0, b.2), "seed must perturb scheduling");
}

#[test]
fn irregular_workload_is_deterministic_too() {
    let p = UtsParams {
        root_children: 8,
        max_depth: 6,
        ..UtsParams::t1(3)
    };
    let run = || {
        let out = Uts {
            params: p,
            label: "t1",
        }
        .run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        (out.report.cycles, out.report.instructions())
    };
    assert_eq!(run(), run());
}

#[test]
fn static_scheduler_is_deterministic() {
    let run = || {
        let out = Fib { n: 9 }.run(
            MachineConfig::small(4, 2),
            RuntimeConfig::static_loops(mosaic_runtime::Placement::Spm),
        );
        // fib under static serializes but must still be correct.
        out.assert_verified();
        out.report.cycles
    };
    assert_eq!(run(), run());
}

/// Crates whose behaviour reaches a golden number. Each one's `lib.rs`
/// warns on float arithmetic, so every float op there sits under an
/// `#[expect(clippy::float_arithmetic, reason = "order: …")]`.
const GOLDEN_CRATES: [&str; 8] = [
    "sim",
    "core",
    "mem",
    "mesh",
    "prof",
    "workloads",
    "chaos",
    "model",
];

/// The release points of paper §3.2, and the wrapper signature that
/// only delegates to one.
const SYNC_CALLS: [(&str, &str); 2] = [
    (".fence()", "fn fence("),
    (".amo_release(", "fn amo_release("),
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Every `.rs` file under `dir`, in sorted order.
fn rust_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_sources(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// Every `.fence()` and `.amo_release(` in the runtime and the engine
/// has `// Invariant:` in the comment block directly above it, saying
/// what the ordering protects and who depends on it. Exempt: comment
/// lines, everything after a file's first `#[cfg(test)]`, and a
/// one-line body of a `fn` with the same name.
#[test]
fn sync_sites_state_their_invariant() {
    let root = workspace_root();
    let mut files = Vec::new();
    for krate in ["core", "sim"] {
        rust_sources(&root.join("crates").join(krate).join("src"), &mut files);
    }
    let mut missing = Vec::new();
    for path in &files {
        let src = read(path);
        let lines: Vec<&str> = src.lines().map(str::trim_start).collect();
        for (i, line) in lines.iter().enumerate() {
            if line.starts_with("#[cfg(test)]") {
                break;
            }
            let Some((_, wrapper)) = SYNC_CALLS.iter().find(|(call, _)| line.contains(call)) else {
                continue;
            };
            if line.starts_with("//") || (i > 0 && lines[i - 1].contains(wrapper)) {
                continue;
            }
            let mut block = lines[..i].iter().rev().take_while(|l| l.starts_with("//"));
            if !block.any(|l| l.starts_with("// Invariant:")) {
                let rel = path.strip_prefix(&root).unwrap_or(path);
                missing.push(format!("{}:{}", rel.display(), i + 1));
            }
        }
    }
    assert!(
        missing.is_empty(),
        "sync sites without an `// Invariant:` comment directly above: {missing:?}"
    );
}

/// The float-arithmetic lint cannot silently lose a golden crate.
#[test]
fn golden_crates_warn_on_float_arithmetic() {
    let root = workspace_root();
    let unscoped: Vec<&str> = GOLDEN_CRATES
        .into_iter()
        .filter(|krate| {
            !read(&root.join("crates").join(krate).join("src/lib.rs"))
                .lines()
                .any(|l| l.trim() == "#![warn(clippy::float_arithmetic)]")
        })
        .collect();
    assert!(
        unscoped.is_empty(),
        "golden crates whose lib.rs lacks #![warn(clippy::float_arithmetic)]: {unscoped:?}"
    );
}
