//! End-to-end checkpoint writing: the engine must emit
//! *byte-identical* checkpoint images every time it runs the same job
//! (checkpoints are taken at canonical event boundaries), and writing
//! them must not move a single simulated number.

use mosaic_runtime::RuntimeConfig;
use mosaic_sim::MachineConfig;
use mosaic_workloads::{fib, Benchmark, Scale};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mosaic-ckpt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run one tiny benchmark with checkpointing into `dir`; returns the
/// golden-relevant numbers so callers can also assert result identity.
fn run_checkpointed(bench: &dyn Benchmark, every: u64, dir: &Path) -> (u64, u64) {
    let mut machine = MachineConfig::small(4, 2);
    machine.checkpoint_every = every;
    machine.checkpoint_dir = Some(dir.to_path_buf());
    let out = bench.run(machine, RuntimeConfig::work_stealing());
    assert!(out.verified, "workload must still verify");
    (out.report.cycles, out.report.instructions())
}

/// Every checkpoint image in `dir`, keyed by file name.
fn images(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("checkpoint dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().ends_with(".mckpt"))
        .map(|e| {
            (
                e.file_name().to_string_lossy().into_owned(),
                std::fs::read(e.path()).expect("read checkpoint image"),
            )
        })
        .collect()
}

#[test]
fn checkpoints_are_byte_identical_across_runs() {
    let bench = fib::instances(Scale::Tiny).remove(0);
    let run = |tag: &str| {
        let dir = tmp_dir(tag);
        let numbers = run_checkpointed(bench.as_ref(), 1000, &dir);
        let imgs = images(&dir);
        let _ = std::fs::remove_dir_all(&dir);
        (imgs, numbers)
    };
    let (imgs, numbers) = run("again-a");
    assert!(
        !imgs.is_empty(),
        "a multi-thousand-cycle run at cadence 1000 must checkpoint at least once"
    );
    let (again_imgs, again_numbers) = run("again-b");
    assert_eq!(numbers, again_numbers, "results diverged");
    // Same boundaries (file names carry the cycle) and same bytes.
    assert_eq!(imgs, again_imgs);

    // Free at every cadence: the run that writes no checkpoint at all
    // computes the same numbers.
    let dir = tmp_dir("cadence-0");
    let plain = run_checkpointed(bench.as_ref(), 0, &dir);
    assert!(images(&dir).is_empty(), "cadence 0 writes no image");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(numbers, plain, "checkpointing moved a simulated number");
}
