//! End-to-end checkpoint durability: the engine must emit
//! *byte-identical* checkpoint images every time it runs the same job
//! (checkpoints are taken at canonical event boundaries), and
//! `--resume-from` must accept a genuine image while hard-failing on a
//! torn image or one written by a different run.

use mosaic_runtime::RuntimeConfig;
use mosaic_sim::MachineConfig;
use mosaic_workloads::{fib, uts, Benchmark, Scale};
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
fn run_checkpointed(
    bench: &dyn Benchmark,
    every: u64,
    dir: &Path,
    resume_from: Option<PathBuf>,
) -> (u64, u64) {
    let mut machine = MachineConfig::small(4, 2);
    machine.checkpoint_every = every;
    machine.checkpoint_dir = Some(dir.to_path_buf());
    machine.resume_from = resume_from;
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
        let numbers = run_checkpointed(bench.as_ref(), 1000, &dir, None);
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
}

#[test]
fn resume_verifies_a_real_checkpoint() {
    let bench = fib::instances(Scale::Tiny).remove(0);
    let dir = tmp_dir("resume-src");
    run_checkpointed(bench.as_ref(), 1000, &dir, None);
    let imgs = images(&dir);
    let (name, _) = imgs.iter().next_back().expect("at least one checkpoint");
    let image = dir.join(name);

    // Re-execution from cycle 0 must land byte-exactly on the image's
    // recorded boundary.
    let out_dir = tmp_dir("resume-out");
    run_checkpointed(bench.as_ref(), 0, &out_dir, Some(image));
    let _ = std::fs::remove_dir_all(&out_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_hard_fails_on_divergence_and_torn_images() {
    let fib_bench = fib::instances(Scale::Tiny).remove(0);
    let dir = tmp_dir("resume-bad");
    run_checkpointed(fib_bench.as_ref(), 1000, &dir, None);
    let imgs = images(&dir);
    let (name, bytes) = imgs.iter().next_back().expect("at least one checkpoint");
    let image = dir.join(name);

    // A different workload on the same machine shape replays a
    // different event stream: its state can never match the image, and
    // claiming the run "resumed" it would be a lie. The engine turns
    // that into a hard failure, which `Mosaic::run` surfaces as a
    // panic carrying the divergence diagnostic.
    let uts_bench = uts::instances(Scale::Tiny).remove(0);
    let image_for_uts = image.clone();
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut machine = MachineConfig::small(4, 2);
        machine.resume_from = Some(image_for_uts);
        uts_bench.run(machine, RuntimeConfig::work_stealing());
    }))
    .expect_err("resuming a foreign run must fail");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(
        msg.contains("resume verification failed"),
        "unexpected failure: {msg}"
    );

    // A torn image (killed mid-write without the tmp+rename dance)
    // must be rejected up front as an i/o-level failure.
    let torn = dir.join("torn.mckpt");
    std::fs::write(&torn, &bytes[..bytes.len() / 2]).expect("write torn image");
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut machine = MachineConfig::small(4, 2);
        machine.resume_from = Some(torn);
        fib_bench.run(machine, RuntimeConfig::work_stealing());
    }))
    .expect_err("a torn checkpoint must be rejected");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "non-string panic".to_string());
    assert!(
        msg.contains("checkpoint i/o failed"),
        "unexpected failure: {msg}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
