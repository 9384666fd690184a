//! Fast mode: answer a sweep cell from the calibrated analytic model
//! instead of the cycle-accurate engine, and see what that trade
//! buys. Runs the same UTS cell through `Benchmark::run` and through
//! `CalibrationTable::answer` (what `--fidelity analytic` calls per
//! cell), and compares the answers against the calibration table's
//! promised error band.
//!
//! Run from the repository root (the committed calibration table is
//! loaded from `results/model/calibration.json`):
//!
//! ```sh
//! cargo run --release -p mosaic-xtests --example fast_mode
//! ```

use mosaic_model::CalibrationTable;
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::{machine_params, MachineConfig};
use mosaic_workloads::{uts, Scale};
use std::time::Instant;

fn main() {
    let table = CalibrationTable::parse(
        &std::fs::read_to_string("results/model/calibration.json")
            .expect("run from the repo root: results/model/calibration.json not found"),
    )
    .expect("calibration table parses");
    println!(
        "calibration: {} families, acceptance bound {}ppm\n",
        table.families.len(),
        table.bound_ppm
    );

    // The heaviest Table-1 family: UTS-t3 under the full SPM runtime.
    let (label, runtime) = RuntimeConfig::table1_sweep()
        .into_iter()
        .find(|(l, _)| *l == "ws/spm-stack/spm-q")
        .expect("table1 sweep carries the ws/spm-stack/spm-q config");
    let bench = uts::instances(Scale::Tiny).pop().expect("UTS instances");
    let workload = bench.name();
    let machine = MachineConfig::small(8, 4);
    println!(
        "cell: {workload} / {label} @ tiny on {}x{}",
        machine.cols, machine.rows
    );

    // The same cell, both fidelities.
    let t0 = Instant::now();
    let slow = bench.run(machine.clone(), runtime).report.cycles;
    let t_cycle = t0.elapsed();
    let t0 = Instant::now();
    let (fast, _instructions) = table
        .answer(&machine_params(&machine), &workload, label, "tiny")
        .expect("analytic answer");
    let t_model = t0.elapsed();

    let err_ppm = fast.abs_diff(slow) * 1_000_000 / slow;
    println!("  cycle    {slow:>8} cycles   {t_cycle:>10.1?} wall");
    println!("  analytic {fast:>8} cycles   {t_model:>10.1?} wall");
    println!(
        "  relative error {}ppm ({:.2}%), calibrated family bound {}ppm",
        err_ppm,
        err_ppm as f64 / 10_000.0,
        table
            .family(&workload, label, "tiny")
            .expect("family is calibrated")
            .max_err_ppm
    );

    // A family the table does not cover is refused, never guessed.
    let refused = table
        .answer(&machine_params(&machine), &workload, label, "small")
        .expect_err("small scale is not calibrated");
    println!("\nuncalibrated scale: {refused}");
}
