//! Fast mode: answer a sweep cell from the calibrated analytic model
//! instead of the cycle-accurate engine, and see what that trade
//! buys. Runs the same UTS cell through both backends, compares the
//! answers against the calibration table's promised error band, and
//! shows how the auto backend decides when the model is trustworthy
//! enough to skip simulation.
//!
//! Run from the repository root (the committed calibration table is
//! loaded from `results/model/calibration.json`):
//!
//! ```sh
//! cargo run --release -p mosaic-xtests --example fast_mode
//! ```

use mosaic_model::CalibrationTable;
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::backend::{
    AnalyticBackend, AutoBackend, Backend, BackendJob, CycleBackend, CycleOutcome, FamilyKey,
};
use mosaic_sim::MachineConfig;
use mosaic_workloads::{uts, Benchmark, Scale};
use std::time::Instant;

/// One sweep cell seen through the backend seam: its calibration
/// identity plus the real cycle-accurate execution path.
struct Cell {
    bench: Box<dyn Benchmark>,
    config_label: &'static str,
    runtime: RuntimeConfig,
}

impl BackendJob for Cell {
    fn family(&self) -> FamilyKey {
        FamilyKey {
            workload: self.bench.name(),
            config: self.config_label.to_string(),
            scale: "tiny".to_string(),
        }
    }
    fn execute(&self, machine: &MachineConfig) -> CycleOutcome {
        let out = self.bench.run(machine.clone(), self.runtime.clone());
        CycleOutcome {
            cycles: out.report.cycles,
            instructions: out.report.instructions(),
            verified: out.verified,
            sanitizer: None,
            profile: None,
        }
    }
}

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
    let cell = Cell {
        bench: uts::instances(Scale::Tiny).pop().expect("UTS instances"),
        config_label: label,
        runtime,
    };
    let machine = MachineConfig::small(8, 4);
    let key = cell.family();
    println!("cell: {key} on {}x{}", machine.cols, machine.rows);

    // The same cell, both fidelities.
    let t0 = Instant::now();
    let slow = CycleBackend.run_cell(&machine, &cell).expect("cycle run");
    let t_cycle = t0.elapsed();
    let analytic = AnalyticBackend::new(table.clone());
    let t0 = Instant::now();
    let fast = analytic.run_cell(&machine, &cell).expect("analytic run");
    let t_model = t0.elapsed();

    let err_ppm = fast.cycles.abs_diff(slow.cycles) * 1_000_000 / slow.cycles;
    println!(
        "  cycle    {:>8} cycles   {:>10.1?} wall",
        slow.cycles, t_cycle
    );
    println!(
        "  analytic {:>8} cycles   {:>10.1?} wall",
        fast.cycles, t_model
    );
    println!(
        "  relative error {}ppm ({:.2}%), calibrated family bound {}ppm",
        err_ppm,
        err_ppm as f64 / 10_000.0,
        table
            .family(&key.workload, &key.config, &key.scale)
            .expect("family is calibrated")
            .max_err_ppm
    );

    // The auto backend only answers fast inside the calibrated band;
    // anything uncovered (here: a scale never calibrated) escalates
    // back to the cycle engine.
    let auto = AutoBackend::new(table, 100_000);
    let uncovered = FamilyKey {
        scale: "small".to_string(),
        ..key.clone()
    };
    println!("\nauto backend at a 100000ppm escalation bound:");
    println!("  {key}  -> fast = {}", auto.answers_fast(&key));
    println!("  {uncovered} -> fast = {}", auto.answers_fast(&uncovered));
}
