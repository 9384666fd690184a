//! Chaos sweep: fault injection as a first-class, golden-gated
//! experiment.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin chaos_sweep -- --scale tiny
//! ```
//!
//! Two modes:
//!
//! - **Default (no `--faults`)**: run each chaos workload fault-free
//!   and under a *fixed* timing-only plan (`FaultPlan::timing(7)`),
//!   assert the key invariant — a timing-only plan leaves payloads
//!   bit-identical while shifting cycle counts — and record all cells
//!   in a golden file. Both halves are deterministic, so
//!   `--check-golden` gates this in CI like any other experiment.
//! - **`--faults SPEC`**: run the given plan and a fault-free rerun of
//!   every chaos workload and diff the payloads
//!   (`mosaic_chaos::DivergenceReport`). Timing-only plans report
//!   identical results and exit 0; plans with bit flips report
//!   `DIVERGED` and exit 1 — corruption is surfaced, never silently
//!   absorbed. These cells are recorded under the distinct golden name
//!   `chaos_sweep_user`.

use crate::chaos;
use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_chaos::{DivergenceReport, FaultPlan, RunDigest};
use std::fmt::Write as _;

/// The fixed timing-only plan of the default mode.
fn timing_plan() -> FaultPlan {
    let mut timing = FaultPlan::timing(7);
    // Tiny chaos runs finish in a few thousand cycles; pull the
    // window-placement horizon down so the plan's stalls and freezes
    // actually overlap the run at every scale.
    timing.horizon = 2_000;
    timing
}

/// Workload-major cells, two legs each: clean then the fixed timing
/// plan by default; under `--faults` the user's plan then clean (the
/// faulted leg first, so a plan that hangs or panics fails before the
/// known-good baseline spends time). `extra[0]` is the payload digest
/// and `text` the simulation error of a run that died.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let legs: [(&str, Option<FaultPlan>); 2] = match &opts.faults {
        None => [("clean", None), ("timing-seed7", Some(timing_plan()))],
        Some(plan) => [("faulted", Some(plan.clone())), ("clean", None)],
    };
    let scale = opts.scale;
    let mut cells = Vec::new();
    for wl in chaos::WORKLOADS {
        for (leg, plan) in legs.clone() {
            cells.push(Cell::new(*wl, leg, move |mut machine| {
                machine.faults = plan.clone();
                let run = chaos::run(wl, machine, scale);
                Outcome {
                    cycles: run.digest.cycles,
                    instructions: run.instructions,
                    verified: run.digest.verified,
                    sanitizer: run.sanitizer,
                    profile: run.profile,
                    extra: vec![run.digest.payload],
                    text: run.error.unwrap_or_default(),
                    ..Outcome::default()
                }
            }));
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    match &opts.faults {
        None => render_default(opts, results),
        Some(plan) => render_user_plan(plan, results),
    }
}

fn render_default(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&["workload", "plan", "cycles", "payload", "verified"]);
    for legs in results.chunks(2) {
        let (clean, timed) = (&legs[0], &legs[1]);
        // The tentpole invariant: timing faults reshuffle the schedule
        // (different cycle counts) but never the computed words.
        assert_eq!(
            timed.out.extra, clean.out.extra,
            "{}: timing-only plan changed the results",
            clean.workload
        );
        assert_ne!(
            timed.out.cycles, clean.out.cycles,
            "{}: timing plan had no timing effect",
            clean.workload
        );
        for r in legs {
            table.row(vec![
                r.workload.clone(),
                r.config.clone(),
                format!("{}", r.out.cycles),
                format!("{:016x}", r.out.extra[0]),
                format!("{}", r.out.verified),
            ]);
        }
    }
    let (fib_n, scan_len) = chaos::params(opts.scale);
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Chaos sweep: fib({fib_n}) + scan({scan_len}) on {} cores, clean vs timing plan {}",
        opts.cores(),
        timing_plan().to_spec()
    );
    let _ = writeln!(s, "{table}");
    let _ = writeln!(
        s,
        "timing-only invariant held: payloads bit-identical, cycle counts shifted"
    );
    s
}

/// `--faults SPEC` mode: one divergence report per workload. A leg
/// whose payload diverged does not verify, which is what makes the
/// driver name it and exit 1.
fn render_user_plan(plan: &FaultPlan, results: &[CellResult]) -> String {
    let digest = |r: &CellResult| RunDigest {
        payload: r.out.extra[0],
        cycles: r.out.cycles,
        verified: r.out.verified,
    };
    let mut s = String::new();
    let mut diverged = false;
    for legs in results.chunks(2) {
        let report = DivergenceReport {
            plan: plan.to_spec(),
            faulted: digest(&legs[0]),
            clean: digest(&legs[1]),
        };
        let wl = &legs[0].workload;
        let _ = writeln!(s, "{wl}: {report}");
        for r in legs.iter().filter(|r| !r.out.text.is_empty()) {
            let _ = writeln!(s, "{wl}: {} run died: {}", r.config, r.out.text);
        }
        diverged |= report.diverged();
    }
    if !diverged {
        let _ = writeln!(
            s,
            "chaos_sweep: no divergence under plan {} ({})",
            plan.to_spec(),
            if plan.is_timing_only() {
                "timing-only, as expected"
            } else {
                "flips landed on dead words or cancelled out"
            }
        );
    }
    s
}
