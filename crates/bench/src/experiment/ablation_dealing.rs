//! Related-work comparison: work-stealing (the paper) vs work-dealing
//! (Zakkak & Pratikakis) vs the static baseline, on representative
//! workloads from each quadrant. The paper argues stealing is the
//! right policy for SPM manycores; this quantifies the gap under an
//! identical substrate and placement configuration.

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::{Placement, RuntimeConfig};
use mosaic_workloads::{matmul, pagerank, uts, Benchmark};
use std::fmt::Write as _;
use std::sync::Arc;

/// Schedulers vary per benchmark (no static baseline for the irregular
/// workloads), so the cells are enumerated explicitly;
/// `extra[0]` = tasks stolen or dealt.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let mut benches: Vec<Box<dyn Benchmark>> = Vec::new();
    benches.extend(matmul::instances(opts.scale).into_iter().take(1));
    benches.extend(pagerank::instances(opts.scale).into_iter().skip(1).take(1));
    benches.extend(uts::instances(opts.scale));

    let mut cells = Vec::new();
    for bench in benches {
        let bench: Arc<dyn Benchmark> = Arc::from(bench);
        let mut scheds = vec![
            ("stealing", RuntimeConfig::work_stealing()),
            ("dealing", RuntimeConfig::work_dealing()),
        ];
        if bench.has_static_baseline() {
            scheds.insert(0, ("static", RuntimeConfig::static_loops(Placement::Spm)));
        }
        for (sched, cfg) in scheds {
            let bench = bench.clone();
            cells.push(Cell::new(bench.name(), sched, move |machine| {
                let out = bench.run(machine, cfg.clone());
                let t = out.report.totals();
                Outcome {
                    extra: vec![t.steals + t.deals],
                    ..Outcome::of(&out.report, out.verified)
                }
            }));
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&["workload", "scheduler", "cycles", "moved", "vs static"]);
    // The static run, when a workload has one, precedes its others.
    let mut static_run: Option<&CellResult> = None;
    for r in results {
        if r.config == "static" {
            static_run = Some(r);
            table.row(vec![
                r.workload.clone(),
                "static".into(),
                format!("{}", r.out.cycles),
                "-".into(),
                "1.00".into(),
            ]);
        } else {
            let vs = static_run
                .filter(|s| s.workload == r.workload)
                .map(|s| format!("{:.2}", s.out.cycles as f64 / r.out.cycles as f64))
                .unwrap_or_else(|| "-".into());
            table.row(vec![
                r.workload.clone(),
                r.config.clone(),
                format!("{}", r.out.cycles),
                format!("{}", r.out.extra[0]),
                vs,
            ]);
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Scheduler-policy comparison on {} cores (moved = tasks stolen or dealt)",
        opts.cores()
    );
    let _ = writeln!(s, "{table}");
    s
}
