//! Ablation: steal policies. Victim selection (random — the paper's
//! choice — vs round-robin vs mesh-nearest) crossed with steal amount
//! (one task vs half the victim's queue).

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::{RuntimeConfig, StealAmount, VictimPolicy};
use mosaic_workloads::{uts, Benchmark};
use std::fmt::Write as _;
use std::sync::Arc;

/// Flat (bench, victim, amount) cells; `extra` = [steals, failed
/// steals].
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let victims = [
        ("random", VictimPolicy::Random),
        ("round-robin", VictimPolicy::RoundRobin),
        ("nearest", VictimPolicy::Nearest),
    ];
    let amounts = [("one", StealAmount::One), ("half", StealAmount::Half)];
    let mut cells = Vec::new();
    for bench in uts::instances(opts.scale) {
        let bench: Arc<dyn Benchmark> = Arc::from(bench);
        for (vname, victim) in victims {
            for (aname, steal_amount) in amounts {
                let bench = bench.clone();
                cells.push(Cell::new(
                    bench.name(),
                    format!("{vname}/{aname}"),
                    move |machine| {
                        let cfg = RuntimeConfig {
                            victim,
                            steal_amount,
                            ..RuntimeConfig::work_stealing()
                        };
                        let out = bench.run(machine, cfg);
                        let t = out.report.totals();
                        Outcome {
                            extra: vec![t.steals, t.failed_steals],
                            ..Outcome::of(&out.report, out.verified)
                        }
                    },
                ));
            }
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&["workload", "victim", "amount", "cycles", "steals", "failed"]);
    for r in results {
        let (victim, amount) = r.config.split_once('/').expect("victim/amount label");
        table.row(vec![
            r.workload.clone(),
            victim.into(),
            amount.into(),
            format!("{}", r.out.cycles),
            format!("{}", r.out.extra[0]),
            format!("{}", r.out.extra[1]),
        ]);
    }
    let mut s = String::new();
    let _ = writeln!(s, "Steal-policy ablation on {} cores", opts.cores());
    let _ = writeln!(s, "{table}");
    s
}
