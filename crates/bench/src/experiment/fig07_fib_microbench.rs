//! Regenerate **Figure 7**: the Fib micro-benchmark across the four
//! work-stealing data-placement variants, for both the hardware
//! overflow co-design ("Fib") and the estimated 2-instruction software
//! scheme ("Fib-S"). Speedups are normalized to the naive
//! both-in-DRAM configuration, as in the paper.

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::RuntimeConfig;
use mosaic_workloads::fib::Fib;
use mosaic_workloads::{Benchmark, Scale};
use std::fmt::Write as _;

fn fib_arg(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 10,
        Scale::Small => 13,
        Scale::Full => 16,
    }
}

/// The work-stealing placement variants, naive both-in-DRAM first.
pub(super) fn ws_configs() -> Vec<(&'static str, RuntimeConfig)> {
    RuntimeConfig::table1_sweep()
        .into_iter()
        .filter(|(l, _)| l.starts_with("ws"))
        .collect()
}

/// (name, software stack-overflow check penalty in instructions).
const VARIANTS: [(&str, u64); 2] = [("Fib", 0), ("Fib-S", 2)];

/// Variant-major cells; `extra[0]` is the stack-overflow count.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let n = fib_arg(opts.scale);
    let mut cells = Vec::new();
    for (variant, sw_overflow_penalty) in VARIANTS {
        for (label, cfg) in ws_configs() {
            cells.push(Cell::new(
                format!("{variant}({n})"),
                label,
                move |mut machine| {
                    machine.sw_overflow_penalty = sw_overflow_penalty;
                    let out = Fib { n }.run(machine, cfg.clone());
                    Outcome {
                        extra: vec![out.report.totals().stack_overflows],
                        ..Outcome::of(&out.report, out.verified)
                    }
                },
            ));
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let n = fib_arg(opts.scale);
    let mut table = Table::new(&["variant", "config", "cycles", "speedup", "overflows"]);
    for ((variant, _), runs) in VARIANTS.iter().zip(results.chunks(ws_configs().len())) {
        let baseline = runs[0].out.cycles;
        for r in runs {
            table.row(vec![
                variant.to_string(),
                r.config.clone(),
                format!("{}", r.out.cycles),
                format!("{:.2}x", baseline as f64 / r.out.cycles as f64),
                format!("{}", r.out.extra[0]),
            ]);
        }
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 7: fib({n}) on {} cores; speedup normalized to ws/dram-stack/dram-q",
        opts.cores()
    );
    let _ = writeln!(s, "{table}");
    s
}
