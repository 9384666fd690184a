//! Regenerate **Figure 6**: execution time of the six parallel kernels
//! in one PageRank iteration with and without read-only data
//! duplication.
//!
//! The magnitude of the benefit grows with the ratio of captured-state
//! reads to other memory traffic, i.e. with input size and core count;
//! at the default reduced scale the win is smaller than the paper's
//! 1.57x but the same kernels improve. Run with `--paper --scale full`
//! for the strongest effect this model produces.

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::RuntimeConfig;
use mosaic_workloads::pagerank::{GraphKind, PageRank};
use mosaic_workloads::{Benchmark, Scale};
use std::fmt::Write as _;

const KERNELS: usize = 6;

fn graph_size(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 1024,
        Scale::Small => 8192,
        Scale::Full => 16384,
    }
}

/// One cell per variant; `extra` holds the six kernel spans.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let n = graph_size(opts.scale);
    [(false, "w/o RD"), (true, "w/ RD")]
        .into_iter()
        .map(|(rd_duplication, label)| {
            Cell::new(format!("PageRank-pl({n})"), label, move |machine| {
                let pr = PageRank {
                    n,
                    kind: GraphKind::PowerLaw,
                    iters: 1,
                    seed: 0x96,
                };
                let cfg = RuntimeConfig {
                    rd_duplication,
                    ..RuntimeConfig::work_stealing()
                };
                let out = pr.run(machine, cfg);
                let extra = (0..KERNELS)
                    .map(|k| {
                        let from = format!("iter0:K{}", k + 1);
                        let to = if k + 1 == KERNELS {
                            "iter0:end".to_string()
                        } else {
                            format!("iter0:K{}", k + 2)
                        };
                        out.report.span(&from, &to)
                    })
                    .collect();
                Outcome {
                    extra,
                    ..Outcome::of(&out.report, out.verified)
                }
            })
        })
        .collect()
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&["config", "K1", "K2", "K3", "K4", "K5", "K6", "total"]);
    for r in results {
        let mut cells = vec![r.config.clone()];
        cells.extend(r.out.extra.iter().map(|s| format!("{s}")));
        cells.push(format!("{}", r.out.cycles));
        table.row(cells);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 6: PageRank (email-like, n={}) kernel times, {} cores",
        graph_size(opts.scale),
        opts.cores()
    );
    let _ = writeln!(s, "{table}");
    let _ = writeln!(
        s,
        "read-only duplication speedup: {:.2}x (paper: 1.57x at full scale)",
        results[0].out.cycles as f64 / results[1].out.cycles as f64
    );
    s
}
