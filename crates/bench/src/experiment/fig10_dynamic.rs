//! Regenerate **Figure 10**: CilkSort and MatrixTranspose (the
//! spawn-and-sync workloads with no static baseline) across the four
//! work-stealing variants, normalized to both-stack-and-queue-in-SPM
//! as in the paper (note the paper's X axis starts at 0.5).

use super::fig07_fib_microbench::ws_configs;
use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_workloads::{cilksort, mattrans, Benchmark};
use std::fmt::Write as _;
use std::sync::Arc;

pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let mut benches = mattrans::instances(opts.scale);
    benches.extend(cilksort::instances(opts.scale));
    let mut cells = Vec::new();
    for bench in benches {
        let bench: Arc<dyn Benchmark> = Arc::from(bench);
        for (label, cfg) in ws_configs() {
            let bench = bench.clone();
            cells.push(Cell::new(bench.name(), label, move |machine| {
                let out = bench.run(machine, cfg.clone());
                Outcome::of(&out.report, out.verified)
            }));
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let configs = ws_configs();
    let mut header = vec!["workload"];
    header.extend(configs.iter().map(|(l, _)| *l));
    let mut table = Table::new(&header);
    for row in results.chunks(configs.len()) {
        // ws/spm-stack/spm-q is last in sweep order.
        let best = row[configs.len() - 1].out.cycles;
        let mut cells = vec![row[0].workload.clone()];
        cells.extend(
            row.iter()
                .map(|r| format!("{:.2}", best as f64 / r.out.cycles as f64)),
        );
        table.row(cells);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 10: speedup normalized to ws/spm-stack/spm-q, {} cores",
        opts.cores()
    );
    let _ = writeln!(s, "{table}");
    s
}
