//! Regenerate **Figure 11**: speedup over one core as the machine
//! grows from 1 to 128 cores, for the Fig. 11 workload set (the paper
//! omits UTS for simulation-time reasons; so do we by default — pass
//! `--scale full` to include it).
//!
//! Work-stealing with both the stack and the task queue in SPM, as in
//! the paper.

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::RuntimeConfig;
use mosaic_workloads::{
    bfs::{Bfs, BfsInput},
    cilksort::CilkSort,
    matmul::MatMul,
    mattrans::MatTrans,
    nqueens::NQueens,
    pagerank::{GraphKind, PageRank},
    spmt::SpMT,
    spmv::{MatrixKind, SpMV},
    Benchmark,
};
use std::fmt::Write as _;
use std::sync::Arc;

/// The machine shapes up to the `--cols x --rows` core budget.
fn grids(opts: &Options) -> Vec<(u16, u16)> {
    [
        (1, 1),
        (2, 1),
        (2, 2),
        (4, 2),
        (4, 4),
        (8, 4),
        (8, 8),
        (16, 8),
    ]
    .into_iter()
    .filter(|(c, r)| (*c as usize) * (*r as usize) <= opts.cores())
    .collect()
}

/// Flat (benchmark, grid) cells, benchmark-major: each runs on its own
/// mesh shape, with every harness flag applied by the driver.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    // Fixed inputs per the figure caption, scaled down.
    let benches: Vec<Arc<dyn Benchmark>> = vec![
        Arc::new(NQueens { n: 6 }),
        Arc::new(MatMul { n: 48, seed: 0xA }),
        Arc::new(CilkSort {
            n: 4096,
            seed: 0xC5,
        }),
        Arc::new(PageRank {
            n: 1024,
            kind: GraphKind::Uniform,
            iters: 1,
            seed: 0x96,
        }),
        Arc::new(SpMV {
            n: 1024,
            kind: MatrixKind::Block,
            seed: 0x51,
        }),
        Arc::new(Bfs {
            n: 1024,
            input: BfsInput::Uniform,
            source: 1,
            seed: 0xBF,
        }),
        Arc::new(MatTrans { n: 64, seed: 0x7A }),
        Arc::new(SpMT {
            n: 1024,
            kind: MatrixKind::Banded,
            seed: 0x57,
        }),
    ];
    let mut cells = Vec::new();
    for bench in benches {
        for (i, (c, r)) in grids(opts).into_iter().enumerate() {
            let name = bench.name();
            let log = if i == 0 {
                format!("scaling {name}...\n")
            } else {
                String::new()
            };
            let bench = bench.clone();
            let cores = c as usize * r as usize;
            let cell = Cell::new(name, format!("{cores}c"), move |machine| {
                let out = bench.run(machine, RuntimeConfig::work_stealing());
                Outcome {
                    log: log.clone(),
                    ..Outcome::of(&out.report, out.verified)
                }
            });
            cells.push(cell.at(c, r));
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let grids = grids(opts);
    let mut header = vec!["workload".to_string()];
    header.extend(
        grids
            .iter()
            .map(|(c, r)| format!("{}c", *c as usize * *r as usize)),
    );
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header);
    for row in results.chunks(grids.len()) {
        // The first grid is always the single core.
        let t1 = row[0].out.cycles;
        let mut cells = vec![row[0].workload.clone()];
        cells.extend(
            row.iter()
                .map(|r| format!("{:.1}", t1 as f64 / r.out.cycles as f64)),
        );
        table.row(cells);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 11: speedup over one core (work-stealing, stack+queue in SPM)"
    );
    let _ = writeln!(s, "{table}");
    s
}
