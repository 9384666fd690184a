//! Regenerate **Table 1**: dynamic instruction counts (DI, millions)
//! and simulated cycles (C, thousands) for every workload/input across
//! the six runtime configurations.
//!
//! Absolute magnitudes differ from the paper (scaled-down inputs on a
//! software model); the columns' *relative* structure is the result.

use crate::sweep::{self, Cell, CellResult, SweepRow};
use crate::{Options, Table};
use mosaic_runtime::RuntimeConfig;
use std::fmt::Write as _;

/// The Table-1 grid under `opts`: the cells `table1` and
/// `fig09_speedup` both run (they differ only in rendering).
pub(super) fn sweep_cells(opts: &Options) -> Vec<Cell> {
    sweep::table1_cells(
        sweep::table1_benches(opts.scale, &opts.workload),
        opts.backend(),
        opts.scale.name(),
    )
}

/// The results of [`sweep_cells`], one row per benchmark.
pub(super) fn sweep_rows<'a>(opts: &Options, results: &'a [CellResult]) -> Vec<SweepRow<'a>> {
    sweep::table1_rows(&sweep::table1_benches(opts.scale, &opts.workload), results)
}

pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    eprintln!(
        "Table 1 sweep: scale {:?}, {} cores ({}x{})",
        opts.scale,
        opts.cores(),
        opts.cols,
        opts.rows
    );
    sweep_cells(opts)
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let configs = RuntimeConfig::table1_sweep();
    let mut header = vec!["Cat".to_string(), "Name".to_string()];
    for (c, _) in &configs {
        header.push(format!("{c} DI(K)"));
        header.push(format!("{c} C(K)"));
    }
    let header: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header);
    for row in sweep_rows(opts, results) {
        let mut cells = vec![row.category.to_string(), row.name.clone()];
        for r in &row.results {
            match r {
                Some(r) => {
                    cells.push(format!("{}", r.out.instructions / 1000));
                    cells.push(format!("{}", r.out.cycles / 1000));
                }
                None => {
                    cells.push("-".into());
                    cells.push("-".into());
                }
            }
        }
        table.row(cells);
    }
    let mut s = String::new();
    let _ = writeln!(s, "{table}");
    let _ = writeln!(
        s,
        "verification: {}",
        if results.iter().all(|r| r.out.verified) {
            "all runs match host references"
        } else {
            "SOME RUNS FAILED"
        }
    );
    s
}
