//! Regenerate **Figure 9**: speedup of every configuration over the
//! static-scheduler-with-SPM-stack baseline, for all workloads that
//! have a static baseline.
//!
//! The paper's headline: work-stealing gives 1.2-28.5x on workloads
//! that benefit and costs no more than ~10% on those that don't, and
//! the SPM data-placement optimizations add up to ~25% more.

use super::table1::{sweep_cells, sweep_rows};
use crate::sweep::{Cell, CellResult};
use crate::{Options, Table};
use mosaic_runtime::RuntimeConfig;
use std::fmt::Write as _;

pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    eprintln!(
        "Fig. 9 sweep: scale {:?}, {} cores",
        opts.scale,
        opts.cores()
    );
    sweep_cells(opts)
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let configs: Vec<&str> = RuntimeConfig::table1_sweep()
        .iter()
        .map(|(l, _)| *l)
        .collect();
    let mut header = vec!["workload"];
    header.extend(configs.iter().copied());
    let mut table = Table::new(&header);
    for row in sweep_rows(opts, results)
        .iter()
        .filter(|r| r.has_static_baseline)
    {
        let base = row
            .static_baseline_cycles()
            .expect("baseline must exist for rows with a static scheduler");
        let mut cells = vec![row.name.clone()];
        for c in &configs {
            match row.cycles_of(c) {
                Some(cy) => cells.push(format!("{:.2}", base as f64 / cy as f64)),
                None => cells.push("-".into()),
            }
        }
        table.row(cells);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Fig. 9: speedup over static/spm-stack (higher is better)"
    );
    let _ = writeln!(s, "{table}");
    s
}
