//! Regenerate **Figure 5**: normalized remote-scratchpad load latency
//! of every core toward core 0 on the mesh, while all cores load from
//! core 0's SPM simultaneously — the congestion pattern that motivated
//! read-only data duplication (X-Y routing makes Y-bandwidth toward
//! the hot node the scarce resource).

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, SanCell};
use mosaic_mesh::TrafficMatrix;
use mosaic_sim::{Engine, Machine, MachineConfig};
use std::fmt::Write as _;

pub(super) fn cells(_opts: &Options) -> Vec<Cell> {
    vec![Cell::new("hotspot-probe", "all-to-one", probe)]
}

/// The one cell: its text is the whole figure, and it verifies when
/// the paper's qualitative claim holds quantitatively — farther rows
/// see longer latency (Y-bandwidth scarcity).
fn probe(cfg: MachineConfig) -> Outcome {
    let (cols, rows) = (cfg.cols as usize, cfg.rows as usize);
    let mut machine = Machine::new(cfg);
    machine.enable_latency_probe();
    let map = machine.addr_map().clone();
    let loads_per_core = 200u32;

    let mut report = Engine::run(machine, move |core| {
        let map = map.clone();
        Box::new(move |api| {
            if core == 0 {
                // The victim: sit still while everyone reads our SPM.
                api.charge(1, 20_000);
                return;
            }
            let target = map.spm_addr(0, ((core as u32 * 4) % 1024) & !3);
            for i in 0..loads_per_core {
                api.load(target);
                // Think time between remote reads (the profiled kernels
                // do real work between captured-state loads); keeps the
                // hot SPM port just below saturation so latency reflects
                // position rather than one global FCFS queue.
                api.charge(8, 170 + (core as u64 * 7 + i as u64 * 3) % 61);
            }
        })
    });

    let sanitizer = SanCell::from_report(report.machine.take_sanitizer_report().as_ref());
    let profile = report.machine.take_profile();
    let probe = report
        .machine
        .latency_probe()
        .expect("latency probe enabled");
    let col = probe.normalized_column(0);
    let bottom_mean: f64 = col[(rows - 1) * cols..].iter().sum::<f64>() / cols as f64;
    let top_mean: f64 = col[1..cols].iter().sum::<f64>() / (cols - 1) as f64;

    let mut text = String::new();
    let _ = writeln!(
        text,
        "Fig. 5: remote-SPM load latency toward core 0, normalized to the slowest core"
    );
    let _ = writeln!(
        text,
        "(grid = {cols} cols x {rows} rows of cores; core 0 at the top-left)"
    );
    text.push_str(&TrafficMatrix::render_grid(
        &col,
        report.machine.mesh().config(),
    ));
    let _ = writeln!(
        text,
        "\nmean normalized latency: top row {top_mean:.2} vs bottom row {bottom_mean:.2}"
    );
    Outcome {
        cycles: report.cycles,
        instructions: report.instructions(),
        verified: bottom_mean > top_mean,
        sanitizer,
        profile,
        text,
        ..Outcome::default()
    }
}

pub(super) fn render(_opts: &Options, results: &[CellResult]) -> String {
    results[0].out.text.clone()
}
