//! Run one workload with tracing enabled and export a Chrome/Perfetto
//! trace (`results/trace.json`) plus a utilization summary — visual
//! inspection of how the work-stealing schedule unfolds across the
//! mesh.
//!
//! Open the output at <https://ui.perfetto.dev> (rows = cores; "local"
//! vs "stolen" task spans are color-categorized; steal instants carry
//! flow arrows from victim to thief; user marks are flagged). With
//! `--profile`, the trace additionally carries a "cycles by bucket"
//! counter track sampled once per profiler window (see
//! `docs/observability.md`).

use crate::sweep::{Cell, CellResult, Outcome};
use crate::Options;
use mosaic_runtime::{trace, RuntimeConfig};
use mosaic_workloads::uts;

/// One cell: UTS-t3, the showcase. It writes the trace file and its
/// text is the utilization summary.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let bench = uts::instances(opts.scale).swap_remove(1);
    let name = bench.name();
    vec![Cell::new(name.clone(), "ws/trace", move |machine| {
        let cfg = RuntimeConfig {
            trace: true,
            ..RuntimeConfig::work_stealing()
        };
        let out = bench.run(machine, cfg);
        let r = &out.report;
        let json = trace::to_chrome_json_with_profile(&r.trace, r.profile.as_ref());
        std::fs::create_dir_all("results").expect("mkdir results");
        std::fs::write("results/trace.json", &json).expect("write trace");
        let t = r.totals();
        let text = format!(
            "{name}: {} cycles, {} tasks ({} stolen), mean utilization {:.0}%\n\
             wrote results/trace.json ({} events) — open in ui.perfetto.dev\n",
            r.cycles,
            t.tasks_executed,
            t.steals,
            100.0 * r.mean_utilization(),
            r.trace.len()
        );
        Outcome {
            text,
            ..Outcome::of(r, out.verified)
        }
    })]
}

pub(super) fn render(_opts: &Options, results: &[CellResult]) -> String {
    results[0].out.text.clone()
}
