//! `profile` — drive the `mosaic-prof` cycle-attribution profiler and
//! retell the paper's Fig. 5 hot-spot story from profiler counters
//! alone: one steal-heavy PageRank iteration runs twice, with
//! read-only data duplication off and on, and the per-core NoC traffic
//! heatmap shows the spawning core's router collapsing from the
//! machine hot-spot to an ordinary node once captured state is
//! duplicated.
//!
//! Also the reference consumer for the profiler's invariants, checked
//! on every run:
//!
//! - per-core bucket totals sum *exactly* to each core's elapsed
//!   cycles (no unattributed or double-counted time);
//! - steal-search cycles are nonzero under work-stealing;
//! - the spawning core's share of core-incident NoC flits drops when
//!   duplication is turned on.
//!
//! `--write-golden`/`--check-golden` gate the bucket totals and
//! traffic counters exactly (the simulator is bit-deterministic);
//! `--prof-out DIR` additionally writes one profile JSON per config,
//! as on every harness (see `docs/observability.md` for the schema).

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::{Bucket, MachineProfile};
use mosaic_workloads::pagerank::{GraphKind, PageRank};
use mosaic_workloads::{Benchmark, Scale};
use std::fmt::Write as _;

fn graph_size(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 1024,
        Scale::Small => 8192,
        Scale::Full => 16384,
    }
}

/// Fraction (percent) of all core-incident inbound flits that land on
/// `core`.
fn inbound_share_pct(p: &MachineProfile, core: usize) -> f64 {
    let all: u64 = p.core_inbound_flits.iter().sum();
    100.0 * p.core_inbound_flits[core] as f64 / all.max(1) as f64
}

fn profile_of(r: &CellResult) -> &MachineProfile {
    r.out.profile.as_ref().expect("profiler was enabled")
}

/// One cell per duplication setting, always profiled; the bucket
/// totals and traffic counters are gated in the golden file.
pub(super) fn cells(opts: &Options) -> Vec<Cell> {
    let n = graph_size(opts.scale);
    [("dup-off", false), ("dup-on", true)]
        .into_iter()
        .map(|(label, rd_duplication)| {
            Cell::new(format!("PageRank-pl({n})"), label, move |mut machine| {
                // The profiler is always on in this experiment;
                // `--profile` on the shared CLI exists for every
                // *other* one.
                machine.profile = true;
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
                let p = out.report.profile.as_ref().expect("profiler was enabled");
                let totals = p.totals();
                let mut counters: Vec<(String, u64)> = Bucket::ALL
                    .iter()
                    .map(|b| (format!("{label}/{}", b.name()), totals[b.index()]))
                    .collect();
                counters.push((
                    format!("{label}/core0_inbound_flits"),
                    p.core_inbound_flits[0],
                ));
                counters.push((format!("{label}/total_link_flits"), p.total_link_flits));
                Outcome {
                    counters,
                    ..Outcome::of(&out.report, out.verified)
                }
            })
        })
        .collect()
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&[
        "config",
        "cycles",
        "compute%",
        "steal%",
        "idle%",
        "core0 in%",
    ]);
    for r in results {
        let p = profile_of(r);
        // Invariant: attribution is span-complete on every core.
        if let Some((core, attributed, elapsed)) = p.accounting_error() {
            panic!(
                "profile accounting FAILED ({}): core {core} attributed \
                 {attributed} of {elapsed} elapsed cycles",
                r.config
            );
        }
        let totals = p.totals();
        let all: u64 = totals.iter().sum::<u64>().max(1);
        let pct = |b: Bucket| 100.0 * totals[b.index()] as f64 / all as f64;
        table.row(vec![
            r.config.clone(),
            format!("{}", r.out.cycles),
            format!("{:.1}", pct(Bucket::Compute)),
            format!("{:.1}", pct(Bucket::StealSearch)),
            format!("{:.1}", pct(Bucket::Idle)),
            format!("{:.1}", inbound_share_pct(p, 0)),
        ]);
    }

    let mut s = String::new();
    let _ = writeln!(
        s,
        "profile: PageRank (power-law, n={}) under work-stealing, {} cores, profiler attached",
        graph_size(opts.scale),
        opts.cores()
    );
    let _ = writeln!(s, "{table}");
    for r in results {
        let (label, p) = (&r.config, profile_of(r));
        let _ = writeln!(s, "[{label}] cycles by bucket:");
        s.push_str(&p.render_totals());
        let _ = writeln!(
            s,
            "[{label}] core-inbound NoC flits (row-major heatmap, 1.00 = hottest core):"
        );
        s.push_str(&p.render_inbound_heatmap());
        let _ = write!(s, "[{label}]{}", p.render_llc_banks());
        let _ = writeln!(s);
    }

    let (off, on) = (profile_of(&results[0]), profile_of(&results[1]));
    assert!(
        off.bucket_total(Bucket::StealSearch) > 0,
        "work-stealing run must spend cycles in steal search"
    );
    let share_off = inbound_share_pct(off, 0);
    let share_on = inbound_share_pct(on, 0);
    let _ = writeln!(
        s,
        "spawning core's share of core-incident inbound flits: {share_off:.1}% without \
         duplication -> {share_on:.1}% with it (Fig. 5 hot-spot, from profiler counters alone)"
    );
    assert!(
        share_on < share_off,
        "read-only duplication must shrink the spawning core's NoC hot-spot \
         ({share_off:.1}% -> {share_on:.1}%)"
    );
    s
}
