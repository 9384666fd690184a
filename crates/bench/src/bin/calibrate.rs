//! Calibrate the analytic backend against the cycle-accurate engine.
//!
//! Runs every (workload, config) family of the Table-1 sweep through
//! **both** backends across a three-shape mesh grid — the base shape
//! (`--cols x --rows`, default 4x2) where the family's traffic demand
//! is measured under the profiler, plus the doubled and quadrupled
//! shapes (8x4, 16x8). A single measured shape cannot identify a
//! workload's critical path (any span between `T - W/P` and `T` is
//! consistent with it), so calibration fits a per-family work/span
//! decomposition from the grid — the span split anchored on the outer
//! shapes, the distance exponent chosen by minimax residual — and
//! fits one multiplicative correction on top. The worst residual
//! relative error after correction is recorded per family.
//!
//! The result is `results/model/calibration.json`, a golden-style
//! artifact: byte-reproducible, committed, and regenerated + diffed by
//! the `model-smoke` CI job. The run **hard-fails** when any family's
//! residual exceeds the acceptance bound (10%), so a model regression
//! cannot be blessed into the artifact.
//!
//! Modes mirror the golden flags: plain run prints the fit, `--write-
//! golden` blesses the artifact, `--check-golden` diffs against the
//! committed bytes and exits 1 on drift.

use mosaic_bench::{experiment, run_cells, Options, Table, CALIBRATION_PATH, CATALOG};
use mosaic_model::{
    AnalyticModel, CalFamily, CalPoint, CalibrationTable, MachineParams, WorkloadDemand, PPM,
};
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::{demand_from_profile, machine_params, MachineConfig};
use mosaic_workloads::Scale;

/// Acceptance bound on every family's residual: 10% relative error.
const BOUND_PPM: u64 = 100_000;

/// Raw analytic estimate for `demand` with its span terms replaced,
/// at one mesh shape (pre-resolved [`MachineParams`] — resolving them
/// from a `MachineConfig` builds the whole mesh, far too heavy for
/// the fit's inner loop).
fn estimate_with_spans(demand: &WorkloadDemand, fit: &SpanFit, params: &MachineParams) -> u64 {
    let mut d = demand.clone();
    d.span = fit.span;
    d.span_hop = fit.span_hop;
    d.span_hop_exp2 = fit.span_hop_exp2;
    AnalyticModel::new(params.clone()).estimate(&d).cycles
}

/// A candidate critical-path decomposition: shape-independent span,
/// distance-dependent span, and the distance exponent (half units).
#[derive(Debug, Clone, Copy)]
struct SpanFit {
    span: u64,
    span_hop: u64,
    span_hop_exp2: u64,
}

/// Post-correction minimax residual (in ppm) of a candidate span
/// decomposition across the whole grid — the quantity the fit
/// minimizes and the table records.
fn residual_ppm(
    demand: &WorkloadDemand,
    grid: &[((u16, u16), MachineParams)],
    measured: &[u64],
    fit: &SpanFit,
) -> u64 {
    let mut family = CalFamily {
        workload: String::new(),
        config: String::new(),
        scale: String::new(),
        demand: demand.clone(),
        points: grid
            .iter()
            .zip(measured)
            .map(|(((c, r), params), &m)| CalPoint {
                cols: *c as u64,
                rows: *r as u64,
                measured: m,
                estimated: estimate_with_spans(demand, fit, params),
            })
            .collect(),
        correction_ppm: PPM,
        max_err_ppm: 0,
    };
    family.fit();
    family.max_err_ppm
}

/// Fit span, span_hop, *and* the distance exponent against the grid.
///
/// Neither span component is observable from one profiled run (any
/// split of the non-busy slack is consistent with it), and families
/// differ in how sharply their critical path degrades with mesh
/// diameter (near-linear for serialized launch loops, super-linear
/// when coordination both lengthens and slows). So calibration
/// searches: for each candidate half-step exponent in 0.5x..4.0x, a
/// deterministic coarse-to-fine integer grid search over
/// (span, span_hop) minimizes the post-correction minimax residual
/// across all grid shapes, and the exponent keeping the smallest
/// residual wins. Ties keep the earlier (smaller) candidate, so the
/// result is bit-stable.
fn fit_spans(
    demand: &WorkloadDemand,
    grid: &[((u16, u16), MachineParams)],
    measured: &[u64],
) -> SpanFit {
    let m_s = measured[0];
    let m_l = *measured.last().expect("grid has measurements");
    let mut best: Option<(u64, SpanFit)> = None;
    for exp2 in 1..=8 {
        // Coarse-to-fine search over the physical range: neither the
        // shape-independent span nor the doubled-mesh distance charge
        // (which is what span_hop is, whatever the exponent) can
        // exceed the elapsed time measured at those scales.
        let (mut s_lo, mut s_hi) = (0u64, m_s.max(1));
        let (mut h_lo, mut h_hi) = (0u64, m_l.max(1));
        let mut local: Option<(u64, u64, u64)> = None;
        for _round in 0..4 {
            let s_step = ((s_hi - s_lo) / 16).max(1);
            let h_step = ((h_hi - h_lo) / 16).max(1);
            local = None;
            for si in 0..=16u64 {
                for hi in 0..=16u64 {
                    let cand = SpanFit {
                        span: s_lo + s_step * si,
                        span_hop: h_lo + h_step * hi,
                        span_hop_exp2: exp2,
                    };
                    let err = residual_ppm(demand, grid, measured, &cand);
                    if local.is_none() || err < local.expect("some").0 {
                        local = Some((err, cand.span, cand.span_hop));
                    }
                }
            }
            let (_, bs, bh) = local.expect("grid search is nonempty");
            s_lo = bs.saturating_sub(s_step);
            s_hi = bs + s_step;
            h_lo = bh.saturating_sub(h_step);
            h_hi = bh + h_step;
        }
        let (err, span, span_hop) = local.expect("grid search is nonempty");
        let better = match best {
            None => true,
            Some((e, _)) => err < e,
        };
        if better {
            best = Some((
                err,
                SpanFit {
                    span,
                    span_hop,
                    span_hop_exp2: exp2,
                },
            ));
        }
    }
    best.expect("candidate exponents are nonempty").1
}

fn main() {
    let opts = Options::parse(Scale::Tiny, 4, 2);
    experiment::refuse_unsupported("calibrate", false, false, &opts)
        .unwrap_or_else(|e| panic!("{e}"));
    let shapes = [
        (opts.cols, opts.rows),
        (opts.cols * 2, opts.rows * 2),
        (opts.cols * 4, opts.rows * 4),
    ];
    eprintln!(
        "calibrate: scale {}, grid {}x{} (measure) + {}x{} (validate) + {}x{} (fit span)",
        opts.scale.name(),
        shapes[0].0,
        shapes[0].1,
        shapes[1].0,
        shapes[1].1,
        shapes[2].0,
        shapes[2].1
    );

    let benches = mosaic_workloads::table1_benchmarks(opts.scale);
    let configs = RuntimeConfig::table1_sweep();
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        for (ci, (label, _)) in configs.iter().enumerate() {
            if label.starts_with("static") && !b.has_static_baseline() {
                continue;
            }
            cells.push((bi, ci));
        }
    }

    // Run every (cell, shape) pair cycle-accurately; the base shape
    // carries the profiler so the family's demand can be extracted.
    let total = cells.len() * shapes.len();
    let mut measured: Vec<(u64, Option<WorkloadDemand>)> = Vec::with_capacity(total);
    run_cells(
        total,
        opts.effective_jobs(total),
        |i| {
            let (bi, ci) = cells[i / shapes.len()];
            let (c, r) = shapes[i % shapes.len()];
            let mut m = MachineConfig::small(c, r);
            m.profile = i % shapes.len() == 0;
            let out = benches[bi].run(m, configs[ci].1.clone());
            assert!(
                out.verified,
                "{} / {} failed verification during calibration",
                benches[bi].name(),
                configs[ci].0
            );
            let demand = out
                .report
                .profile
                .as_ref()
                .map(|p| demand_from_profile(p, &out.report.counters, out.report.cycles));
            (out.report.cycles, demand)
        },
        |i, r| {
            eprintln!(
                "  {:<18} {:<22} {:>2}x{:<2} {:>10} cycles",
                benches[cells[i / shapes.len()].0].name(),
                configs[cells[i / shapes.len()].1].0,
                shapes[i % shapes.len()].0,
                shapes[i % shapes.len()].1,
                r.0
            );
            measured.push(r);
        },
    );

    // Fit: critical-path decomposition from the scaling grid, then
    // estimate every shape from the fitted base demand alone.
    let grid: Vec<((u16, u16), MachineParams)> = shapes
        .iter()
        .map(|&(c, r)| ((c, r), machine_params(&MachineConfig::small(c, r))))
        .collect();
    let mut table = CalibrationTable::new(BOUND_PPM);
    for (cell_i, &(bi, ci)) in cells.iter().enumerate() {
        let mut demand = measured[cell_i * shapes.len()]
            .1
            .clone()
            .expect("base-shape run was profiled");
        let cycles: Vec<u64> = (0..shapes.len())
            .map(|si| measured[cell_i * shapes.len() + si].0)
            .collect();
        let fit = fit_spans(&demand, &grid, &cycles);
        demand.span = fit.span;
        demand.span_hop = fit.span_hop;
        demand.span_hop_exp2 = fit.span_hop_exp2;
        let points: Vec<CalPoint> = grid
            .iter()
            .zip(&cycles)
            .map(|(((c, r), params), &m)| CalPoint {
                cols: *c as u64,
                rows: *r as u64,
                measured: m,
                estimated: estimate_with_spans(&demand, &fit, params),
            })
            .collect();
        eprintln!(
            "  fit {:<18} {:<22} span {:>8} hop {:>8} exp2 {} est {:?} meas {:?}",
            benches[bi].name(),
            configs[ci].0,
            fit.span,
            fit.span_hop,
            fit.span_hop_exp2,
            points.iter().map(|p| p.estimated).collect::<Vec<_>>(),
            cycles
        );
        table.families.push(CalFamily {
            workload: benches[bi].name(),
            config: configs[ci].0.to_string(),
            scale: opts.scale.name().to_string(),
            demand,
            points,
            correction_ppm: PPM,
            max_err_ppm: 0,
        });
    }
    table.fit();
    // Every analytic-capable experiment draws from every family of
    // this scale.
    for exp in CATALOG.iter().filter(|e| e.analytic) {
        table.bind_experiment(exp.name, opts.scale.name());
    }

    let mut summary = Table::new(&["workload", "config", "correction", "max err"]);
    for f in &table.families {
        summary.row(vec![
            f.workload.clone(),
            f.config.clone(),
            format!("{:.3}x", f.correction_ppm as f64 / PPM as f64),
            format!("{:.2}%", f.max_err_ppm as f64 / 10_000.0),
        ]);
    }
    println!("{summary}");
    for e in &table.experiments {
        println!(
            "experiment {} @ {}: calibrated to {:.2}% worst-case error",
            e.experiment,
            e.scale,
            e.max_err_ppm as f64 / 10_000.0
        );
    }

    let violations = table.violations();
    if !violations.is_empty() {
        eprintln!("calibration FAILED the {BOUND_PPM}ppm acceptance bound:");
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }

    let path = opts
        .golden_dir
        .clone()
        .map(|d| d.join("calibration.json"))
        .unwrap_or_else(|| std::path::PathBuf::from(CALIBRATION_PATH));
    let fresh = table.render();
    match opts.golden {
        mosaic_bench::GoldenMode::Run => {
            eprintln!(
                "calibration ok ({} families); not written (use --write-golden)",
                table.families.len()
            );
        }
        mosaic_bench::GoldenMode::Write => {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir).expect("create calibration dir");
            }
            std::fs::write(&path, &fresh).expect("write calibration table");
            eprintln!("blessed {}", path.display());
        }
        mosaic_bench::GoldenMode::Check => {
            let committed = std::fs::read_to_string(&path).unwrap_or_else(|e| {
                eprintln!("cannot read committed calibration {}: {e}", path.display());
                std::process::exit(1);
            });
            if committed != fresh {
                eprintln!(
                    "calibration drift against {} — regenerate with --write-golden \
                     and review the diff",
                    path.display()
                );
                std::process::exit(1);
            }
            eprintln!(
                "calibration check ok: {} families match {}",
                table.families.len(),
                path.display()
            );
        }
    }
}
