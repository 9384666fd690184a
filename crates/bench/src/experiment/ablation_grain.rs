//! Ablation: `parallel_for` grain size. Too fine pays task overhead;
//! too coarse recreates static imbalance (hub rows stuck in one leaf).

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, Table};
use mosaic_runtime::{Mosaic, RuntimeConfig};
use mosaic_workloads::gen::{graph, upload_csr, upload_f32};
use mosaic_workloads::spmv::MatrixKind;
use std::fmt::Write as _;
use std::sync::Arc;

const ROWS: u32 = 1024;

/// One SpMV per grain over one shared matrix; `extra` = [spawns,
/// steals].
pub(super) fn cells(_opts: &Options) -> Vec<Cell> {
    let m = Arc::new(MatrixKind::PowerLaw.generate(ROWS, 0x51));
    let n = m.n;
    let vals: Arc<Vec<f32>> = Arc::new(
        (0..m.nnz())
            .map(|k| graph::value_of(0x51, k as u64))
            .collect(),
    );
    let x: Arc<Vec<f32>> = Arc::new((0..n).map(|i| i as f32 / n as f32).collect());

    [1u32, 2, 4, 8, 16, 32, 64, 128]
        .into_iter()
        .map(|grain| {
            let (m, vals, x) = (m.clone(), vals.clone(), x.clone());
            Cell::new(
                format!("SpMV-pl({n})"),
                format!("grain-{grain}"),
                move |machine| {
                    let mut sys = Mosaic::new(machine, RuntimeConfig::work_stealing());
                    let d = upload_csr(sys.machine_mut(), &m);
                    let dv = upload_f32(sys.machine_mut(), &vals);
                    let dx = upload_f32(sys.machine_mut(), &x);
                    let dy = sys.machine_mut().dram_alloc_words(n as u64);
                    let report = sys.run(move |ctx| {
                        ctx.parallel_for(0, n, grain, 5, move |ctx, i| {
                            let s = ctx.load(d.row_ptr.offset_words(i as u64));
                            let e = ctx.load(d.row_ptr.offset_words(i as u64 + 1));
                            let mut acc = 0.0f32;
                            for k in s..e {
                                let c = ctx.load(d.col.offset_words(k as u64));
                                let v = ctx.loadf(dv.offset_words(k as u64));
                                let xv = ctx.loadf(dx.offset_words(c as u64));
                                acc += v * xv;
                                ctx.compute(3, 2);
                            }
                            ctx.storef(dy.offset_words(i as u64), acc);
                        });
                    });
                    let t = report.totals();
                    Outcome {
                        extra: vec![t.spawns, t.steals],
                        ..Outcome::of(&report, true)
                    }
                },
            )
        })
        .collect()
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&["grain", "cycles", "spawns", "steals"]);
    for r in results {
        table.row(vec![
            r.config.trim_start_matches("grain-").to_string(),
            format!("{}", r.out.cycles),
            format!("{}", r.out.extra[0]),
            format!("{}", r.out.extra[1]),
        ]);
    }
    let mut s = String::new();
    let _ = writeln!(
        s,
        "Grain ablation: SpMV (email-like, n={ROWS}) on {} cores",
        opts.cores()
    );
    let _ = writeln!(s, "{table}");
    s
}
