//! MatrixTranspose: recursive dense out-of-place transpose
//! (dynamic-balanced; paper: recursive spawn-and-sync, no static
//! baseline — without a dynamic runtime it serializes on one core).
//!
//! Cache-oblivious quadtree recursion: split the larger dimension with
//! `parallel_invoke` until the block is below the grain, then copy
//! `B[j][i] = A[i][j]` element-wise. Memory-intensive with perfect
//! balance, so its scalability is bandwidth-limited (paper Fig. 11).

use crate::gen::device::{read_f32_slice, upload_f32};
use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Addr, Mosaic, RuntimeConfig, TaskCtx};
use mosaic_sim::MachineConfig;

/// Elements per leaf block.
pub const GRAIN: u32 = 64;

/// A transpose instance: `n x n` f32.
#[derive(Debug, Clone, Copy)]
pub struct MatTrans {
    /// Matrix dimension.
    pub n: u32,
    /// Input seed.
    pub seed: u64,
}

#[allow(
    clippy::too_many_arguments,
    reason = "tile coordinates ride the recursion explicitly"
)]
fn transpose_rec(
    ctx: &mut TaskCtx<'_>,
    src: Addr,
    dst: Addr,
    n: u32,
    r0: u32,
    r1: u32,
    c0: u32,
    c1: u32,
) {
    let rows = r1 - r0;
    let cols = c1 - c0;
    if rows * cols <= GRAIN {
        for i in r0..r1 {
            for j in c0..c1 {
                let v = ctx.loadf(src.offset_words((i * n + j) as u64));
                ctx.storef(dst.offset_words((j * n + i) as u64), v);
                ctx.compute(2, 2);
            }
        }
        return;
    }
    if rows >= cols {
        let rm = r0 + rows / 2;
        ctx.parallel_invoke(
            move |ctx| transpose_rec(ctx, src, dst, n, r0, rm, c0, c1),
            move |ctx| transpose_rec(ctx, src, dst, n, rm, r1, c0, c1),
        );
    } else {
        let cm = c0 + cols / 2;
        ctx.parallel_invoke(
            move |ctx| transpose_rec(ctx, src, dst, n, r0, r1, c0, cm),
            move |ctx| transpose_rec(ctx, src, dst, n, r0, r1, cm, c1),
        );
    }
}

impl MatTrans {
    /// Deterministic input.
    pub fn input(&self) -> Vec<f32> {
        (0..(self.n * self.n) as u64)
            .map(|i| crate::gen::hash_f32(self.seed, i))
            .collect()
    }

    /// Host reference.
    pub fn reference(a: &[f32], n: u32) -> Vec<f32> {
        let n = n as usize;
        let mut b = vec![0.0f32; n * n];
        for i in 0..n {
            for j in 0..n {
                b[j * n + i] = a[i * n + j];
            }
        }
        b
    }
}

impl Benchmark for MatTrans {
    fn name(&self) -> String {
        format!("MatTrans-{}", self.n)
    }

    fn category(&self) -> Category {
        Category::DynamicBalanced
    }

    fn has_static_baseline(&self) -> bool {
        false
    }

    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let mut sys = Mosaic::new(machine, runtime);
        let a = self.input();
        let da = upload_f32(sys.machine_mut(), &a);
        let db = sys.machine_mut().dram_alloc_words((self.n * self.n) as u64);
        let n = self.n;
        let report = sys.run(move |ctx| transpose_rec(ctx, da, db, n, 0, n, 0, n));
        let got = read_f32_slice(&report.machine, db, (n * n) as usize);
        RunOutcome {
            verified: got == Self::reference(&a, n),
            report,
        }
    }
}

/// Fig. 10 instances (paper: 512 and 1024).
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let sizes: &[u32] = match scale {
        Scale::Tiny => &[24],
        Scale::Small => &[64, 128],
        Scale::Full => &[128, 256],
    };
    sizes
        .iter()
        .map(|&n| Box::new(MatTrans { n, seed: 0x7A }) as Box<dyn Benchmark>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_transposes() {
        let a = vec![1.0, 2.0, 3.0, 4.0];
        assert_eq!(MatTrans::reference(&a, 2), vec![1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn simulated_transpose_verifies() {
        let t = MatTrans { n: 24, seed: 7 };
        let out = t.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        assert!(out.report.totals().spawns > 0, "must actually fork");
    }
}
