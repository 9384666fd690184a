//! MatMul: tiled dense matrix multiplication (static-balanced).
//!
//! The paper's only workload that uses the SPM in *user* code: it
//! reserves a 3 KB scratchpad buffer per core and multiplies C = A x B
//! with a single `parallel_for` over output tiles. Each task streams
//! T x T blocks of A and B from DRAM through the SPM buffer and
//! accumulates a C tile locally — high arithmetic intensity, no
//! inherent load imbalance. The paper still observes up to 25% gain
//! from work-stealing on the 512-input because NoC position makes
//! memory latency non-uniform; the same effect exists in this model.

use crate::gen::device::{read_f32_slice, upload_f32};
use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Mosaic, RuntimeConfig};
use mosaic_sim::MachineConfig;

/// Tile edge (words). A 3 KB buffer holds three T x T f32 tiles with
/// room to spare for T = 8 (3 * 256 B), matching the paper's 3 KB
/// `spm_malloc`.
pub const TILE: u32 = 8;

/// Bytes of SPM MatMul reserves for its tile buffer.
pub const SPM_RESERVE: u32 = 3072;

/// A MatMul instance: `n x n` f32 matrices.
#[derive(Debug, Clone, Copy)]
pub struct MatMul {
    /// Matrix dimension (multiple of [`TILE`]).
    pub n: u32,
    /// Input seed.
    pub seed: u64,
}

impl MatMul {
    /// Deterministic input matrices.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: one subtraction per element, no accumulation"
    )]
    pub fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.n as usize;
        let a = (0..n * n)
            .map(|i| crate::gen::hash_f32(self.seed, i as u64) - 0.5)
            .collect();
        let b = (0..n * n)
            .map(|i| crate::gen::hash_f32(self.seed ^ 0xb, i as u64) - 0.5)
            .collect();
        (a, b)
    }

    /// Host reference with the same blocked accumulation order as the
    /// kernel (bitwise-reproducible f32).
    #[expect(
        clippy::float_arithmetic,
        reason = "order: mirrors the kernel's blocked kb, i, j, k accumulation, so the results compare bitwise"
    )]
    pub fn reference(&self, a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = self.n as usize;
        let t = TILE as usize;
        let mut c = vec![0.0f32; n * n];
        for ti in 0..n / t {
            for tj in 0..n / t {
                let mut acc = vec![0.0f32; t * t];
                for kb in 0..n / t {
                    for i in 0..t {
                        for j in 0..t {
                            for k in 0..t {
                                acc[i * t + j] += a[(ti * t + i) * n + kb * t + k]
                                    * b[(kb * t + k) * n + tj * t + j];
                            }
                        }
                    }
                }
                for i in 0..t {
                    for j in 0..t {
                        c[(ti * t + i) * n + tj * t + j] = acc[i * t + j];
                    }
                }
            }
        }
        c
    }
}

impl Benchmark for MatMul {
    fn name(&self) -> String {
        format!("MatMul-{}", self.n)
    }

    fn category(&self) -> Category {
        Category::StaticBalanced
    }

    #[expect(
        clippy::float_arithmetic,
        reason = "order: each task accumulates its own output tile in fixed kb, k order; no partial crosses tasks"
    )]
    fn run(&self, machine: MachineConfig, mut runtime: RuntimeConfig) -> RunOutcome {
        assert!(
            self.n.is_multiple_of(TILE),
            "n must be a multiple of the tile size"
        );
        runtime.spm_user_reserve = SPM_RESERVE;
        let mut sys = Mosaic::new(machine, runtime);
        let (a, b) = self.inputs();
        let da = upload_f32(sys.machine_mut(), &a);
        let db = upload_f32(sys.machine_mut(), &b);
        let dc = sys.machine_mut().dram_alloc_words((self.n * self.n) as u64);
        let n = self.n;
        let nt = n / TILE;

        let report = sys.run(move |ctx| {
            let t = TILE;
            // One task per output tile; captures: a, b, c, n => 4 words.
            ctx.parallel_for(0, nt * nt, 1, 4, move |ctx, tidx| {
                let (ti, tj) = (tidx / nt, tidx % nt);
                let (_spm_buf, spm_bytes) = ctx.spm_user_region();
                debug_assert!(spm_bytes >= 3 * t * t * 4);
                let ts = t as usize;
                let mut acc = vec![0.0f32; ts * ts];
                let mut at = vec![0.0f32; ts * ts];
                let mut bt = vec![0.0f32; ts * ts];
                for kb in 0..nt {
                    // Stream the A and B tiles from DRAM into the SPM
                    // buffer (the DRAM loads dominate; the SPM copy is
                    // a store per word at local latency).
                    for i in 0..t {
                        for k in 0..t {
                            let v =
                                ctx.loadf(da.offset_words(((ti * t + i) * n + kb * t + k) as u64));
                            at[(i * t + k) as usize] = v;
                        }
                    }
                    for k in 0..t {
                        for j in 0..t {
                            let v =
                                ctx.loadf(db.offset_words(((kb * t + k) * n + tj * t + j) as u64));
                            bt[(k * t + j) as usize] = v;
                        }
                    }
                    // SPM buffer fills: 2*T*T local stores.
                    ctx.compute((2 * t * t) as u64, (2 * t * t * 2) as u64);
                    // T^3 fused multiply-adds reading the SPM tiles.
                    for i in 0..ts {
                        for j in 0..ts {
                            for k in 0..ts {
                                acc[i * ts + j] += at[i * ts + k] * bt[k * ts + j];
                            }
                        }
                    }
                    let flops = (t * t * t) as u64;
                    ctx.compute(4 * flops, 3 * flops);
                }
                for i in 0..t {
                    for j in 0..t {
                        ctx.storef(
                            dc.offset_words(((ti * t + i) * n + tj * t + j) as u64),
                            acc[(i * t + j) as usize],
                        );
                    }
                }
            });
        });

        let got = read_f32_slice(&report.machine, dc, (n * n) as usize);
        let want = self.reference(&a, &b);
        RunOutcome {
            verified: got == want,
            report,
        }
    }
}

/// Table-1 instances at the given scale (the paper runs 256 and 512).
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let sizes: &[u32] = match scale {
        Scale::Tiny => &[16],
        Scale::Small => &[48, 96],
        Scale::Full => &[96, 128],
    };
    sizes
        .iter()
        .map(|&n| Box::new(MatMul { n, seed: 0xA }) as Box<dyn Benchmark>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_matches_naive_for_small() {
        let mm = MatMul { n: 16, seed: 1 };
        let (a, b) = mm.inputs();
        let c = mm.reference(&a, &b);
        // Check one entry against a plain dot product (tolerance for
        // the different accumulation order).
        let n = 16usize;
        let naive: f32 = (0..n).map(|k| a[3 * n + k] * b[k * n + 5]).sum();
        assert!((c[3 * n + 5] - naive).abs() < 1e-4);
    }

    #[test]
    fn simulated_matmul_verifies() {
        let mm = MatMul { n: 16, seed: 2 };
        let out = mm.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        assert!(out.report.cycles > 0);
    }
}
