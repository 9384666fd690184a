//! PageRank: pull-based, Ligra-style (static-unbalanced).
//!
//! Each iteration runs **six parallel kernels** (the paper's Figure 6
//! decomposes one iteration into kernels K1–K6):
//!
//! - K1 contributions: `contrib[v] = rank[v] / out_degree[v]`
//! - K2 pull: `sums[v] = Σ contrib[u]` over in-neighbors (nested
//!   parallelism: high-degree vertices use an inner parallel reduce)
//! - K3 apply: `new[v] = (1-d)/n + d*(sums[v] + dangling/n)`
//! - K4 error: `Σ |new[v] - rank[v]|` (parallel reduce)
//! - K5 dangling mass: `Σ new[v]` over zero-out-degree vertices
//! - K6 commit: `rank[v] = new[v]`
//!
//! Kernel boundaries are marked with [`TaskCtx::mark`] so the Fig. 6
//! read-only-duplication study can attribute time per kernel.
//!
//! [`TaskCtx::mark`]: mosaic_runtime::TaskCtx::mark

use crate::gen::device::{max_rel_error, read_f32_slice, upload_csr, upload_f32};
use crate::gen::graph::Csr;
use crate::spmv::MatrixKind;
use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Mosaic, RuntimeConfig};
use mosaic_sim::MachineConfig;

/// Damping factor.
pub const DAMPING: f32 = 0.85;
/// In-degree above which K2 uses an inner parallel reduce.
pub const NEST_THRESHOLD: u32 = 16;

/// Which graph to rank (paper: g14k16, email, c-58).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// `g14k16`-like: uniform random.
    Uniform,
    /// `email`-like: power-law.
    PowerLaw,
    /// `c-58`-like: banded.
    Banded,
}

impl GraphKind {
    /// The paper dataset this stands in for.
    pub fn label(self) -> &'static str {
        match self {
            GraphKind::Uniform => "g14k16",
            GraphKind::PowerLaw => "email",
            GraphKind::Banded => "c-58",
        }
    }

    /// Generate at `n` vertices.
    pub fn generate(self, n: u32, seed: u64) -> Csr {
        match self {
            GraphKind::Uniform => {
                let scale = 31 - n.leading_zeros(); // round down to a power of two
                crate::gen::graph::rmat(scale, 8, crate::gen::graph::RMAT_G500, seed)
            }
            GraphKind::PowerLaw => MatrixKind::PowerLaw.generate(n, seed),
            GraphKind::Banded => MatrixKind::Banded.generate(n, seed),
        }
    }
}

/// A PageRank instance.
#[derive(Debug, Clone, Copy)]
pub struct PageRank {
    /// Vertices.
    pub n: u32,
    /// Graph structure.
    pub kind: GraphKind,
    /// Iterations to run.
    pub iters: u32,
    /// Input seed.
    pub seed: u64,
}

impl PageRank {
    /// Host reference: same kernel order; K2's inner order may differ
    /// from the simulated nested reduce, hence tolerant comparison.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: sequential host reference in vertex and CSR order; the simulated K2 may associate differently, so verification is tolerant"
    )]
    pub fn reference(g: &Csr, iters: u32) -> Vec<f32> {
        let n = g.n;
        let t = g.transpose();
        let deg: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();
        let mut rank = vec![1.0f32 / n as f32; n as usize];
        let mut dangling = 0.0f32;
        for _ in 0..iters {
            let contrib: Vec<f32> = (0..n as usize)
                .map(|v| {
                    if deg[v] > 0 {
                        rank[v] / deg[v] as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            let sums: Vec<f32> = (0..n)
                .map(|v| t.neighbors(v).iter().map(|&u| contrib[u as usize]).sum())
                .collect();
            let base = (1.0 - DAMPING) / n as f32 + DAMPING * dangling / n as f32;
            let new: Vec<f32> = (0..n as usize).map(|v| base + DAMPING * sums[v]).collect();
            dangling = (0..n as usize)
                .filter(|&v| deg[v] == 0)
                .map(|v| new[v])
                .sum();
            rank = new;
        }
        rank
    }
}

impl Benchmark for PageRank {
    fn name(&self) -> String {
        format!("PR-{}", self.kind.label())
    }

    fn category(&self) -> Category {
        Category::StaticUnbalanced
    }

    #[expect(
        clippy::float_arithmetic,
        reason = "order: serial edge loops run in CSR order, and each parallel_reduce combiner associates in an order fixed by range, grain, scheduler and core count, never by timing"
    )]
    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let mut sys = Mosaic::new(machine, runtime);
        let g = self.kind.generate(self.n, self.seed);
        let t = g.transpose();
        let n = g.n; // generators may round the size (RMAT: power of 2)
        let deg: Vec<u32> = (0..n).map(|v| g.degree(v)).collect();
        let dt = upload_csr(sys.machine_mut(), &t);
        let ddeg = sys.machine_mut().dram_alloc_init(&deg);
        let init = vec![1.0f32 / n as f32; n as usize];
        let drank = upload_f32(sys.machine_mut(), &init);
        let dcontrib = sys.machine_mut().dram_alloc_words(n as u64);
        let dsums = sys.machine_mut().dram_alloc_words(n as u64);
        let dnew = sys.machine_mut().dram_alloc_words(n as u64);
        let iters = self.iters;
        let grain = (n / 128).max(4);
        // The pull kernel's per-row cost follows the skewed in-degree
        // distribution (hubs cluster at low ids), so it needs a much
        // finer grain than the element-wise kernels.
        let grain_pull = (n / 1024).max(2);

        let report = sys.run(move |ctx| {
            let mut dangling = 0.0f32;
            for it in 0..iters {
                ctx.mark(format!("iter{it}:K1"));
                // K1: contributions.
                ctx.parallel_for(0, n, grain, 4, move |ctx, v| {
                    let r = ctx.loadf(drank.offset_words(v as u64));
                    let d = ctx.load(ddeg.offset_words(v as u64));
                    let c = if d > 0 { r / d as f32 } else { 0.0 };
                    ctx.compute(3, 4);
                    ctx.storef(dcontrib.offset_words(v as u64), c);
                });
                ctx.mark(format!("iter{it}:K2"));
                // K2: pull sums over in-neighbors, nested when wide.
                ctx.parallel_for(0, n, grain_pull, 4, move |ctx, v| {
                    let s = ctx.load(dt.row_ptr.offset_words(v as u64));
                    let e = ctx.load(dt.row_ptr.offset_words(v as u64 + 1));
                    let sum = if e - s > NEST_THRESHOLD {
                        ctx.parallel_reduce(
                            s,
                            e,
                            NEST_THRESHOLD / 2,
                            3,
                            0.0f32,
                            move |ctx, k| {
                                let u = ctx.load(dt.col.offset_words(k as u64));
                                ctx.compute(2, 2);
                                ctx.loadf(dcontrib.offset_words(u as u64))
                            },
                            |a, b| a + b,
                        )
                    } else {
                        let mut acc = 0.0f32;
                        for k in s..e {
                            let u = ctx.load(dt.col.offset_words(k as u64));
                            acc += ctx.loadf(dcontrib.offset_words(u as u64));
                            ctx.compute(2, 2);
                        }
                        acc
                    };
                    ctx.storef(dsums.offset_words(v as u64), sum);
                });
                ctx.mark(format!("iter{it}:K3"));
                // K3: apply damping.
                let base = (1.0 - DAMPING) / n as f32 + DAMPING * dangling / n as f32;
                ctx.parallel_for(0, n, grain, 5, move |ctx, v| {
                    let s = ctx.loadf(dsums.offset_words(v as u64));
                    ctx.compute(3, 4);
                    ctx.storef(dnew.offset_words(v as u64), base + DAMPING * s);
                });
                ctx.mark(format!("iter{it}:K4"));
                // K4: L1 error (drives convergence in a real run).
                let _err = ctx.parallel_reduce(
                    0,
                    n,
                    grain,
                    4,
                    0.0f32,
                    move |ctx, v| {
                        let a = ctx.loadf(dnew.offset_words(v as u64));
                        let b = ctx.loadf(drank.offset_words(v as u64));
                        ctx.compute(2, 2);
                        (a - b).abs()
                    },
                    |a, b| a + b,
                );
                ctx.mark(format!("iter{it}:K5"));
                // K5: dangling mass for the next iteration.
                dangling = ctx.parallel_reduce(
                    0,
                    n,
                    grain,
                    4,
                    0.0f32,
                    move |ctx, v| {
                        let d = ctx.load(ddeg.offset_words(v as u64));
                        if d == 0 {
                            ctx.loadf(dnew.offset_words(v as u64))
                        } else {
                            ctx.compute(1, 1);
                            0.0
                        }
                    },
                    |a, b| a + b,
                );
                ctx.mark(format!("iter{it}:K6"));
                // K6: commit.
                ctx.parallel_for(0, n, grain, 3, move |ctx, v| {
                    let r = ctx.loadf(dnew.offset_words(v as u64));
                    ctx.storef(drank.offset_words(v as u64), r);
                });
                ctx.mark(format!("iter{it}:end"));
            }
        });

        let got = read_f32_slice(&report.machine, drank, n as usize);
        let want = Self::reference(&g, iters);
        RunOutcome {
            verified: max_rel_error(&got, &want) < 1e-3,
            report,
        }
    }
}

/// Table-1 instances (paper order: g14k16, email, c-58).
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let (n, iters) = match scale {
        Scale::Tiny => (128, 1),
        Scale::Small => (4096, 1),
        Scale::Full => (8192, 2),
    };
    [GraphKind::Uniform, GraphKind::PowerLaw, GraphKind::Banded]
        .into_iter()
        .map(|kind| {
            Box::new(PageRank {
                n,
                kind,
                iters,
                seed: 0x96,
            }) as Box<dyn Benchmark>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_ranks_are_positive_and_bounded() {
        let g = GraphKind::Uniform.generate(128, 1);
        let r = PageRank::reference(&g, 3);
        let sum: f32 = r.iter().sum();
        // Dangling mass is redistributed one iteration late, so the
        // total sits a bit below 1 on hub-heavy graphs.
        assert!(sum > 0.3 && sum <= 1.01, "rank mass {sum}");
        assert!(r.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn simulated_pagerank_verifies() {
        let pr = PageRank {
            n: 96,
            kind: GraphKind::PowerLaw,
            iters: 1,
            seed: 5,
        };
        let out = pr.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        // Six kernels should have been marked.
        assert!(out.report.marks.iter().any(|(l, _)| l == "iter0:K6"));
    }
}
