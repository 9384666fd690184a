//! SpMV: sparse-matrix dense-vector multiplication (static-unbalanced).
//!
//! `y = A * x` over CSR with a single `parallel_for` across rows. Row
//! lengths follow the input's degree distribution, so skewed inputs
//! (`email`-like) create load imbalance that a static schedule cannot
//! fix; banded and block inputs are balanced but DRAM-bandwidth-bound.

use crate::gen::device::{read_f32_slice, upload_csr, upload_f32};
use crate::gen::graph::{self, value_of, Csr};
use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Mosaic, RuntimeConfig};
use mosaic_sim::MachineConfig;

/// Which matrix structure to generate (paper dataset stand-ins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixKind {
    /// `bundle1`-like: block-structured.
    Block,
    /// `email`-like: power-law rows.
    PowerLaw,
    /// `c-58`-like: banded FEM.
    Banded,
}

impl MatrixKind {
    /// The paper dataset this stands in for.
    pub fn label(self) -> &'static str {
        match self {
            MatrixKind::Block => "bundle1",
            MatrixKind::PowerLaw => "email",
            MatrixKind::Banded => "c-58",
        }
    }

    /// Generate the pattern at `n` rows.
    pub fn generate(self, n: u32, seed: u64) -> Csr {
        match self {
            MatrixKind::Block => graph::block(n, 8, 2, seed),
            MatrixKind::PowerLaw => {
                let scale = 31 - n.leading_zeros(); // round down to a power of two
                graph::rmat(scale, 8, graph::RMAT_SKEWED, seed)
            }
            MatrixKind::Banded => graph::banded(n, 6, seed),
        }
    }
}

/// An SpMV instance.
#[derive(Debug, Clone, Copy)]
pub struct SpMV {
    /// Rows.
    pub n: u32,
    /// Matrix structure.
    pub kind: MatrixKind,
    /// Input seed.
    pub seed: u64,
}

impl SpMV {
    /// Host inputs: pattern, values (one per nnz), and x.
    pub fn inputs(&self) -> (Csr, Vec<f32>, Vec<f32>) {
        let m = self.kind.generate(self.n, self.seed);
        let vals = (0..m.nnz())
            .map(|k| value_of(self.seed, k as u64))
            .collect();
        let x = (0..m.n)
            .map(|i| crate::gen::hash_f32(self.seed ^ 0x5, i as u64))
            .collect();
        (m, vals, x)
    }

    /// Host reference with the kernel's accumulation order.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: mirrors the kernel's per-row CSR accumulation order, so the results compare bitwise"
    )]
    pub fn reference(m: &Csr, vals: &[f32], x: &[f32]) -> Vec<f32> {
        (0..m.n)
            .map(|i| {
                let (s, e) = (
                    m.row_ptr[i as usize] as usize,
                    m.row_ptr[i as usize + 1] as usize,
                );
                let mut acc = 0.0f32;
                for k in s..e {
                    acc += vals[k] * x[m.col[k] as usize];
                }
                acc
            })
            .collect()
    }
}

impl Benchmark for SpMV {
    fn name(&self) -> String {
        format!("SpMV-{}", self.kind.label())
    }

    fn category(&self) -> Category {
        Category::StaticUnbalanced
    }

    #[expect(
        clippy::float_arithmetic,
        reason = "order: per-row dot product in fixed CSR index order; identical on every host"
    )]
    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let mut sys = Mosaic::new(machine, runtime);
        let (m, vals, x) = self.inputs();
        let n = m.n; // generators may round the size (RMAT: power of 2)
        let d = upload_csr(sys.machine_mut(), &m);
        let dv = upload_f32(sys.machine_mut(), &vals);
        let dx = upload_f32(sys.machine_mut(), &x);
        let dy = sys.machine_mut().dram_alloc_words(n as u64);
        let grain = (n / 256).max(2);

        let report = sys.run(move |ctx| {
            // Captures: row_ptr, col, vals, x, y => 5 words.
            ctx.parallel_for(0, n, grain, 5, move |ctx, i| {
                let s = ctx.load(d.row_ptr.offset_words(i as u64));
                let e = ctx.load(d.row_ptr.offset_words(i as u64 + 1));
                let mut acc = 0.0f32;
                for k in s..e {
                    let c = ctx.load(d.col.offset_words(k as u64));
                    let v = ctx.loadf(dv.offset_words(k as u64));
                    let xv = ctx.loadf(dx.offset_words(c as u64));
                    acc += v * xv;
                    ctx.compute(3, 2); // index arithmetic + FMA
                }
                ctx.storef(dy.offset_words(i as u64), acc);
            });
        });

        let got = read_f32_slice(&report.machine, dy, n as usize);
        let want = Self::reference(&m, &vals, &x);
        RunOutcome {
            verified: got == want,
            report,
        }
    }
}

/// Table-1 instances (paper order: bundle1, email, c-58).
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let n = match scale {
        Scale::Tiny => 192,
        Scale::Small => 1024,
        Scale::Full => 4096,
    };
    [MatrixKind::Block, MatrixKind::PowerLaw, MatrixKind::Banded]
        .into_iter()
        .map(|kind| {
            Box::new(SpMV {
                n,
                kind,
                seed: 0x51,
            }) as Box<dyn Benchmark>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_plain_spmv() {
        let s = SpMV {
            n: 32,
            kind: MatrixKind::Banded,
            seed: 1,
        };
        let (m, vals, x) = s.inputs();
        let y = SpMV::reference(&m, &vals, &x);
        assert_eq!(y.len(), 32);
        // Row 0 sanity: manual dot product.
        let (s0, e0) = (m.row_ptr[0] as usize, m.row_ptr[1] as usize);
        let manual: f32 = (s0..e0).map(|k| vals[k] * x[m.col[k] as usize]).sum();
        assert_eq!(y[0], manual);
    }

    #[test]
    fn simulated_spmv_verifies() {
        let s = SpMV {
            n: 64,
            kind: MatrixKind::PowerLaw,
            seed: 2,
        };
        let out = s.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
    }
}
