//! Graph / sparse-matrix generators in CSR form.
//!
//! The paper evaluates on SuiteSparse matrices (`email`, `c-58`,
//! `bundle1`) and synthetic graphs (`g14k16`, `g18k8`, `u16k32`). What
//! drives its input-dependent results is *row-length structure*:
//! degree skew causes load imbalance (work-stealing wins), banded and
//! block structure cause locality and balance. These generators
//! reproduce those structures at configurable scale:
//!
//! - [`uniform`]: every vertex has roughly the same degree
//!   (`gNNkMM`-like);
//! - [`power_law`]: Zipf-distributed degrees (`email`-like — a
//!   real-world communication graph);
//! - [`banded`]: neighbors within a diagonal band (`c-58`-like — a
//!   structural FEM problem);
//! - [`block`]: dense blocks on the diagonal plus sparse coupling
//!   (`bundle1`-like — a bundle-adjustment problem).

use super::mix64;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A directed graph / sparse-matrix pattern in compressed sparse row
/// form. Also used as CSC by interpreting rows as columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// Number of vertices (rows).
    pub n: u32,
    /// Row offsets, `n + 1` entries.
    pub row_ptr: Vec<u32>,
    /// Column indices, `row_ptr[n]` entries, sorted within each row.
    pub col: Vec<u32>,
}

impl Csr {
    /// Build from an edge list (duplicates removed, self-loops kept if
    /// present).
    pub fn from_edges(n: u32, mut edges: Vec<(u32, u32)>) -> Csr {
        edges.sort_unstable();
        edges.dedup();
        let mut row_ptr = vec![0u32; n as usize + 1];
        for &(u, _) in &edges {
            row_ptr[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col = edges.iter().map(|&(_, v)| v).collect();
        Csr { n, row_ptr, col }
    }

    /// Number of edges (nonzeros).
    pub fn nnz(&self) -> usize {
        self.col.len()
    }

    /// Out-neighbors of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.col[self.row_ptr[v as usize] as usize..self.row_ptr[v as usize + 1] as usize]
    }

    /// Out-degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]
    }

    /// The transposed pattern (in-edges become out-edges).
    pub fn transpose(&self) -> Csr {
        let edges = self.iter_edges().map(|(u, v)| (v, u)).collect();
        Csr::from_edges(self.n, edges)
    }

    /// Iterate all `(src, dst)` edges.
    pub fn iter_edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.n).flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Maximum out-degree (a quick skew indicator).
    pub fn max_degree(&self) -> u32 {
        (0..self.n).map(|v| self.degree(v)).max().unwrap_or(0)
    }
}

/// Uniform random graph: `n` vertices, ~`deg` out-edges each.
pub fn uniform(n: u32, deg: u32, seed: u64) -> Csr {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity((n * deg) as usize);
    for u in 0..n {
        for _ in 0..deg {
            let v = rng.random_range(0..n);
            edges.push((u, v));
        }
    }
    Csr::from_edges(n, edges)
}

/// Power-law graph: vertex `v`'s out-degree follows a Zipf-like curve
/// with exponent `alpha`, targets biased toward low ids (hubs) — the
/// `email`-like structure with heavy skew.
#[expect(
    clippy::float_arithmetic,
    reason = "order: weights computed and summed in rank order, edges drawn in seeded order; nothing depends on timing or host"
)]
pub fn power_law(n: u32, avg_deg: u32, alpha: f64, seed: u64) -> Csr {
    assert!(n > 1 && alpha > 0.0);
    let mut rng = SmallRng::seed_from_u64(seed);
    // Degree of rank-r vertex ∝ r^-alpha, normalized to hit avg_deg.
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / (r as f64 + 1.0).powf(alpha)).collect();
    let wsum: f64 = weights.iter().sum();
    let scale = avg_deg as f64 * n as f64 / wsum;
    let mut edges = Vec::new();
    for u in 0..n {
        let d = (weights[u as usize] * scale).round().max(1.0) as u32;
        let d = d.min(n - 1);
        for _ in 0..d {
            // Preferential target: square a uniform draw to bias to hubs.
            let t = rng.random::<f64>();
            let v = ((t * t * n as f64) as u32).min(n - 1);
            edges.push((u, v));
        }
    }
    Csr::from_edges(n, edges)
}

/// RMAT / Kronecker graph (Graph500-style): recursively biased edge
/// placement with quadrant probabilities `(a, b, c, d)`. The paper's
/// synthetic inputs (`g14k16` = scale 14, edge factor 16) are this
/// family; with skewed parameters it also reproduces the extreme hub
/// structure of real-world graphs like `email`.
#[expect(
    clippy::float_arithmetic,
    reason = "order: quadrant thresholds are fixed left-to-right sums of the constant probabilities"
)]
pub fn rmat(scale: u32, edge_factor: u32, probs: (f64, f64, f64, f64), seed: u64) -> Csr {
    let n = 1u32 << scale;
    let (a, b, c, _d) = probs;
    let mut rng = SmallRng::seed_from_u64(seed);
    let edges_target = n as usize * edge_factor as usize;
    let mut edges = Vec::with_capacity(edges_target);
    for _ in 0..edges_target {
        let (mut u, mut v) = (0u32, 0u32);
        for bit in (0..scale).rev() {
            let r: f64 = rng.random();
            let (ubit, vbit) = if r < a {
                (0, 0)
            } else if r < a + b {
                (0, 1)
            } else if r < a + b + c {
                (1, 0)
            } else {
                (1, 1)
            };
            u |= ubit << bit;
            v |= vbit << bit;
        }
        edges.push((u, v));
    }
    Csr::from_edges(n, edges)
}

/// The skewed RMAT parameterization used for `email`-like inputs
/// (heavier than Graph500's defaults to match a real communication
/// graph's hub structure).
pub const RMAT_SKEWED: (f64, f64, f64, f64) = (0.65, 0.18, 0.12, 0.05);

/// Graph500's standard RMAT parameters (the paper's `gNNkMM` inputs).
pub const RMAT_G500: (f64, f64, f64, f64) = (0.57, 0.19, 0.19, 0.05);

/// Banded matrix pattern: row `i` couples to columns within
/// `band` of the diagonal (plus the diagonal) — the `c-58`-like FEM
/// structure. Real FEM matrices are *mostly* banded but contain
/// regions of denser coupling where refined elements or interfaces
/// cluster; here every fourth 64-row block couples over a 6x wider
/// band. The clustering is what starves a static schedule (whole
/// chunks land in the dense region) and lets dynamic scheduling win
/// on the paper's `c-58` runs.
pub fn banded(n: u32, band: u32, seed: u64) -> Csr {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push((i, i));
        let row_band = if (i / 64) % 4 == 0 { band * 6 } else { band };
        for k in 1..=row_band {
            // Deterministic sparsification: keep ~70% of band entries.
            if i >= k && mix64(seed ^ (((i as u64) << 32) | k as u64)) % 10 < 7 {
                edges.push((i, i - k));
            }
            if i + k < n && mix64(seed ^ (((i as u64) << 32) | ((k as u64) << 16))) % 10 < 7 {
                edges.push((i, i + k));
            }
        }
    }
    Csr::from_edges(n, edges)
}

/// Block-structured pattern: dense `block`-sized diagonal blocks plus
/// sparse random coupling between blocks — `bundle1`-like (camera /
/// point blocks of a bundle-adjustment Hessian).
pub fn block(n: u32, block: u32, coupling_deg: u32, seed: u64) -> Csr {
    assert!(block > 0);
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for i in 0..n {
        let b0 = i / block * block;
        for j in b0..(b0 + block).min(n) {
            edges.push((i, j));
        }
        for _ in 0..coupling_deg {
            edges.push((i, rng.random_range(0..n)));
        }
    }
    Csr::from_edges(n, edges)
}

/// Deterministic nonzero value for matrix entry `k` (used by SpMV).
#[expect(
    clippy::float_arithmetic,
    reason = "order: one add per entry, no accumulation"
)]
pub fn value_of(seed: u64, k: u64) -> f32 {
    super::hash_f32(seed, k) + 0.25
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_sorts_and_dedups() {
        let g = Csr::from_edges(3, vec![(1, 2), (0, 1), (1, 2), (1, 0)]);
        assert_eq!(g.nnz(), 3);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(2), 0);
    }

    #[test]
    fn transpose_reverses_edges() {
        let g = Csr::from_edges(3, vec![(0, 1), (0, 2), (2, 1)]);
        let t = g.transpose();
        assert_eq!(t.neighbors(1), &[0, 2]);
        assert_eq!(t.neighbors(0), &[] as &[u32]);
        // Transposing twice is the identity.
        assert_eq!(t.transpose(), g);
    }

    #[test]
    fn uniform_has_expected_size() {
        let g = uniform(256, 8, 1);
        assert_eq!(g.n, 256);
        // Duplicates removed, so slightly under n*deg.
        assert!(g.nnz() > 256 * 6 && g.nnz() <= 256 * 8);
        // Degrees concentrated: max not much above the mean.
        assert!(g.max_degree() < 8 * 3);
    }

    #[test]
    fn power_law_is_skewed() {
        let g = power_law(512, 8, 0.8, 7);
        let avg = g.nnz() as u32 / g.n;
        assert!(
            g.max_degree() > avg * 5,
            "max {} vs avg {avg}: not skewed",
            g.max_degree()
        );
    }

    #[test]
    fn banded_stays_in_band() {
        let band = 4;
        let g = banded(128, band, 3);
        for (u, v) in g.iter_edges() {
            assert!(u.abs_diff(v) <= band * 6, "({u},{v}) outside widest band");
        }
        // Diagonal always present; regular rows stay in the base band.
        for i in 0..128 {
            assert!(g.neighbors(i).contains(&i));
            if (i / 64) % 4 != 0 {
                for &v in g.neighbors(i) {
                    assert!(i.abs_diff(v) <= band, "regular row ({i},{v}) outside band");
                }
            }
        }
    }

    #[test]
    fn banded_has_dense_regions() {
        let g = banded(512, 4, 3);
        let dense = g.degree(10); // block 0 is dense
        let sparse = g.degree(100); // block 1 is regular
        assert!(
            dense > sparse * 2,
            "dense region must be wider: {dense} vs {sparse}"
        );
    }

    #[test]
    fn block_has_dense_diagonal_blocks() {
        let g = block(64, 8, 2, 5);
        for i in 0..64u32 {
            let b0 = i / 8 * 8;
            for j in b0..b0 + 8 {
                assert!(g.neighbors(i).contains(&j), "({i},{j}) missing from block");
            }
        }
    }

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(uniform(64, 4, 9), uniform(64, 4, 9));
        assert_eq!(power_law(64, 4, 1.0, 9), power_law(64, 4, 1.0, 9));
        assert_ne!(uniform(64, 4, 9), uniform(64, 4, 10));
    }

    #[test]
    fn values_are_positive_and_bounded() {
        for k in 0..100 {
            let v = value_of(3, k);
            assert!((0.25..1.25).contains(&v));
        }
    }
}
