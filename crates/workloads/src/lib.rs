#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(clippy::float_arithmetic)]
//! # mosaic-workloads
//!
//! The nine evaluation workloads of the ASPLOS '23 paper (Table 1),
//! implemented against the Mosaic runtime API, plus the input
//! generators that stand in for the paper's datasets and host-side
//! reference implementations used to verify every simulated run.
//!
//! | Workload | Category | Parallelization |
//! |---|---|---|
//! | [`matmul`] | static-balanced | `parallel_for` (tiled, SPM buffer) |
//! | [`pagerank`] | static-unbalanced | nested `parallel_for` (pull) |
//! | [`bfs`] | static-unbalanced | nested `parallel_for` (push/pull) |
//! | [`spmv`] | static-unbalanced | `parallel_for` over CSR rows |
//! | [`spmt`] | static-unbalanced | `parallel_for` (sparse transpose) |
//! | [`mattrans`] | dynamic-balanced | recursive spawn-and-sync |
//! | [`cilksort`] | dynamic-unbalanced | recursive spawn-and-sync |
//! | [`nqueens`] | dynamic-unbalanced | recursive `parallel_for` |
//! | [`uts`] | dynamic-unbalanced | recursive `parallel_for` |
//!
//! Paper datasets are substituted by generators with matching
//! structure (see `DESIGN.md`): `email` → power-law, `c-58` → banded
//! FEM-like, `bundle1` → block-structured, `gNNkMM`/`uNNkMM` →
//! uniform random.

pub mod bfs;
pub mod cilksort;
pub mod fib;
pub mod gen;
pub mod matmul;
pub mod mattrans;
pub mod nqueens;
pub mod pagerank;
pub mod spmt;
pub mod spmv;
pub mod uts;

use mosaic_runtime::{RunReport, RuntimeConfig};
use mosaic_sim::MachineConfig;

/// The paper's four-quadrant workload taxonomy (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Static parallelism, balanced tasks (MatMul).
    StaticBalanced,
    /// Static parallelism, unbalanced tasks (PageRank, BFS, SpMV, SpMT).
    StaticUnbalanced,
    /// Dynamic parallelism, balanced tasks (MatrixTranspose).
    DynamicBalanced,
    /// Dynamic parallelism, unbalanced tasks (CilkSort, NQueens, UTS).
    DynamicUnbalanced,
}

impl Category {
    /// The abbreviation used in Table 1.
    pub fn abbrev(self) -> &'static str {
        match self {
            Category::StaticBalanced => "SB",
            Category::StaticUnbalanced => "SU",
            Category::DynamicBalanced => "DB",
            Category::DynamicUnbalanced => "DU",
        }
    }
}

/// Outcome of one simulated workload run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The simulator's report (cycles, instruction counts, stats).
    pub report: RunReport,
    /// Whether the simulated result matched the host reference.
    pub verified: bool,
}

impl RunOutcome {
    /// Panic unless the run verified (used by tests and harnesses).
    pub fn assert_verified(&self) -> &Self {
        assert!(self.verified, "workload result failed verification");
        self
    }
}

/// A runnable, self-verifying benchmark instance (a workload bound to
/// an input).
pub trait Benchmark: Send + Sync {
    /// Display name, e.g. `"PageRank-email"`.
    fn name(&self) -> String;
    /// Taxonomy quadrant.
    fn category(&self) -> Category;
    /// Whether a static-scheduler baseline exists (spawn-and-sync
    /// workloads have none and serialize under it).
    fn has_static_baseline(&self) -> bool {
        true
    }
    /// Build the system, run to completion, verify against the host
    /// reference, and report.
    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome;
}

/// Input scale presets so tests stay fast while harnesses can go big.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long sweeps, CI-friendly.
    Tiny,
    /// The default harness scale (paper-shaped results).
    Small,
    /// Larger inputs for scaling studies.
    Full,
}

impl Scale {
    /// The lowercase name used on command lines, in job specs and in
    /// golden file names.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// Parse a [`Scale::name`].
    pub fn parse(s: &str) -> Result<Scale, String> {
        match s {
            "tiny" => Ok(Scale::Tiny),
            "small" => Ok(Scale::Small),
            "full" => Ok(Scale::Full),
            other => Err(format!("unknown scale {other:?} (tiny|small|full)")),
        }
    }
}

/// Every Table-1 benchmark instance at the given scale, in the
/// paper's row order.
pub fn table1_benchmarks(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let mut v: Vec<Box<dyn Benchmark>> = Vec::new();
    v.extend(matmul::instances(scale));
    v.extend(pagerank::instances(scale));
    v.extend(bfs::instances(scale));
    v.extend(spmv::instances(scale));
    v.extend(spmt::instances(scale));
    v.extend(mattrans::instances(scale));
    v.extend(cilksort::instances(scale));
    v.extend(nqueens::instances(scale));
    v.extend(uts::instances(scale));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_abbrevs_match_table1() {
        assert_eq!(Category::StaticBalanced.abbrev(), "SB");
        assert_eq!(Category::DynamicUnbalanced.abbrev(), "DU");
    }

    #[test]
    fn table1_has_all_nine_workloads() {
        let names: Vec<String> = table1_benchmarks(Scale::Tiny)
            .iter()
            .map(|b| b.name())
            .collect();
        for w in [
            "MatMul", "PR-", "BFS", "SpMV", "SpMT", "MatTrans", "CilkSort", "NQ-", "UTS",
        ] {
            assert!(
                names.iter().any(|n| n.starts_with(w)),
                "missing workload {w} in {names:?}"
            );
        }
    }
}
