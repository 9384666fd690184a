//! NQueens: backtracking solution count (dynamic-unbalanced).
//!
//! Parallelized over the candidate positions of the next queen with
//! recursive `parallel_for`/`parallel_reduce` (the paper's "npf").
//! Each branch **copies the board prefix into a fresh stack
//! allocation** — the paper singles NQueens out for its heavy reads
//! and writes of stack-allocated arrays, which is why it benefits the
//! most from SPM-allocated stacks and why DRAM stacks degrade it
//! severely.

use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Mosaic, RuntimeConfig, TaskCtx};
use mosaic_sim::MachineConfig;

/// An NQueens instance on an `n x n` board.
#[derive(Debug, Clone, Copy)]
pub struct NQueens {
    /// Board size.
    pub n: u32,
}

/// Timed safety check: read the placed rows from the stack-allocated
/// board and test column/diagonal conflicts.
fn safe(ctx: &mut TaskCtx<'_>, board: mosaic_runtime::Addr, row: u32, col: u32) -> bool {
    for r in 0..row {
        let c = ctx.load(board.offset_words(r as u64));
        ctx.compute(4, 4);
        if c == col || c + (row - r) == col || col + (row - r) == c {
            return false;
        }
    }
    true
}

/// Count solutions with queens already placed in rows `0..row` (board
/// prefix at `board`).
fn nq_count(ctx: &mut TaskCtx<'_>, n: u32, row: u32, board: mosaic_runtime::Addr) -> u32 {
    if row == n {
        return 1;
    }
    ctx.parallel_reduce(
        0,
        n,
        1,
        3,
        0u32,
        move |ctx, col| {
            if !safe(ctx, board, row, col) {
                return 0;
            }
            // Copy the board prefix into our own frame (timed stack
            // reads and writes — the workload's signature traffic).
            let copy = ctx.stack_alloc(row + 1);
            for r in 0..row {
                let v = ctx.load(board.offset_words(r as u64));
                ctx.store(copy.offset_words(r as u64), v);
            }
            ctx.store(copy.offset_words(row as u64), col);
            let count = nq_count(ctx, n, row + 1, copy);
            ctx.stack_free();
            count
        },
        |a, b| a + b,
    )
}

/// Known solution counts for small boards.
pub fn reference(n: u32) -> u32 {
    const COUNTS: [u32; 11] = [1, 1, 0, 0, 2, 10, 4, 40, 92, 352, 724];
    COUNTS[n as usize]
}

impl Benchmark for NQueens {
    fn name(&self) -> String {
        format!("NQ-{}", self.n)
    }

    fn category(&self) -> Category {
        Category::DynamicUnbalanced
    }

    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let sys = Mosaic::new(machine, runtime);
        let n = self.n;
        let result = std::rc::Rc::new(std::cell::Cell::new(u32::MAX));
        let out = result.clone();
        let report = sys.run(move |ctx| {
            let board = ctx.stack_alloc(1); // row-0 scratch (empty prefix)
            let count = nq_count(ctx, n, 0, board);
            ctx.stack_free();
            out.set(count);
        });
        RunOutcome {
            verified: result.get() == reference(n),
            report,
        }
    }
}

/// Table-1 instances (paper: 8, 9, 10 — scaled down one to three
/// notches so a software simulator finishes promptly).
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let sizes: &[u32] = match scale {
        Scale::Tiny => &[5],
        Scale::Small => &[6, 7],
        Scale::Full => &[7, 8],
    };
    sizes
        .iter()
        .map(|&n| Box::new(NQueens { n }) as Box<dyn Benchmark>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_counts() {
        assert_eq!(reference(4), 2);
        assert_eq!(reference(8), 92);
    }

    #[test]
    fn simulated_nqueens_verifies() {
        let q = NQueens { n: 5 };
        let out = q.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        assert!(out.report.totals().spawns > 0);
    }

    #[test]
    fn nqueens_6_with_dram_stack_verifies() {
        let q = NQueens { n: 6 };
        let out = q.run(
            MachineConfig::small(4, 2),
            RuntimeConfig::work_stealing_naive(),
        );
        out.assert_verified();
    }
}
