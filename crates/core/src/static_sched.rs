//! The static-loop baseline scheduler (paper §5.2).
//!
//! The traditional manycore runtime: a parallel loop is split into one
//! contiguous chunk per core, dispatched through per-core SPM
//! mailboxes, and joined at a DRAM barrier. There is no load
//! balancing; nested parallel loops execute inline on the core that
//! encounters them; `parallel_invoke` degenerates to sequential calls
//! (which is why MatrixTranspose and CilkSort have no static baseline
//! in the paper).

use crate::ctx::{EnvHandle, TaskCtx};
use crate::layout::misc;
use mosaic_mem::AmoOp;
use mosaic_sim::{Cycle, Phase};
use std::rc::Rc;

/// A loop body shared by every core executing the pattern.
pub type LoopBody = Rc<dyn Fn(&mut TaskCtx<'_>, u32)>;

/// The kernel core 0 publishes for the workers under the static
/// scheduler.
#[derive(Clone)]
pub struct StaticKernel {
    /// Per-index body.
    pub body: LoopBody,
    /// The loop's captured environment (read once per chunk).
    pub env: EnvHandle,
}

impl std::fmt::Debug for StaticKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StaticKernel")
            .field("env", &self.env)
            .finish()
    }
}

/// `core`'s chunk of `[lo, hi)` split evenly over `p` cores.
pub fn chunk(lo: u32, hi: u32, core: u32, p: u32) -> (u32, u32) {
    let n = (hi - lo) as u64;
    let a = lo + (n * core as u64 / p as u64) as u32;
    let b = lo + (n * (core as u64 + 1) / p as u64) as u32;
    (a, b)
}

/// Run one chunk: read the environment once, then execute the body per
/// index with loop overhead.
fn run_chunk(ctx: &mut TaskCtx<'_>, lo: u32, hi: u32, env: EnvHandle, body: &LoopBody) {
    let iter_cost = ctx.sh.costs.loop_iter_overhead;
    ctx.env_read(env);
    let was_nested = ctx.st.in_static_kernel;
    ctx.st.in_static_kernel = true;
    for i in lo..hi {
        ctx.api.charge(iter_cost, iter_cost);
        body(ctx, i);
    }
    ctx.st.in_static_kernel = was_nested;
}

/// A low-power wait of `cycles`: no instructions retire, and the
/// profiler counts the cycles as idle.
fn idle_wait(ctx: &mut TaskCtx<'_>, cycles: Cycle) {
    let prev = ctx.api.phase_begin(Phase::Idle);
    ctx.api.charge(0, cycles);
    ctx.api.phase_restore(prev);
}

/// Statically schedule `body` over `[lo, hi)`. Must be reached on
/// core 0 unless nested inside an already-running kernel.
pub(crate) fn static_for(ctx: &mut TaskCtx<'_>, lo: u32, hi: u32, env: EnvHandle, body: LoopBody) {
    if lo >= hi {
        return;
    }
    let p = ctx.sh.cores as u32;
    if ctx.st.in_static_kernel || p == 1 {
        // Nested (or single-core) loops run inline.
        run_chunk(ctx, lo, hi, env, &body);
        return;
    }
    assert_eq!(ctx.st.core, 0, "static parallel loops must start on core 0");
    let costs = ctx.sh.costs;
    ctx.api.charge(costs.static_dispatch, costs.static_dispatch);

    *ctx.sh.static_slot.borrow_mut() = Some(StaticKernel {
        body: body.clone(),
        env,
    });
    ctx.st.static_gen += 1;
    let generation = ctx.st.static_gen;

    // Mail each worker its chunk, then raise the command word.
    for c in 1..p {
        let (clo, chi) = chunk(lo, hi, c, p);
        let arg_lo = ctx.misc_addr(c, misc::ARG_LO);
        let arg_hi = ctx.misc_addr(c, misc::ARG_HI);
        ctx.api.store(arg_lo, clo);
        ctx.api.store(arg_hi, chi);
    }
    // Invariant: the mailed chunk bounds must be globally visible
    // before the command word that tells the worker to read them.
    ctx.api.fence();
    for c in 1..p {
        let cmd = ctx.misc_addr(c, misc::CMD);
        ctx.api.store(cmd, generation);
    }
    // Invariant: drain the command stores before core 0 starts its own
    // chunk, so worker start-up latency is bounded by the network, not
    // by core 0's store queue backlog.
    ctx.api.fence();

    // Core 0 runs its own chunk...
    let (clo, chi) = chunk(lo, hi, 0, p);
    run_chunk(ctx, clo, chi, env, &body);

    // ...then waits at the barrier for the other p-1 cores. Barrier
    // waiting is modeled as a low-power wait (cycles elapse, next to
    // no instructions retire), matching the paper's Table-1 DI
    // accounting where static idle cores are quiet.
    let barrier = ctx.sh.layout.barrier_addr();
    while ctx.api.load(barrier) < p - 1 {
        idle_wait(ctx, 48);
    }
    ctx.api.store(barrier, 0);
    // Invariant: the barrier reset must be globally visible before the
    // next generation's command goes out, or a fast worker's check-in
    // could be overwritten by the stale reset.
    ctx.api.fence();
}

/// The worker loop under the static scheduler: poll the local SPM
/// command word; on a new generation, fetch the published kernel, run
/// the mailed chunk, and check in at the barrier.
pub(crate) fn static_worker_loop(ctx: &mut TaskCtx<'_>) {
    let mut expected = 1u32;
    let core = ctx.st.core;
    let done = ctx.done_flag(core);
    let cmd_addr = ctx.misc_addr(core, misc::CMD);
    let arg_lo = ctx.misc_addr(core, misc::ARG_LO);
    let arg_hi = ctx.misc_addr(core, misc::ARG_HI);
    let barrier = ctx.sh.layout.barrier_addr();
    loop {
        // Low-power mailbox polling: the paper's static runtime leaves
        // idle cores nearly silent in the dynamic instruction counts.
        idle_wait(ctx, 2);
        if ctx.api.load(done) != 0 {
            return;
        }
        let cmd = ctx.api.load(cmd_addr);
        if cmd >= expected {
            let lo = ctx.api.load(arg_lo);
            let hi = ctx.api.load(arg_hi);
            let kernel = ctx
                .sh
                .static_slot
                .borrow()
                .clone()
                .expect("command raised without a published kernel");
            run_chunk(ctx, lo, hi, kernel.env, &kernel.body);
            // Invariant: release-increment — the chunk's result stores
            // must be globally visible before the check-in that core 0
            // counts, since core 0 reads results right after the
            // barrier fills.
            ctx.api.amo_release(barrier, AmoOp::Add, 1);
            expected = cmd + 1;
        } else {
            idle_wait(ctx, 62); // poll backoff
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_partition_the_range() {
        for (lo, hi, p) in [(0u32, 100u32, 7u32), (5, 6, 4), (0, 3, 8), (10, 10, 3)] {
            let mut covered = 0;
            for c in 0..p {
                let (a, b) = chunk(lo, hi, c, p);
                assert!(a <= b && a >= lo && b <= hi);
                if c > 0 {
                    assert_eq!(a, chunk(lo, hi, c - 1, p).1, "chunks must be contiguous");
                }
                covered += b - a;
            }
            assert_eq!(covered, hi - lo);
        }
    }

    #[test]
    fn chunks_are_balanced() {
        let p = 8;
        let sizes: Vec<u32> = (0..p)
            .map(|c| {
                let (a, b) = chunk(0, 1000, c, p);
                b - a
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }
}
