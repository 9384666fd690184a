//! The high-level templated patterns: `parallel_invoke`,
//! `parallel_for`, and `parallel_reduce` (paper Fig. 3c–e).
//!
//! Under the work-stealing scheduler these build fork-join task trees
//! by recursive binary splitting (the continuation — the right half —
//! is spawned onto the queue, the left half executes inline, Cilk
//! style). Under the static scheduler, `parallel_for`/`parallel_reduce`
//! dispatch contiguous chunks and `parallel_invoke` runs sequentially.
//!
//! Each loop materializes a captured-environment block ([`EnvHandle`])
//! on the creating task's stack. With read-only data duplication *off*
//! every leaf reads the root block (the congestion of paper Fig. 5);
//! with it *on* each spawned subtree carries its own copy (§4.3).

use crate::config::SchedulerKind;
use crate::ctx::{EnvHandle, TaskCtx};
use crate::static_sched::{self, LoopBody};
use std::cell::RefCell;
use std::rc::Rc;

/// A shared per-index map function for [`TaskCtx::parallel_reduce`].
pub type ReduceMap<R> = Rc<dyn Fn(&mut TaskCtx<'_>, u32) -> R>;
/// A shared combiner for [`TaskCtx::parallel_reduce`].
pub type ReduceCombine<R> = Rc<dyn Fn(R, R) -> R>;

impl TaskCtx<'_> {
    /// Run `f1` and `f2` as parallel tasks and return both results
    /// (divide-and-conquer; paper Fig. 3c). `f2` is spawned, `f1` runs
    /// inline, then the task waits for the join.
    pub fn parallel_invoke<R1, R2, F1, F2>(&mut self, f1: F1, f2: F2) -> (R1, R2)
    where
        F1: FnOnce(&mut TaskCtx<'_>) -> R1 + 'static,
        F2: FnOnce(&mut TaskCtx<'_>) -> R2 + 'static,
        R1: 'static,
        R2: 'static,
    {
        if self.scheduler() == SchedulerKind::Static {
            // No dynamic runtime: spawn-and-sync serializes (paper
            // §5.3: such workloads run on a single core).
            let r1 = self.call(f1);
            let r2 = self.call(f2);
            return (r1, r2);
        }
        // The whole pattern runs inside a modeled call frame so the
        // spawned child's task record (allocated on this stack) is
        // reclaimed when the pattern returns.
        self.call(move |ctx| {
            let slot: Rc<RefCell<Option<R2>>> = Rc::new(RefCell::new(None));
            let out = slot.clone();
            ctx.spawn(move |ctx| {
                let r = f2(ctx);
                *out.borrow_mut() = Some(r);
            });
            let r1 = ctx.call(f1);
            ctx.wait();
            let r2 = slot
                .borrow_mut()
                .take()
                .expect("joined child did not produce a result");
            (r1, r2)
        })
    }

    /// Apply `body` to every index in `[lo, hi)` in parallel (paper
    /// Fig. 3d). `grain` is the maximum indices per leaf task;
    /// `env_words` models the words the lambda captures.
    pub fn parallel_for<F>(&mut self, lo: u32, hi: u32, grain: u32, env_words: u32, body: F)
    where
        F: Fn(&mut TaskCtx<'_>, u32) + 'static,
    {
        self.parallel_for_rc(lo, hi, grain, env_words, Rc::new(body));
    }

    /// [`TaskCtx::parallel_for`] taking an already-shared body (avoids
    /// re-wrapping in recursive workloads).
    pub fn parallel_for_rc(
        &mut self,
        lo: u32,
        hi: u32,
        grain: u32,
        env_words: u32,
        body: LoopBody,
    ) {
        if lo >= hi {
            return;
        }
        // A call frame bounds the lifetime of the environment block,
        // duplicated environments, and spawned task records.
        self.call(move |ctx| {
            let env = ctx.make_env(env_words);
            if ctx.scheduler() == SchedulerKind::Static {
                static_sched::static_for(ctx, lo, hi, env, body);
            } else {
                ctx.pf_split(lo, hi, grain.max(1), env, body);
            }
        });
    }

    /// Recursive splitting for work-stealing `parallel_for`.
    pub(crate) fn pf_split(
        &mut self,
        lo: u32,
        hi: u32,
        grain: u32,
        env: EnvHandle,
        body: LoopBody,
    ) {
        if hi - lo <= grain {
            let iter_cost = self.sh.costs.loop_iter_overhead;
            self.env_read(env);
            for i in lo..hi {
                self.compute(iter_cost, iter_cost);
                // Reference-captured state is re-read per use (paper
                // §4.3: e.g. the `dst` pointer in Fig. 3d); with
                // duplication off every one of these loads lands on
                // the root task's frame — the Fig. 5 hot spot.
                if env.words > 0 {
                    self.load(env.addr);
                }
                body(self, i);
            }
            return;
        }
        let mid = lo + (hi - lo) / 2;
        // With duplication on, the spawned half re-captures the
        // environment *by value on whichever core executes it* (TBB
        // copy-constructs the body functor when a range task runs), so
        // a stolen subtree's leaves read a local copy. With it off,
        // the root environment is shared by reference all the way down
        // — the Fig. 5 hot spot.
        let rd = self.sh.config.rd_duplication;
        let rbody = body.clone();
        self.spawn(move |ctx| {
            let myenv = if rd { ctx.env_dup(env) } else { env };
            ctx.pf_split(mid, hi, grain, myenv, rbody)
        });
        // Left half executes inline (its environment is already local).
        self.call(|ctx| ctx.pf_split(lo, mid, grain, env, body));
        self.wait();
    }

    /// Parallel reduction over `[lo, hi)` (paper Fig. 3e): `map`
    /// produces a value per index, `combine` folds values, `ident` is
    /// the identity.
    #[allow(
        clippy::too_many_arguments,
        reason = "mirrors the paper's reduce signature; bundling would hide the API"
    )]
    pub fn parallel_reduce<R, M, C>(
        &mut self,
        lo: u32,
        hi: u32,
        grain: u32,
        env_words: u32,
        ident: R,
        map: M,
        combine: C,
    ) -> R
    where
        R: Clone + 'static,
        M: Fn(&mut TaskCtx<'_>, u32) -> R + 'static,
        C: Fn(R, R) -> R + 'static,
    {
        if lo >= hi {
            return ident;
        }
        let map: ReduceMap<R> = Rc::new(map);
        let combine: ReduceCombine<R> = Rc::new(combine);
        self.call(move |ctx| {
            ctx.parallel_reduce_inner(lo, hi, grain, env_words, ident, map, combine)
        })
    }

    /// Body of [`TaskCtx::parallel_reduce`], inside its call frame.
    #[allow(
        clippy::too_many_arguments,
        reason = "same parameter list as the public entry point it implements"
    )]
    fn parallel_reduce_inner<R>(
        &mut self,
        lo: u32,
        hi: u32,
        grain: u32,
        env_words: u32,
        ident: R,
        map: ReduceMap<R>,
        combine: ReduceCombine<R>,
    ) -> R
    where
        R: Clone + 'static,
    {
        let env = self.make_env(env_words);
        if self.scheduler() != SchedulerKind::Static {
            return self.pr_split(lo, hi, grain.max(1), env, ident, map, combine);
        }
        // Per-core partials folded through the generic static
        // kernel, combined on core 0 after the barrier.
        let partials: Rc<Vec<RefCell<R>>> = Rc::new(
            (0..self.cores())
                .map(|_| RefCell::new(ident.clone()))
                .collect(),
        );
        let p2 = partials.clone();
        let m2 = map.clone();
        let c2 = combine.clone();
        let body: LoopBody = Rc::new(move |ctx, i| {
            let v = m2(ctx, i);
            let cell = &p2[ctx.core_id()];
            let old = cell.borrow().clone();
            // Local accumulate: one ALU op class of work.
            ctx.compute(2, 2);
            *cell.borrow_mut() = c2(old, v);
        });
        static_sched::static_for(self, lo, hi, env, body);
        let mut acc = ident;
        for cell in partials.iter() {
            // Core 0 gathers one partial per core.
            self.compute(2, 2);
            acc = combine(acc, cell.borrow().clone());
        }
        acc
    }

    /// Recursive splitting for work-stealing `parallel_reduce`.
    #[allow(
        clippy::too_many_arguments,
        reason = "split state rides the recursion explicitly (no heap env struct)"
    )]
    fn pr_split<R>(
        &mut self,
        lo: u32,
        hi: u32,
        grain: u32,
        env: EnvHandle,
        ident: R,
        map: ReduceMap<R>,
        combine: ReduceCombine<R>,
    ) -> R
    where
        R: Clone + 'static,
    {
        if hi - lo <= grain {
            let iter_cost = self.sh.costs.loop_iter_overhead;
            self.env_read(env);
            let mut acc = ident;
            for i in lo..hi {
                self.compute(iter_cost, iter_cost);
                if env.words > 0 {
                    self.load(env.addr);
                }
                let v = map(self, i);
                self.compute(2, 2); // fold ALU work
                acc = combine(acc, v);
            }
            return acc;
        }
        let mid = lo + (hi - lo) / 2;
        let rd = self.sh.config.rd_duplication;
        let slot: Rc<RefCell<Option<R>>> = Rc::new(RefCell::new(None));
        let out = slot.clone();
        let rmap = map.clone();
        let rcombine = combine.clone();
        let rident = ident.clone();
        self.spawn(move |ctx| {
            let myenv = if rd { ctx.env_dup(env) } else { env };
            let r = ctx.pr_split(mid, hi, grain, myenv, rident, rmap, rcombine);
            *out.borrow_mut() = Some(r);
        });
        let lcombine = combine.clone();
        let left = self.call(move |ctx| ctx.pr_split(lo, mid, grain, env, ident, map, combine));
        self.wait();
        let right = slot
            .borrow_mut()
            .take()
            .expect("joined reduce child did not produce a result");
        self.compute(2, 2);
        lcombine(left, right)
    }
}
