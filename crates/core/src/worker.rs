//! The work-stealing protocol: spawn, wait, the scheduling loop, and
//! task execution. This is the Rust rendering of the paper's Figure 4.
//!
//! The key structural property is that `wait()` enters the scheduling
//! loop *on the same call stack*, so a waiting parent executes other
//! tasks (its own children first, then stolen work) exactly like a
//! Cilk/TBB worker. Where runtime data lives — the queue block, the
//! queue lock, the stack frames holding task records — is decided by
//! the [`Layout`](crate::layout::Layout), which is how the SPM
//! optimizations change performance without changing this protocol.

use crate::config::{Placement, SchedulerKind, StealAmount, VictimPolicy};
use crate::ctx::TaskCtx;
use crate::layout::misc;
use crate::task::{rec, TaskBody, REC_WORDS};
use crate::{lock, queue};
use mosaic_mem::{Addr, AmoOp};
use mosaic_sim::Phase;
use rand::Rng;

impl TaskCtx<'_> {
    /// The executing core's queue block address (no memory traffic:
    /// the owner knows where its queue is).
    fn own_queue(&self) -> Addr {
        self.sh.layout.queue_block(&self.sh.map, self.st.core)
    }

    /// Resolve a victim's queue block address. With an SPM queue this
    /// is pure address arithmetic (`get_remote_ptr`, Fig. 4b); with a
    /// DRAM queue the thief must first load `tq[vid]` from the DRAM
    /// directory (Fig. 4a) — a real timed access.
    fn resolve_victim_queue(&mut self, victim: u32) -> Addr {
        match self.sh.layout.queue_placement() {
            Placement::Spm => {
                self.api.charge(3, 3); // base + offset arithmetic
                self.sh.layout.queue_block(&self.sh.map, victim)
            }
            Placement::Dram => {
                let ptr = self.api.load(self.sh.layout.queue_dir_entry(victim));
                Addr(ptr as u64)
            }
        }
    }

    /// Pick a victim other than ourselves.
    fn choose_victim(&mut self) -> u32 {
        let cores = self.sh.cores as u32;
        debug_assert!(cores > 1);
        let costs = self.sh.costs;
        self.api.charge(costs.victim_select, costs.victim_select);
        match self.sh.config.victim {
            VictimPolicy::Random => loop {
                let v = self.st.rng.random_range(0..cores);
                if v != self.st.core {
                    return v;
                }
            },
            VictimPolicy::RoundRobin => {
                self.st.rr_victim = (self.st.rr_victim + 1) % cores;
                if self.st.rr_victim == self.st.core {
                    self.st.rr_victim = (self.st.rr_victim + 1) % cores;
                }
                self.st.rr_victim
            }
            VictimPolicy::Nearest => {
                // Walk cores in Manhattan-distance order from us,
                // advancing one position per attempt (so repeated
                // failures expand the search ring).
                let cols = self.sh.mesh_cols as u32;
                let me = self.st.core;
                let (mx, my) = (me % cols, me / cols);
                let mut order: Vec<u32> = (0..cores).filter(|&c| c != me).collect();
                order.sort_by_key(|&c| {
                    let (cx, cy) = (c % cols, c / cols);
                    (cx.abs_diff(mx) + cy.abs_diff(my), c)
                });
                self.st.rr_victim = (self.st.rr_victim + 1) % (cores - 1);
                order[self.st.rr_victim as usize]
            }
        }
    }

    /// Create a child task record on the current stack and register its
    /// body, then enqueue it on this core's queue (the paper's
    /// `task::spawn`). If the queue is full the task executes inline.
    ///
    /// # Panics
    ///
    /// Panics when called outside a task (before `run_main` set up the
    /// root record), or under the static scheduler.
    pub fn spawn<F>(&mut self, f: F)
    where
        F: FnOnce(&mut TaskCtx<'_>) + 'static,
    {
        let costs = self.sh.costs;
        let parent_rc = *self.st.cur_rec.last().expect("spawn called outside a task");
        self.api.charge(costs.task_create, costs.task_create);
        // ready_count++ before the child becomes visible.
        self.api.amo(parent_rc, AmoOp::Add, 1);
        // The task record lives on the spawning core's stack (Fig. 3a:
        // `FibTask a(...)` is a stack object).
        let rec_addr = self.push_frame(REC_WORDS);
        self.api.store(rec_addr.offset_words(rec::RC), 0);
        self.api.store(
            rec_addr.offset_words(rec::PARENT_RC),
            parent_rc.raw() as u32,
        );
        self.api.store(rec_addr.offset_words(rec::RESULT), 0);
        if self.sh.config.scheduler == SchedulerKind::WorkDealing {
            self.spawn_dealing(rec_addr, Box::new(f));
            return;
        }
        self.sh.registry.insert(rec_addr.raw(), Box::new(f));
        self.st.stats.spawns += 1;

        let q = self.own_queue();
        let lk = queue::lock_addr(q);
        self.st.stats.lock_retries += lock::acquire(self.api, lk, &costs);
        let ok = queue::enqueue(self.api, q, rec_addr.raw() as u32, &costs);
        if ok {
            let depth = queue::len(self.api, q);
            self.st.stats.max_queue_depth = self.st.stats.max_queue_depth.max(depth);
        }
        lock::release(self.api, lk);
        if !ok {
            // Queue full: run the child inline (fully-strict order is
            // preserved; this bounds queue memory).
            self.st.stats.inline_executions += 1;
            self.execute_record(rec_addr);
        }
    }

    /// Block until every child of the current task has joined (the
    /// paper's `task::wait`): runs the scheduling loop until this
    /// task's `ready_count` reaches zero.
    pub fn wait(&mut self) {
        let rc = *self.st.cur_rec.last().expect("wait called outside a task");
        if self.sh.config.scheduler == SchedulerKind::WorkDealing {
            self.dealing_loop(Some(rc));
        } else {
            self.scheduling_loop(Some(rc));
        }
    }

    /// The scheduling loop (Fig. 4): with `wait_rc` set, run until that
    /// counter drains (a waiting parent); with `None`, run until the
    /// shutdown flag rises (an idle worker).
    pub(crate) fn scheduling_loop(&mut self, wait_rc: Option<Addr>) {
        let costs = self.sh.costs;
        let own_q = self.own_queue();
        let own_lk = queue::lock_addr(own_q);
        let done = self.done_flag(self.st.core);
        loop {
            self.api
                .charge(costs.sched_loop_overhead, costs.sched_loop_overhead);
            match wait_rc {
                Some(rc) => {
                    if self.api.load(rc) == 0 {
                        return;
                    }
                }
                None => {
                    if self.api.load(done) != 0 {
                        return;
                    }
                }
            }
            // LIFO pop from our own queue (unlocked emptiness peek
            // first, so a waiting parent doesn't bounce its own lock).
            let task = if queue::len(self.api, own_q) > 0 {
                self.st.stats.lock_retries += lock::acquire(self.api, own_lk, &costs);
                let t = queue::dequeue(self.api, own_q, &costs);
                lock::release(self.api, own_lk);
                t
            } else {
                None
            };
            if let Some(t) = task {
                self.execute_record(Addr(t as u64));
                continue;
            }
            // Empty: become a thief. Peek the victim's head/tail
            // without the lock first — thieves must not serialize a
            // busy victim's own queue operations just to discover an
            // empty queue.
            if self.sh.cores > 1 {
                // Victim selection, remote queue resolution, the
                // unlocked peek, and the transfer itself are all the
                // paper's steal-search overhead.
                let sprev = self.api.phase_begin(Phase::StealSearch);
                let victim = self.choose_victim();
                let vq = self.resolve_victim_queue(victim);
                let vlk = queue::lock_addr(vq);
                let stolen = if queue::len(self.api, vq) > 0 {
                    self.st.stats.lock_retries += lock::acquire(self.api, vlk, &costs);
                    let t = match self.sh.config.steal_amount {
                        StealAmount::One => queue::steal(self.api, vq, &costs),
                        StealAmount::Half => {
                            let avail = queue::len(self.api, vq);
                            let take = avail.div_ceil(2);
                            let mut got = queue::steal_up_to(self.api, vq, take, &costs);
                            let first = if got.is_empty() {
                                None
                            } else {
                                Some(got.remove(0))
                            };
                            if !got.is_empty() {
                                // Re-home the surplus on our own queue
                                // after releasing the victim's lock.
                                lock::release(self.api, vlk);
                                self.st.stats.lock_retries +=
                                    lock::acquire(self.api, own_lk, &costs);
                                for t in got {
                                    if !queue::enqueue(self.api, own_q, t, &costs) {
                                        // Our queue is full: hand it
                                        // straight back to execution
                                        // (real task work, not search).
                                        lock::release(self.api, own_lk);
                                        self.api.phase_restore(sprev);
                                        self.execute_record(Addr(t as u64));
                                        let _ = self.api.phase_begin(Phase::StealSearch);
                                        self.st.stats.lock_retries +=
                                            lock::acquire(self.api, own_lk, &costs);
                                    }
                                }
                                lock::release(self.api, own_lk);
                                // Victim lock already released.
                                match first {
                                    Some(t) => {
                                        self.st.stats.steals += 1;
                                        self.st.steal_fail_streak = 0;
                                        self.api.phase_restore(sprev);
                                        self.execute_record(Addr(t as u64));
                                        continue;
                                    }
                                    None => unreachable!("got was nonempty"),
                                }
                            }
                            first
                        }
                    };
                    lock::release(self.api, vlk);
                    t
                } else {
                    None
                };
                self.api.phase_restore(sprev);
                match stolen {
                    Some(t) => {
                        self.st.stats.steals += 1;
                        self.st.steal_fail_streak = 0;
                        self.trace_event(crate::trace::TraceEvent::Steal {
                            thief: self.st.core,
                            victim,
                            at: self.api.now(),
                        });
                        self.execute_record_traced(Addr(t as u64), true);
                    }
                    None => {
                        self.st.stats.failed_steals += 1;
                        let iprev = self.api.phase_begin(Phase::Idle);
                        if wait_rc.is_some() {
                            // A waiting parent must notice its join
                            // promptly; keep the retry tight.
                            self.api.charge(2, 8);
                        } else {
                            // Idle workers back off exponentially so
                            // they don't congest the network and the
                            // victims' queues.
                            let shift = self.st.steal_fail_streak.min(3);
                            self.st.steal_fail_streak += 1;
                            self.api.charge(2, 32u64 << shift);
                        }
                        self.api.phase_restore(iprev);
                    }
                }
            } else {
                self.api.charge(1, 32);
            }
        }
    }

    /// Execute the task whose record is at `rec_addr`: model the
    /// `execute()` call frame, run the body, then signal the parent by
    /// decrementing its `ready_count` with release semantics.
    pub(crate) fn execute_record(&mut self, rec_addr: Addr) {
        self.execute_record_traced(rec_addr, false)
    }

    pub(crate) fn execute_record_traced(&mut self, rec_addr: Addr, stolen: bool) {
        let body = self
            .sh
            .registry
            .take(rec_addr.raw())
            .expect("task record has no registered body");
        self.st.stats.tasks_executed += 1;
        let trace_start = self.sh.trace.as_ref().map(|_| self.api.now());
        self.run_body(rec_addr, body);
        if let Some(start) = trace_start {
            self.trace_event(crate::trace::TraceEvent::Task {
                core: self.st.core,
                record: rec_addr.raw(),
                start,
                end: self.api.now(),
                stolen,
            });
        }
        let parent_rc = self.api.load(rec_addr.offset_words(rec::PARENT_RC));
        self.api.store(rec_addr.offset_words(rec::RESULT), 1);
        if parent_rc != 0 {
            // Invariant: write the completion result, then release-
            // decrement the parent's counter — the parent's `wait()`
            // spins on the counter alone, so the result (and every
            // store the task made) must be ordered before the
            // decrement lands.
            self.api.amo_release(Addr(parent_rc as u64), AmoOp::Sub, 1);
        }
    }

    /// Run `body` inside a modeled call frame with `rec_addr` as the
    /// current task record.
    fn run_body(&mut self, rec_addr: Addr, body: TaskBody) {
        let costs = self.sh.costs;
        let penalty = self.sh.sw_overflow_penalty;
        let extra = if penalty > 0 { 2 } else { 0 };
        self.api
            .charge(costs.call_overhead + extra, costs.call_overhead + penalty);
        let entry_frames = self.st.stack.frame_count();
        let base = self.push_frame(costs.frame_save_words);
        let ov = self.begin_overflow_phase();
        for i in 0..costs.frame_save_words {
            self.api.store(base.offset_words(i as u64), 0);
        }
        self.end_overflow_phase(ov);
        self.st.cur_rec.push(rec_addr);
        body(self);
        self.st.cur_rec.pop();
        while self.st.stack.frame_count() > entry_frames + 1 {
            self.pop_frame();
        }
        let ov = self.begin_overflow_phase();
        for i in 0..costs.frame_save_words {
            self.api.load(base.offset_words(i as u64));
        }
        self.end_overflow_phase(ov);
        self.pop_frame();
        self.api
            .charge(costs.call_overhead + extra, costs.call_overhead + penalty);
    }

    /// Core-0 entry: set up the root task record, run `main`, drain any
    /// unjoined children, and shut the workers down.
    pub(crate) fn run_main(&mut self, main: TaskBody) {
        let root = self.push_frame(REC_WORDS);
        self.api.store(root.offset_words(rec::RC), 0);
        self.api.store(root.offset_words(rec::PARENT_RC), 0);
        self.api.store(root.offset_words(rec::RESULT), 0);
        self.st.cur_rec.push(root);
        main(self);
        // Safety net: join anything `main` spawned without waiting for.
        self.wait();
        self.st.cur_rec.pop();
        self.shutdown_workers();
    }

    /// Raise every worker's shutdown flag (remote SPM stores).
    fn shutdown_workers(&mut self) {
        for core in 1..self.sh.cores as u32 {
            let flag = self.misc_addr(core, misc::DONE_FLAG);
            self.api.store(flag, 1);
        }
        // Invariant: all shutdown flags must be globally visible before
        // main halts — once main stops advancing time, nothing would
        // drain its store queue for the still-polling workers.
        self.api.fence();
    }
}
