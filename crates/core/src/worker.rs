//! The work-stealing protocol: spawn, wait, the scheduling loop, and
//! task execution. This is the Rust rendering of the paper's Figure 4.
//! Every dynamic scheduler runs this one protocol; where a policy
//! differs (publishing a spawned task, a core's empty queue) it asks
//! [`crate::policy`].
//!
//! The key structural property is that `wait()` enters the scheduling
//! loop *on the same call stack*, so a waiting parent executes other
//! tasks (its own children first, then stolen work) exactly like a
//! Cilk/TBB worker. Where runtime data lives — the queue block, the
//! queue lock, the stack frames holding task records — is decided by
//! the [`Layout`](crate::layout::Layout), which is how the SPM
//! optimizations change performance without changing this protocol.

use crate::ctx::TaskCtx;
use crate::layout::misc;
use crate::task::{rec, TaskBody, REC_WORDS};
use crate::{lock, queue};
use mosaic_mem::{Addr, AmoOp};

impl TaskCtx<'_> {
    /// The executing core's queue block address (no memory traffic:
    /// the owner knows where its queue is).
    pub(crate) fn own_queue(&self) -> Addr {
        self.sh.layout.queue_block(&self.sh.map, self.st.core)
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
        self.sh.registry.insert(rec_addr.raw(), Box::new(f));
        self.st.stats.spawns += 1;
        if !self.publish(rec_addr) {
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
        self.scheduling_loop(Some(rc));
    }

    /// The scheduling loop (Fig. 4): with `wait_rc` set, run until that
    /// counter drains (a waiting parent); with `None`, run until the
    /// shutdown flag rises (an idle worker). Local work runs first; an
    /// empty queue is the policy's to handle (`on_empty`).
    pub(crate) fn scheduling_loop(&mut self, wait_rc: Option<Addr>) {
        let costs = self.sh.costs;
        let own_q = self.own_queue();
        let own_lk = queue::lock_addr(own_q);
        let done = self.done_flag(self.st.core);
        loop {
            self.api
                .charge(costs.sched_loop_overhead, costs.sched_loop_overhead);
            let joined = match wait_rc {
                Some(rc) => self.api.load(rc) == 0,
                None => self.api.load(done) != 0,
            };
            if joined {
                break;
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
            match task {
                Some(t) => {
                    self.clear_hunger();
                    self.execute_record(Addr(t as u64));
                }
                None => self.on_empty(wait_rc),
            }
        }
        self.clear_hunger();
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
