//! [`TaskCtx`]: the programming interface tasks run against.
//!
//! A `TaskCtx` is handed to every task body, to the `main` closure on
//! core 0, and to loop bodies of the high-level patterns. It wraps the
//! simulator's [`CoreApi`] (timed loads/stores/AMOs) with the runtime
//! state of the executing core: its call stack (with DRAM overflow),
//! its SPM allocator, its task-record bookkeeping, and the shared
//! runtime structures.
//!
//! All data that tasks share must live in *simulated memory* and be
//! accessed through `TaskCtx` so the access is timed; Rust-side
//! captures should be limited to `Copy` values such as [`Addr`]s and
//! scalars (task bodies must be `'static`).

use crate::config::{RuntimeConfig, SchedulerKind};
use crate::costs::CostModel;
use crate::layout::{misc, Layout};
use crate::stack::StackEngine;
use crate::static_sched::StaticKernel;
use crate::stats::WorkerStats;
use crate::task::Registry;
use mosaic_mem::{Addr, AddrMap, AmoOp};
use mosaic_san::{Note, NoteSink};
use mosaic_sim::{CoreApi, Cycle, Phase};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::cell::RefCell;

/// Runtime state shared (host-side) by all cores, which are coroutines
/// on one thread — hence `RefCell`, shared through an `Rc`.
///
/// Invariant: never hold a borrow of one of these cells across a
/// [`CoreApi`] operation (or anything that performs one: `load`,
/// `spawn`, `wait`, a task body). Such an operation switches to another
/// core, which may borrow the same cell; the second borrow panics and
/// the run fails with `SimError::CorePanicked` naming that core. Every
/// borrow in this crate is a temporary inside one statement.
pub struct Shared {
    /// The runtime configuration in force.
    pub config: RuntimeConfig,
    /// Instruction-cost model.
    pub costs: CostModel,
    /// Resolved memory layout.
    pub layout: Layout,
    /// The PGAS address map.
    pub map: AddrMap,
    /// Spawned-but-not-executed task bodies.
    pub registry: Registry,
    /// The static scheduler's published kernel.
    pub static_slot: RefCell<Option<StaticKernel>>,
    /// Timestamped marks recorded by tasks.
    pub marks: RefCell<Vec<(String, Cycle)>>,
    /// Per-core stats pushed by workers as they finish.
    pub finished_stats: RefCell<Vec<(usize, WorkerStats)>>,
    /// Machine seed (victim-selection RNG derives from it).
    pub seed: u64,
    /// Extra cycles per call/return for the software overflow scheme.
    pub sw_overflow_penalty: u64,
    /// Core count.
    pub cores: usize,
    /// Mesh columns (for locality-aware victim selection).
    pub mesh_cols: u16,
    /// Trace buffer (None when tracing is off).
    pub trace: Option<RefCell<Vec<crate::trace::TraceEvent>>>,
    /// Channel to the memory-model sanitizer for stack-frame and
    /// environment-freeze events (None when `--sanitize` is off).
    pub san_notes: Option<NoteSink>,
}

/// A captured-environment block for loop patterns: `words` words of
/// read-only captured state living at `addr` in simulated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvHandle {
    /// Base address of the environment block.
    pub addr: Addr,
    /// Number of captured words.
    pub words: u32,
}

/// Per-core mutable runtime state.
pub struct WorkerState {
    /// This core's id.
    pub core: u32,
    /// Call stack with DRAM overflow.
    pub stack: StackEngine,
    /// Victim-selection RNG (deterministic per core).
    pub rng: SmallRng,
    /// Stack of task records currently executing (innermost last).
    pub cur_rec: Vec<Addr>,
    /// Bump pointer into the user SPM region, bytes from region base.
    pub spm_user_brk: u32,
    /// Host-side statistics.
    pub stats: WorkerStats,
    /// Static-scheduler kernel generation (core 0: issued count).
    pub static_gen: u32,
    /// Round-robin victim cursor (also the `Nearest` position).
    pub rr_victim: u32,
    /// Other cores in mesh-distance order from this one (filled by the
    /// first `Nearest` victim choice).
    pub nearest: Vec<u32>,
    /// This core's work-dealing hunger advert is raised.
    pub hungry: bool,
    /// Consecutive failed steal attempts (drives backoff).
    pub steal_fail_streak: u32,
    /// `true` while running inside a statically scheduled kernel
    /// (nested parallel loops then execute inline).
    pub in_static_kernel: bool,
}

/// The task execution context. See the module docs.
pub struct TaskCtx<'a> {
    pub(crate) api: &'a mut CoreApi,
    pub(crate) sh: &'a Shared,
    pub(crate) st: WorkerState,
}

impl<'a> TaskCtx<'a> {
    /// Build the context for `core` (runtime-internal).
    pub(crate) fn new(api: &'a mut CoreApi, sh: &'a Shared, core: usize) -> Self {
        let layout = &sh.layout;
        let stack = StackEngine::new(
            core as u32,
            layout.stack_placement(),
            layout.spm_stack_top(),
            layout.dram_stack_top(core as u32),
            layout.dram_stack_words(),
        );
        let st = WorkerState {
            core: core as u32,
            stack,
            rng: SmallRng::seed_from_u64(
                sh.seed ^ (core as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ),
            cur_rec: Vec::new(),
            spm_user_brk: 0,
            stats: WorkerStats::default(),
            static_gen: 0,
            rr_victim: core as u32,
            nearest: Vec::new(),
            hungry: false,
            steal_fail_streak: 0,
            in_static_kernel: false,
        };
        TaskCtx { api, sh, st }
    }

    // ------------------------------------------------------------------
    // Identity and configuration
    // ------------------------------------------------------------------

    /// The executing core's id.
    pub fn core_id(&self) -> usize {
        self.st.core as usize
    }

    /// Number of cores in the machine.
    pub fn cores(&self) -> usize {
        self.sh.cores
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.api.now()
    }

    /// The active scheduler.
    pub fn scheduler(&self) -> SchedulerKind {
        self.sh.config.scheduler
    }

    /// The PGAS address map (for computing data addresses).
    pub fn addr_map(&self) -> &AddrMap {
        &self.sh.map
    }

    // ------------------------------------------------------------------
    // Timed memory and compute
    // ------------------------------------------------------------------

    /// Timed blocking load.
    pub fn load(&mut self, addr: Addr) -> u32 {
        self.api.load(addr)
    }

    /// Timed non-blocking store.
    pub fn store(&mut self, addr: Addr, value: u32) {
        self.api.store(addr, value)
    }

    /// Timed blocking load annotated as a relaxed atomic: an
    /// intentional benign race (e.g. pull-direction BFS peeking at the
    /// level array while claimers update it). Identical timing to
    /// [`TaskCtx::load`]; the sanitizer treats relaxed↔relaxed pairs
    /// as non-racing but grants no acquire edge.
    pub fn load_relaxed(&mut self, addr: Addr) -> u32 {
        self.api.load_relaxed(addr)
    }

    /// Timed non-blocking store annotated as a relaxed atomic; the
    /// write-side counterpart of [`TaskCtx::load_relaxed`].
    pub fn store_relaxed(&mut self, addr: Addr, value: u32) {
        self.api.store_relaxed(addr, value)
    }

    /// Timed load of an IEEE-754 single.
    pub fn loadf(&mut self, addr: Addr) -> f32 {
        f32::from_bits(self.api.load(addr))
    }

    /// Timed store of an IEEE-754 single.
    pub fn storef(&mut self, addr: Addr, value: f32) {
        self.api.store(addr, value.to_bits())
    }

    /// Timed atomic; returns the old value.
    pub fn amo(&mut self, addr: Addr, op: AmoOp, operand: u32) -> u32 {
        self.api.amo(addr, op, operand)
    }

    /// Timed atomic with release semantics (fence first).
    pub fn amo_release(&mut self, addr: Addr, op: AmoOp, operand: u32) -> u32 {
        self.api.amo_release(addr, op, operand)
    }

    /// Drain outstanding stores.
    pub fn fence(&mut self) {
        self.api.fence()
    }

    /// Charge `instrs` instructions of pure compute taking `cycles`.
    pub fn compute(&mut self, instrs: u64, cycles: Cycle) {
        self.api.charge(instrs, cycles)
    }

    // ------------------------------------------------------------------
    // Stack and SPM allocation
    // ------------------------------------------------------------------

    /// Push a stack frame and tell the sanitizer about it (no simulated
    /// cost; all frame traffic is charged by the caller).
    pub(crate) fn push_frame(&mut self, words: u32) -> Addr {
        let base = self.st.stack.push(words, &self.sh.map);
        if let Some(s) = &self.sh.san_notes {
            s.borrow_mut().push(Note::StackPush {
                core: self.st.core as usize,
                base: base.raw(),
                words,
                in_dram: self.st.stack.top_in_dram(),
            });
        }
        base
    }

    /// Pop the most recent stack frame, telling the sanitizer which
    /// address range was freed.
    pub(crate) fn pop_frame(&mut self) {
        let (base, words, in_dram) = self.st.stack.pop();
        if let Some(s) = &self.sh.san_notes {
            s.borrow_mut().push(Note::StackPop {
                core: self.st.core as usize,
                base: base.raw(),
                words,
                in_dram,
            });
        }
    }

    /// Enter the profiler's stack-overflow phase when the top frame has
    /// been redirected to DRAM — its save/restore traffic is overflow
    /// handling, not useful work. Returns the phase to hand back to
    /// [`TaskCtx::end_overflow_phase`]; `None` (nothing to restore)
    /// when profiling is off or the frame is SPM-resident.
    pub(crate) fn begin_overflow_phase(&mut self) -> Option<Phase> {
        if !self.api.profiling() {
            return None;
        }
        self.st
            .stack
            .overflow_phase()
            .map(|ph| self.api.phase_begin(ph))
    }

    /// Leave the phase entered by [`TaskCtx::begin_overflow_phase`].
    pub(crate) fn end_overflow_phase(&mut self, prev: Option<Phase>) {
        if let Some(prev) = prev {
            self.api.phase_restore(prev);
        }
    }

    /// Run `f` inside a modeled function call: charges call/return
    /// overhead and saved-register traffic, allocates a frame (subject
    /// to SPM-overflow placement), and reclaims any leftover
    /// [`TaskCtx::stack_alloc`]s on exit.
    pub fn call<R>(&mut self, f: impl FnOnce(&mut TaskCtx<'_>) -> R) -> R {
        let costs = self.sh.costs;
        let penalty = self.sh.sw_overflow_penalty;
        let extra_instr = if penalty > 0 { 2 } else { 0 };
        self.api.charge(
            costs.call_overhead + extra_instr,
            costs.call_overhead + penalty,
        );
        let entry_frames = self.st.stack.frame_count();
        let base = self.push_frame(costs.frame_save_words);
        let ov = self.begin_overflow_phase();
        for i in 0..costs.frame_save_words {
            self.api.store(base.offset_words(i as u64), 0);
        }
        self.end_overflow_phase(ov);
        let r = f(self);
        while self.st.stack.frame_count() > entry_frames + 1 {
            self.pop_frame();
        }
        let ov = self.begin_overflow_phase();
        for i in 0..costs.frame_save_words {
            self.api.load(base.offset_words(i as u64));
        }
        self.end_overflow_phase(ov);
        self.pop_frame();
        self.api.charge(
            costs.call_overhead + extra_instr,
            costs.call_overhead + penalty,
        );
        r
    }

    /// Allocate `words` of stack space in the current frame; freed by
    /// the matching [`TaskCtx::stack_free`] or, at the latest, when the
    /// enclosing [`TaskCtx::call`] or task returns.
    pub fn stack_alloc(&mut self, words: u32) -> Addr {
        self.api.charge(1, 1); // sp adjustment
        self.push_frame(words)
    }

    /// Free the most recent [`TaskCtx::stack_alloc`].
    pub fn stack_free(&mut self) {
        self.api.charge(1, 1);
        self.pop_frame();
    }

    /// Allocate `bytes` from this core's `spm_reserve` region, like the
    /// paper's `spm_malloc`. Returns `None` when the request exceeds
    /// the reservation (the paper's null-pointer failure).
    pub fn spm_malloc(&mut self, bytes: u32) -> Option<Addr> {
        let layout = &self.sh.layout;
        let aligned = (self.st.spm_user_brk + 3) & !3;
        if aligned + bytes > layout.user_region_bytes() {
            return None;
        }
        self.st.spm_user_brk = aligned + bytes;
        Some(
            self.sh
                .map
                .spm_addr(self.st.core, layout.user_region_off() + aligned),
        )
    }

    /// Base address and size of this core's `spm_reserve` region (the
    /// pointer `spm_malloc` allocates from). Workloads that manage the
    /// whole reservation themselves (e.g. MatMul's tile buffer) use
    /// this directly.
    pub fn spm_user_region(&self) -> (Addr, u32) {
        let layout = &self.sh.layout;
        let bytes = layout.user_region_bytes();
        if bytes == 0 {
            return (Addr(0), 0);
        }
        (
            self.sh.map.spm_addr(self.st.core, layout.user_region_off()),
            bytes,
        )
    }

    // ------------------------------------------------------------------
    // Environment blocks (read-only data duplication, §4.3)
    // ------------------------------------------------------------------

    /// Materialize a `words`-word captured environment on the current
    /// stack (the lambda's captures, written once by the creating task).
    pub fn make_env(&mut self, words: u32) -> EnvHandle {
        if words == 0 {
            return EnvHandle {
                addr: Addr(0),
                words: 0,
            };
        }
        let addr = self.stack_alloc(words);
        for i in 0..words {
            self.api.store(addr.offset_words(i as u64), 0);
        }
        self.freeze_env(addr, words);
        EnvHandle { addr, words }
    }

    /// Read every captured word (a leaf task consuming its
    /// environment). With reference capture this hits the environment's
    /// home location; callers decide which handle to pass.
    pub fn env_read(&mut self, env: EnvHandle) {
        for i in 0..env.words {
            self.api.load(env.addr.offset_words(i as u64));
        }
    }

    /// Duplicate `env` into this core's current stack frame (capture by
    /// value): the read-only-data-duplication optimization.
    pub fn env_dup(&mut self, env: EnvHandle) -> EnvHandle {
        if env.words == 0 {
            return env;
        }
        let copy = self.stack_alloc(env.words);
        for i in 0..env.words {
            let v = self.api.load(env.addr.offset_words(i as u64));
            self.api.store(copy.offset_words(i as u64), v);
        }
        self.freeze_env(copy, env.words);
        EnvHandle {
            addr: copy,
            words: env.words,
        }
    }

    /// Tell the sanitizer an environment block is now read-only (it
    /// stays frozen until the frame holding it pops).
    fn freeze_env(&mut self, base: Addr, words: u32) {
        if let Some(s) = &self.sh.san_notes {
            s.borrow_mut().push(Note::FreezeEnv {
                core: self.st.core as usize,
                base: base.raw(),
                words,
            });
        }
    }

    // ------------------------------------------------------------------
    // Instrumentation
    // ------------------------------------------------------------------

    /// Record a timestamped mark (e.g. kernel boundaries for Fig. 6).
    pub fn mark(&mut self, label: impl Into<String>) {
        let now = self.api.now();
        let label = label.into();
        if let Some(tr) = &self.sh.trace {
            tr.borrow_mut().push(crate::trace::TraceEvent::Mark {
                core: self.st.core,
                label: label.clone(),
                at: now,
            });
        }
        self.sh.marks.borrow_mut().push((label, now));
    }

    /// Append a trace event if tracing is enabled (runtime-internal).
    pub(crate) fn trace_event(&self, e: crate::trace::TraceEvent) {
        if let Some(tr) = &self.sh.trace {
            tr.borrow_mut().push(e);
        }
    }

    /// This core's statistics so far.
    pub fn stats(&self) -> &WorkerStats {
        &self.st.stats
    }

    /// Address of a misc runtime word in `core`'s SPM.
    pub(crate) fn misc_addr(&self, core: u32, which: u32) -> Addr {
        self.sh.layout.misc_addr(&self.sh.map, core, which)
    }

    /// Address of `core`'s shutdown flag.
    pub(crate) fn done_flag(&self, core: u32) -> Addr {
        self.misc_addr(core, misc::DONE_FLAG)
    }

    /// Fold stack-engine stats into `stats` and publish them (called
    /// once when the core's behaviour finishes).
    pub(crate) fn finish(mut self) {
        self.st.stats.stack_overflows = self.st.stack.overflowed_frames;
        self.st.stats.max_stack_words = self.st.stack.max_depth_words;
        self.sh
            .finished_stats
            .borrow_mut()
            .push((self.st.core as usize, self.st.stats.clone()));
    }
}

impl std::fmt::Debug for TaskCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TaskCtx")
            .field("core", &self.st.core)
            .field("stack_depth", &self.st.stack.depth_words())
            .finish()
    }
}
