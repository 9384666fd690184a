//! The discrete-event engine.
//!
//! Each simulated core runs its behaviour closure as a stackful
//! coroutine (`crate::coro`), written in ordinary *blocking* style
//! against [`CoreApi`]. The event loop and every core share one OS
//! thread: a wake is "write the reply into the core's mailbox, switch
//! to its stack", and every [`CoreApi`] operation is "write the request,
//! switch back". The engine owns the [`Machine`] and applies core
//! requests strictly in global `(cycle, seq)` order, so simulation is
//! bit-deterministic. See the crate docs for the protocol.
//!
//! ## Timing semantics
//!
//! - [`CoreApi::charge`] accumulates local compute (instructions and
//!   cycles) without a context switch; the accumulated delay is applied
//!   before the next synchronizing operation, and the engine defers
//!   *issuing* that operation until the right global cycle so resource
//!   reservations stay in cycle order (approximately FCFS arbitration).
//! - Loads and AMOs block the core until the response returns.
//! - Stores are non-blocking: the core moves on after one issue cycle,
//!   up to `store_queue_depth` outstanding; a full queue stalls, and
//!   [`CoreApi::fence`] drains it (release semantics are built from
//!   `fence` + AMO, as on HammerBlade).

use crate::calendar::CalendarQueue;
use crate::coro::{Coroutine, Yielder};
use crate::counters::MachineCounters;
use crate::{Addr, CoreId, Cycle, Machine};
use mosaic_mem::AmoOp;
use mosaic_prof::{Phase, ProfSink};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a core asks the engine to do. Every request carries the
/// compute accumulated since the previous synchronization.
#[derive(Debug)]
enum Request {
    /// Just advance local time (flush accumulated compute).
    Advance { delay: Cycle, instrs: u64 },
    /// Blocking word load. `relaxed` is a sanitizer annotation only
    /// (relaxed-atomic access); timing is identical.
    Load {
        delay: Cycle,
        instrs: u64,
        addr: Addr,
        relaxed: bool,
    },
    /// Non-blocking word store. `relaxed` as in [`Request::Load`].
    Store {
        delay: Cycle,
        instrs: u64,
        addr: Addr,
        value: u32,
        relaxed: bool,
    },
    /// Blocking atomic read-modify-write.
    Amo {
        delay: Cycle,
        instrs: u64,
        addr: Addr,
        op: AmoOp,
        operand: u32,
    },
    /// Drain the store queue.
    Fence { delay: Cycle, instrs: u64 },
    /// Behaviour closure finished.
    Halt { delay: Cycle, instrs: u64 },
    /// Behaviour closure panicked; payload is the panic message.
    Panicked(String),
}

#[derive(Debug, Clone, Copy)]
struct Reply {
    value: u32,
    now: Cycle,
}

/// Why a simulation failed. [`Engine::try_run`] surfaces these as a
/// result so an embedding service degrades gracefully instead of
/// aborting the host process; [`Engine::run`] converts them to panics
/// for harnesses that want fail-fast behaviour.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A core's behaviour closure panicked; the simulation was wound
    /// down and every other core's stack unwound before this was
    /// returned.
    CorePanicked {
        /// The offending core.
        core: CoreId,
        /// The panic message.
        message: String,
    },
    /// The watchdog tripped: simulated time passed
    /// `MachineConfig::max_cycles` with cores still live.
    Watchdog {
        /// The configured cycle budget.
        max_cycles: Cycle,
        /// Cores still live when the watchdog fired.
        live: usize,
        /// Per-core state plus active fault windows at trip time.
        diagnostics: String,
    },
    /// Every event drained but cores never halted (a modeled-program
    /// deadlock: e.g. a blocking load whose wake was lost).
    Deadlock {
        /// Cores still live.
        live: usize,
        /// Per-core state plus active fault windows.
        diagnostics: String,
    },
    /// A cadenced checkpoint file could not be written.
    CheckpointIo {
        /// The offending file (or directory).
        path: String,
        /// The underlying I/O error.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::CorePanicked { core, message } => {
                write!(f, "core {core} panicked: {message}")
            }
            SimError::Watchdog {
                max_cycles,
                live,
                diagnostics,
            } => write!(
                f,
                "watchdog: simulation passed {max_cycles} cycles with {live} cores live \
                 (likely a modeled-program livelock){diagnostics}"
            ),
            SimError::Deadlock { live, diagnostics } => {
                write!(
                    f,
                    "simulation deadlocked with {live} cores live{diagnostics}"
                )
            }
            SimError::CheckpointIo { path, message } => {
                write!(f, "checkpoint i/o failed at {path}: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Sentinel panic payload a core uses to unwind out of its behaviour
/// closure when the run was aborted under it (the engine resumed it
/// with no reply). Raised with `resume_unwind` so the panic hook stays
/// silent, and recognized by [`core_main`], which finishes quietly
/// instead of reporting a behaviour panic.
struct EngineGone;

/// Per-core engine-side state between events.
enum Pending {
    /// Wake the core and deliver `value` (load/AMO result or 0).
    Wake(u32),
    /// Issue the deferred memory request at the event's cycle.
    Issue(Request),
}

/// The result of a completed simulation.
#[derive(Debug)]
pub struct Report {
    /// The machine, with all functional memory state, for result
    /// inspection via [`Machine::peek`].
    pub machine: Machine,
    /// Total simulated cycles (cycle of the last core to halt).
    pub cycles: Cycle,
    /// Per-core architectural counters.
    pub counters: MachineCounters,
}

impl Report {
    /// Total dynamic instructions executed machine-wide.
    pub fn instructions(&self) -> u64 {
        self.counters.total_instructions()
    }
}

/// Handle through which a core-behaviour closure interacts with the
/// simulated machine. One per core, living on that core's coroutine
/// stack; not clonable, and not `Send` — it is only meaningful there.
pub struct CoreApi {
    core: CoreId,
    /// This core's end of the mailbox it shares with the event loop.
    chan: Yielder<Reply, Request>,
    now: Cycle,
    pending_delay: Cycle,
    pending_instrs: u64,
    /// Cycle-attribution sink when `MachineConfig::profile` is set.
    /// Compute is attributed here at [`CoreApi::charge`] time, against
    /// the core's current phase, so a single accumulated delay that
    /// spans several runtime phases still lands in the right buckets.
    prof: Option<ProfSink>,
}

impl CoreApi {
    /// This core's id.
    pub fn core_id(&self) -> CoreId {
        self.core
    }

    /// Current local cycle (last synchronized cycle plus accumulated
    /// compute).
    pub fn now(&self) -> Cycle {
        self.now + self.pending_delay
    }

    /// Charge `instrs` dynamic instructions taking `cycles` cycles of
    /// local compute. Accumulated locally; no context switch.
    pub fn charge(&mut self, instrs: u64, cycles: Cycle) {
        if let Some(p) = &self.prof {
            p.charge(self.core, self.now + self.pending_delay, cycles);
        }
        self.pending_instrs += instrs;
        self.pending_delay += cycles;
    }

    /// Whether the cycle-attribution profiler is attached (phase hooks
    /// can skip their bookkeeping entirely when it is not).
    pub fn profiling(&self) -> bool {
        self.prof.is_some()
    }

    /// Enter a profiler [`Phase`], returning the previous phase so the
    /// caller can restore it on exit (phases nest: a queue operation
    /// inside a steal search restores `StealSearch`, not `Task`). A
    /// no-op returning [`Phase::Task`] when profiling is off.
    pub fn phase_begin(&self, phase: Phase) -> Phase {
        match &self.prof {
            Some(p) => p.phase_swap(self.core, phase),
            None => Phase::Task,
        }
    }

    /// Restore a phase previously returned by [`CoreApi::phase_begin`].
    pub fn phase_restore(&self, phase: Phase) {
        if let Some(p) = &self.prof {
            p.phase_swap(self.core, phase);
        }
    }

    /// Blocking load of the word at `addr`.
    pub fn load(&mut self, addr: Addr) -> u32 {
        let req = Request::Load {
            delay: self.take_delay(),
            instrs: self.take_instrs() + 1,
            addr,
            relaxed: false,
        };
        self.roundtrip(req)
    }

    /// Blocking load annotated as a relaxed atomic for the sanitizer:
    /// an intentional benign race (no acquire edge, never races with
    /// other relaxed accesses). Timing is identical to [`CoreApi::load`].
    pub fn load_relaxed(&mut self, addr: Addr) -> u32 {
        let req = Request::Load {
            delay: self.take_delay(),
            instrs: self.take_instrs() + 1,
            addr,
            relaxed: true,
        };
        self.roundtrip(req)
    }

    /// Non-blocking store of `value` to `addr` (bounded store queue).
    pub fn store(&mut self, addr: Addr, value: u32) {
        let req = Request::Store {
            delay: self.take_delay(),
            instrs: self.take_instrs() + 1,
            addr,
            value,
            relaxed: false,
        };
        self.roundtrip(req);
    }

    /// Non-blocking store annotated as a relaxed atomic for the
    /// sanitizer; timing is identical to [`CoreApi::store`].
    pub fn store_relaxed(&mut self, addr: Addr, value: u32) {
        let req = Request::Store {
            delay: self.take_delay(),
            instrs: self.take_instrs() + 1,
            addr,
            value,
            relaxed: true,
        };
        self.roundtrip(req);
    }

    /// Blocking atomic `op` on `addr`; returns the *old* value.
    pub fn amo(&mut self, addr: Addr, op: AmoOp, operand: u32) -> u32 {
        let req = Request::Amo {
            delay: self.take_delay(),
            instrs: self.take_instrs() + 1,
            addr,
            op,
            operand,
        };
        self.roundtrip(req)
    }

    /// Atomic `op` with release semantics: drains the store queue
    /// first so prior writes are globally visible (paper §3.2:
    /// `amo_sub_lr`).
    pub fn amo_release(&mut self, addr: Addr, op: AmoOp, operand: u32) -> u32 {
        // Invariant: the store queue must drain *before* the AMO value
        // lands — a parent observing ready_count == 0 must also observe
        // every result word the child stored (release ordering).
        self.fence();
        self.amo(addr, op, operand)
    }

    /// Wait until all outstanding stores are globally visible.
    pub fn fence(&mut self) {
        let req = Request::Fence {
            delay: self.take_delay(),
            instrs: self.take_instrs() + 1,
        };
        self.roundtrip(req);
    }

    /// Flush accumulated compute so other cores observe simulated time
    /// advancing (useful inside spin-wait backoff).
    pub fn sync(&mut self) {
        let req = Request::Advance {
            delay: self.take_delay(),
            instrs: self.take_instrs(),
        };
        self.roundtrip(req);
    }

    fn take_delay(&mut self) -> Cycle {
        std::mem::take(&mut self.pending_delay)
    }

    fn take_instrs(&mut self) -> u64 {
        std::mem::take(&mut self.pending_instrs)
    }

    fn roundtrip(&mut self, req: Request) -> u32 {
        // Switch to the event loop; it switches back when this core's
        // wake pops. No reply means the run was aborted (another core
        // panicked, the watchdog fired, ...) and this core is being torn
        // down: unwind out of the behaviour closure with the EngineGone
        // sentinel so everything it holds on this stack is dropped.
        let Some(reply) = self.chan.suspend(req) else {
            std::panic::resume_unwind(Box::new(EngineGone));
        };
        self.now = reply.now;
        reply.value
    }
}

/// The deterministic discrete-event engine. Construct-and-run via
/// [`Engine::run`].
pub struct Engine;

impl Engine {
    /// Run one behaviour per core to completion and return the final
    /// [`Report`].
    ///
    /// `behaviors(core)` is called once per core to produce that core's
    /// closure. The closure runs as a coroutine on the calling thread
    /// and may block on [`CoreApi`] operations; it must not block on
    /// anything else, because no other core can run while it does.
    ///
    /// # Panics
    ///
    /// Panics (after unwinding every core) if any core's behaviour
    /// panics or the simulation fails to terminate; use
    /// [`Engine::try_run`] to receive a [`SimError`] instead.
    pub fn run<F>(machine: Machine, behaviors: F) -> Report
    where
        F: FnMut(CoreId) -> Box<dyn FnOnce(&mut CoreApi)>,
    {
        match Self::try_run(machine, behaviors) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Engine::run`], but failures (a panicked behaviour, a
    /// watchdog trip, a deadlock) come back as a [`SimError`] after
    /// every core has been wound down: cores suspended mid-behaviour
    /// are unwound so their destructors run, cores that never started
    /// drop their closures unrun — one poisoned simulation degrades to
    /// a failed result instead of aborting the host process.
    pub fn try_run<F>(machine: Machine, mut behaviors: F) -> Result<Report, SimError>
    where
        F: FnMut(CoreId) -> Box<dyn FnOnce(&mut CoreApi)>,
    {
        let prof = machine.prof_sink();
        let cores = (0..machine.core_count())
            .map(|core| {
                let behavior = behaviors(core);
                let prof = prof.clone();
                Coroutine::new(move |chan, start| core_main(core, chan, start, prof, behavior))
                    .expect("failed to map a core stack")
            })
            .collect();
        // The loop owns the coroutines, so returning — with a report or
        // an error — drops them, and dropping a suspended one unwinds it.
        EventLoop::new(machine, cores).run()
    }
}

/// Body of every core's coroutine: run the behaviour from the start
/// signal `start` and return the core's final request. Everything it
/// holds — the [`CoreApi`] with its profiler handle, the behaviour, a
/// panic payload — is dropped by the time it returns, which is the last
/// thing that happens on the core's stack.
fn core_main(
    core: CoreId,
    chan: Yielder<Reply, Request>,
    start: Reply,
    prof: Option<ProfSink>,
    behavior: Box<dyn FnOnce(&mut CoreApi)>,
) -> Request {
    let mut api = CoreApi {
        core,
        chan,
        now: start.now,
        pending_delay: 0,
        pending_instrs: 0,
        prof,
    };
    match catch_unwind(AssertUnwindSafe(|| behavior(&mut api))) {
        Ok(()) => Request::Halt {
            delay: api.take_delay(),
            instrs: api.take_instrs(),
        },
        // Torn down by an aborting engine, which reads nothing more
        // from this core.
        Err(payload) if payload.is::<EngineGone>() => Request::Halt {
            delay: 0,
            instrs: 0,
        },
        Err(payload) => Request::Panicked(
            payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic>".into()),
        ),
    }
}

/// Engine-side state of one running simulation: the event
/// queue, per-core slots, and every core's coroutine. One per
/// [`Engine::try_run`]; [`EventLoop::run`] consumes it and returns the
/// final [`Report`].
struct EventLoop {
    machine: Machine,
    counters: MachineCounters,
    queue: CalendarQueue,
    pending: Vec<Option<Pending>>,
    store_queues: Vec<Vec<Cycle>>,
    depth: usize,
    seq: u64,
    live: usize,
    last_halt: Cycle,
    max_cycles: Cycle,
    /// One flag read up front: with no fault plan installed, the loop
    /// body does no per-event fault work at all.
    faults: bool,
    /// Same pattern for the profiler: one `Option` read here, every
    /// attribution behind `if let Some(..)`.
    prof: Option<ProfSink>,
    /// The cores, each suspended in a [`CoreApi`] operation (or not yet
    /// started, or finished) whenever the loop itself is running.
    cores: Vec<Coroutine<Reply, Request>>,
    /// Checkpoint cadence (`config.checkpoint_every`); `0` disables.
    checkpoint_every: Cycle,
    /// Next cadence threshold: a checkpoint is written at the first
    /// event boundary whose cycle reaches this.
    next_checkpoint: Cycle,
}

impl EventLoop {
    fn new(machine: Machine, cores: Vec<Coroutine<Reply, Request>>) -> EventLoop {
        let depth = machine.config().store_queue_depth;
        let max_cycles = machine.config().max_cycles;
        let faults = machine.faults_active();
        let prof = machine.prof_sink();
        EventLoop {
            counters: MachineCounters::new(cores.len()),
            queue: CalendarQueue::new(),
            pending: Vec::with_capacity(cores.len()),
            // Pre-size each store queue to its hard cap so the loop
            // never grows them.
            store_queues: cores
                .iter()
                .map(|_| Vec::with_capacity(depth + 1))
                .collect(),
            depth,
            seq: 0,
            live: cores.len(),
            last_halt: 0,
            max_cycles,
            faults,
            prof,
            cores,
            checkpoint_every: machine.config().checkpoint_every,
            next_checkpoint: machine.config().checkpoint_every,
            machine,
        }
    }

    fn run(mut self) -> Result<Report, SimError> {
        for core in 0..self.cores.len() {
            let at = if self.faults {
                self.machine.freeze_adjust(core, 0)
            } else {
                0
            };
            if let Some(p) = &self.prof {
                // A fault-injected freeze can delay the very first wake;
                // the core is idle until then.
                p.idle_wait(core, 0, at);
            }
            self.pending.push(None);
            self.schedule_wake(core, 0, at);
        }

        while let Some((cycle, seq, core)) = self.queue.pop() {
            if self.max_cycles > 0 && cycle > self.max_cycles {
                return Err(SimError::Watchdog {
                    max_cycles: self.max_cycles,
                    live: self.live,
                    diagnostics: self.diagnostics(cycle),
                });
            }
            // Checkpoint boundary: immediately after the canonical pop,
            // before any machine mutation for this event. The boundary
            // is named by `(cycle, seq)`, so the same boundary writes the
            // same machine bytes in every run.
            if self.checkpoint_every > 0 && cycle >= self.next_checkpoint {
                self.write_checkpoint(cycle, seq)?;
                self.next_checkpoint = (cycle / self.checkpoint_every + 1) * self.checkpoint_every;
            }
            if self.faults {
                // Apply any bit flips whose scheduled cycle has come.
                self.machine.apply_flips_due(cycle);
            }
            let slot = self.pending[core]
                .take()
                .expect("core event without pending state");
            match slot {
                Pending::Wake(value) => {
                    // Run the core from this wake to its next request.
                    let req = self.cores[core].resume(Reply { value, now: cycle });
                    self.handle_request(core, cycle, req)?;
                }
                Pending::Issue(req) => {
                    // Deferred memory op: issue at exactly this cycle.
                    self.issue_mem(core, cycle, req);
                }
            }
            if self.live == 0 {
                break;
            }
        }

        if self.live > 0 {
            let diagnostics = self.diagnostics(self.last_halt);
            return Err(SimError::Deadlock {
                live: self.live,
                diagnostics,
            });
        }

        if self.faults {
            // All cores halted: land the at-end bit flips in the final
            // payload, after the last write.
            self.machine.apply_end_flips();
        }

        Ok(Report {
            cycles: self.last_halt,
            machine: self.machine,
            counters: self.counters,
        })
    }

    /// Write the cadenced checkpoint for boundary `(cycle, seq)` with
    /// full crash-safety discipline: write to a `.tmp` sibling, fsync
    /// it, rename into place, fsync the directory. A crash at any point
    /// leaves either the old complete file set or the new one — never a
    /// half-written checkpoint under its final name.
    fn write_checkpoint(&self, cycle: Cycle, seq: u64) -> Result<(), SimError> {
        let dir = self
            .machine
            .config()
            .checkpoint_dir
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from("results/checkpoints"));
        let io = |path: &std::path::Path, message: String| SimError::CheckpointIo {
            path: path.display().to_string(),
            message,
        };
        std::fs::create_dir_all(&dir).map_err(|e| io(&dir, e.to_string()))?;
        let bytes = self.machine.checkpoint(cycle, seq);
        // Zero-padded cycle so lexicographic directory order is cycle
        // order and "latest checkpoint" is a plain max.
        let finalp = dir.join(format!("ckpt-{cycle:020}.mckpt"));
        let tmp = dir.join(format!("ckpt-{cycle:020}.mckpt.tmp"));
        (|| -> std::io::Result<()> {
            use std::io::Write as _;
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            Ok(())
        })()
        .map_err(|e| io(&tmp, e.to_string()))?;
        std::fs::rename(&tmp, &finalp).map_err(|e| io(&finalp, e.to_string()))?;
        // Persist the rename itself.
        std::fs::File::open(&dir)
            .and_then(|d| d.sync_all())
            .map_err(|e| io(&dir, e.to_string()))?;
        Ok(())
    }

    /// Queue a wake for `core` at `at`: when the event pops, the core
    /// resumes with `value` as the result of the operation it is
    /// suspended in. Under fault injection the caller has already run
    /// `at` through `freeze_adjust`.
    fn schedule_wake(&mut self, core: CoreId, value: u32, at: Cycle) {
        self.pending[core] = Some(Pending::Wake(value));
        self.queue.push(at, self.seq, core);
        self.seq += 1;
    }

    /// Per-core state plus active fault windows, appended to watchdog
    /// and deadlock errors so a trip under fault injection is
    /// attributable without rerunning.
    fn diagnostics(&self, cycle: Cycle) -> String {
        let mut out = String::new();
        for (core, slot) in self.pending.iter().enumerate() {
            let state = match slot {
                Some(Pending::Wake(_)) => "awaiting wake",
                Some(Pending::Issue(_)) => "memory op deferred",
                None => continue, // halted (or the core being processed)
            };
            out.push_str(&format!(
                "\n  core {core}: {state}, {} outstanding stores",
                self.store_queues[core].len()
            ));
        }
        out.push_str(&self.machine.watchdog_dump(cycle));
        out
    }

    /// Handle a fresh request from a just-woken core at `cycle`.
    fn handle_request(&mut self, core: CoreId, cycle: Cycle, req: Request) -> Result<(), SimError> {
        let (delay, instrs) = match &req {
            Request::Advance { delay, instrs }
            | Request::Load { delay, instrs, .. }
            | Request::Store { delay, instrs, .. }
            | Request::Amo { delay, instrs, .. }
            | Request::Fence { delay, instrs }
            | Request::Halt { delay, instrs } => (*delay, *instrs),
            Request::Panicked(msg) => {
                return Err(SimError::CorePanicked {
                    core,
                    message: msg.clone(),
                });
            }
        };
        self.counters.core_mut(core).instructions += instrs;
        // An injected freeze window pushes the core's next action past
        // the window (identity when no fault plan is installed).
        let issue = self.machine.freeze_adjust(core, cycle + delay);
        if let Some(p) = &self.prof {
            // `delay` itself was attributed core-side at charge time;
            // only the freeze extension is accounted here.
            p.idle_wait(core, cycle + delay, issue - (cycle + delay));
        }

        match req {
            Request::Advance { .. } => {
                self.schedule_wake(core, 0, issue);
            }
            Request::Fence { .. } => {
                self.counters.core_mut(core).fences += 1;
                let drain = self.store_queues[core]
                    .drain(..)
                    .max()
                    .unwrap_or(0)
                    .max(issue);
                self.counters.core_mut(core).mem_stall_cycles += drain - issue;
                if let Some(p) = &self.prof {
                    p.fence_wait(core, issue, drain - issue);
                }
                self.machine.sanitizer_fence(core, issue);
                self.schedule_wake(core, 0, drain);
            }
            Request::Halt { .. } => {
                self.counters.core_mut(core).halt_cycle = issue;
                if let Some(p) = &self.prof {
                    p.halt(core, issue);
                }
                self.live -= 1;
                self.last_halt = self.last_halt.max(issue);
            }
            mem_req @ (Request::Load { .. } | Request::Store { .. } | Request::Amo { .. }) => {
                if issue > cycle {
                    // Defer so reservations happen in cycle order.
                    self.pending[core] = Some(Pending::Issue(mem_req));
                    self.queue.push(issue, self.seq, core);
                    self.seq += 1;
                } else {
                    self.issue_mem(core, cycle, mem_req);
                }
            }
            Request::Panicked(_) => unreachable!("handled above"),
        }
        Ok(())
    }

    /// Issue a memory request at exactly `cycle` and schedule the wake.
    fn issue_mem(&mut self, core: CoreId, cycle: Cycle, req: Request) {
        let (wake_raw, value) = match req {
            Request::Load { addr, relaxed, .. } => {
                self.counters.core_mut(core).loads += 1;
                let (v, done) = self.machine.read(core, addr, cycle, relaxed);
                self.counters.core_mut(core).mem_stall_cycles += done - cycle;
                if let Some(p) = &self.prof {
                    // The machine noted the access class during `read`.
                    p.mem_stall(core, cycle, done - cycle);
                }
                (done, v)
            }
            Request::Amo {
                addr, op, operand, ..
            } => {
                self.counters.core_mut(core).amos += 1;
                let (v, done) = self.machine.amo(core, addr, op, operand, cycle);
                self.counters.core_mut(core).mem_stall_cycles += done - cycle;
                if let Some(p) = &self.prof {
                    // AMO round trips are ordering waits, not data
                    // stalls — the paper's lock/termination traffic.
                    p.fence_wait(core, cycle, done - cycle);
                }
                (done, v)
            }
            Request::Store {
                addr,
                value,
                relaxed,
                ..
            } => {
                self.counters.core_mut(core).stores += 1;
                let q = &mut self.store_queues[core];
                q.retain(|&c| c > cycle);
                let mut start = cycle;
                if q.len() >= self.depth {
                    // Stall until the oldest outstanding store retires.
                    let oldest = *q.iter().min().expect("queue nonempty");
                    start = start.max(oldest);
                    q.retain(|&c| c > start);
                    self.counters.core_mut(core).mem_stall_cycles += start - cycle;
                }
                let done = self.machine.write(core, addr, value, start, relaxed);
                self.store_queues[core].push(done);
                if let Some(p) = &self.prof {
                    // Queue backpressure keeps this store's destination
                    // class (noted by `write` just above); the single
                    // issue cycle follows the current phase.
                    p.mem_stall(core, cycle, start - cycle);
                    p.charge(core, start, 1);
                }
                (start + 1, 0)
            }
            _ => unreachable!("issue_mem only handles memory requests"),
        };
        // Freeze windows also delay the wakeup after a memory op.
        let wake_at = self.machine.freeze_adjust(core, wake_raw);
        if let Some(p) = &self.prof {
            p.idle_wait(core, wake_raw, wake_at - wake_raw);
        }
        self.schedule_wake(core, value, wake_at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MachineConfig;

    fn run_two_core<F>(f: F) -> Report
    where
        F: Fn(CoreId, &mut CoreApi) + 'static,
    {
        let machine = Machine::new(MachineConfig::small(2, 1));
        let f = std::rc::Rc::new(f);
        Engine::run(machine, move |core| {
            let f = f.clone();
            Box::new(move |api| f(core, api))
        })
    }

    #[test]
    fn compute_only_run_reports_cycles() {
        let r = run_two_core(|core, api| {
            api.charge(100, if core == 0 { 100 } else { 50 });
        });
        assert_eq!(r.cycles, 100);
        assert_eq!(r.counters.core(0).instructions, 100);
        assert_eq!(r.counters.core(1).instructions, 100);
    }

    #[test]
    fn store_then_load_roundtrips_through_memory() {
        let mut machine = Machine::new(MachineConfig::small(2, 1));
        let a = machine.dram_alloc_words(1);
        let r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                if core == 0 {
                    api.store(a, 7);
                    api.fence();
                }
            })
        });
        assert_eq!(r.machine.peek(a), 7);
        assert!(r.counters.core(0).stores == 1);
        assert!(r.counters.core(0).fences == 1);
    }

    #[test]
    fn loads_block_and_stall_counts_accrue() {
        let mut machine = Machine::new(MachineConfig::small(2, 1));
        let a = machine.dram_alloc_words(1);
        let r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                if core == 1 {
                    let v = api.load(a); // cold DRAM access
                    assert_eq!(v, 0);
                }
            })
        });
        assert!(r.counters.core(1).mem_stall_cycles > 10);
        assert!(r.cycles > 10);
    }

    #[test]
    fn amo_serializes_between_cores() {
        let mut machine = Machine::new(MachineConfig::small(2, 1));
        let a = machine.dram_alloc_words(1);
        let r = Engine::run(machine, move |_core| {
            Box::new(move |api| {
                for _ in 0..100 {
                    api.amo(a, AmoOp::Add, 1);
                }
            })
        });
        assert_eq!(r.machine.peek(a), 200);
    }

    #[test]
    fn spin_wait_handshake_between_cores() {
        let mut machine = Machine::new(MachineConfig::small(2, 1));
        let flag = machine.dram_alloc_words(1);
        let data = machine.dram_alloc_words(1);
        let r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                if core == 0 {
                    api.store(data, 99);
                    api.amo_release(flag, AmoOp::Swap, 1);
                } else {
                    while api.load(flag) == 0 {
                        api.charge(1, 8);
                    }
                    let v = api.load(data);
                    assert_eq!(v, 99, "release ordering must make data visible");
                }
            })
        });
        assert!(r.cycles > 0);
    }

    #[test]
    fn store_queue_full_stalls() {
        let mut machine = Machine::new(MachineConfig::small(2, 1));
        let a = machine.dram_alloc_words(64);
        let r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                if core == 0 {
                    // Many back-to-back DRAM stores must hit the queue cap.
                    for i in 0..32u64 {
                        api.store(a.offset_words(i), i as u32);
                    }
                    api.fence();
                }
            })
        });
        assert!(r.counters.core(0).mem_stall_cycles > 0);
    }

    #[test]
    #[should_panic(expected = "core 1 panicked: boom")]
    fn core_panic_is_reported() {
        run_two_core(|core, _api| {
            if core == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    #[should_panic(expected = "watchdog")]
    fn watchdog_catches_livelock() {
        let mut config = MachineConfig::small(2, 1);
        config.max_cycles = 5_000;
        let mut machine = Machine::new(config);
        let flag = machine.dram_alloc_words(1);
        Engine::run(machine, move |core| {
            Box::new(move |api| {
                if core == 0 {
                    // Wait for a flag nobody ever sets.
                    while api.load(flag) == 0 {
                        api.charge(1, 8);
                    }
                }
            })
        });
    }

    #[test]
    fn sanitizer_catches_injected_write_write_race() {
        let mut config = MachineConfig::small(2, 1);
        config.sanitize = true;
        let mut machine = Machine::new(config);
        let a = machine.dram_alloc_words(1);
        let mut r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                // Both cores blind-store the same DRAM word with no
                // ordering edge whatsoever.
                api.store(a, core as u32 + 1);
                api.fence();
            })
        });
        let rep = r
            .machine
            .take_sanitizer_report()
            .expect("sanitizer attached");
        assert_eq!(rep.total_findings(), 1, "{rep}");
        assert_eq!(
            rep.diagnostics[0].kind,
            mosaic_san::DiagKind::RaceWriteWrite
        );
        assert_eq!(rep.diagnostics[0].addr, a.raw());
    }

    #[test]
    fn sanitizer_accepts_release_acquire_handshake() {
        let mut config = MachineConfig::small(2, 1);
        config.sanitize = true;
        let mut machine = Machine::new(config);
        let flag = machine.dram_alloc_words(1);
        let data = machine.dram_alloc_words(1);
        let mut r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                if core == 0 {
                    api.store(data, 99);
                    api.amo_release(flag, AmoOp::Swap, 1);
                } else {
                    while api.load(flag) == 0 {
                        api.charge(1, 8);
                    }
                    assert_eq!(api.load(data), 99);
                }
            })
        });
        let rep = r
            .machine
            .take_sanitizer_report()
            .expect("sanitizer attached");
        assert!(rep.is_clean(), "{rep}");
    }

    #[test]
    fn sanitizer_does_not_change_simulated_cycles() {
        let run = |sanitize: bool| {
            let mut config = MachineConfig::small(4, 2);
            config.sanitize = sanitize;
            let mut machine = Machine::new(config);
            let a = machine.dram_alloc_words(8);
            let r = Engine::run(machine, move |core| {
                Box::new(move |api| {
                    for i in 0..20u64 {
                        api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32);
                        api.store(a.offset_words((i + core as u64) % 8), 7);
                        api.charge(3, 3);
                    }
                    api.fence();
                })
            });
            (r.cycles, r.counters.total_instructions())
        };
        assert_eq!(run(false), run(true), "sanitizer must be zero-cost");
    }

    #[test]
    fn profiler_does_not_change_simulated_cycles() {
        let run = |profile: bool| {
            let mut config = MachineConfig::small(4, 2);
            config.profile = profile;
            let mut machine = Machine::new(config);
            let a = machine.dram_alloc_words(8);
            let r = Engine::run(machine, move |core| {
                Box::new(move |api| {
                    for i in 0..20u64 {
                        api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32);
                        api.store(a.offset_words((i + core as u64) % 8), 7);
                        api.charge(3, 3);
                    }
                    api.fence();
                })
            });
            (r.cycles, r.counters.total_instructions())
        };
        assert_eq!(run(false), run(true), "profiler must be zero-cost");
    }

    #[test]
    fn profiler_buckets_sum_to_elapsed_cycles() {
        let mut config = MachineConfig::small(4, 2);
        config.profile = true;
        let mut machine = Machine::new(config);
        let a = machine.dram_alloc_words(8);
        let spm = machine.addr_map().spm_addr(0, 0);
        let mut r = Engine::run(machine, move |core| {
            Box::new(move |api| {
                // Exercise every attribution path: phased compute,
                // loads to every class, stores past the queue depth,
                // AMOs, and fences.
                let prev = api.phase_begin(Phase::StealSearch);
                api.charge(5, 50);
                api.phase_restore(prev);
                for i in 0..12u64 {
                    api.load(a.offset_words(i % 8));
                    api.load(spm);
                    api.store(a.offset_words((i + core as u64) % 8), 7);
                    api.amo(a.offset_words(i % 8), AmoOp::Add, 1);
                    api.charge(3, 3);
                }
                api.fence();
            })
        });
        let cycles = r.cycles;
        let profile = r.machine.take_profile().expect("profiler attached");
        assert_eq!(profile.accounting_error(), None);
        assert_eq!(
            profile.elapsed.iter().copied().max().unwrap_or(0),
            cycles,
            "last halt must match the report"
        );
        use mosaic_prof::Bucket;
        assert_eq!(profile.bucket_total(Bucket::StealSearch), 8 * 50);
        for b in [
            Bucket::Compute,
            Bucket::SpmStall,
            Bucket::LlcStall,
            Bucket::DramStall,
            Bucket::FenceAmo,
        ] {
            assert!(profile.bucket_total(b) > 0, "expected cycles in {b:?}");
        }
        assert!(profile.total_link_flits > 0);
        assert!(profile.llc_bank_accesses.iter().sum::<u64>() > 0);
        assert!(
            !profile.windows.is_empty(),
            "series must have at least one window"
        );
    }

    #[test]
    fn take_profile_is_none_without_the_flag() {
        let mut r = run_two_core(|_, api| api.charge(1, 1));
        assert!(r.machine.take_profile().is_none());
    }

    #[test]
    fn try_run_surfaces_core_panic_as_error() {
        let machine = Machine::new(MachineConfig::small(2, 1));
        let result = Engine::try_run(machine, |core| {
            Box::new(move |_api| {
                if core == 1 {
                    panic!("boom");
                }
            })
        });
        match result {
            Err(SimError::CorePanicked { core, message }) => {
                assert_eq!(core, 1);
                assert_eq!(message, "boom");
            }
            other => panic!("expected CorePanicked, got {other:?}"),
        }
    }

    #[test]
    fn try_run_surfaces_watchdog_with_diagnostics() {
        let mut config = MachineConfig::small(2, 1);
        config.max_cycles = 5_000;
        let mut machine = Machine::new(config);
        let flag = machine.dram_alloc_words(1);
        let result = Engine::try_run(machine, move |core| {
            Box::new(move |api| {
                if core == 0 {
                    while api.load(flag) == 0 {
                        api.charge(1, 8);
                    }
                }
            })
        });
        match result {
            Err(SimError::Watchdog {
                max_cycles,
                live,
                diagnostics,
            }) => {
                assert_eq!(max_cycles, 5_000);
                assert_eq!(live, 1);
                assert!(diagnostics.contains("core 0"), "diagnostics: {diagnostics}");
            }
            other => panic!("expected Watchdog, got {other:?}"),
        }
    }

    #[test]
    fn timing_only_faults_preserve_results_and_change_cycles() {
        use mosaic_chaos::FaultPlan;
        let run = |faults: Option<FaultPlan>| {
            let mut config = MachineConfig::small(2, 1);
            config.faults = faults;
            let mut machine = Machine::new(config);
            let a = machine.dram_alloc_words(8);
            let r = Engine::run(machine, move |core| {
                Box::new(move |api| {
                    for i in 0..20u64 {
                        api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32 + 1);
                        api.store(a.offset_words((i + 3) % 8), 7);
                        api.charge(3, 3);
                    }
                    api.fence();
                })
            });
            (r.machine.peek_slice(a, 8), r.cycles)
        };
        let (clean_payload, clean_cycles) = run(None);
        // The empty plan must be timing-identical to no plan at all.
        let (empty_payload, empty_cycles) = run(Some(FaultPlan::default()));
        assert_eq!(clean_payload, empty_payload);
        assert_eq!(clean_cycles, empty_cycles, "empty plan must cost nothing");
        // A real timing plan perturbs cycles but never results.
        let plan = FaultPlan::parse(
            "seed=3,horizon=100,links=8x200,banks=4x150+20,dram=2x300+50,freeze=2x400",
        )
        .expect("valid spec");
        let (f_payload, f_cycles) = run(Some(plan));
        assert_eq!(
            clean_payload, f_payload,
            "timing faults must not change results"
        );
        assert_ne!(clean_cycles, f_cycles, "timing plan should perturb cycles");
    }

    #[test]
    fn end_flip_lands_in_final_payload() {
        use mosaic_chaos::FaultPlan;
        let run = |faults: Option<FaultPlan>| {
            let mut config = MachineConfig::small(2, 1);
            config.faults = faults;
            let mut machine = Machine::new(config);
            let a = machine.dram_alloc_words(1);
            let r = Engine::run(machine, move |core| {
                Box::new(move |api| {
                    if core == 0 {
                        api.store(a, 100);
                        api.fence();
                    }
                })
            });
            let addr = a;
            r.machine.peek(addr)
        };
        assert_eq!(run(None), 100);
        // dram word 0 is the allocated word; flip bit 1: 100 ^ 2 = 102.
        let plan = FaultPlan::parse("flip=dram:0:1@end").expect("valid spec");
        assert_eq!(run(Some(plan)), 102, "end flip must corrupt the payload");
    }

    #[test]
    fn repeated_runs_are_byte_identical() {
        // One busy workload touching every engine path — AMOs, stores
        // past the queue depth, blocking loads, fences, phased compute,
        // profiler attached. Everything observable must repeat exactly:
        // cycles, every per-core counter, the memory payload, and the
        // full profile.
        let run = || {
            let mut config = MachineConfig::small(4, 2);
            config.profile = true;
            let mut machine = Machine::new(config);
            let a = machine.dram_alloc_words(8);
            let mut r = Engine::run(machine, move |core| {
                Box::new(move |api| {
                    let prev = api.phase_begin(Phase::StealSearch);
                    api.charge(5, 5 + core as u64);
                    api.phase_restore(prev);
                    for i in 0..25u64 {
                        api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32 + 1);
                        api.store(a.offset_words((i + core as u64) % 8), 7);
                        api.load(a.offset_words((i + 3) % 8));
                        api.charge(3, 3);
                    }
                    api.fence();
                })
            });
            let profile = r.machine.take_profile().expect("profiler attached");
            (
                r.cycles,
                format!("{:?}", r.counters),
                r.machine.peek_slice(a, 8),
                format!("{profile:?}"),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn repeated_runs_are_byte_identical_under_faults() {
        // A chaos plan is part of the input: freezes are applied by
        // `freeze_adjust` when a wake is scheduled and flips land at
        // canonical event-application points, so a faulted run repeats
        // as exactly as a clean one.
        use mosaic_chaos::FaultPlan;
        let run = || {
            let mut config = MachineConfig::small(4, 2);
            config.faults = Some(
                FaultPlan::parse(
                    "seed=3,horizon=100,links=8x200,banks=4x150+20,dram=2x300+50,\
                     freeze=2x400,flip=dram:1:3@50",
                )
                .expect("valid spec"),
            );
            let mut machine = Machine::new(config);
            let a = machine.dram_alloc_words(8);
            let r = Engine::run(machine, move |core| {
                Box::new(move |api| {
                    for i in 0..20u64 {
                        api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32 + 1);
                        api.store(a.offset_words((i + 3) % 8), 7);
                        api.charge(3, 3);
                    }
                    api.fence();
                })
            });
            (
                r.machine.peek_slice(a, 8),
                r.cycles,
                r.machine.fault_flips_applied(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let mut machine = Machine::new(MachineConfig::small(4, 2));
            let a = machine.dram_alloc_words(8);
            Engine::run(machine, move |core| {
                Box::new(move |api| {
                    for i in 0..20u64 {
                        api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32);
                        api.charge(3, 3);
                    }
                })
            })
            .cycles
        };
        assert_eq!(run(), run());
    }
}
