//! [`Mosaic`]: configure a machine + runtime, load inputs, run `main`.

use crate::config::{RuntimeConfig, SchedulerKind};
use crate::costs::CostModel;
use crate::ctx::{Shared, TaskCtx};
use crate::layout::Layout;
use crate::static_sched;
use crate::stats::{RunReport, WorkerStats};
use crate::task::Registry;
use mosaic_sim::{Engine, Machine, MachineConfig, SimError};
use std::cell::RefCell;
use std::rc::Rc;

/// A configured Mosaic system: a simulated machine plus a runtime.
///
/// Typical use: construct, allocate and initialize inputs through
/// [`Mosaic::machine_mut`], then [`Mosaic::run`] a `main` closure that
/// uses the [`TaskCtx`] API ([`TaskCtx::parallel_for`] and friends).
///
/// # Example
///
/// ```
/// use mosaic_runtime::{Mosaic, RuntimeConfig};
/// use mosaic_sim::MachineConfig;
///
/// let mut sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
/// let data = sys.machine_mut().dram_alloc_init(&[1, 2, 3, 4, 5, 6, 7, 8]);
/// let out = sys.machine_mut().dram_alloc_words(8);
/// let report = sys.run(move |ctx| {
///     ctx.parallel_for(0, 8, 2, 2, move |ctx, i| {
///         let v = ctx.load(data.offset_words(i as u64));
///         ctx.store(out.offset_words(i as u64), v * 10);
///     });
/// });
/// assert_eq!(report.machine.peek(out.offset_words(3)), 40);
/// ```
pub struct Mosaic {
    machine: Machine,
    config: RuntimeConfig,
    costs: CostModel,
}

impl Mosaic {
    /// A Mosaic system on a fresh machine.
    ///
    /// # Panics
    ///
    /// Panics on an invalid machine configuration or an SPM budget the
    /// runtime cannot lay out (see [`Mosaic::try_new`]).
    pub fn new(machine: MachineConfig, config: RuntimeConfig) -> Self {
        match Mosaic::try_new(machine, config) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor: validates the machine configuration and
    /// checks the runtime's SPM budget up front (user reservation plus
    /// queue block plus misc plus minimum stack must fit the
    /// scratchpad), so a bad configuration is an `Err` here instead of
    /// a silent mis-layout or a panic mid-run.
    pub fn try_new(machine: MachineConfig, config: RuntimeConfig) -> Result<Self, String> {
        machine.validate()?;
        // Dry-run the layout arithmetic with a dummy allocator; the
        // real DRAM blocks are allocated in `run`.
        let mut brk = mosaic_mem::AddrMap::DRAM_BASE;
        Layout::try_compute(
            &config,
            machine.core_count() as u32,
            machine.spm_size,
            |b| {
                let a = mosaic_mem::Addr(brk);
                brk += (b + 15) & !15;
                a
            },
        )?;
        Ok(Mosaic {
            machine: Machine::new(machine),
            config,
            costs: CostModel::default(),
        })
    }

    /// The machine, for pre-run input loading (`dram_alloc*`, `poke`).
    pub fn machine_mut(&mut self) -> &mut Machine {
        &mut self.machine
    }

    /// The machine, read-only.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Override the instruction-cost model (ablation studies).
    pub fn set_costs(&mut self, costs: CostModel) {
        self.costs = costs;
    }

    /// Run `main` on core 0 to completion and return the report.
    ///
    /// # Panics
    ///
    /// Panics if any task panics, if the simulation fails to
    /// terminate, or if the SPM budget is over-committed by the
    /// configuration. Use [`Mosaic::try_run`] to receive a
    /// [`SimError`] instead of a panic.
    pub fn run<F>(self, main: F) -> RunReport
    where
        F: FnOnce(&mut TaskCtx<'_>) + 'static,
    {
        match self.try_run(main) {
            Ok(report) => report,
            Err(e) => panic!("{e}"),
        }
    }

    /// Like [`Mosaic::run`], but simulation failures (a panicked task,
    /// a watchdog trip, a deadlock) come back as a [`SimError`] — an
    /// embedding service can treat one poisoned run as a failed job
    /// instead of aborting its process. Watchdog and deadlock errors
    /// carry diagnostics with per-core engine state, per-core task
    /// queue depths, and any active fault-injection windows.
    pub fn try_run<F>(self, main: F) -> Result<RunReport, SimError>
    where
        F: FnOnce(&mut TaskCtx<'_>) + 'static,
    {
        let Mosaic {
            mut machine,
            config,
            costs,
        } = self;
        let cores = machine.core_count();
        let spm_size = machine.config().spm_size;
        let layout = Layout::compute(&config, cores as u32, spm_size, |bytes| {
            machine.dram_alloc(bytes)
        });
        let map = machine.addr_map().clone();
        layout.initialize(&map, |addr, value| machine.poke(addr, value));

        // Watchdog diagnostics: teach the machine to read per-core
        // task-queue depths out of simulated memory, so a livelock or
        // deadlock dump shows where work piled up. Host-side only;
        // consulted only when a watchdog/deadlock error is built.
        let queue_blocks: Vec<mosaic_sim::Addr> = (0..cores as u32)
            .map(|c| layout.queue_block(&map, c))
            .collect();
        machine.set_watchdog_probe(Box::new(move |m| {
            let mut out = String::from("  task queues (head/tail/depth):");
            let mut any = false;
            for (core, qa) in queue_blocks.iter().enumerate() {
                let head = m.peek(qa.offset_words(1));
                let tail = m.peek(qa.offset_words(2));
                let depth = tail.wrapping_sub(head);
                if depth != 0 {
                    out.push_str(&format!(" core {core}: {head}/{tail}/{depth};"));
                    any = true;
                }
            }
            if !any {
                out.push_str(" all empty");
            }
            out
        }));

        // Teach the attached sanitizer (if any) this run's layout —
        // lock words, intentional sync ranges, stack geometry — and
        // open the note channel for stack/environment events.
        let san_notes = machine.sanitizer_mut().map(|san| {
            san.set_spec(layout.san_spec(&map));
            san.note_sink()
        });

        let scheduler = config.scheduler;
        let trace = config.trace.then(|| RefCell::new(Vec::new()));
        let shared = Rc::new(Shared {
            config,
            costs,
            layout,
            map,
            registry: Registry::new(),
            static_slot: RefCell::new(None),
            marks: RefCell::new(Vec::new()),
            finished_stats: RefCell::new(Vec::new()),
            seed: machine.config().seed,
            sw_overflow_penalty: machine.config().sw_overflow_penalty,
            cores,
            mesh_cols: machine.config().cols,
            trace,
            san_notes,
        });
        let mut main_body: Option<crate::task::TaskBody> = Some(Box::new(main));

        let sh_factory = shared.clone();
        let mut report = Engine::try_run(machine, move |core| {
            let sh = sh_factory.clone();
            let main = (core == 0).then(|| main_body.take().expect("main already taken"));
            Box::new(move |api| {
                let mut ctx = TaskCtx::new(api, &sh, core);
                match main {
                    Some(main) => ctx.run_main(main),
                    None if scheduler == SchedulerKind::Static => {
                        static_sched::static_worker_loop(&mut ctx)
                    }
                    None => ctx.scheduling_loop(None),
                }
                ctx.finish();
            })
        })?;

        debug_assert!(
            shared.registry.is_empty(),
            "tasks left unexecuted at shutdown"
        );
        let mut worker_stats = vec![WorkerStats::default(); cores];
        for (core, stats) in shared.finished_stats.borrow_mut().drain(..) {
            worker_stats[core] = stats;
        }
        let marks = shared.marks.borrow().clone();
        let trace = shared
            .trace
            .as_ref()
            .map(|t| std::mem::take(&mut *t.borrow_mut()))
            .unwrap_or_default();
        let sanitizer = report.machine.take_sanitizer_report();
        let profile = report.machine.take_profile();
        Ok(RunReport {
            cycles: report.cycles,
            counters: report.counters,
            machine: report.machine,
            worker_stats,
            marks,
            trace,
            sanitizer,
            profile,
        })
    }
}

impl std::fmt::Debug for Mosaic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mosaic")
            .field("cores", &self.machine.core_count())
            .field("config", &self.config)
            .finish()
    }
}
