#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-sim
//!
//! The Mosaic machine model and discrete-event engine.
//!
//! This crate composes the network substrate (`mosaic-mesh`) and the
//! memory endpoints (`mosaic-mem`) into a full manycore [`Machine`],
//! and runs *per-core behaviours* — ordinary blocking Rust closures —
//! under a deterministic discrete-event [`Engine`].
//!
//! ## Execution model
//!
//! Every simulated core runs its behaviour closure as a stackful
//! coroutine: a closure with a 32 MiB lazily-committed stack of its own
//! that the engine's event loop switches into and out of on the thread
//! that called [`Engine::run`] — one simulation is one OS thread,
//! whatever the core count. The engine owns **all** shared machine
//! state and applies core requests in global cycle order; exactly one
//! of {event loop, one core} is executing at any instant, so the
//! simulation is data-race-free and bit-deterministic even though core
//! code is written in a natural blocking style:
//!
//! ```text
//! core:     let v = api.load(addr);   // writes the request, switches to the loop
//! engine:   route request through mesh/LLC/DRAM models,
//!           compute completion cycle; when that event pops,
//!           write the value and switch back to the core
//! ```
//!
//! A switch is some twenty instructions in user space (see `coro.rs`).
//! Several engines can run at once on different threads — the sweep
//! pool does — because nothing about a run is global.
//!
//! Blocking loads, a small non-blocking store queue with `fence`, and
//! endpoint-executed AMOs match the HammerBlade core's memory
//! interface (paper §2.1: relaxed consistency, explicit fences).
//!
//! ## Example
//!
//! ```
//! use mosaic_sim::{Engine, Machine, MachineConfig};
//!
//! let config = MachineConfig::small(4, 2); // 8 cores for a quick demo
//! let mut machine = Machine::new(config);
//! let flag = machine.dram_alloc_words(1);
//!
//! let report = Engine::run(machine, |core| {
//!     Box::new(move |api| {
//!         if core == 0 {
//!             api.store(flag, 42);
//!             api.fence();
//!         }
//!         api.charge(10, 10); // every core does a little work
//!     })
//! });
//! assert_eq!(report.machine.peek(flag), 42);
//! assert!(report.cycles > 0);
//! ```

pub mod backend;
pub mod calendar;
pub mod checkpoint;
pub mod config;
mod coro;
pub mod counters;
pub mod engine;
pub mod machine;

pub use backend::{
    demand_from_profile, machine_params, AnalyticBackend, AutoBackend, Backend, BackendJob,
    BackendReport, CycleBackend, CycleOutcome, FamilyKey,
};
pub use calendar::CalendarQueue;
pub use checkpoint::{CheckpointHeader, CHECKPOINT_VERSION};
pub use config::MachineConfig;
pub use counters::{CoreCounters, MachineCounters};
pub use engine::{CoreApi, Engine, Report, SimError};
pub use machine::Machine;
pub use mosaic_chaos::FaultPlan;
pub use mosaic_model::Fidelity;

pub use mosaic_mem::{Addr, AmoOp, Region};
pub use mosaic_prof::{Bucket, MachineProfile, MemClass, Phase, ProfSink, BUCKET_COUNT};

/// One cycle of the (notionally 1.5 GHz) core clock.
pub type Cycle = u64;

/// Dense core identifier, `0..core_count`.
pub type CoreId = usize;
