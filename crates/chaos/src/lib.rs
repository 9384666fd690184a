#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(clippy::float_arithmetic)]
//! # mosaic-chaos
//!
//! Deterministic, seeded fault injection for the Mosaic simulator.
//!
//! The paper's core claim is that a work-stealing runtime stays
//! *correct* when timing is unpredictable: steals, SPM overflows, and
//! NoC hot spots are all timing-dependent code paths. A [`FaultPlan`]
//! makes that property testable inside the simulated machine by
//! scheduling two fault families:
//!
//! - **timing faults** — NoC link stall windows, LLC-bank / DRAM
//!   latency spikes, and per-core freeze (pipeline hiccup) windows.
//!   These perturb *when* things happen, never *what* is computed: any
//!   timing-only plan must leave workload payloads bit-identical to
//!   the fault-free run while cycle counts differ.
//! - **data faults** — single-bit flips in SPM or DRAM words. These
//!   corrupt state and must be *detected*: the [`DivergenceChecker`]
//!   reruns the workload fault-free and diffs the payloads, so a flip
//!   is never silently absorbed into a "passing" run.
//!
//! Everything is derived from one seed with a splitmix64 generator, so
//! a plan is fully described by its canonical [spec
//! string](FaultPlan::to_spec) (what `--faults` accepts) and can be
//! digested into a job's cache key: same plan ⇒ byte-identical
//! simulation, same as every other simulation input.
//!
//! Faults in the host around the simulator (executor panics,
//! slowness, process kills) are the serve stack's own, in
//! `mosaic_serve::inject`. This crate is simulator-side code and, like
//! the simulator, spawns no thread.

pub mod divergence;
pub mod plan;
pub mod rng;
pub mod schedule;

pub use divergence::{payload_digest, DivergenceChecker, DivergenceReport, RunDigest};
pub use plan::{BitFlip, FaultBurst, FaultPlan, FlipTarget, SpikeBurst};
pub use rng::SplitMix64;
pub use schedule::{FaultGeometry, FaultSchedule, ScheduledFlip, SpikeWindow, Window};

/// One cycle of simulated time (same unit as `mosaic-sim`).
pub type Cycle = u64;
