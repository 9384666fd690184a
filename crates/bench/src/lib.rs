#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-bench
//!
//! Harnesses that regenerate every table and figure of the paper's
//! evaluation. [`experiment::EXPERIMENTS`] is the single list of them:
//! one descriptor per experiment (name, default scale and mesh shape,
//! capabilities, how to enumerate its cells and render their results),
//! one driver ([`experiment::main`]) that every binary of that name
//! under `src/bin/` calls, one committed golden file each. Readers that
//! only need names and capabilities use its code-free projection,
//! [`CATALOG`].
//!
//! Every harness accepts `--scale tiny|small|full` and `--cols N
//! --rows N` to trade fidelity against wall-clock time (defaults keep
//! a full sweep in the minutes range on a laptop), plus the shared
//! observer/gating flags [`Options`] parses: `--jobs`, `--sanitize`,
//! `--faults SPEC`, `--profile`, `--prof-out DIR`, and
//! `--check-golden`/`--write-golden`.
//!
//! The remaining binaries are not experiments: `reproduce_all` runs
//! the whole table (locally, or `--via-server ADDR` through a daemon),
//! `calibrate` fits the analytic model, `serve`/`gateway` front the
//! `mosaic-serve` subsystem (see [`service`], [`fleet`]) with
//! `mosaic-client` as their CLI, and `recovery_sweep`/`recovery_fleet`
//! are the kill-and-recover gates.

pub mod chaos;
pub mod cli;
pub mod experiment;
pub mod fleet;
pub mod golden;
pub mod prof;
pub mod sanitize;
pub mod service;
pub mod sweep;
pub mod table;

pub use cli::{GoldenMode, Options, CALIBRATION_PATH};
pub use experiment::CATALOG;
pub use fleet::SweepFanout;
pub use golden::{GoldenCell, GoldenCounter, GoldenFile};
pub use sanitize::{SanCell, SanitizeGate};
pub use service::BinExecutor;
pub use sweep::{run_cells, SweepRow, SweepTiming};
pub use table::Table;
