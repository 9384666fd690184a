#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-serve
//!
//! Simulation-as-a-service: turns the one-shot experiment binaries
//! into a persistent daemon that accepts jobs over TCP, executes them
//! on a bounded worker pool, and memoizes results in a
//! content-addressed cache.
//!
//! Four layers (each its own module):
//!
//! - [`job`] — the canonical [`JobSpec`] and its deterministic digest
//!   (the job id *and* the cache key: same spec ⇒ byte-identical
//!   simulation output, so content addressing is sound).
//! - [`cache`] — two-tier (memory + `results/cache/<digest>.json`)
//!   result cache with hit/miss counters.
//! - [`journal`] — crash-safe append-only job journal
//!   (`results/journal/journal.mlog`): a killed daemon replays it on
//!   restart, re-admits the jobs it lost, and converges to the same
//!   byte-identical results as an uninterrupted run.
//! - [`scheduler`] — bounded FIFO queue with typed `overloaded`
//!   admission control, a worker pool sized like `mosaic-bench`'s
//!   sweep pool (`workers × child_jobs ≤ host cores`),
//!   per-job `catch_unwind` panic isolation, wall-clock timeouts,
//!   cancellation, and graceful drain.
//! - [`protocol`] / [`server`] / [`client`] — newline-delimited JSON
//!   over `std::net::TcpListener` (the environment is offline; no
//!   hyper/tokio): `submit` / `status` / `result` / `watch` /
//!   `cancel` / `metrics` / `shutdown`, plus the fleet verbs
//!   `steal` / `offer` / `fetch`.
//! - [`fleet`] — the multi-daemon tier: a consistent-hash
//!   [`Gateway`] front, inter-node work
//!   stealing, cross-node cache lookup, and per-tenant token-bucket
//!   admission.
//!
//! The crate is executor-agnostic: callers inject an [`Executor`]
//! mapping a spec to a JSON payload. `mosaic-bench` provides the real
//! one (running the experiment harnesses); tests inject synthetic
//! ones. This keeps the dependency arrow pointing from the harness to
//! the service, never back.

pub mod cache;
pub mod client;
pub mod fleet;
pub mod inject;
pub mod job;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod scheduler;
pub mod server;
mod sync;

pub use cache::ResultCache;
pub use client::{Client, ResultReply, SubmitReply};
pub use fleet::bucket::TenantGate;
pub use fleet::gateway::{Fanout, Gateway, GatewayConfig, NoFanout, SubJob};
pub use fleet::ring::HashRing;
pub use fleet::steal::PeerCache;
pub use inject::FaultyExecutor;
pub use job::{JobSpec, JobState};
pub use journal::{Journal, Replay, ReplayJob};
pub use metrics::Metrics;
pub use protocol::Request;
pub use scheduler::{
    Executor, JobRecord, JobView, RemoteLookup, RetryPolicy, SchedConfig, Scheduler, Submit,
};
pub use server::{Server, ServerConfig};
