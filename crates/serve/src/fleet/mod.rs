//! The fleet tier: consistent-hash sharding, sweep fan-out, and
//! dead-node re-routing across multiple serve daemons.
//!
//! A fleet is N ordinary serve daemons (the *workers*) plus one
//! gateway front tier. The gateway is itself a
//! [`Server`](crate::server::Server), started with a
//! [`FleetExecutor`](gateway::FleetExecutor) instead of one that runs
//! experiments, so it speaks the same newline-delimited JSON protocol
//! as a single daemon and every existing client (`mosaic-client`,
//! `reproduce_all --via-server`) works against it unchanged —
//! `--via-fleet` is `--via-server` pointed at the gateway. Workers
//! know nothing of each other or of the gateway: they are plain
//! daemons.
//!
//! Two pieces, each its own module:
//!
//! - [`ring`] — the consistent-hash ring mapping a [`JobSpec`] digest
//!   to its owning worker, plus the deterministic fallback order used
//!   for re-routing around dead nodes. Because the job id *is* the
//!   content digest, sharding by ring position shards the
//!   content-addressed cache with zero coordination.
//! - [`gateway`] — the forwarding executor: forwards singleton jobs
//!   to their owning shard, splits sweeps into per-workload subjobs
//!   via a caller-provided [`Fanout`](gateway::Fanout), collects the
//!   parts in canonical order, merges them byte-identically to a
//!   single-node run, and re-routes around workers that stop
//!   answering.
//!
//! [`JobSpec`]: crate::job::JobSpec

pub mod gateway;
pub mod ring;
