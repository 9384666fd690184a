//! The fleet front tier: a forwarding [`Executor`].
//!
//! A gateway is an ordinary [`Server`](crate::server::Server) — the
//! same accept loop, protocol dispatcher, job table, admission control
//! and drain as a worker daemon — whose executor runs nothing itself.
//! [`FleetExecutor::run`] does three jobs instead:
//!
//! - **Shard routing.** A singleton submission is forwarded to the
//!   node owning its digest on the consistent-hash
//!   [`ring`](crate::fleet::ring); a worker answering `cached: true`
//!   is a cross-node cache hit (counted in `remote_cache_hits`), so
//!   resubmitting anything anywhere in the fleet costs one forward.
//! - **Sweep fan-out.** Specs the injected [`Fanout`] can split are
//!   fanned into per-cell subjobs, each routed to its own owner; the
//!   parts are collected and merged **in canonical split order**, so
//!   the merged payload is byte-identical to a single-node run no
//!   matter which nodes executed which cells.
//! - **Failure re-routing.** A node that stops answering is marked
//!   down and its jobs are resubmitted along the ring-walk fallback
//!   order ([`HashRing::route`]). Workers journal every admitted
//!   subjob, so a restarted worker independently re-converges on the
//!   same payloads; the gateway's re-route just refuses to wait for
//!   the restart.
//!
//! Coalescing, the gateway-level result cache, queue-cap admission
//! and cancellation are the server's scheduler's: a resubmitted spec
//! joins its in-flight or `Done` record, and a failed, timed out or
//! cancelled one is replaced by a fresh attempt. The executor cannot
//! return a worker's `timeout` or `cancelled` state as its own, so a
//! subjob ending that way fails the gateway job, its error naming the
//! worker's state.

use crate::client::{Client, SubmitReply};
use crate::fleet::ring::{HashRing, DEFAULT_REPLICAS};
use crate::job::{JobSpec, JobState};
use crate::scheduler::{Executor, RetryPolicy};
use crate::sync::lock;
use jsonlite::Json;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One cell of a fanned-out sweep.
#[derive(Debug, Clone)]
pub struct SubJob {
    /// Stable label (e.g. the workload name) identifying the cell in
    /// canonical order; merge receives parts labelled with it.
    pub label: String,
    /// The cell's own complete spec (digested and cached like any
    /// other job).
    pub spec: JobSpec,
}

/// How the gateway splits sweeps and merges their parts.
///
/// The contract that keeps fleet goldens byte-identical: `split` must
/// return subjobs in **canonical order** (the order a single-node run
/// would emit their cells), every returned spec must itself be a
/// valid job, and `merge` over payloads presented in that same order
/// must reproduce the single-run payload byte for byte. The real
/// implementation lives in `mosaic-bench` (which knows the workload
/// tables); this crate stays experiment-agnostic.
pub trait Fanout: Send + Sync {
    /// Split `spec` into canonical-order subjobs, or `None` to forward
    /// it whole.
    fn split(&self, spec: &JobSpec) -> Option<Vec<SubJob>>;
    /// Merge the `(label, payload)` parts — presented in `split`
    /// order — back into the sweep's single payload.
    fn merge(&self, spec: &JobSpec, parts: &[(String, String)]) -> Result<String, String>;
}

/// Gateway-side counters, appended to the scheduler's snapshot by the
/// `metrics` verb.
#[derive(Default)]
struct FleetMetrics {
    /// Singleton submissions forwarded to a worker, plus one per
    /// fanned-out subjob submission.
    forwards: AtomicU64,
    /// Sweeps split into subjobs.
    fanouts: AtomicU64,
    /// Subjobs produced by fan-out.
    subjobs: AtomicU64,
    /// Jobs resubmitted along the fallback route after a node loss.
    reroutes: AtomicU64,
    /// Forwarded submissions a worker answered from its cache.
    remote_cache_hits: AtomicU64,
}

/// The gateway's executor: forwards each job to its ring owner, fans
/// sweeps out, and re-routes around workers that stop answering.
pub struct FleetExecutor {
    ring: HashRing,
    fanout: Arc<dyn Fanout>,
    down: Mutex<BTreeSet<String>>,
    metrics: FleetMetrics,
}

/// Why a worker did not take, or did not finish, a submission.
enum Miss {
    /// The worker rejected the submission (overloaded/draining/error
    /// response) — try the next node, don't mark this one down.
    Rejected(String),
    /// The worker stopped answering — mark it down and re-route.
    Lost(String),
}

impl FleetExecutor {
    /// An executor over the ring of `workers` (at least one);
    /// `fanout` decides which specs are sweeps and how their parts
    /// merge.
    pub fn new(workers: &[String], fanout: Arc<dyn Fanout>) -> Result<FleetExecutor, String> {
        Ok(FleetExecutor {
            ring: HashRing::new(workers, DEFAULT_REPLICAS)?,
            fanout,
            down: Mutex::new(BTreeSet::new()),
            metrics: FleetMetrics::default(),
        })
    }

    /// Route for `digest`: the ring walk with down nodes demoted to
    /// the tail (still tried as a last resort — a node marked down in
    /// error, or restarted since, can then still serve).
    fn route(&self, digest: &str) -> Vec<String> {
        let ring_order = self.ring.route(digest);
        let down = lock(&self.down);
        let (up, dn): (Vec<&str>, Vec<&str>) = ring_order.iter().partition(|n| !down.contains(**n));
        up.into_iter().chain(dn).map(str::to_string).collect()
    }

    fn mark_down(&self, node: &str) {
        let mut down = lock(&self.down);
        if down.insert(node.to_string()) {
            eprintln!("gateway: worker {node} marked down");
        }
    }

    fn mark_up(&self, node: &str) {
        let mut down = lock(&self.down);
        if down.remove(node) {
            eprintln!("gateway: worker {node} is back");
        }
    }

    /// Submit `spec` on `node`; on acceptance, returns the open
    /// connection and the worker's job id.
    fn land(&self, spec: &JobSpec, node: &str) -> Result<(Client, String), Miss> {
        let mut c = Client::connect_with_deadline(
            node,
            &RetryPolicy::with_attempts(3),
            Duration::from_secs(5),
        )
        .map_err(|e| Miss::Lost(format!("connect {node}: {e}")))?;
        let remote_id = match c.submit(spec) {
            Ok(SubmitReply::Accepted { id, cached, .. }) => {
                if cached {
                    self.metrics
                        .remote_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                id
            }
            Ok(SubmitReply::Overloaded { depth, cap }) => {
                return Err(Miss::Rejected(format!("{node} overloaded ({depth}/{cap})")));
            }
            Ok(SubmitReply::Draining) => return Err(Miss::Rejected(format!("{node} draining"))),
            Err(e) => return Err(Miss::Rejected(format!("{node} refused: {e}"))),
        };
        self.mark_up(node);
        Ok((c, remote_id))
    }

    /// Record a miss on `node`; returns its message.
    fn missed(&self, node: &str, miss: Miss) -> String {
        match miss {
            Miss::Rejected(e) => e,
            Miss::Lost(e) => {
                self.mark_down(node);
                e
            }
        }
    }

    /// Run `spec` somewhere along its route, re-routing around dead
    /// nodes (each re-route is announced through `say`); `Ok` is the
    /// payload.
    fn run_routed(
        &self,
        spec: &JobSpec,
        label: &str,
        say: &dyn Fn(&str),
    ) -> Result<String, String> {
        let mut last_err = "no reachable worker".to_string();
        for (i, node) in self.route(&spec.digest()).iter().enumerate() {
            if i > 0 {
                self.metrics.reroutes.fetch_add(1, Ordering::Relaxed);
                say(&format!("re-routing {label} to {node} ({last_err})"));
            }
            let outcome = self.land(spec, node).and_then(|(mut c, remote_id)| {
                // The connection dying mid-wait is a node loss, not a
                // job outcome — the spec is re-routed to a survivor.
                c.wait_result(&remote_id)
                    .map_err(|e| Miss::Lost(format!("{node} lost mid-run: {e}")))
            });
            match outcome {
                Ok(res) if res.state == JobState::Done => {
                    return Ok(res.payload.unwrap_or_default())
                }
                Ok(res) => {
                    let why = res.error.map(|e| format!(": {e}")).unwrap_or_default();
                    return Err(format!(
                        "{label} ended {} on {node}{why}",
                        res.state.as_str()
                    ));
                }
                Err(miss) => last_err = self.missed(node, miss),
            }
        }
        Err(format!("every worker refused {label}: {last_err}"))
    }

    /// A fanned-out sweep: fire every subjob at its owner up front,
    /// then collect and merge in canonical order.
    fn run_sweep(
        &self,
        spec: &JobSpec,
        subs: Vec<SubJob>,
        progress: &dyn Fn(u64, u64, &str),
        cancelled: &AtomicBool,
    ) -> Result<String, String> {
        self.metrics.fanouts.fetch_add(1, Ordering::Relaxed);
        let total = subs.len() as u64;
        progress(0, total, &format!("fan-out into {} subjobs", subs.len()));

        // Fire phase: land every subjob on its owner so the workers
        // chew in parallel. A submission that cannot land anywhere
        // fails the sweep immediately.
        for sub in &subs {
            self.metrics.subjobs.fetch_add(1, Ordering::Relaxed);
            self.metrics.forwards.fetch_add(1, Ordering::Relaxed);
            self.fire_sub(&sub.spec)
                .map_err(|e| format!("subjob {}: {e}", sub.label))?;
        }

        // Collect phase: wait in canonical split order; a node loss
        // re-routes that subjob along its ring walk (where the
        // fire-phase submission's journal/cache on a restarted node
        // makes the retry cheap). Cancellation takes effect at the
        // next subjob boundary.
        let mut parts: Vec<(String, String)> = Vec::with_capacity(subs.len());
        for (i, sub) in subs.iter().enumerate() {
            if cancelled.load(Ordering::Relaxed) {
                return Err("cancelled".to_string());
            }
            let done = i as u64;
            let payload = self
                .run_routed(&sub.spec, &sub.label, &|msg| progress(done, total, msg))
                .map_err(|e| format!("subjob {}: {e}", sub.label))?;
            progress(done + 1, total, &format!("{} merged", sub.label));
            parts.push((sub.label.clone(), payload));
        }
        self.fanout
            .merge(spec, &parts)
            .map_err(|e| format!("merge failed: {e}"))
    }

    /// Land one subjob on the first node along its route that accepts
    /// it (without waiting for the result).
    fn fire_sub(&self, spec: &JobSpec) -> Result<(), String> {
        let mut last_err = "no reachable worker".to_string();
        for node in self.route(&spec.digest()) {
            match self.land(spec, &node) {
                Ok(_) => return Ok(()),
                Err(miss) => last_err = self.missed(&node, miss),
            }
        }
        Err(last_err)
    }
}

impl Executor for FleetExecutor {
    /// Forward a singleton along its route, or fan a sweep out. A
    /// forwarded singleton runs to completion on its worker even when
    /// cancelled; the scheduler then records it `cancelled`.
    fn run(
        &self,
        spec: &JobSpec,
        progress: &dyn Fn(u64, u64, &str),
        cancelled: &AtomicBool,
    ) -> Result<String, String> {
        match self.fanout.split(spec) {
            Some(subs) => self.run_sweep(spec, subs, progress, cancelled),
            None => {
                self.metrics.forwards.fetch_add(1, Ordering::Relaxed);
                self.run_routed(spec, &spec.experiment, &|msg| progress(0, 0, msg))
            }
        }
    }

    fn metrics(&self) -> Vec<(String, Json)> {
        let field = |name: &str, v: u64| (name.to_string(), Json::from(v));
        let m = &self.metrics;
        let count = |c: &AtomicU64| c.load(Ordering::Relaxed);
        vec![
            ("role".to_string(), Json::from("gateway")),
            field("workers", self.ring.nodes().len() as u64),
            field("down_workers", lock(&self.down).len() as u64),
            field("forwards", count(&m.forwards)),
            field("fanouts", count(&m.fanouts)),
            field("subjobs", count(&m.subjobs)),
            field("reroutes", count(&m.reroutes)),
            field("remote_cache_hits", count(&m.remote_cache_hits)),
        ]
    }
}
