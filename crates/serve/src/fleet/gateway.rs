//! The fleet front tier.
//!
//! A [`Gateway`] binds the same NDJSON protocol as a worker daemon and
//! presents the whole fleet as one: clients submit to it, poll it, and
//! read results from it exactly as they would a single daemon. Behind
//! the accept loop it does three jobs:
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
//!   order ([`HashRing::route`](crate::fleet::ring::HashRing::route)).
//!   Workers journal every admitted subjob, so a restarted worker
//!   independently re-converges on the same payloads; the gateway's
//!   re-route just refuses to wait for the restart.
//!
//! Resubmitting a spec the gateway already knows coalesces onto its
//! record while that record is in flight or `Done`; a failed, timed
//! out or cancelled record is replaced by a fresh attempt, as the
//! worker scheduler does.

use crate::client::Client;
use crate::fleet::ring::{HashRing, DEFAULT_REPLICAS};
use crate::job::{JobSpec, JobState};
use crate::protocol::{self, Request};
use crate::scheduler::{JobRecord, RetryPolicy};
use crate::sync::lock;
use jsonlite::Json;
use std::collections::{BTreeSet, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
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

/// The trivial fanout: never splits anything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFanout;

impl Fanout for NoFanout {
    fn split(&self, _spec: &JobSpec) -> Option<Vec<SubJob>> {
        None
    }
    fn merge(&self, _spec: &JobSpec, _parts: &[(String, String)]) -> Result<String, String> {
        Err("NoFanout cannot merge".to_string())
    }
}

/// Gateway configuration.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Bind address (port 0 = ephemeral).
    pub addr: String,
    /// Worker daemon addresses (the ring members). At least one.
    pub workers: Vec<String>,
    /// Virtual points per worker on the hash ring.
    pub replicas: usize,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:9119".to_string(),
            workers: Vec::new(),
            replicas: DEFAULT_REPLICAS,
        }
    }
}

/// Gateway-side counters, exported through the same `metrics` verb as
/// a worker's (clients print unknown keys in their "other" section).
#[derive(Debug, Default)]
pub struct FleetMetrics {
    /// Singleton submissions forwarded to a worker, plus one per
    /// fanned-out subjob submission.
    pub forwards: AtomicU64,
    /// Sweeps split into subjobs.
    pub fanouts: AtomicU64,
    /// Subjobs produced by fan-out.
    pub subjobs: AtomicU64,
    /// Jobs resubmitted along the fallback route after a node loss.
    pub reroutes: AtomicU64,
    /// Forwarded submissions a worker answered from its cache.
    pub remote_cache_hits: AtomicU64,
    /// Gateway jobs that reached `Done`.
    pub completed: AtomicU64,
    /// Gateway jobs that reached `Failed`.
    pub failed: AtomicU64,
}

struct Shared {
    ring: HashRing,
    fanout: Arc<dyn Fanout>,
    jobs: Mutex<HashMap<String, Arc<JobRecord>>>,
    metrics: FleetMetrics,
    down: Mutex<BTreeSet<String>>,
    draining: AtomicBool,
    /// In-flight forward/fan-out coordinator threads; drain completes
    /// at zero (the accept loop polls it on its idle tick).
    active: Mutex<usize>,
}

/// A running gateway: accept loop plus per-job coordinator threads.
pub struct Gateway {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    accept: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Gateway {
    /// Bind and start accepting. `fanout` decides which specs are
    /// sweeps and how their parts merge.
    pub fn start(cfg: GatewayConfig, fanout: Arc<dyn Fanout>) -> std::io::Result<Gateway> {
        let ring = HashRing::new(&cfg.workers, cfg.replicas)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        let shared = Arc::new(Shared {
            ring,
            fanout,
            jobs: Mutex::new(HashMap::new()),
            metrics: FleetMetrics::default(),
            down: Mutex::new(BTreeSet::new()),
            draining: AtomicBool::new(false),
            active: Mutex::new(0),
        });
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let accept_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("gateway-accept".to_string())
            .spawn(move || accept_loop(listener, accept_shared))
            .expect("spawn gateway accept thread");
        Ok(Gateway {
            shared,
            local_addr,
            accept: Mutex::new(Some(handle)),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The gateway-side counters.
    pub fn metrics(&self) -> &FleetMetrics {
        &self.shared.metrics
    }

    /// Request a drain without a client connection.
    pub fn request_shutdown(&self) {
        self.shared.draining.store(true, Ordering::Relaxed);
    }

    /// Block until the gateway drains: the accept thread only exits
    /// once a shutdown was requested *and* every in-flight forward or
    /// fan-out coordinator resolved.
    pub fn join(&self) {
        if let Some(h) = lock(&self.accept).take() {
            let _ = h.join();
        }
    }
}

impl Shared {
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

    fn snapshot(&self) -> Json {
        let m = &self.metrics;
        let jobs = lock(&self.jobs).len() as u64;
        let down = lock(&self.down).len() as u64;
        Json::obj()
            .field("type", "metrics")
            .field("role", "gateway")
            .field("workers", self.ring.nodes().len() as u64)
            .field("down_workers", down)
            .field("jobs", jobs)
            .field("active", *lock(&self.active) as u64)
            .field("forwards", m.forwards.load(Ordering::Relaxed))
            .field("fanouts", m.fanouts.load(Ordering::Relaxed))
            .field("subjobs", m.subjobs.load(Ordering::Relaxed))
            .field("reroutes", m.reroutes.load(Ordering::Relaxed))
            .field(
                "remote_cache_hits",
                m.remote_cache_hits.load(Ordering::Relaxed),
            )
            .field("completed", m.completed.load(Ordering::Relaxed))
            .field("failed", m.failed.load(Ordering::Relaxed))
            .build()
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let shared = Arc::clone(&shared);
                let _ = std::thread::Builder::new()
                    .name("gateway-conn".to_string())
                    .spawn(move || {
                        let _ = handle_conn(stream, &shared);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if shared.draining.load(Ordering::Relaxed) && *lock(&shared.active) == 0 {
                    return;
                }
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
}

fn send(stream: &mut TcpStream, v: &Json) -> std::io::Result<()> {
    let mut line = v.write();
    line.push('\n');
    stream.write_all(line.as_bytes())
}

fn handle_conn(stream: TcpStream, shared: &Arc<Shared>) -> std::io::Result<()> {
    let reader = BufReader::new(stream.try_clone()?);
    let mut out = stream;
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let req = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                send(&mut out, &protocol::resp_error(&e))?;
                continue;
            }
        };
        match req {
            Request::Submit { spec } => send(&mut out, &submit(shared, spec))?,
            Request::Status { id } => {
                let resp = match lock(&shared.jobs).get(&id) {
                    Some(job) => protocol::resp_status(&id, &job.view()),
                    None => protocol::resp_error(&format!("unknown job {id:?}")),
                };
                send(&mut out, &resp)?;
            }
            Request::Result { id, wait } => {
                let job = lock(&shared.jobs).get(&id).cloned();
                let resp = match job {
                    Some(job) => {
                        let view = if wait {
                            job.wait_terminal()
                        } else {
                            job.view()
                        };
                        if view.state.is_terminal() {
                            protocol::resp_result(&id, &view)
                        } else {
                            protocol::resp_pending(&id, &view)
                        }
                    }
                    None => protocol::resp_error(&format!("unknown job {id:?}")),
                };
                send(&mut out, &resp)?;
            }
            Request::Watch { id } => {
                let job = lock(&shared.jobs).get(&id).cloned();
                match job {
                    Some(job) => {
                        let mut seen = 0usize;
                        loop {
                            let (events, view) = job.wait_events(seen);
                            for msg in &events {
                                send(
                                    &mut out,
                                    &protocol::resp_progress(&id, view.done, view.total, msg),
                                )?;
                            }
                            seen += events.len();
                            if view.state.is_terminal() {
                                send(&mut out, &protocol::resp_status(&id, &view))?;
                                break;
                            }
                        }
                    }
                    None => send(
                        &mut out,
                        &protocol::resp_error(&format!("unknown job {id:?}")),
                    )?,
                }
            }
            Request::Cancel { id } => {
                // Best-effort: the flag stops a sweep at its next
                // subjob boundary; an already-forwarded singleton runs
                // to completion on its worker.
                let resp = match lock(&shared.jobs).get(&id) {
                    Some(job) => {
                        job.request_cancel();
                        protocol::resp_cancel(&id, job.view().state)
                    }
                    None => protocol::resp_error(&format!("unknown job {id:?}")),
                };
                send(&mut out, &resp)?;
            }
            Request::Metrics => send(&mut out, &shared.snapshot())?,
            Request::Shutdown => {
                shared.draining.store(true, Ordering::Relaxed);
                send(&mut out, &protocol::resp_shutdown())?;
            }
        }
    }
    Ok(())
}

/// Dispatch one submission; returns the response line.
fn submit(shared: &Arc<Shared>, spec: JobSpec) -> Json {
    if shared.draining.load(Ordering::Relaxed) {
        return protocol::resp_draining();
    }
    let id = spec.digest();
    let record = {
        let mut jobs = lock(&shared.jobs);
        if let Some(existing) = jobs.get(&id) {
            let state = existing.view().state;
            // Coalesce onto in-flight work and replay a completed
            // record as a (gateway-level) cache hit. Any other terminal
            // state is replaced below: the workers may have recovered.
            if state == JobState::Done || !state.is_terminal() {
                return protocol::resp_accepted(&id, state, state == JobState::Done);
            }
        }
        let record = JobRecord::new(spec.clone(), JobState::Queued);
        jobs.insert(id.clone(), Arc::clone(&record));
        record
    };
    {
        let mut g = lock(&shared.active);
        *g += 1;
    }
    let coordinator = Arc::clone(shared);
    let split = shared.fanout.split(&spec);
    let _ = std::thread::Builder::new()
        .name(format!("gateway-job-{id}"))
        .spawn(move || {
            match split {
                Some(subs) => run_sweep(&coordinator, &record, subs),
                None => run_forward(&coordinator, &record),
            }
            let mut g = lock(&coordinator.active);
            *g -= 1;
        });
    protocol::resp_accepted(&id, JobState::Queued, false)
}

/// How one attempt to run a spec on one worker ended.
enum NodeOutcome {
    /// Terminal on the worker (mirrors the job's state there).
    Terminal(JobState, Option<String>, Option<String>),
    /// The worker rejected the submission (overloaded/draining/error
    /// response) — try the next node, don't mark this one down.
    Rejected(String),
    /// The worker stopped answering — mark it down and re-route.
    NodeLost(String),
}

/// Submit `spec` on `node` and wait for its terminal outcome.
fn run_on_node(shared: &Shared, spec: &JobSpec, node: &str) -> NodeOutcome {
    let mut c = match Client::connect_with_deadline(
        node,
        &RetryPolicy::with_attempts(3),
        Duration::from_secs(5),
    ) {
        Ok(c) => c,
        Err(e) => return NodeOutcome::NodeLost(format!("connect {node}: {e}")),
    };
    let remote_id = match c.submit(spec) {
        Ok(crate::client::SubmitReply::Accepted { id, cached, .. }) => {
            if cached {
                shared
                    .metrics
                    .remote_cache_hits
                    .fetch_add(1, Ordering::Relaxed);
            }
            id
        }
        Ok(crate::client::SubmitReply::Overloaded { depth, cap }) => {
            return NodeOutcome::Rejected(format!("{node} overloaded ({depth}/{cap})"));
        }
        Ok(crate::client::SubmitReply::Draining) => {
            return NodeOutcome::Rejected(format!("{node} draining"));
        }
        Err(e) => return NodeOutcome::Rejected(format!("{node} refused: {e}")),
    };
    shared.mark_up(node);
    match c.wait_result(&remote_id) {
        Ok(res) => NodeOutcome::Terminal(res.state, res.payload, res.error),
        // The connection died mid-wait: that is a node loss, not a job
        // outcome — the spec is re-routed to a survivor.
        Err(e) => NodeOutcome::NodeLost(format!("{node} lost mid-run: {e}")),
    }
}

/// Run `spec` somewhere along `route`, re-routing around dead nodes;
/// `Ok` is the payload.
fn run_routed(
    shared: &Shared,
    record: &Arc<JobRecord>,
    spec: &JobSpec,
    label: &str,
) -> Result<String, (JobState, String)> {
    let mut last_err = "no reachable worker".to_string();
    for (i, node) in shared.route(&spec.digest()).iter().enumerate() {
        if i > 0 {
            shared.metrics.reroutes.fetch_add(1, Ordering::Relaxed);
            let view = record.view();
            record.push_event(
                view.done,
                view.total,
                &format!("re-routing {label} to {node} ({last_err})"),
            );
        }
        match run_on_node(shared, spec, node) {
            NodeOutcome::Terminal(JobState::Done, payload, _) => {
                return Ok(payload.unwrap_or_default());
            }
            NodeOutcome::Terminal(state, _, error) => {
                return Err((
                    state,
                    error.unwrap_or_else(|| format!("{label} ended {}", state.as_str())),
                ));
            }
            NodeOutcome::Rejected(e) => last_err = e,
            NodeOutcome::NodeLost(e) => {
                shared.mark_down(node);
                last_err = e;
            }
        }
    }
    Err((
        JobState::Failed,
        format!("every worker refused {label}: {last_err}"),
    ))
}

/// Publish a terminal state on a gateway job record.
fn finish(shared: &Shared, record: &Arc<JobRecord>, outcome: Result<String, (JobState, String)>) {
    match outcome {
        Ok(payload) => {
            shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
            record.set_state(|v| {
                v.state = JobState::Done;
                v.payload = Some(payload);
            });
        }
        Err((state, error)) => {
            shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            record.set_state(|v| {
                v.state = state;
                v.error = Some(error);
            });
        }
    }
}

/// Coordinator for a singleton job: forward along the route.
fn run_forward(shared: &Arc<Shared>, record: &Arc<JobRecord>) {
    shared.metrics.forwards.fetch_add(1, Ordering::Relaxed);
    record.set_state(|v| v.state = JobState::Running);
    let outcome = run_routed(shared, record, &record.spec, &record.spec.experiment);
    finish(shared, record, outcome);
}

/// Coordinator for a fanned-out sweep: fire every subjob at its owner
/// up front, then collect and merge in canonical order.
fn run_sweep(shared: &Arc<Shared>, record: &Arc<JobRecord>, subs: Vec<SubJob>) {
    shared.metrics.fanouts.fetch_add(1, Ordering::Relaxed);
    record.set_state(|v| v.state = JobState::Running);
    let total = subs.len() as u64;
    record.push_event(0, total, &format!("fan-out into {} subjobs", subs.len()));

    // Fire phase: land every subjob on its owner so the workers chew
    // in parallel. A submission that cannot land anywhere fails the
    // sweep immediately.
    for sub in &subs {
        shared.metrics.subjobs.fetch_add(1, Ordering::Relaxed);
        shared.metrics.forwards.fetch_add(1, Ordering::Relaxed);
        if let Err(e) = fire_sub(shared, &sub.spec) {
            finish(
                shared,
                record,
                Err((JobState::Failed, format!("subjob {}: {e}", sub.label))),
            );
            return;
        }
    }

    // Collect phase: wait in canonical split order; a node loss
    // re-routes that subjob along its ring walk (where the fire-phase
    // submission's journal/cache on a restarted node makes the retry
    // cheap).
    let mut parts: Vec<(String, String)> = Vec::with_capacity(subs.len());
    for (i, sub) in subs.iter().enumerate() {
        if record.is_cancelled() {
            record.set_state(|v| v.state = JobState::Cancelled);
            return;
        }
        match run_routed(shared, record, &sub.spec, &sub.label) {
            Ok(payload) => {
                record.push_event(i as u64 + 1, total, &format!("{} merged", sub.label));
                parts.push((sub.label.clone(), payload));
            }
            Err((state, error)) => {
                finish(
                    shared,
                    record,
                    Err((state, format!("subjob {}: {error}", sub.label))),
                );
                return;
            }
        }
    }
    let merged = shared
        .fanout
        .merge(&record.spec, &parts)
        .map_err(|e| (JobState::Failed, format!("merge failed: {e}")));
    finish(shared, record, merged);
}

/// Land one subjob on the first node along its route that accepts it
/// (without waiting for the result).
fn fire_sub(shared: &Shared, spec: &JobSpec) -> Result<(), String> {
    let mut last_err = "no reachable worker".to_string();
    for node in shared.route(&spec.digest()) {
        let mut c = match Client::connect_with_deadline(
            &node,
            &RetryPolicy::with_attempts(3),
            Duration::from_secs(5),
        ) {
            Ok(c) => c,
            Err(e) => {
                shared.mark_down(&node);
                last_err = format!("connect {node}: {e}");
                continue;
            }
        };
        match c.submit(spec) {
            Ok(crate::client::SubmitReply::Accepted { cached, .. }) => {
                if cached {
                    shared
                        .metrics
                        .remote_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                }
                shared.mark_up(&node);
                return Ok(());
            }
            Ok(crate::client::SubmitReply::Overloaded { depth, cap }) => {
                last_err = format!("{node} overloaded ({depth}/{cap})");
            }
            Ok(crate::client::SubmitReply::Draining) => {
                last_err = format!("{node} draining");
            }
            Err(e) => {
                last_err = format!("{node} refused: {e}");
            }
        }
    }
    Err(last_err)
}
