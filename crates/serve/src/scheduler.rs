//! Admission control, the bounded job queue, and the worker pool.
//!
//! The shape mirrors the paper runtime's queue/worker split one level
//! up: submission (work generation) is decoupled from execution (a
//! fixed worker pool) through a bounded FIFO queue. Admission control
//! rejects — with a typed `overloaded` response — rather than buffering
//! unboundedly, so a flood of submissions degrades into fast failures
//! instead of memory growth. Each job runs on a detached thread under
//! `catch_unwind` with a wall-clock timeout: a poisoned job fails, the
//! server lives.

use crate::cache::ResultCache;
use crate::job::{JobSpec, JobState};
use crate::metrics::Metrics;
use crate::sync::{lock, wait};
use mosaic_model::CalibrationTable;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How the server turns a [`JobSpec`] into a result payload.
///
/// Implementations must be deterministic in the spec (that is what
/// makes the result cache sound) and should poll `cancelled`
/// periodically so cancellation and timeouts can reclaim the host
/// resources the job holds (e.g. kill a child process).
pub trait Executor: Send + Sync + 'static {
    /// Run the job. `progress(done, total, message)` may be called any
    /// number of times; `total == 0` means "unknown". The returned
    /// `Ok` payload must be a complete JSON document (it is cached and
    /// served verbatim).
    fn run(
        &self,
        spec: &JobSpec,
        progress: &dyn Fn(u64, u64, &str),
        cancelled: &AtomicBool,
    ) -> Result<String, String>;
}

/// Cross-node cache lookup, consulted once per job right before the
/// first execution attempt. Implementations ask fleet peers (over the
/// cache-only `fetch` verb) whether any of them already paid for this
/// digest; a hit is completed like a local run — cached, journaled,
/// counted — without invoking the executor. Soundness rests on the
/// same property as the local cache: the id is a content digest, so
/// any peer's payload for it is *the* payload.
pub trait RemoteLookup: Send + Sync + std::fmt::Debug {
    /// The cached payload for `id`, if some peer holds it.
    fn fetch(&self, id: &str) -> Option<String>;
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Maximum queued (not yet running) jobs; submissions beyond this
    /// are rejected with `overloaded`. A cap of 0 rejects everything —
    /// useful as a drain/maintenance mode and exercised by tests.
    pub queue_cap: usize,
    /// Worker threads executing jobs. Size this so
    /// `workers × child_jobs ≤ host cores` (each simulation is one OS
    /// thread — same rule `mosaic-bench`'s sweep pool applies per
    /// cell).
    pub workers: usize,
    /// Per-*attempt* wall-clock timeout; expiry marks the job
    /// `timeout`, flags it cancelled, and abandons its thread. A
    /// timeout is terminal — it is never retried (the next attempt
    /// would very likely burn the same budget again).
    pub job_timeout: Duration,
    /// Bounded retry policy for failed attempts (executor errors,
    /// panics, worker deaths). The default performs no retries.
    pub retry: RetryPolicy,
    /// Calibration table backing `auto`-fidelity resolution. `None`
    /// (the default) rejects `auto` submissions outright — a daemon
    /// that never ran `calibrate` has no basis for trusting the
    /// analytic model.
    pub calibration: Option<Arc<CalibrationTable>>,
    /// Widest calibrated confidence band (relative error, ppm) the
    /// scheduler still answers analytically; `auto` jobs over it are
    /// escalated to the cycle-accurate backend.
    pub escalate_bound_ppm: u64,
    /// Crash-safety journal ([`crate::journal`]). `None` (the default)
    /// journals nothing; the server opens one, replays it, and passes
    /// the handle in so every lifecycle transition is durably logged.
    pub journal: Option<Arc<crate::journal::Journal>>,
    /// Cross-node cache lookup ([`RemoteLookup`]); `None` (the
    /// default) asks no peers. The server wires in a fleet peer-cache
    /// client when started with peers.
    pub remote: Option<Arc<dyn RemoteLookup>>,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            queue_cap: 64,
            workers: 1,
            job_timeout: Duration::from_secs(600),
            retry: RetryPolicy::default(),
            calibration: None,
            escalate_bound_ppm: 100_000,
            journal: None,
            remote: None,
        }
    }
}

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// Retrying is sound here because executors are required to be
/// deterministic *in the spec* and side-effect-free beyond their
/// scratch space — a failed attempt leaves nothing a rerun could
/// trip over. Jitter is derived by hashing `(job id, attempt)` rather
/// than sampled, so a given job's retry timeline is reproducible.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per job, including the first (min 1; 1 = never
    /// retry).
    pub max_attempts: u32,
    /// Backoff before the second attempt; doubles each retry.
    pub base_backoff: Duration,
    /// Ceiling on the (pre-jitter) backoff.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            base_backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
        }
    }
}

impl RetryPolicy {
    /// The default backoff shape with `max_attempts` total attempts.
    pub fn with_attempts(max_attempts: u32) -> Self {
        RetryPolicy {
            max_attempts,
            ..RetryPolicy::default()
        }
    }

    /// Backoff before attempt `attempt + 1`, given that attempt
    /// `attempt` (1-based) just failed: `base * 2^(attempt-1)` capped
    /// at `max_backoff`, scaled by a deterministic 50–100% jitter
    /// derived from `(key, attempt)`.
    pub fn backoff(&self, key: &str, attempt: u32) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        let capped = exp.min(self.max_backoff);
        let h = crate::job::fnv1a64(format!("{key}:{attempt}").as_bytes());
        let percent = 50 + (h % 51); // 50..=100
        Duration::from_millis(capped.as_millis() as u64 * percent / 100)
    }
}

/// Point-in-time view of one job, cheap to clone across the protocol.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Lifecycle state.
    pub state: JobState,
    /// Progress units finished (experiment cells, typically).
    pub done: u64,
    /// Total progress units, 0 when unknown.
    pub total: u64,
    /// Result payload once `Done`.
    pub payload: Option<String>,
    /// Failure message once `Failed`.
    pub error: Option<String>,
}

struct JobInner {
    view: JobView,
    events: Vec<String>,
}

/// One submitted job: spec, live state, progress event log.
pub struct JobRecord {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Content digest of the spec (the job id).
    pub id: String,
    inner: Mutex<JobInner>,
    cv: Condvar,
    cancelled: AtomicBool,
    enqueued_at: Instant,
}

impl JobRecord {
    /// Crate-visible so the fleet gateway can host records for jobs it
    /// forwards (it shares this type with the local scheduler).
    pub(crate) fn new(spec: JobSpec, state: JobState) -> Arc<JobRecord> {
        let id = spec.digest();
        Arc::new(JobRecord {
            spec,
            id,
            inner: Mutex::new(JobInner {
                view: JobView {
                    state,
                    done: 0,
                    total: 0,
                    payload: None,
                    error: None,
                },
                events: Vec::new(),
            }),
            cv: Condvar::new(),
            cancelled: AtomicBool::new(false),
            enqueued_at: Instant::now(),
        })
    }

    /// Current snapshot.
    pub fn view(&self) -> JobView {
        lock(&self.inner).view.clone()
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Request cancellation (the executor observes the flag).
    pub fn request_cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    pub(crate) fn set_state(&self, f: impl FnOnce(&mut JobView)) {
        let mut g = lock(&self.inner);
        f(&mut g.view);
        self.cv.notify_all();
    }

    pub(crate) fn push_event(&self, done: u64, total: u64, message: &str) {
        let mut g = lock(&self.inner);
        g.view.done = done;
        g.view.total = total;
        g.events.push(message.to_string());
        self.cv.notify_all();
    }

    /// Block until the job reaches a terminal state; returns the final
    /// snapshot.
    pub fn wait_terminal(&self) -> JobView {
        let mut g = lock(&self.inner);
        while !g.view.state.is_terminal() {
            g = wait(&self.cv, g);
        }
        g.view.clone()
    }

    /// Block until there are events past `from` or the job is
    /// terminal; returns the new events and the current snapshot.
    pub fn wait_events(&self, from: usize) -> (Vec<String>, JobView) {
        let mut g = lock(&self.inner);
        while g.events.len() <= from && !g.view.state.is_terminal() {
            g = wait(&self.cv, g);
        }
        (
            g.events[from.min(g.events.len())..].to_vec(),
            g.view.clone(),
        )
    }
}

/// Outcome of a submission attempt.
pub enum Submit {
    /// Result served straight from the cache (no queueing).
    Cached(Arc<JobRecord>),
    /// Admitted and queued.
    Enqueued(Arc<JobRecord>),
    /// The same spec is already queued or running; coalesced onto the
    /// existing record.
    InFlight(Arc<JobRecord>),
    /// Rejected by admission control.
    Overloaded {
        /// Jobs currently queued.
        depth: usize,
        /// The configured cap.
        cap: usize,
    },
    /// Rejected because the server is draining for shutdown.
    Draining,
    /// Rejected because the spec asked for something this daemon
    /// cannot serve (e.g. `auto` fidelity without a calibration
    /// table). The message goes back verbatim as an `error` response.
    Unsupported(String),
}

struct SchedInner {
    queue: VecDeque<Arc<JobRecord>>,
    jobs: HashMap<String, Arc<JobRecord>>,
    draining: bool,
    busy: usize,
    /// Jobs donated to a thief and not yet resolved (offer delivered
    /// or requeued). Drain and worker shutdown wait on this reaching
    /// zero so a stolen job can always be requeued into a live pool.
    stolen_out: usize,
}

/// The scheduler: queue, worker pool, cache, and metrics in one place.
pub struct Scheduler {
    cfg: SchedConfig,
    executor: Arc<dyn Executor>,
    /// The result cache (exposed for metrics snapshots).
    pub cache: ResultCache,
    /// Lifecycle counters (exposed for metrics snapshots).
    pub metrics: Metrics,
    inner: Mutex<SchedInner>,
    work_cv: Condvar,
    drain_cv: Condvar,
    workers: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl Scheduler {
    /// Build the scheduler and start its worker pool.
    pub fn start(cfg: SchedConfig, cache: ResultCache, executor: Arc<dyn Executor>) -> Arc<Self> {
        let sched = Arc::new(Scheduler {
            cfg: cfg.clone(),
            executor,
            cache,
            metrics: Metrics::new(),
            inner: Mutex::new(SchedInner {
                queue: VecDeque::new(),
                jobs: HashMap::new(),
                draining: false,
                busy: 0,
                stolen_out: 0,
            }),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            workers: Mutex::new(Vec::new()),
        });
        let mut handles = lock(&sched.workers);
        for w in 0..cfg.workers.max(1) {
            let s = Arc::clone(&sched);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{w}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn worker thread"),
            );
        }
        drop(handles);
        sched
    }

    /// Resolve `auto` fidelity against the calibration table: answer
    /// analytically when the experiment's calibrated confidence band
    /// is inside the escalation bound, escalate to cycle-accurate
    /// otherwise. Runs *before* the digest is taken, so a resolved
    /// `auto` submission shares its cache entry with an explicit one.
    fn resolve_fidelity(&self, spec: &mut JobSpec) -> Result<(), String> {
        if spec.fidelity != "auto" {
            return Ok(());
        }
        let Some(table) = &self.cfg.calibration else {
            return Err(
                "fidelity \"auto\" needs a calibration table; this daemon was started \
                 without one (run the calibrate harness, then pass --calibration)"
                    .to_string(),
            );
        };
        if table.within_bound(&spec.experiment, &spec.scale, self.cfg.escalate_bound_ppm) {
            spec.fidelity = "analytic".to_string();
            self.metrics.fast_jobs.fetch_add(1, Ordering::Relaxed);
        } else {
            spec.fidelity = "cycle".to_string();
            self.metrics.escalations.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Submit a spec: `auto`-fidelity resolution, cache lookup,
    /// duplicate coalescing, admission control, then enqueue.
    pub fn submit(&self, mut spec: JobSpec) -> Submit {
        if let Err(e) = self.resolve_fidelity(&mut spec) {
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Submit::Unsupported(e);
        }
        let id = spec.digest();
        let mut g = lock(&self.inner);
        if g.draining {
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Submit::Draining;
        }
        // Coalesce onto an in-flight duplicate before consulting the
        // cache, so a spec that is mid-run counts neither hit nor miss.
        if let Some(existing) = g.jobs.get(&id) {
            if !existing.view().state.is_terminal() {
                return Submit::InFlight(Arc::clone(existing));
            }
        }
        if let Some(payload) = self.cache.lookup(&id) {
            let record = JobRecord::new(spec, JobState::Done);
            record.set_state(|v| v.payload = Some(payload.clone()));
            g.jobs.insert(id, Arc::clone(&record));
            return Submit::Cached(record);
        }
        if g.queue.len() >= self.cfg.queue_cap {
            self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
            return Submit::Overloaded {
                depth: g.queue.len(),
                cap: self.cfg.queue_cap,
            };
        }
        let record = JobRecord::new(spec, JobState::Queued);
        g.jobs.insert(id, Arc::clone(&record));
        g.queue.push_back(Arc::clone(&record));
        self.metrics.accepted.fetch_add(1, Ordering::Relaxed);
        if let Some(j) = &self.cfg.journal {
            j.record_admitted(&record.id, &record.spec);
        }
        self.work_cv.notify_one();
        Submit::Enqueued(record)
    }

    /// Look up a job by id.
    pub fn job(&self, id: &str) -> Option<Arc<JobRecord>> {
        lock(&self.inner).jobs.get(id).cloned()
    }

    /// Cancel a job: a queued job is removed from the queue and marked
    /// terminal immediately; a running job gets its cancel flag set
    /// (the worker marks it terminal when the executor yields).
    /// Returns the job's state after the request, or `None` if the id
    /// is unknown.
    pub fn cancel(&self, id: &str) -> Option<JobState> {
        let mut g = lock(&self.inner);
        let record = g.jobs.get(id).cloned()?;
        let state = record.view().state;
        match state {
            JobState::Queued => {
                g.queue.retain(|j| j.id != id);
                record.request_cancel();
                record.set_state(|v| v.state = JobState::Cancelled);
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                if let Some(j) = &self.cfg.journal {
                    j.record_cancelled(id);
                }
                Some(JobState::Cancelled)
            }
            JobState::Running => {
                record.request_cancel();
                Some(JobState::Running)
            }
            terminal => Some(terminal),
        }
    }

    /// Current (queue depth, busy workers).
    pub fn load(&self) -> (usize, usize) {
        let g = lock(&self.inner);
        (g.queue.len(), g.busy)
    }

    /// The configured worker-pool size.
    pub fn worker_count(&self) -> usize {
        self.cfg.workers.max(1)
    }

    /// Whether a requested drain has fully completed: nothing queued,
    /// nothing running, nothing out on loan to a thief.
    pub fn quiesced(&self) -> bool {
        let g = lock(&self.inner);
        g.draining && g.queue.is_empty() && g.busy == 0 && g.stolen_out == 0
    }

    /// Donate one queued job to a thief: pop the *back* of the queue
    /// (the FIFO front stays reserved for local workers, mirroring the
    /// steal-from-the-tail discipline of the simulated runtime's work
    /// queues), mark it running, and hand the record out. The caller
    /// owns resolving it — [`complete_stolen`](Self::complete_stolen)
    /// when the thief's offer arrives, or
    /// [`requeue_stolen`](Self::requeue_stolen) if the thief vanishes.
    /// A draining scheduler donates nothing.
    pub fn steal_one(&self) -> Option<Arc<JobRecord>> {
        let job = {
            let mut g = lock(&self.inner);
            if g.draining {
                return None;
            }
            let job = g.queue.pop_back()?;
            g.stolen_out += 1;
            job
        };
        job.set_state(|v| v.state = JobState::Running);
        if let Some(j) = &self.cfg.journal {
            j.record_started(&job.id);
        }
        self.metrics.donated.fetch_add(1, Ordering::Relaxed);
        Some(job)
    }

    /// Resolve a stolen job with the outcome its thief offered home.
    /// Success lands exactly like a local completion (cached,
    /// journaled, counted), so the victim's cache gains the payload
    /// even though a peer computed it; failure is terminal — the thief
    /// already ran the job under its own retry policy, and executors
    /// are deterministic in the spec, so a local rerun would fail the
    /// same way.
    pub fn complete_stolen(&self, job: &Arc<JobRecord>, outcome: Result<String, String>) {
        if job.is_cancelled() {
            self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .observe_latency(&job.spec.fidelity, job.enqueued_at.elapsed());
            if let Some(j) = &self.cfg.journal {
                j.record_cancelled(&job.id);
            }
            job.set_state(|v| v.state = JobState::Cancelled);
        } else {
            match outcome {
                Ok(payload) => self.finish_ok(job, payload),
                Err(e) => {
                    self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .observe_latency(&job.spec.fidelity, job.enqueued_at.elapsed());
                    if let Some(j) = &self.cfg.journal {
                        j.record_completed(&job.id, false);
                    }
                    job.set_state(|v| {
                        v.state = JobState::Failed;
                        v.error = Some(e);
                    });
                }
            }
        }
        self.resolve_loan();
    }

    /// Put a stolen job back at the queue *front* (it has already
    /// waited its turn once) after its thief disappeared without
    /// offering an outcome.
    pub fn requeue_stolen(&self, job: &Arc<JobRecord>) {
        job.set_state(|v| v.state = JobState::Queued);
        {
            let mut g = lock(&self.inner);
            g.queue.push_front(Arc::clone(job));
        }
        self.resolve_loan();
    }

    /// One loan resolved: wake workers (a requeue needs a runner; a
    /// drain-blocked worker needs to recheck) and drain waiters.
    fn resolve_loan(&self) {
        let mut g = lock(&self.inner);
        g.stolen_out -= 1;
        drop(g);
        self.work_cv.notify_all();
        self.drain_cv.notify_all();
    }

    /// Begin draining: reject new submissions, let queued and running
    /// jobs finish, and release the workers when the queue is empty.
    pub fn begin_drain(&self) {
        let mut g = lock(&self.inner);
        g.draining = true;
        self.work_cv.notify_all();
    }

    /// Block until the drain completes (queue empty, no busy worker,
    /// no job out on loan to a thief). Must be preceded by
    /// [`begin_drain`](Self::begin_drain).
    pub fn wait_drained(&self) {
        let mut g = lock(&self.inner);
        while !(g.draining && g.queue.is_empty() && g.busy == 0 && g.stolen_out == 0) {
            g = wait(&self.drain_cv, g);
        }
    }

    /// Join the worker pool (after a completed drain).
    pub fn join_workers(&self) {
        let handles = std::mem::take(&mut *lock(&self.workers));
        for h in handles {
            let _ = h.join();
        }
    }

    /// Whether a drain has been requested.
    pub fn is_draining(&self) -> bool {
        lock(&self.inner).draining
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut g = lock(&self.inner);
                loop {
                    if let Some(job) = g.queue.pop_front() {
                        g.busy += 1;
                        break job;
                    }
                    // Stay alive while jobs are out on loan: an EOF on
                    // the thief's connection requeues them here, and a
                    // dead pool would strand the requeue forever.
                    if g.draining && g.stolen_out == 0 {
                        self.drain_cv.notify_all();
                        return;
                    }
                    g = wait(&self.work_cv, g);
                }
            };
            self.run_one(&job);
            {
                let mut g = lock(&self.inner);
                g.busy -= 1;
            }
            self.drain_cv.notify_all();
        }
    }

    /// Execute one job with panic isolation, a per-attempt wall-clock
    /// timeout, and bounded retries, then publish its terminal state.
    fn run_one(&self, job: &Arc<JobRecord>) {
        job.set_state(|v| v.state = JobState::Running);
        if let Some(j) = &self.cfg.journal {
            j.record_started(&job.id);
        }
        // Ask fleet peers for the payload before paying for an
        // execution: a cross-node hit completes like a local run.
        if let Some(remote) = &self.cfg.remote {
            if !job.is_cancelled() {
                if let Some(payload) = remote.fetch(&job.id) {
                    self.metrics
                        .remote_cache_hits
                        .fetch_add(1, Ordering::Relaxed);
                    self.finish_ok(job, payload);
                    return;
                }
            }
        }
        let max_attempts = self.cfg.retry.max_attempts.max(1);
        let mut last_err = String::new();
        for attempt in 1..=max_attempts {
            let outcome = match self.run_attempt(job) {
                Attempt::Finished(outcome) => outcome,
                Attempt::TimedOut => {
                    // Terminal: a rerun would very likely burn the
                    // same wall-clock budget again. The executor sees
                    // the cancel flag and kills whatever it drives;
                    // the job thread is abandoned either way.
                    job.request_cancel();
                    // Counters first, terminal state last: waiters wake
                    // on the state change and may read metrics at once.
                    self.metrics.timed_out.fetch_add(1, Ordering::Relaxed);
                    self.metrics
                        .observe_latency(&job.spec.fidelity, job.enqueued_at.elapsed());
                    // Terminal with no payload: journal it as a failed
                    // completion so a restart never re-burns the budget.
                    if let Some(j) = &self.cfg.journal {
                        j.record_completed(&job.id, false);
                    }
                    job.set_state(|v| v.state = JobState::TimedOut);
                    return;
                }
                Attempt::WorkerDied => {
                    // The job thread dropped its channel without
                    // delivering a result — not a timeout, and
                    // distinct from an executor error: classify and
                    // count it separately.
                    self.metrics.worker_deaths.fetch_add(1, Ordering::Relaxed);
                    Err("job worker thread died without delivering a result".to_string())
                }
            };
            if job.is_cancelled() {
                self.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                self.metrics
                    .observe_latency(&job.spec.fidelity, job.enqueued_at.elapsed());
                if let Some(j) = &self.cfg.journal {
                    j.record_cancelled(&job.id);
                }
                job.set_state(|v| v.state = JobState::Cancelled);
                return;
            }
            match outcome {
                Ok(payload) => {
                    self.finish_ok(job, payload);
                    return;
                }
                Err(e) => {
                    last_err = e;
                    if attempt < max_attempts {
                        self.metrics.retries.fetch_add(1, Ordering::Relaxed);
                        let delay = self.cfg.retry.backoff(&job.id, attempt);
                        let view = job.view();
                        job.push_event(
                            view.done,
                            view.total,
                            &format!(
                                "attempt {attempt}/{max_attempts} failed ({last_err}); \
                                 retrying in {delay:?}"
                            ),
                        );
                        std::thread::sleep(delay);
                    }
                }
            }
        }
        self.metrics.failed.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .observe_latency(&job.spec.fidelity, job.enqueued_at.elapsed());
        if let Some(j) = &self.cfg.journal {
            j.record_completed(&job.id, false);
        }
        job.set_state(|v| {
            v.state = JobState::Failed;
            v.error = Some(last_err);
        });
    }

    /// Publish a successful payload: absorb profiler counters, cache,
    /// journal, count, and mark the record `Done`. Shared by local
    /// runs, cross-node cache hits, and offered-home stolen jobs.
    fn finish_ok(&self, job: &Arc<JobRecord>, payload: String) {
        self.metrics.absorb_profile(&payload);
        // Cache before journal: once `completed` is durable,
        // a restart will trust the cache to have the bytes.
        self.cache.insert(&job.id, &job.spec, &payload);
        if let Some(j) = &self.cfg.journal {
            j.record_completed(&job.id, true);
        }
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        self.metrics
            .observe_latency(&job.spec.fidelity, job.enqueued_at.elapsed());
        job.set_state(|v| {
            v.state = JobState::Done;
            v.payload = Some(payload);
        });
    }

    /// One execution attempt on a detached thread.
    fn run_attempt(&self, job: &Arc<JobRecord>) -> Attempt {
        let (tx, rx) = mpsc::channel::<Result<String, String>>();
        {
            let job = Arc::clone(job);
            let executor = Arc::clone(&self.executor);
            let journal = self.cfg.journal.clone();
            std::thread::Builder::new()
                .name(format!("serve-job-{}", job.id))
                .spawn(move || {
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        executor.run(
                            &job.spec,
                            &|done, total, msg| {
                                if let Some(j) = &journal {
                                    j.record_progress(&job.id, done, total);
                                }
                                job.push_event(done, total, msg);
                            },
                            &job.cancelled,
                        )
                    }))
                    .unwrap_or_else(|panic| {
                        Err(format!("job panicked: {}", panic_message(&panic)))
                    });
                    // Send fails only if the worker stopped listening
                    // (timeout); nothing left to deliver then.
                    let _ = tx.send(outcome);
                })
                .expect("spawn job thread");
        }
        match rx.recv_timeout(self.cfg.job_timeout) {
            Ok(r) => Attempt::Finished(r),
            Err(RecvTimeoutError::Timeout) => Attempt::TimedOut,
            Err(RecvTimeoutError::Disconnected) => Attempt::WorkerDied,
        }
    }
}

/// How one execution attempt ended.
enum Attempt {
    /// The executor returned (or panicked, mapped to `Err`).
    Finished(Result<String, String>),
    /// The attempt exceeded the per-attempt timeout.
    TimedOut,
    /// The job thread died without delivering a result.
    WorkerDied,
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}
