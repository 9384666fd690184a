//! Host-side fault injection: a [`HostFaultPlan`] and the [`Executor`]
//! decorator that carries it out, making the inner executor panic,
//! stall, or kill the whole process on purpose.
//!
//! This is the serve-stack half of the chaos story (the simulator half
//! lives in `mosaic-chaos` / `mosaic-sim`): wrap the real executor in a
//! [`FaultyExecutor`] and the scheduler's isolation machinery —
//! per-job `catch_unwind`, per-attempt timeouts, bounded
//! retry-with-backoff — gets exercised by *deterministic* failures
//! instead of waiting for rare real ones. Panics are injected on the
//! first `panic_attempts` attempts of **each distinct job id**, so a
//! retry policy with more attempts than that always recovers, and one
//! with fewer always surfaces `Failed` — both outcomes are asserted by
//! tests and the CI chaos smoke.
//!
//! The plan is a tiny spec string (`panics=N,slow=MS,kill=AFTER_MS`),
//! which is what the daemon's `--chaos-host` accepts. It lives beside
//! the executor that reads it, so the simulator's fault crate stays
//! free of host threads and processes.

use crate::job::JobSpec;
use crate::scheduler::Executor;
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::sync::lock;

/// A host fault plan: fail the first `panic_attempts` executions of
/// each job, add `slow_ms` of artificial latency to every execution,
/// and — the nuclear option — abort the whole process `kill_after_ms`
/// milliseconds after the first job starts running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostFaultPlan {
    /// Number of leading attempts per job that panic (0 = never).
    pub panic_attempts: u32,
    /// Milliseconds of sleep added to every execution (0 = none).
    pub slow_ms: u64,
    /// Milliseconds after the first execution begins at which the
    /// whole process aborts, `SIGKILL`-style — no unwinding, no drain,
    /// no journal flush beyond what is already durable (0 = never).
    /// Anchored to the first attempt, not to process start, so the
    /// killed job is past its `started` journal record whatever the
    /// boot time: with `slow` above `kill`, the process dies inside its
    /// first job.
    pub kill_after_ms: u64,
}

impl HostFaultPlan {
    /// Parse `panics=N,slow=MS,kill=AFTER_MS` (every key optional;
    /// empty string is the no-op plan).
    pub fn parse(spec: &str) -> Result<HostFaultPlan, String> {
        let mut plan = HostFaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("host fault token {token:?} is not key=value"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("host fault {key} wants an integer, got {value:?}"))?;
            match key {
                "panics" => {
                    plan.panic_attempts = u32::try_from(n)
                        .map_err(|_| format!("host fault panics={n} is out of range"))?
                }
                "slow" => plan.slow_ms = n,
                "kill" => plan.kill_after_ms = n,
                other => {
                    return Err(format!(
                        "host fault: unknown key {other:?} (panics|slow|kill)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Canonical spec string; `parse` of the result reproduces the
    /// plan. Every field is bound here, so a new one does not compile
    /// until it is serialized.
    pub fn to_spec(&self) -> String {
        let HostFaultPlan {
            panic_attempts,
            slow_ms,
            kill_after_ms,
        } = self;
        format!("panics={panic_attempts},slow={slow_ms},kill={kill_after_ms}")
    }

    /// Whether the plan has any effect.
    pub fn is_empty(&self) -> bool {
        *self == HostFaultPlan::default()
    }
}

/// Executor decorator carrying out a [`HostFaultPlan`] ahead of the
/// inner executor.
pub struct FaultyExecutor {
    inner: Arc<dyn Executor>,
    plan: HostFaultPlan,
    /// Whether the kill timer has been armed (first `run` call wins).
    kill_armed: AtomicBool,
    attempts: Mutex<HashMap<String, u32>>,
}

impl FaultyExecutor {
    /// Wrap `inner` in the faults `plan` describes.
    pub fn new(inner: Arc<dyn Executor>, plan: HostFaultPlan) -> FaultyExecutor {
        FaultyExecutor {
            inner,
            plan,
            kill_armed: AtomicBool::new(false),
            attempts: Mutex::new(HashMap::new()),
        }
    }

    /// Attempts seen so far for `id` (test/metrics introspection).
    pub fn attempts_for(&self, id: &str) -> u32 {
        lock(&self.attempts).get(id).copied().unwrap_or(0)
    }

    /// Arm the plan's process kill on the first attempt: a detached
    /// timer thread calls [`std::process::abort`] — the closest
    /// pure-std stand-in for an external `kill -9`. No destructors, no
    /// `catch_unwind`, no drain: whatever the journal and cache have
    /// already fsynced is all the next process gets.
    fn arm_kill_timer(&self) {
        if self.plan.kill_after_ms == 0
            || self
                .kill_armed
                .swap(true, std::sync::atomic::Ordering::SeqCst)
        {
            return;
        }
        let delay = Duration::from_millis(self.plan.kill_after_ms);
        eprintln!(
            "chaos: kill timer armed: aborting the process in {} ms",
            delay.as_millis()
        );
        let _ = std::thread::Builder::new()
            .name("chaos-kill".to_string())
            .spawn(move || {
                std::thread::sleep(delay);
                eprintln!("chaos: injected process kill (abort)");
                std::process::abort();
            });
    }
}

impl Executor for FaultyExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        progress: &dyn Fn(u64, u64, &str),
        cancelled: &AtomicBool,
    ) -> Result<String, String> {
        self.arm_kill_timer();
        let id = spec.digest();
        let attempt = {
            let mut g = lock(&self.attempts);
            let n = g.entry(id).or_insert(0);
            *n += 1;
            *n
        };
        if attempt <= self.plan.panic_attempts {
            progress(0, 0, &format!("chaos: injected panic on attempt {attempt}"));
            panic!(
                "chaos: injected host fault (attempt {attempt} of {})",
                self.plan.panic_attempts
            );
        }
        if self.plan.slow_ms > 0 {
            progress(0, 0, "chaos: injected slowness");
            // Sleep in slices so cancellation/timeout reclaims the
            // thread promptly instead of after the full stall.
            let mut left = Duration::from_millis(self.plan.slow_ms);
            let slice = Duration::from_millis(20);
            while !left.is_zero() {
                if cancelled.load(std::sync::atomic::Ordering::Relaxed) {
                    return Err("cancelled during injected slowness".to_string());
                }
                let step = left.min(slice);
                std::thread::sleep(step);
                left -= step;
            }
        }
        self.inner.run(spec, progress, cancelled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::ResultCache;
    use crate::job::JobState;
    use crate::scheduler::{RetryPolicy, SchedConfig, Scheduler, Submit};
    use std::sync::atomic::Ordering;

    struct Echo;
    impl Executor for Echo {
        fn run(
            &self,
            spec: &JobSpec,
            _progress: &dyn Fn(u64, u64, &str),
            _cancelled: &AtomicBool,
        ) -> Result<String, String> {
            Ok(format!("{{\"experiment\":\"{}\"}}", spec.experiment))
        }
    }

    fn sched_with(panics: u32, attempts: u32) -> Arc<Scheduler> {
        let cfg = SchedConfig {
            retry: RetryPolicy {
                max_attempts: attempts,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
            },
            ..SchedConfig::default()
        };
        let plan = HostFaultPlan {
            panic_attempts: panics,
            ..HostFaultPlan::default()
        };
        let faulty = FaultyExecutor::new(Arc::new(Echo), plan);
        Scheduler::start(cfg, ResultCache::new(None).unwrap(), Arc::new(faulty))
    }

    #[test]
    fn injected_panics_recover_within_the_retry_budget() {
        let sched = sched_with(2, 3);
        let Submit::Enqueued(job) = sched.submit(JobSpec::new("table1", "tiny")) else {
            panic!("expected enqueue");
        };
        let view = job.wait_terminal();
        assert_eq!(view.state, JobState::Done);
        assert_eq!(view.payload.as_deref(), Some("{\"experiment\":\"table1\"}"));
        assert_eq!(sched.metrics.retries.load(Ordering::Relaxed), 2);
        assert_eq!(sched.metrics.completed.load(Ordering::Relaxed), 1);
        assert_eq!(sched.metrics.failed.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn injected_panics_beyond_the_budget_fail_cleanly() {
        let sched = sched_with(3, 2);
        let Submit::Enqueued(job) = sched.submit(JobSpec::new("table1", "tiny")) else {
            panic!("expected enqueue");
        };
        let view = job.wait_terminal();
        assert_eq!(view.state, JobState::Failed);
        let err = view.error.unwrap();
        assert!(
            err.contains("injected host fault"),
            "unexpected error: {err}"
        );
        assert_eq!(sched.metrics.retries.load(Ordering::Relaxed), 1);
        assert_eq!(sched.metrics.failed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn slowness_is_survivable_and_cancellable() {
        let plan = HostFaultPlan::parse("slow=30").unwrap();
        let faulty = FaultyExecutor::new(Arc::new(Echo), plan);
        let spec = JobSpec::new("table1", "tiny");
        let flag = AtomicBool::new(false);
        let out = faulty.run(&spec, &|_, _, _| {}, &flag).unwrap();
        assert!(out.contains("table1"));

        let flag = AtomicBool::new(true);
        let err = faulty.run(&spec, &|_, _, _| {}, &flag).unwrap_err();
        assert!(err.contains("cancelled"), "unexpected error: {err}");
    }

    #[test]
    fn zero_kill_delay_disarms_the_timer() {
        // `kill=0` is the documented "never" spelling; the executor must
        // not arm a timer that aborts the test process immediately.
        let plan = HostFaultPlan::parse("kill=0").unwrap();
        assert!(plan.is_empty());
        let faulty = FaultyExecutor::new(Arc::new(Echo), plan);
        let flag = AtomicBool::new(false);
        let out = faulty
            .run(&JobSpec::new("table1", "tiny"), &|_, _, _| {}, &flag)
            .unwrap();
        assert!(out.contains("table1"));
        assert!(
            !faulty.kill_armed.load(Ordering::Relaxed),
            "no delay means nothing to arm"
        );
    }

    #[test]
    fn attempt_counts_are_per_job_id() {
        let faulty = FaultyExecutor::new(Arc::new(Echo), HostFaultPlan::default());
        let a = JobSpec::new("table1", "tiny");
        let b = JobSpec::new("table1", "small");
        let flag = AtomicBool::new(false);
        faulty.run(&a, &|_, _, _| {}, &flag).unwrap();
        faulty.run(&a, &|_, _, _| {}, &flag).unwrap();
        faulty.run(&b, &|_, _, _| {}, &flag).unwrap();
        assert_eq!(faulty.attempts_for(&a.digest()), 2);
        assert_eq!(faulty.attempts_for(&b.digest()), 1);
        assert_eq!(faulty.attempts_for("unknown"), 0);
    }

    #[test]
    fn parses_and_round_trips() {
        let plan = HostFaultPlan::parse("panics=2,slow=150,kill=900").unwrap();
        assert_eq!(
            plan,
            HostFaultPlan {
                panic_attempts: 2,
                slow_ms: 150,
                kill_after_ms: 900,
            }
        );
        assert_eq!(HostFaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn kill_alone_is_a_nonempty_plan() {
        let plan = HostFaultPlan::parse("kill=250").unwrap();
        assert_eq!(plan.kill_after_ms, 250);
        assert_eq!(plan.panic_attempts, 0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_spec_is_the_noop_plan() {
        let plan = HostFaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(HostFaultPlan::parse("wat=1").is_err());
        assert!(HostFaultPlan::parse("panics=lots").is_err());
        assert!(HostFaultPlan::parse("panics").is_err());
        assert!(HostFaultPlan::parse("panics=4294967296").is_err());
        assert_eq!(
            HostFaultPlan::parse("panics=4294967295")
                .unwrap()
                .panic_attempts,
            u32::MAX
        );
    }

    #[test]
    fn node_kill_is_an_unknown_key() {
        // `kill` is the one abort timer; a plan naming another must
        // fail loudly rather than run without its kill.
        let err = HostFaultPlan::parse("node_kill=5").unwrap_err();
        assert!(err.contains("panics|slow|kill)"), "unexpected error: {err}");
    }
}
