//! Live service metrics: lifecycle counters plus a wall-clock latency
//! record, snapshotted on demand as one JSON object.

use jsonlite::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::sync::lock;

/// Counter set shared by the scheduler and the metrics endpoint.
#[derive(Default)]
pub struct Metrics {
    /// Jobs admitted into the queue (cache hits not included).
    pub accepted: AtomicU64,
    /// Submissions rejected by admission control (`overloaded`).
    pub rejected: AtomicU64,
    /// Jobs that completed successfully.
    pub completed: AtomicU64,
    /// Jobs that failed (executor error or panic).
    pub failed: AtomicU64,
    /// Jobs killed by the per-job wall-clock timeout.
    pub timed_out: AtomicU64,
    /// Jobs cancelled before completion.
    pub cancelled: AtomicU64,
    /// Failed attempts that were retried under the retry policy.
    pub retries: AtomicU64,
    /// Job threads that died without delivering a result (distinct
    /// from timeouts and executor errors). Also counts jobs a journal
    /// replay found mid-run at a crash: the whole process was their
    /// worker, and it died under them.
    pub worker_deaths: AtomicU64,
    /// Jobs re-admitted from the crash journal at startup.
    pub replayed_jobs: AtomicU64,
    /// Wall-clock latency of each terminal job, in milliseconds.
    latencies_ms: Mutex<Vec<u64>>,
    /// Completed jobs whose payload carried profiler counters.
    pub profiled_jobs: AtomicU64,
    /// Running totals of profiler counters across completed jobs,
    /// keyed by the counter's bucket suffix (`steal_search`,
    /// `total_link_flits`, ...). Simulated cycles/flits, not host
    /// time.
    profile_totals: Mutex<BTreeMap<String, u64>>,
}

impl Metrics {
    /// A zeroed metric set.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Record one terminal job's queue-to-terminal wall-clock time.
    pub fn observe_latency(&self, d: Duration) {
        lock(&self.latencies_ms).push(d.as_millis() as u64);
    }

    /// Fold a completed job's profiler counters into the running
    /// totals surfaced by the `metrics` verb, if its result payload
    /// carries the golden `"profile"` attachment (the `profile`
    /// experiment does; see `mosaic_bench::golden`). Counters are
    /// summed by their bucket suffix, so `dup-off/steal_search` and
    /// `dup-on/steal_search` both land in `steal_search`. Payloads
    /// without profiler counters are a no-op.
    pub fn absorb_profile(&self, payload: &str) {
        let Ok(json) = Json::parse(payload) else {
            return;
        };
        let Ok(obj) = json.as_object("payload") else {
            return;
        };
        let Some(profile) = obj.opt("profile") else {
            return;
        };
        let Ok(entries) = profile.as_array("profile") else {
            return;
        };
        let mut any = false;
        let mut totals = lock(&self.profile_totals);
        for e in entries {
            let Ok(o) = e.as_object("profile entry") else {
                continue;
            };
            let (Some(name), Some(value)) = (o.opt("counter"), o.opt("value")) else {
                continue;
            };
            let (Ok(name), Ok(value)) = (name.as_string(), value.as_u64()) else {
                continue;
            };
            let key = name.rsplit('/').next().unwrap_or(&name).to_string();
            *totals.entry(key).or_insert(0) += value;
            any = true;
        }
        if any {
            self.profiled_jobs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Render the snapshot. Queue depth, busy workers, and cache
    /// counters live elsewhere (scheduler / cache) and are passed in.
    pub fn snapshot(
        &self,
        queue_depth: usize,
        busy_workers: usize,
        cache_hits: u64,
        cache_misses: u64,
    ) -> Json {
        let latencies = lock(&self.latencies_ms).clone();
        let profile = lock(&self.profile_totals).clone();
        let mut profile_obj = Json::obj();
        for (name, total) in &profile {
            profile_obj = profile_obj.field(name, *total);
        }
        Json::obj()
            .field("type", "metrics")
            .field("accepted", self.accepted.load(Ordering::Relaxed))
            .field("rejected", self.rejected.load(Ordering::Relaxed))
            .field("completed", self.completed.load(Ordering::Relaxed))
            .field("failed", self.failed.load(Ordering::Relaxed))
            .field("timed_out", self.timed_out.load(Ordering::Relaxed))
            .field("cancelled", self.cancelled.load(Ordering::Relaxed))
            .field("retries", self.retries.load(Ordering::Relaxed))
            .field("worker_deaths", self.worker_deaths.load(Ordering::Relaxed))
            .field("replayed_jobs", self.replayed_jobs.load(Ordering::Relaxed))
            .field("cache_hits", cache_hits)
            .field("cache_misses", cache_misses)
            .field("queue_depth", queue_depth as u64)
            .field("busy_workers", busy_workers as u64)
            .field("latency_ms", latency_histogram(latencies))
            .field("profiled_jobs", self.profiled_jobs.load(Ordering::Relaxed))
            .field("profile", profile_obj.build())
            .build()
    }
}

/// Percentile summary of the recorded latencies (integer milliseconds;
/// nearest-rank on the sorted sample).
fn latency_histogram(mut lat: Vec<u64>) -> Json {
    lat.sort_unstable();
    let pct = |q: u64| -> u64 {
        if lat.is_empty() {
            return 0;
        }
        // Nearest-rank: the smallest sample ≥ q percent of the set.
        let rank = (lat.len() as u64 * q).div_ceil(100).max(1);
        lat[(rank - 1) as usize]
    };
    Json::obj()
        .field("count", lat.len() as u64)
        .field("p50", pct(50))
        .field("p90", pct(90))
        .field("p99", pct(99))
        .field("max", lat.last().copied().unwrap_or(0))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_carries_counters_and_percentiles() {
        let m = Metrics::new();
        m.accepted.fetch_add(3, Ordering::Relaxed);
        m.completed.fetch_add(2, Ordering::Relaxed);
        for ms in [10u64, 20, 100] {
            m.observe_latency(Duration::from_millis(ms));
        }
        m.retries.fetch_add(4, Ordering::Relaxed);
        m.worker_deaths.fetch_add(1, Ordering::Relaxed);
        let snap = m.snapshot(1, 2, 5, 7);
        let obj = snap.as_object("snap").unwrap();
        assert_eq!(obj.get("accepted", "snap").unwrap().as_u64(), Ok(3));
        assert_eq!(obj.get("retries", "snap").unwrap().as_u64(), Ok(4));
        assert_eq!(obj.get("worker_deaths", "snap").unwrap().as_u64(), Ok(1));
        assert_eq!(obj.get("cache_hits", "snap").unwrap().as_u64(), Ok(5));
        assert_eq!(obj.get("queue_depth", "snap").unwrap().as_u64(), Ok(1));
        let lat = obj
            .get("latency_ms", "snap")
            .unwrap()
            .as_object("lat")
            .unwrap();
        assert_eq!(lat.get("count", "lat").unwrap().as_u64(), Ok(3));
        assert_eq!(lat.get("p50", "lat").unwrap().as_u64(), Ok(20));
        assert_eq!(lat.get("p99", "lat").unwrap().as_u64(), Ok(100));
        assert_eq!(lat.get("max", "lat").unwrap().as_u64(), Ok(100));
    }

    #[test]
    fn absorb_profile_sums_by_bucket_suffix() {
        let m = Metrics::new();
        m.absorb_profile(
            "{\"experiment\": \"profile\", \"cells\": [], \"profile\": [\
             {\"counter\": \"dup-off/steal_search\", \"value\": 100},\
             {\"counter\": \"dup-on/steal_search\", \"value\": 40},\
             {\"counter\": \"dup-off/compute\", \"value\": 7}]}",
        );
        m.absorb_profile("{\"experiment\": \"table1\", \"cells\": []}"); // no-op
        m.absorb_profile("not json at all"); // no-op
        let snap = m.snapshot(0, 0, 0, 0);
        let obj = snap.as_object("snap").unwrap();
        assert_eq!(obj.get("profiled_jobs", "snap").unwrap().as_u64(), Ok(1));
        let prof = obj
            .get("profile", "snap")
            .unwrap()
            .as_object("profile")
            .unwrap();
        assert_eq!(
            prof.get("steal_search", "profile").unwrap().as_u64(),
            Ok(140)
        );
        assert_eq!(prof.get("compute", "profile").unwrap().as_u64(), Ok(7));
    }

    #[test]
    fn empty_latency_histogram_is_zeroed() {
        let m = Metrics::new();
        let snap = m.snapshot(0, 0, 0, 0);
        let obj = snap.as_object("snap").unwrap();
        let lat = obj
            .get("latency_ms", "snap")
            .unwrap()
            .as_object("lat")
            .unwrap();
        assert_eq!(lat.get("count", "lat").unwrap().as_u64(), Ok(0));
        assert_eq!(lat.get("p50", "lat").unwrap().as_u64(), Ok(0));
    }
}
