//! End-to-end service tests over a real TCP socket with a synthetic
//! executor: cache round trips, admission control, cancellation,
//! timeouts, panic isolation, progress streaming, graceful drain,
//! hostile request lines.

use mosaic_serve::{
    Client, Executor, FaultyExecutor, HostFaultPlan, JobSpec, JobState, RetryPolicy, SchedConfig,
    Server, ServerConfig, SubmitReply,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Behavior is encoded in `spec.workload`: empty = succeed instantly,
/// `sleep:N` = poll the cancel flag for N ms then succeed, `fail` =
/// executor error, `panic` = panic (exercises `catch_unwind`).
struct TestExec;

impl Executor for TestExec {
    fn run(
        &self,
        spec: &JobSpec,
        progress: &dyn Fn(u64, u64, &str),
        cancelled: &AtomicBool,
    ) -> Result<String, String> {
        progress(1, 2, "started");
        match spec.workload.as_str() {
            "fail" => return Err("synthetic failure".to_string()),
            "panic" => panic!("synthetic panic"),
            w => {
                if let Some(ms) = w.strip_prefix("sleep:") {
                    let ms: u64 = ms.parse().expect("sleep:N");
                    let deadline = Instant::now() + Duration::from_millis(ms);
                    while Instant::now() < deadline {
                        if cancelled.load(Ordering::Relaxed) {
                            return Err("observed cancel flag".to_string());
                        }
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            }
        }
        progress(2, 2, "finished");
        Ok(format!(
            "{{\"echo\":{},\"seed\":{}}}",
            jsonlite::escape(&spec.experiment),
            spec.seed
        ))
    }
}

fn start(queue_cap: usize, workers: usize, timeout_ms: u64) -> Server {
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sched: SchedConfig {
            queue_cap,
            workers,
            job_timeout: Duration::from_millis(timeout_ms),
            ..SchedConfig::default()
        },
        cache_dir: None,
        journal_dir: None,
    };
    Server::start(cfg, Arc::new(TestExec)).expect("start server")
}

fn connect(server: &Server) -> Client {
    Client::connect(&server.local_addr().to_string()).expect("connect")
}

fn spec(experiment: &str, workload: &str, seed: u64) -> JobSpec {
    let mut s = JobSpec::new(experiment, "tiny");
    s.workload = workload.to_string();
    s.seed = seed;
    s
}

fn metric(client: &mut Client, field: &str) -> u64 {
    let snap = client.metrics().expect("metrics");
    snap.as_object("metrics")
        .unwrap()
        .get(field, "metrics")
        .unwrap()
        .as_u64()
        .unwrap()
}

#[test]
fn same_job_twice_is_identical_and_served_from_cache() {
    let server = start(8, 2, 60_000);
    let mut client = connect(&server);
    let s = spec("tiny-exp", "", 0);

    let first = client.submit(&s).expect("submit");
    let SubmitReply::Accepted { id, cached, .. } = first else {
        panic!("expected acceptance, got {first:?}");
    };
    assert!(!cached, "first submission must not be a cache hit");
    let r1 = client.wait_result(&id).expect("result");
    assert_eq!(r1.state, JobState::Done);

    let second = client.submit(&s).expect("resubmit");
    let SubmitReply::Accepted {
        id: id2,
        state,
        cached,
    } = second
    else {
        panic!("expected acceptance, got {second:?}");
    };
    assert_eq!(id2, id, "content-addressed id must be stable");
    assert!(cached, "second submission must be served from cache");
    assert_eq!(state, JobState::Done);
    let r2 = client.wait_result(&id).expect("cached result");
    assert_eq!(r1.payload, r2.payload, "cached payload must be identical");

    assert!(metric(&mut client, "cache_hits") >= 1);
    assert_eq!(metric(&mut client, "cache_misses"), 1);
    assert_eq!(metric(&mut client, "completed"), 1);

    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn queue_cap_zero_rejects_with_overloaded() {
    let server = start(0, 1, 60_000);
    let mut client = connect(&server);
    let reply = client.submit(&spec("rejected", "", 0)).expect("submit");
    assert_eq!(reply, SubmitReply::Overloaded { depth: 0, cap: 0 });
    assert_eq!(metric(&mut client, "rejected"), 1);
    assert_eq!(metric(&mut client, "accepted"), 0);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn graceful_drain_completes_in_flight_jobs() {
    let server = start(8, 1, 60_000);
    let mut client = connect(&server);
    let slow = spec("drain-me", "sleep:300", 0);
    let SubmitReply::Accepted { id, .. } = client.submit(&slow).expect("submit") else {
        panic!("expected acceptance");
    };

    client.shutdown().expect("shutdown");
    // New work is refused while draining...
    let refused = client.submit(&spec("too-late", "", 1)).expect("submit");
    assert_eq!(refused, SubmitReply::Draining);

    // ...but the in-flight job still runs to completion.
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Done);
    server.join();
    assert_eq!(
        server
            .scheduler()
            .job(&id)
            .expect("job survives")
            .view()
            .state,
        JobState::Done
    );
}

#[test]
fn wall_clock_timeout_fails_the_job_but_not_the_server() {
    let server = start(8, 1, 100);
    let mut client = connect(&server);
    let SubmitReply::Accepted { id, .. } = client
        .submit(&spec("togslow", "sleep:60000", 0))
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::TimedOut);
    assert_eq!(metric(&mut client, "timed_out"), 1);

    // The worker is free again: a fast job still completes.
    let SubmitReply::Accepted { id, .. } = client
        .submit(&spec("after-timeout", "", 0))
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    assert_eq!(
        client.wait_result(&id).expect("result").state,
        JobState::Done
    );
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn queued_jobs_can_be_cancelled() {
    let server = start(8, 1, 60_000);
    let mut client = connect(&server);
    // Occupy the single worker...
    let SubmitReply::Accepted { id: busy, .. } = client
        .submit(&spec("busy", "sleep:400", 0))
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    // ...so this one stays queued and can be cancelled outright.
    let SubmitReply::Accepted {
        id: queued, state, ..
    } = client.submit(&spec("queued", "", 7)).expect("submit")
    else {
        panic!("expected acceptance");
    };
    assert_eq!(state, JobState::Queued);
    assert_eq!(client.cancel(&queued).expect("cancel"), JobState::Cancelled);
    assert_eq!(
        client.wait_result(&queued).expect("result").state,
        JobState::Cancelled
    );
    assert_eq!(
        client.wait_result(&busy).expect("result").state,
        JobState::Done
    );
    assert_eq!(metric(&mut client, "cancelled"), 1);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn a_panicking_job_fails_alone() {
    let server = start(8, 1, 60_000);
    let mut client = connect(&server);
    let SubmitReply::Accepted { id, .. } = client
        .submit(&spec("poisoned", "panic", 0))
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Failed);
    assert!(
        res.error.as_deref().unwrap_or("").contains("panicked"),
        "error should name the panic: {:?}",
        res.error
    );

    // Server lives: the next job on the same worker completes.
    let SubmitReply::Accepted { id, .. } = client.submit(&spec("survivor", "", 0)).expect("submit")
    else {
        panic!("expected acceptance");
    };
    assert_eq!(
        client.wait_result(&id).expect("result").state,
        JobState::Done
    );
    assert_eq!(metric(&mut client, "failed"), 1);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn watch_streams_progress_events_until_terminal() {
    let server = start(8, 1, 60_000);
    let mut client = connect(&server);
    let SubmitReply::Accepted { id, .. } = client
        .submit(&spec("watched", "sleep:100", 0))
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    // A second connection watches while the first keeps the job's
    // submit connection open (connections are independent).
    let mut watcher = connect(&server);
    let mut events = Vec::new();
    let final_state = watcher
        .watch(&id, |done, total, msg| {
            events.push((done, total, msg.to_string()))
        })
        .expect("watch");
    assert_eq!(final_state, JobState::Done);
    assert!(
        events.len() >= 2,
        "expected streamed events, got {events:?}"
    );
    assert_eq!(events[0].2, "started");
    assert_eq!(events.last().map(|e| e.2.as_str()), Some("finished"));
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn injected_host_panics_recover_through_the_retry_policy() {
    // The full chaos-recovery path over TCP: the executor panics on
    // the first two attempts of every job, the retry policy allows
    // three, so every submission still completes — and the recovery is
    // visible in the metrics.
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sched: SchedConfig {
            queue_cap: 8,
            workers: 1,
            job_timeout: Duration::from_secs(60),
            retry: RetryPolicy {
                max_attempts: 3,
                base_backoff: Duration::from_millis(1),
                max_backoff: Duration::from_millis(4),
            },
            ..SchedConfig::default()
        },
        cache_dir: None,
        journal_dir: None,
    };
    let plan = HostFaultPlan::parse("panics=2,slow=10").expect("plan");
    let faulty = FaultyExecutor::new(Arc::new(TestExec), plan);
    let server = Server::start(cfg, Arc::new(faulty)).expect("start server");

    // Connect-with-retry also covers the client half of resilience.
    let mut client = Client::connect_with_retry(
        &server.local_addr().to_string(),
        &RetryPolicy::with_attempts(3),
    )
    .expect("connect");
    let SubmitReply::Accepted { id, .. } = client.submit(&spec("chaotic", "", 0)).expect("submit")
    else {
        panic!("expected acceptance");
    };
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Done);
    assert_eq!(metric(&mut client, "retries"), 2);
    assert_eq!(metric(&mut client, "completed"), 1);
    assert_eq!(metric(&mut client, "failed"), 0);
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn connect_with_retry_gives_up_after_the_budget() {
    // Nothing listens on a port we grab and immediately release.
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    let policy = RetryPolicy {
        max_attempts: 2,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
    };
    assert!(Client::connect_with_retry(&addr, &policy).is_err());
}

#[test]
fn connect_deadline_caps_the_retry_budget() {
    let addr = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        l.local_addr().expect("addr").to_string()
    };
    // A policy that would retry for many seconds, capped to ~30 ms
    // overall: the deadline, not the attempt count, must win.
    let policy = RetryPolicy {
        max_attempts: 50,
        base_backoff: Duration::from_millis(400),
        max_backoff: Duration::from_secs(2),
    };
    let started = Instant::now();
    let result = Client::connect_with_deadline(&addr, &policy, Duration::from_millis(30));
    assert!(result.is_err());
    assert!(
        started.elapsed() < Duration::from_secs(2),
        "deadline must cut the retry loop short, took {:?}",
        started.elapsed()
    );
}

#[test]
fn duplicate_in_flight_submissions_coalesce() {
    let server = start(8, 1, 60_000);
    let mut client = connect(&server);
    let s = spec("dup", "sleep:200", 0);
    let SubmitReply::Accepted { id, .. } = client.submit(&s).expect("submit") else {
        panic!("expected acceptance");
    };
    let SubmitReply::Accepted {
        id: id2, cached, ..
    } = client.submit(&s).expect("dup submit")
    else {
        panic!("expected acceptance");
    };
    assert_eq!(id, id2);
    assert!(!cached, "in-flight duplicate is coalesced, not a cache hit");
    // Only one execution: accepted counts the first admission only.
    assert_eq!(metric(&mut client, "accepted"), 1);
    assert_eq!(
        client.wait_result(&id).expect("result").state,
        JobState::Done
    );
    client.shutdown().expect("shutdown");
    server.join();
}

#[test]
fn journal_replay_readmits_killed_jobs_and_marks_clean_drains() {
    // Fabricate a crashed daemon's journal: one job admitted and
    // mid-run (the "process died under a worker" shape), one merely
    // queued, one completed. A fresh server over that directory must
    // re-admit exactly the two unfinished jobs, run them, count them
    // in replayed_jobs (and the mid-run one in worker_deaths), and —
    // after a graceful drain — leave a journal the next start
    // considers clean.
    let dir = std::env::temp_dir().join(format!("mosaic-serve-recover-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (running, queued, done) = (
        spec("echo", "", 101),
        spec("echo", "", 102),
        spec("echo", "", 103),
    );
    {
        let (j, _) = mosaic_serve::Journal::open(&dir).expect("open journal");
        j.record_admitted(&running.digest(), &running);
        j.record_started(&running.digest());
        j.record_admitted(&queued.digest(), &queued);
        j.record_admitted(&done.digest(), &done);
        j.record_completed(&done.digest(), true);
        // No drained-clean: this is the kill.
    }
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sched: SchedConfig {
            queue_cap: 8,
            workers: 1,
            ..SchedConfig::default()
        },
        cache_dir: None,
        journal_dir: Some(dir.clone()),
    };
    let server = Server::start(cfg.clone(), Arc::new(TestExec)).expect("start server");
    let mut client = connect(&server);
    assert_eq!(metric(&mut client, "replayed_jobs"), 2);
    assert_eq!(metric(&mut client, "worker_deaths"), 1);
    // The replayed jobs actually run to completion.
    let reply = client.wait_result(&running.digest()).expect("result");
    assert_eq!(reply.state, JobState::Done);
    let reply = client.wait_result(&queued.digest()).expect("result");
    assert_eq!(reply.state, JobState::Done);
    server.request_shutdown();
    server.join();
    // The drain left a clean marker: a restart replays nothing.
    let server2 = Server::start(cfg, Arc::new(TestExec)).expect("restart server");
    let mut client2 = connect(&server2);
    assert_eq!(metric(&mut client2, "replayed_jobs"), 0);
    assert_eq!(metric(&mut client2, "worker_deaths"), 0);
    server2.request_shutdown();
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deeply_nested_line_gets_an_error_and_the_daemon_keeps_serving() {
    let server = start(8, 1, 60_000);
    // 1 MB of `[` on one line: the parser must refuse it at its depth
    // limit instead of recursing off the connection thread's stack
    // (which aborts the whole process).
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("connect");
    raw.write_all(&[b'['; 1 << 20]).expect("write");
    raw.write_all(b"\n").expect("write");
    let mut reader = BufReader::new(raw.try_clone().expect("clone"));
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains("\"type\":\"error\""), "{reply}");
    assert!(reply.contains("nesting"), "{reply}");

    // The same connection still answers...
    raw.write_all(b"{\"type\":\"metrics\"}\n").expect("write");
    reply.clear();
    reader.read_line(&mut reply).expect("read");
    assert!(reply.contains("\"type\":\"metrics\""), "{reply}");
    // ...and so does the daemon, for real work.
    let mut client = connect(&server);
    let SubmitReply::Accepted { id, .. } = client
        .submit(&spec("after-nesting", "", 0))
        .expect("submit")
    else {
        panic!("expected acceptance");
    };
    assert_eq!(
        client.wait_result(&id).expect("result").state,
        JobState::Done
    );
    client.shutdown().expect("shutdown");
    server.join();
}
