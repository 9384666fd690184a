//! Fleet-tier integration tests over real TCP sockets: gateway
//! forwarding and fan-out, dead-node re-routing, retrying a failed
//! record once workers recover, hostile request lines, and idempotent
//! replay of orphaned subjob journal records.

use mosaic_serve::fleet::ring::DEFAULT_REPLICAS;
use mosaic_serve::{
    Client, Executor, Fanout, FleetExecutor, HashRing, JobSpec, JobState, SchedConfig, Server,
    ServerConfig, SubJob, SubmitReply,
};
use std::io::{BufRead, BufReader, Write};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Same synthetic executor contract as the service tests: behavior is
/// encoded in `spec.workload` (`sleep:N` = N ms of cancellable work,
/// anything else = succeed instantly with a spec-determined payload).
struct TestExec;

impl Executor for TestExec {
    fn run(
        &self,
        spec: &JobSpec,
        progress: &dyn Fn(u64, u64, &str),
        _cancelled: &AtomicBool,
    ) -> Result<String, String> {
        progress(1, 2, "started");
        if let Some(ms) = spec.workload.strip_prefix("sleep:") {
            let ms: u64 = ms.parse().expect("sleep:N");
            std::thread::sleep(Duration::from_millis(ms));
        }
        progress(2, 2, "finished");
        Ok(format!(
            "{{\"echo\":{},\"workload\":{},\"seed\":{}}}",
            jsonlite::escape(&spec.experiment),
            jsonlite::escape(&spec.workload),
            spec.seed
        ))
    }
}

fn worker_at(addr: &str) -> Server {
    let cfg = ServerConfig {
        addr: addr.to_string(),
        sched: SchedConfig {
            queue_cap: 64,
            workers: 1,
            job_timeout: Duration::from_secs(60),
            ..SchedConfig::default()
        },
        cache_dir: None,
        journal_dir: None,
    };
    Server::start(cfg, Arc::new(TestExec)).expect("start worker")
}

fn worker() -> Server {
    worker_at("127.0.0.1:0")
}

/// An address that answered once and will never answer again.
fn unused_addr() -> String {
    let l = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    l.local_addr().expect("addr").to_string()
}

fn connect(addr: &str) -> Client {
    Client::connect(addr).expect("connect")
}

fn spec(experiment: &str, workload: &str, seed: u64) -> JobSpec {
    let mut s = JobSpec::new(experiment, "tiny");
    s.workload = workload.to_string();
    s.seed = seed;
    s
}

fn accept(reply: SubmitReply) -> String {
    match reply {
        SubmitReply::Accepted { id, .. } => id,
        other => panic!("expected acceptance, got {other:?}"),
    }
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

/// A gateway fanout for tests: splits `sweep-*` experiments into three
/// seed-distinguished subjobs and merges by labelled concatenation.
struct TestFanout;

impl Fanout for TestFanout {
    fn split(&self, spec: &JobSpec) -> Option<Vec<SubJob>> {
        if !spec.experiment.starts_with("sweep-") {
            return None;
        }
        Some(
            (1..=3)
                .map(|i| {
                    let mut sub = spec.clone();
                    sub.seed = i;
                    SubJob {
                        label: format!("part{i}"),
                        spec: sub,
                    }
                })
                .collect(),
        )
    }

    fn merge(&self, _spec: &JobSpec, parts: &[(String, String)]) -> Result<String, String> {
        Ok(parts
            .iter()
            .map(|(label, payload)| format!("{label}={payload};"))
            .collect())
    }
}

/// A gateway `Server` with `coordinators` workers and queue slots.
fn gateway_with(workers: Vec<String>, coordinators: usize) -> Server {
    let executor = FleetExecutor::new(&workers, Arc::new(TestFanout)).expect("ring");
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sched: SchedConfig {
            queue_cap: coordinators,
            workers: coordinators,
            job_timeout: Duration::MAX,
            ..SchedConfig::default()
        },
        cache_dir: None,
        journal_dir: None,
    };
    Server::start(cfg, Arc::new(executor)).expect("start gateway")
}

fn gateway(workers: Vec<String>) -> Server {
    gateway_with(workers, 64)
}

#[test]
fn the_gateway_forwards_singletons_and_merges_fanned_out_sweeps() {
    let a = worker();
    let b = worker();
    let (a_addr, b_addr) = (a.local_addr().to_string(), b.local_addr().to_string());
    let gw = gateway(vec![a_addr.clone(), b_addr]);
    let mut client = connect(&gw.local_addr().to_string());

    // A singleton is forwarded whole and completes with the worker's
    // exact payload.
    let solo = spec("solo-exp", "", 7);
    let id = accept(client.submit(&solo).expect("submit"));
    assert_eq!(id, solo.digest(), "the gateway job id is the spec digest");
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Done);
    assert_eq!(
        res.payload.as_deref(),
        Some("{\"echo\":\"solo-exp\",\"workload\":\"\",\"seed\":7}")
    );

    // A sweep fans out into three subjobs, collected and merged in
    // canonical split order regardless of which worker ran which part.
    let sweep = spec("sweep-exp", "", 0);
    let sweep_id = accept(client.submit(&sweep).expect("submit"));
    let res = client.wait_result(&sweep_id).expect("result");
    assert_eq!(res.state, JobState::Done, "{:?}", res.error);
    let expected: String = (1..=3)
        .map(|i| format!("part{i}={{\"echo\":\"sweep-exp\",\"workload\":\"\",\"seed\":{i}}};"))
        .collect();
    assert_eq!(res.payload.as_deref(), Some(expected.as_str()));

    // Resubmitting through the gateway replays its completed record as
    // a gateway-level cache hit.
    match client.submit(&sweep).expect("resubmit") {
        SubmitReply::Accepted { id, cached, .. } => {
            assert_eq!(id, sweep_id);
            assert!(cached, "a completed gateway job must replay as cached");
        }
        other => panic!("expected acceptance, got {other:?}"),
    }

    // A spec already cached on a worker (submitted around the gateway)
    // comes back as a cross-node cache hit when forwarded.
    let warm = spec("warm-exp", "", 3);
    let mut direct = connect(&a_addr);
    let warm_id = accept(direct.submit(&warm).expect("direct submit"));
    assert_eq!(
        direct.wait_result(&warm_id).expect("result").state,
        JobState::Done
    );
    // Forwarding may land on either worker; only the owner holds the
    // payload, so probe via the gateway and accept a hit on whichever
    // route it took.
    let _ = accept(client.submit(&warm).expect("submit"));
    let res = client.wait_result(&warm.digest()).expect("result");
    assert_eq!(res.state, JobState::Done);

    assert!(
        metric(&mut client, "forwards") >= 5,
        "solo + 3 subjobs + warm"
    );
    assert_eq!(metric(&mut client, "fanouts"), 1);
    assert_eq!(metric(&mut client, "subjobs"), 3);
    assert_eq!(metric(&mut client, "failed"), 0);
    let snap = client.metrics().expect("metrics");
    let obj = snap.as_object("metrics").unwrap();
    assert_eq!(
        obj.get("role", "metrics").unwrap().as_string().unwrap(),
        "gateway"
    );
    assert_eq!(obj.get("workers", "metrics").unwrap().as_u64(), Ok(2));
    // The scheduler's counters sit next to the fleet's, each key once:
    // solo, sweep and warm were admitted; the resubmitted sweep was a
    // gateway cache hit.
    assert_eq!(obj.get("accepted", "metrics").unwrap().as_u64(), Ok(3));
    assert_eq!(obj.get("completed", "metrics").unwrap().as_u64(), Ok(3));
    assert_eq!(obj.get("cache_hits", "metrics").unwrap().as_u64(), Ok(1));
    let keys: Vec<&str> = obj.keys().collect();
    let unique: std::collections::BTreeSet<&str> = keys.iter().copied().collect();
    assert_eq!(
        keys.len(),
        unique.len(),
        "duplicate metrics key in {keys:?}"
    );

    client.shutdown().expect("shutdown gateway");
    gw.join();
    for (w, addr) in [(&a, &a_addr), (&b, &b.local_addr().to_string())] {
        connect(addr).shutdown().expect("shutdown worker");
        w.join();
    }
}

#[test]
fn the_gateway_admits_up_to_its_queue_cap_and_cancels_queued_jobs_at_once() {
    let w = worker();
    let w_addr = w.local_addr().to_string();
    let gw = gateway_with(vec![w_addr.clone()], 1);
    let mut client = connect(&gw.local_addr().to_string());

    // The first job occupies the gateway's only coordinator...
    let running = spec("admit", "sleep:1500", 1);
    let running_id = accept(client.submit(&running).expect("submit"));
    let deadline = Instant::now() + Duration::from_secs(10);
    while client.status(&running_id).expect("status").0 != JobState::Running {
        assert!(Instant::now() < deadline, "the first job never started");
        std::thread::sleep(Duration::from_millis(5));
    }
    // ...the second fills its one queue slot, and the third is turned
    // away.
    let queued_id = accept(
        client
            .submit(&spec("admit", "sleep:1500", 2))
            .expect("submit"),
    );
    match client
        .submit(&spec("admit", "sleep:1500", 3))
        .expect("submit")
    {
        SubmitReply::Overloaded { depth, cap } => assert_eq!((depth, cap), (1, 1)),
        other => panic!("expected overloaded, got {other:?}"),
    }
    assert_eq!(metric(&mut client, "rejected"), 1);

    // A queued gateway job cancels at once (the reply is already
    // terminal); the running one is untouched.
    assert_eq!(
        client.cancel(&queued_id).expect("cancel"),
        JobState::Cancelled
    );
    assert_eq!(
        client.status(&queued_id).expect("status").0,
        JobState::Cancelled
    );
    let res = client.wait_result(&running_id).expect("result");
    assert_eq!(res.state, JobState::Done, "{:?}", res.error);
    assert_eq!(
        metric(&mut client, "forwards"),
        1,
        "the queued job never left"
    );

    client.shutdown().expect("shutdown gateway");
    gw.join();
    connect(&w_addr).shutdown().expect("shutdown worker");
    w.join();
}

#[test]
fn the_gateway_reroutes_around_a_dead_worker() {
    let a = worker();
    let a_addr = a.local_addr().to_string();
    // The classic dead node.
    let dead_addr = unused_addr();
    // Pick a seed whose digest the ring assigns to the dead node, so
    // the re-route path is exercised deterministically rather than by
    // luck of the hash.
    let ring = HashRing::new(&[a_addr.clone(), dead_addr.clone()], DEFAULT_REPLICAS).unwrap();
    let doomed = (0..1000)
        .map(|seed| spec("reroute-exp", "", seed))
        .find(|s| ring.owner(&s.digest()) == dead_addr)
        .expect("some seed must hash to the dead node");

    let gw = gateway(vec![a_addr.clone(), dead_addr]);
    let mut client = connect(&gw.local_addr().to_string());
    let started = Instant::now();
    let id = accept(client.submit(&doomed).expect("submit"));
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Done, "{:?}", res.error);
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "re-route must not hang on the dead node, took {:?}",
        started.elapsed()
    );
    assert!(metric(&mut client, "reroutes") >= 1);
    let snap = client.metrics().expect("metrics");
    let obj = snap.as_object("metrics").unwrap();
    assert_eq!(obj.get("down_workers", "metrics").unwrap().as_u64(), Ok(1));

    client.shutdown().expect("shutdown gateway");
    gw.join();
    connect(&a_addr).shutdown().expect("shutdown worker");
    a.join();
}

#[test]
fn a_failed_gateway_record_is_retried_once_a_worker_answers() {
    // The gateway's only worker is not up yet: the first submission
    // fails with every worker refusing it.
    let worker_addr = unused_addr();
    let gw = gateway(vec![worker_addr.clone()]);
    let mut client = connect(&gw.local_addr().to_string());
    let s = spec("late-worker", "", 5);
    let id = accept(client.submit(&s).expect("submit"));
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Failed);
    assert!(
        res.error
            .as_deref()
            .unwrap_or("")
            .contains("every worker refused"),
        "{:?}",
        res.error
    );

    // Once the worker is up, resubmitting the same spec must start a
    // fresh attempt instead of replaying the failed record.
    let w = worker_at(&worker_addr);
    match client.submit(&s).expect("resubmit") {
        SubmitReply::Accepted {
            id: id2,
            state,
            cached,
        } => {
            assert_eq!(id2, id);
            assert_eq!(state, JobState::Queued, "the failed record was replayed");
            assert!(!cached);
        }
        other => panic!("expected acceptance, got {other:?}"),
    }
    let res = client.wait_result(&id).expect("result");
    assert_eq!(res.state, JobState::Done, "{:?}", res.error);
    assert_eq!(
        res.payload.as_deref(),
        Some("{\"echo\":\"late-worker\",\"workload\":\"\",\"seed\":5}")
    );

    client.shutdown().expect("shutdown gateway");
    gw.join();
    connect(&worker_addr).shutdown().expect("shutdown worker");
    w.join();
}

#[test]
fn a_deeply_nested_line_gets_an_error_and_the_gateway_keeps_serving() {
    let a = worker();
    let a_addr = a.local_addr().to_string();
    let gw = gateway(vec![a_addr.clone()]);
    let gw_addr = gw.local_addr().to_string();

    // 1 MB of `[` on one line: the parser must refuse it at its depth
    // limit instead of recursing off the connection thread's stack.
    let mut raw = std::net::TcpStream::connect(&gw_addr).expect("connect");
    raw.write_all(&[b'['; 1 << 20]).expect("write");
    raw.write_all(b"\n").expect("write");
    let mut reply = String::new();
    BufReader::new(&raw).read_line(&mut reply).expect("read");
    assert!(reply.contains("\"type\":\"error\""), "{reply}");

    let mut client = connect(&gw_addr);
    let id = accept(
        client
            .submit(&spec("after-nesting", "", 1))
            .expect("submit"),
    );
    assert_eq!(
        client.wait_result(&id).expect("result").state,
        JobState::Done
    );

    client.shutdown().expect("shutdown gateway");
    gw.join();
    connect(&a_addr).shutdown().expect("shutdown worker");
    a.join();
}

#[test]
fn replaying_subjob_records_for_a_finished_sweep_is_idempotent() {
    // A worker died holding journaled subjob records (workload-filtered
    // specs minted by gateway fan-out) whose parent sweep the gateway
    // already merged from a re-route to a survivor. The restarted
    // worker must replay them anyway — over-recovery — and converge:
    // the subjobs rerun deterministically, land in the cache, and a
    // resubmission (e.g. the gateway firing the same cell again) is a
    // pure cache hit rather than a duplicate execution.
    let dir = std::env::temp_dir().join(format!("mosaic-fleet-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let running_sub = spec("sweep-exp", "w1", 0);
    let queued_sub = spec("sweep-exp", "w2", 0);
    let merged_sub = spec("sweep-exp", "w3", 0);
    {
        let (j, _) = mosaic_serve::Journal::open(&dir).expect("open journal");
        j.record_admitted(&running_sub.digest(), &running_sub);
        j.record_started(&running_sub.digest());
        j.record_admitted(&queued_sub.digest(), &queued_sub);
        j.record_admitted(&merged_sub.digest(), &merged_sub);
        j.record_completed(&merged_sub.digest(), true);
        // No drained-clean marker: this is the node kill.
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
    let server = Server::start(cfg, Arc::new(TestExec)).expect("start server");
    let mut client = connect(&server.local_addr().to_string());
    assert_eq!(metric(&mut client, "replayed_jobs"), 2);
    assert_eq!(metric(&mut client, "worker_deaths"), 1);
    for sub in [&running_sub, &queued_sub] {
        let res = client.wait_result(&sub.digest()).expect("result");
        assert_eq!(res.state, JobState::Done);
    }
    // The gateway re-firing an already-recovered cell coalesces into
    // the cache instead of executing twice.
    match client.submit(&running_sub).expect("resubmit") {
        SubmitReply::Accepted { cached, state, .. } => {
            assert!(cached, "over-recovered subjob must be a cache hit");
            assert_eq!(state, JobState::Done);
        }
        other => panic!("expected acceptance, got {other:?}"),
    }
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&dir);
}
