//! End-to-end serve test with the real [`BinExecutor`]: a genuine
//! experiment harness (`trace_run --scale tiny`, the cheapest cell)
//! runs as a child process of the daemon, and the second submission of
//! the identical spec is answered from the content-addressed cache
//! with a byte-identical payload.

use mosaic_bench::BinExecutor;
use mosaic_serve::{Client, JobSpec, JobState, SchedConfig, Server, ServerConfig, SubmitReply};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn real_tiny_job_twice_second_is_cache_hit() {
    // The child harness writes `results/` relative to its cwd (which it
    // inherits from this process); run from a scratch dir so test runs
    // do not litter the crate directory. Safe: this is the only test
    // in this binary.
    let scratch = std::env::temp_dir().join(format!("mosaic-serve-real-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("mkdir scratch");
    std::env::set_current_dir(&scratch).expect("chdir scratch");

    // CARGO_BIN_EXE_* points at the freshly built harness binary; its
    // directory is where all sibling experiment bins live.
    let exe = std::path::PathBuf::from(env!("CARGO_BIN_EXE_trace_run"));
    let exe_dir = exe.parent().expect("bin dir").to_path_buf();
    let executor = BinExecutor {
        exe_dir,
        child_jobs: 1,
        calibration: None,
    };
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        sched: SchedConfig {
            queue_cap: 4,
            workers: 1,
            job_timeout: Duration::from_secs(300),
            ..SchedConfig::default()
        },
        cache_dir: None,
        journal_dir: None,
        peers: Vec::new(),
    };
    let server = Server::start(cfg, Arc::new(executor)).expect("start server");
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");

    let spec = JobSpec::new("trace_run", "tiny");
    let SubmitReply::Accepted { id, cached, .. } = client.submit(&spec).expect("submit") else {
        panic!("expected acceptance");
    };
    assert!(!cached);
    let first = client.wait_result(&id).expect("result");
    assert_eq!(
        first.state,
        JobState::Done,
        "trace_run failed: {:?}",
        first.error
    );
    let payload1 = first.payload.expect("payload");
    assert!(
        payload1.contains("\"cells\""),
        "payload should be golden-format JSON, got: {}",
        &payload1[..payload1.len().min(200)]
    );

    let SubmitReply::Accepted {
        id: id2, cached, ..
    } = client.submit(&spec).expect("resubmit")
    else {
        panic!("expected acceptance");
    };
    assert_eq!(id2, id);
    assert!(cached, "second identical submission must hit the cache");
    let second = client.wait_result(&id).expect("cached result");
    assert_eq!(
        second.payload.as_deref(),
        Some(payload1.as_str()),
        "cached payload must be byte-identical"
    );

    let snap = client.metrics().expect("metrics");
    let obj = snap.as_object("metrics").expect("object");
    let hits = obj
        .get("cache_hits", "metrics")
        .expect("cache_hits")
        .as_u64()
        .expect("u64");
    assert!(hits >= 1, "expected at least one cache hit, got {hits}");

    client.shutdown().expect("shutdown");
    server.join();
}
