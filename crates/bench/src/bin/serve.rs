//! The simulation-as-a-service daemon.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin serve -- --addr 127.0.0.1:9118
//! ```
//!
//! Accepts newline-delimited JSON requests (`submit` / `status` /
//! `result` / `watch` / `cancel` / `metrics` / `shutdown`; see
//! `mosaic-serve`), executes experiments by running the sibling
//! harness binaries, and memoizes results in the content-addressed
//! cache under `results/cache/`. Worker-pool and per-child `--jobs`
//! budgets follow the sweep-pool rule: one simulation is one OS thread,
//! so `workers × child_jobs` must not exceed the host's cores.
//!
//! Drains gracefully on a `shutdown` request: new submissions are
//! rejected, queued and running jobs complete, then the process exits.

use mosaic_bench::cli::CALIBRATION_PATH;
use mosaic_bench::service::BinExecutor;
use mosaic_chaos::HostFaultPlan;
use mosaic_model::CalibrationTable;
use mosaic_serve::{Executor, FaultyExecutor, SchedConfig, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut cfg = ServerConfig::default();
    let mut workers: Option<usize> = None;
    let mut child_jobs: Option<usize> = None;
    let mut chaos_host = HostFaultPlan::default();
    let mut calibration: Option<PathBuf> = None;
    let mut escalate_bound_ppm: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--queue-cap" => {
                cfg.sched.queue_cap = value("--queue-cap")
                    .parse()
                    .expect("--queue-cap must be an integer");
            }
            "--workers" => {
                workers = Some(
                    value("--workers")
                        .parse()
                        .expect("--workers must be an integer"),
                );
            }
            "--child-jobs" => {
                child_jobs = Some(
                    value("--child-jobs")
                        .parse()
                        .expect("--child-jobs must be an integer"),
                );
            }
            "--timeout-secs" => {
                cfg.sched.job_timeout = Duration::from_secs(
                    value("--timeout-secs")
                        .parse()
                        .expect("--timeout-secs must be an integer"),
                );
            }
            "--cache-dir" => cfg.cache_dir = Some(PathBuf::from(value("--cache-dir"))),
            "--no-cache-dir" => cfg.cache_dir = None,
            "--journal-dir" => cfg.journal_dir = Some(PathBuf::from(value("--journal-dir"))),
            "--no-journal" => cfg.journal_dir = None,
            "--retries" => {
                let attempts: u32 = value("--retries")
                    .parse()
                    .expect("--retries must be an integer");
                cfg.sched.retry.max_attempts = attempts.max(1);
            }
            "--chaos-host" => {
                let spec = value("--chaos-host");
                chaos_host = HostFaultPlan::parse(&spec)
                    .unwrap_or_else(|e| panic!("bad --chaos-host spec {spec:?}: {e}"));
            }
            "--peers" => {
                cfg.peers = value("--peers")
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--calibration" => calibration = Some(PathBuf::from(value("--calibration"))),
            "--escalate-bound-ppm" => {
                escalate_bound_ppm = Some(
                    value("--escalate-bound-ppm")
                        .parse()
                        .expect("--escalate-bound-ppm must be an integer"),
                );
            }
            "--help" | "-h" => {
                eprintln!(
                    "mosaic serve daemon\n\
                     options: --addr HOST:PORT      bind address (default 127.0.0.1:9118; port 0 = ephemeral)\n         \
                     --queue-cap N          admission-control queue depth cap (default 64)\n         \
                     --workers N            concurrent jobs (default: host cores)\n         \
                     --child-jobs N         --jobs handed to each experiment child (default: fill the\n                                \
                     budget workers x child-jobs <= host cores)\n         \
                     --timeout-secs N       per-job wall-clock timeout (default 600)\n         \
                     --cache-dir PATH       on-disk result cache (default results/cache)\n         \
                     --no-cache-dir         memory-only cache\n         \
                     --journal-dir PATH     crash-safety job journal (default results/journal)\n         \
                     --no-journal           disable the journal (a kill loses queued/running jobs)\n         \
                     --retries N            attempts per job incl. the first (default 1 = no retry)\n         \
                     --chaos-host SPEC      inject host faults, e.g. panics=2,slow=100,kill=500,node_kill=2000\n                                \
                     (testing the isolation/retry/crash-recovery machinery;\n                                \
                     node_kill aborts the whole daemon N ms after boot;\n                                \
                     see mosaic-chaos)\n         \
                     --peers A:P,B:P        fleet peer daemons: steal queued jobs from them when\n                                \
                     idle and answer submissions from their caches\n         \
                     --calibration PATH     calibration table backing auto-fidelity submissions\n                                \
                     (default results/model/calibration.json when present;\n                                \
                     without a table, auto submissions are rejected)\n         \
                     --escalate-bound-ppm N widest calibrated error band still answered\n                                \
                     analytically (default: the table's own bound)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option {other:?} (try --help)"),
        }
    }

    // Budget concurrent simulations the same way the sweep pool does:
    // each simulation occupies one host thread and workers × child_jobs
    // of them may run at once, so the defaults keep
    // workers × child_jobs ≤ host cores.
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let workers = workers.unwrap_or(host).max(1);
    let child_jobs = child_jobs.unwrap_or(host / workers).max(1);
    cfg.sched = SchedConfig {
        workers,
        ..cfg.sched
    };

    // Load the calibration table backing `auto` fidelity: an explicit
    // --calibration PATH must parse; the default path is best-effort
    // (a daemon in a checkout that never ran `calibrate` still serves
    // cycle-accurate jobs — it just rejects `auto`).
    let table_path = calibration
        .clone()
        .or_else(|| Some(PathBuf::from(CALIBRATION_PATH)).filter(|p| p.exists()));
    if let Some(path) = &table_path {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read --calibration {}: {e}", path.display()));
        let table = CalibrationTable::parse(&text)
            .unwrap_or_else(|e| panic!("parse --calibration {}: {e}", path.display()));
        cfg.sched.escalate_bound_ppm = escalate_bound_ppm.unwrap_or(table.bound_ppm);
        eprintln!(
            "serve: calibration loaded from {} ({} families, escalation bound {}ppm)",
            path.display(),
            table.families.len(),
            cfg.sched.escalate_bound_ppm
        );
        cfg.sched.calibration = Some(Arc::new(table));
    } else {
        eprintln!("serve: no calibration table; auto-fidelity submissions will be rejected");
    }

    let mut executor =
        BinExecutor::beside_current_exe(child_jobs).expect("locate harness binaries");
    // Analytic children must read the exact table the escalation
    // decisions came from, wherever the daemon was started — forward
    // it absolutized rather than letting each child re-resolve the
    // committed default against its own working directory.
    executor.calibration = table_path.map(|p| std::fs::canonicalize(&p).unwrap_or(p));
    eprintln!(
        "serve: {} workers x {} child jobs (1 host thread/sim, {} host cores), queue cap {}, timeout {:?}, {} attempts/job",
        workers, child_jobs, host, cfg.sched.queue_cap,
        cfg.sched.job_timeout, cfg.sched.retry.max_attempts
    );
    let executor: Arc<dyn Executor> = if chaos_host.is_empty() {
        Arc::new(executor)
    } else {
        eprintln!("serve: CHAOS host faults active ({})", chaos_host.to_spec());
        // The whole-node kill is anchored at boot, not at the first
        // job, so it belongs to the daemon, not the executor wrapper.
        chaos_host.arm_node_kill();
        Arc::new(
            FaultyExecutor::new(
                Arc::new(executor),
                chaos_host.panic_attempts,
                Duration::from_millis(chaos_host.slow_ms),
            )
            .kill_after(Duration::from_millis(chaos_host.kill_after_ms)),
        )
    };
    if !cfg.peers.is_empty() {
        eprintln!("serve: fleet peers: {}", cfg.peers.join(", "));
    }
    let server = Server::start(cfg, executor).expect("bind serve daemon");
    // Stdout carries exactly the bound address so scripts can scrape
    // the ephemeral port; everything else goes to stderr.
    println!("{}", server.local_addr());
    eprintln!("serve: listening on {}", server.local_addr());
    server.join();
    eprintln!("serve: drained, exiting");
}
