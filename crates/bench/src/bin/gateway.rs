//! The fleet gateway daemon.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin gateway -- \
//!     --addr 127.0.0.1:9200 --workers 127.0.0.1:9201,127.0.0.1:9202
//! ```
//!
//! A serve `Server` whose executor runs nothing itself: singleton jobs
//! are forwarded to the worker owning their digest on the
//! consistent-hash ring, the sweep experiments (`table1`,
//! `fig09_speedup`) are fanned out into per-workload subjobs and
//! merged back in canonical order, and dead workers are routed around.
//! It speaks the same newline-delimited JSON protocol as a worker
//! daemon (`submit` / `status` / `result` / `watch` / `cancel` /
//! `metrics` / `shutdown`).

use mosaic_bench::SweepFanout;
use mosaic_serve::{FleetExecutor, SchedConfig, Server, ServerConfig};
use std::sync::Arc;
use std::time::Duration;

/// Coordinators, and queued jobs admitted before `overloaded`: every
/// admitted job gets a coordinator at once.
const COORDINATORS: usize = 64;

fn main() {
    let mut addr = "127.0.0.1:9200".to_string();
    let mut workers: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => addr = value("--addr"),
            "--workers" => {
                workers = value("--workers")
                    .split(',')
                    .map(str::trim)
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--help" | "-h" => {
                eprintln!(
                    "mosaic fleet gateway\n\
                     options: --addr HOST:PORT       bind address (default 127.0.0.1:9200; port 0 = ephemeral)\n         \
                     --workers A:P,B:P      worker daemon addresses (required; the hash-ring members)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option {other:?} (try --help)"),
        }
    }
    if workers.is_empty() {
        eprintln!("gateway: --workers is required (comma-separated daemon addresses)");
        std::process::exit(2);
    }

    eprintln!(
        "gateway: {} workers ({})",
        workers.len(),
        workers.join(", ")
    );
    let executor = FleetExecutor::new(&workers, Arc::new(SweepFanout))
        .unwrap_or_else(|e| panic!("gateway: {e}"));
    let cfg = ServerConfig {
        addr,
        // The gateway keeps no results of its own beyond memory: the
        // workers' caches and journals are the durable copies.
        cache_dir: None,
        journal_dir: None,
        sched: SchedConfig {
            queue_cap: COORDINATORS,
            workers: COORDINATORS,
            // No gateway-side timeout: each worker times out its own
            // jobs (`Duration::MAX` makes the wait a blocking one).
            job_timeout: Duration::MAX,
            ..SchedConfig::default()
        },
    };
    let gateway = Server::start(cfg, Arc::new(executor)).expect("bind fleet gateway");
    // Stdout carries exactly the bound address so scripts can scrape
    // the ephemeral port; everything else goes to stderr (same
    // contract as the serve daemon).
    println!("{}", gateway.local_addr());
    eprintln!("gateway: listening on {}", gateway.local_addr());
    gateway.join();
    eprintln!("gateway: drained, exiting");
}
