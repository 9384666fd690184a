//! The fleet gateway daemon.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin gateway -- \
//!     --addr 127.0.0.1:9200 --workers 127.0.0.1:9201,127.0.0.1:9202
//! ```
//!
//! Speaks the same newline-delimited JSON protocol as a worker daemon
//! (`submit` / `status` / `result` / `watch` / `cancel` / `metrics` /
//! `shutdown`), but runs nothing itself: singleton jobs are forwarded
//! to the worker owning their digest on the consistent-hash ring, the
//! sweep experiments (`table1`, `fig09_speedup`) are fanned out into
//! per-workload subjobs and merged back in canonical order, and dead
//! workers are routed around.

use mosaic_bench::SweepFanout;
use mosaic_serve::fleet::ring::DEFAULT_REPLICAS;
use mosaic_serve::{Gateway, GatewayConfig};
use std::sync::Arc;

fn main() {
    let mut cfg = GatewayConfig {
        addr: "127.0.0.1:9200".to_string(),
        workers: Vec::new(),
        replicas: DEFAULT_REPLICAS,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--addr" => cfg.addr = value("--addr"),
            "--workers" => {
                cfg.workers = value("--workers")
                    .split(',')
                    .map(str::trim)
                    .filter(|w| !w.is_empty())
                    .map(str::to_string)
                    .collect();
            }
            "--replicas" => {
                cfg.replicas = value("--replicas")
                    .parse()
                    .expect("--replicas must be an integer");
            }
            "--help" | "-h" => {
                eprintln!(
                    "mosaic fleet gateway\n\
                     options: --addr HOST:PORT       bind address (default 127.0.0.1:9200; port 0 = ephemeral)\n         \
                     --workers A:P,B:P      worker daemon addresses (required; the hash-ring members)\n         \
                     --replicas N           virtual points per worker on the ring (default 64)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option {other:?} (try --help)"),
        }
    }
    if cfg.workers.is_empty() {
        eprintln!("gateway: --workers is required (comma-separated daemon addresses)");
        std::process::exit(2);
    }

    eprintln!(
        "gateway: {} workers ({}), {} ring replicas each",
        cfg.workers.len(),
        cfg.workers.join(", "),
        cfg.replicas,
    );
    let gateway = Gateway::start(cfg, Arc::new(SweepFanout)).expect("bind fleet gateway");
    // Stdout carries exactly the bound address so scripts can scrape
    // the ephemeral port; everything else goes to stderr (same
    // contract as the serve daemon).
    println!("{}", gateway.local_addr());
    eprintln!("gateway: listening on {}", gateway.local_addr());
    gateway.join();
    eprintln!("gateway: drained, exiting");
}
