//! Worker-kill chaos harness for the fleet tier: proves the gateway
//! re-routes journaled subjobs around a dead worker with a
//! byte-identical merged payload, with real processes and a real
//! `abort()`.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin recovery_fleet
//! ```
//!
//! Two phases, each a 3-process fleet (gateway + 2 plain workers)
//! built from the sibling `gateway` and `serve` binaries:
//!
//! 1. **Golden** — a clean fleet runs the fanned-out `table1` sweep
//!    plus a forwarded singleton; the merged payloads are the
//!    reference.
//! 2. **Worker kill** — a fresh fleet where worker B carries
//!    `--chaos-host slow=S,kill=K` (K < S): the whole process aborts
//!    `SIGKILL`-style inside its first subjob. The gateway must mark B
//!    down, re-route its unfinished subjobs to the survivor (asserted:
//!    `reroutes` nonzero), and deliver payloads **byte-identical** to
//!    phase 1. The survivors must then drain cleanly.
//!
//! Any divergence, missing re-route, or unexpected daemon survival is
//! a hard failure (exit 1) — this is the CI `fleet-smoke` gate.

use mosaic_bench::recovery::{
    collect_payloads, connect, fail, metric, require_identical, scratch_dir, submit_all, Daemon,
};

/// The submissions: one sweep the gateway fans out per workload, one
/// singleton it forwards whole.
const EXPERIMENTS: &[&str] = &["table1", "fig07_fib_microbench"];

/// Worker B aborts this long after its first subjob starts...
const KILL_MS: u64 = 500;
/// ...which every subjob outlasts, so B dies holding work.
const SLOW_MS: u64 = 2000;
const _: () = assert!(KILL_MS < SLOW_MS);

/// A gateway fronting `workers`.
fn gateway(workers: [&Daemon; 2]) -> Daemon {
    let list = workers.map(|w| w.addr.as_str()).join(",");
    Daemon::spawn("gateway", vec!["--workers".into(), list.into()])
}

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("unknown option {arg:?} (recovery_fleet takes none)");
    }
    let scratch = scratch_dir("fleet");
    let dir = |name: &str| scratch.join(name);

    // Phase 1: fault-free fleet reference.
    eprintln!("recovery_fleet: phase 1: golden (fault-free) fleet");
    let a1 = Daemon::serve(&dir("a1"), None);
    let b1 = Daemon::serve(&dir("b1"), None);
    let g1 = gateway([&a1, &b1]);
    let mut client = connect(&g1.addr);
    let ids = submit_all(&mut client, EXPERIMENTS);
    let golden = collect_payloads(&mut client, &ids);
    if metric(&mut client, "fanouts") == 0 {
        fail("the gateway never fanned the sweep out — SweepFanout did not split table1");
    }
    drop(client);
    g1.drain("gateway");
    a1.drain("worker A");
    b1.drain("worker B");

    // Phase 2: the same fleet, with worker B doomed to abort inside
    // the first subjob it runs.
    let chaos = format!("slow={SLOW_MS},kill={KILL_MS}");
    eprintln!("recovery_fleet: phase 2: worker-kill fleet ({chaos} on worker B)");
    let a2 = Daemon::serve(&dir("a2"), None);
    let b2 = Daemon::serve(&dir("b2"), Some(&chaos));
    let g2 = gateway([&a2, &b2]);
    let mut client = connect(&g2.addr);
    if submit_all(&mut client, EXPERIMENTS) != ids {
        fail("job ids changed between phases — the spec digest is unstable");
    }
    let recovered = collect_payloads(&mut client, &ids);
    let status = b2.expect_killed("worker B");
    eprintln!("recovery_fleet: worker B died as planned ({status})");
    let reroutes = metric(&mut client, "reroutes");
    if reroutes == 0 {
        fail("the gateway re-routed nothing — the kill missed every in-flight subjob");
    }
    eprintln!("recovery_fleet: gateway re-routed {reroutes} subjob(s) to the survivor");
    require_identical(&golden, &recovered, "the worker kill");

    // The survivors must still drain cleanly with B gone.
    drop(client);
    g2.drain("gateway");
    a2.drain("worker A");
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "recovery_fleet: ok: {} jobs byte-identical after a worker kill ({reroutes} re-routed)",
        ids.len()
    );
}
