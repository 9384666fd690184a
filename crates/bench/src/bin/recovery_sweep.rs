//! Kill-and-recover chaos harness: proves the serve stack's crash
//! story end to end, with real processes and a real `abort()`.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin recovery_sweep
//! ```
//!
//! Three phases, all against the sibling `serve` binary:
//!
//! 1. **Golden** — a clean daemon runs the experiment set; payloads
//!    are collected as the fault-free reference.
//! 2. **Chaos** — a fresh daemon with `--chaos-host slow=S,kill=K`
//!    (K < S, so the kill lands inside the first job) gets the same
//!    submissions, then aborts itself `SIGKILL`-style mid-sweep.
//! 3. **Recover** — the daemon restarts on the same cache and journal
//!    directories, replays the journal (asserted: `replayed_jobs` and
//!    `worker_deaths` nonzero), finishes the lost jobs, and every
//!    payload must be **byte-identical** to the golden reference.
//!
//! Any divergence, missing replay, or unexpected daemon survival is a
//! hard failure (exit 1) — this is the CI `crash-recovery` gate.

use mosaic_bench::recovery::{
    collect_payloads, connect, fail, metric, require_identical, scratch_dir, submit_all, Daemon,
};

/// The sweep: cheap tiny-scale experiments with distinct harnesses.
const EXPERIMENTS: &[&str] = &["fig07_fib_microbench", "chaos_sweep", "profile"];

/// The chaos daemon aborts this long after its first job starts...
const KILL_MS: u64 = 800;
/// ...which every job outlasts, so the kill always lands mid-job.
const SLOW_MS: u64 = 3000;
const _: () = assert!(KILL_MS < SLOW_MS);

fn main() {
    if let Some(arg) = std::env::args().nth(1) {
        panic!("unknown option {arg:?} (recovery_sweep takes none)");
    }
    let scratch = scratch_dir("recovery");

    // Phase 1: fault-free golden reference.
    eprintln!("recovery_sweep: phase 1: golden (fault-free) sweep");
    let daemon = Daemon::serve(&scratch.join("golden"), None);
    let mut client = connect(&daemon.addr);
    let ids = submit_all(&mut client, EXPERIMENTS);
    let golden = collect_payloads(&mut client, &ids);
    daemon.drain("serve");

    // Phase 2: the same sweep, murdered mid-flight.
    let chaos = format!("slow={SLOW_MS},kill={KILL_MS}");
    eprintln!("recovery_sweep: phase 2: chaos sweep ({chaos})");
    let dir = scratch.join("chaos");
    let daemon = Daemon::serve(&dir, Some(&chaos));
    if submit_all(&mut connect(&daemon.addr), EXPERIMENTS) != ids {
        fail("job ids changed between phases — the spec digest is unstable");
    }
    let status = daemon.expect_killed("the chaos daemon");
    eprintln!("recovery_sweep: daemon died as planned ({status})");

    // Phase 3: restart on the same directories and converge.
    eprintln!("recovery_sweep: phase 3: restart and recover");
    let daemon = Daemon::serve(&dir, None);
    let mut client = connect(&daemon.addr);
    let replayed = metric(&mut client, "replayed_jobs");
    let deaths = metric(&mut client, "worker_deaths");
    if replayed == 0 {
        fail("restart replayed no jobs — the journal lost the sweep");
    }
    if deaths == 0 {
        fail("no worker death recorded — the kill missed every running job");
    }
    eprintln!("recovery_sweep: journal replayed {replayed} jobs ({deaths} caught mid-run)");
    // Resubmitting coalesces with the re-admitted jobs (or hits the
    // cache for anything that completed before the kill).
    let recovered_ids = submit_all(&mut client, EXPERIMENTS);
    let recovered = collect_payloads(&mut client, &recovered_ids);
    daemon.drain("serve");

    require_identical(&golden, &recovered, "recovery");
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "recovery_sweep: ok: {} jobs byte-identical after kill-and-recover \
         ({replayed} replayed, {deaths} worker deaths)",
        ids.len()
    );
}
