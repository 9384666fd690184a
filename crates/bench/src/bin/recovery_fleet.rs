//! Node-kill chaos harness for the fleet tier: proves the gateway
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
//! 2. **Node kill** — a fresh fleet where worker B carries
//!    `--chaos-host slow=...,node_kill=...`: the whole process aborts
//!    mid-sweep, `SIGKILL`-style. The gateway must mark B down,
//!    re-route its unfinished subjobs to the survivor (asserted:
//!    `reroutes` nonzero), and deliver payloads **byte-identical** to
//!    phase 1. The survivors must then drain cleanly.
//!
//! Any divergence, missing re-route, or unexpected daemon survival is
//! a hard failure (exit 1) — this is the CI `fleet-smoke` gate.

use mosaic_serve::{Client, JobSpec, JobState, RetryPolicy, SubmitReply};
use std::collections::BTreeMap;
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// The submissions: one sweep the gateway fans out per workload, one
/// singleton it forwards whole.
const EXPERIMENTS: &[&str] = &["table1", "fig07_fib_microbench"];

fn fail(msg: &str) -> ! {
    eprintln!("recovery_fleet: FAIL: {msg}");
    std::process::exit(1);
}

struct Daemon {
    child: Child,
    addr: String,
}

fn exe_dir() -> std::path::PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| fail("cannot locate the directory holding the fleet binaries"))
}

/// Scrape the bound address from a daemon's first stdout line (both
/// `serve` and `gateway` print exactly that).
fn scrape_addr(child: &mut Child, what: &str) -> String {
    let stdout = child.stdout.take().expect("daemon stdout captured");
    let mut addr = String::new();
    std::io::BufReader::new(stdout)
        .read_line(&mut addr)
        .unwrap_or_else(|e| fail(&format!("read {what} address: {e}")));
    let addr = addr.trim().to_string();
    if addr.is_empty() {
        fail(&format!("{what} exited before printing its address"));
    }
    addr
}

/// Spawn a worker daemon on an ephemeral port.
fn spawn_worker(cache: &Path, journal: &Path, chaos: Option<&str>) -> Daemon {
    let mut cmd = Command::new(exe_dir().join("serve"));
    cmd.arg("--addr")
        .arg("127.0.0.1:0")
        .arg("--cache-dir")
        .arg(cache)
        .arg("--journal-dir")
        .arg(journal)
        .args(["--workers", "1"]);
    if let Some(spec) = chaos {
        cmd.args(["--chaos-host", spec]);
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| fail(&format!("launch serve: {e}")));
    let addr = scrape_addr(&mut child, "serve");
    Daemon { child, addr }
}

/// Spawn the gateway on an ephemeral port, fronting `workers`.
fn spawn_gateway(workers: &[&str]) -> Daemon {
    let mut cmd = Command::new(exe_dir().join("gateway"));
    cmd.args(["--addr", "127.0.0.1:0"])
        .args(["--workers", &workers.join(",")]);
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    let mut child = cmd
        .spawn()
        .unwrap_or_else(|e| fail(&format!("launch gateway: {e}")));
    let addr = scrape_addr(&mut child, "gateway");
    Daemon { child, addr }
}

fn connect(addr: &str) -> Client {
    Client::connect_with_deadline(
        addr,
        &RetryPolicy::with_attempts(20),
        Duration::from_secs(30),
    )
    .unwrap_or_else(|e| fail(&format!("connect to {addr}: {e}")))
}

fn submit_all(client: &mut Client) -> Vec<String> {
    EXPERIMENTS
        .iter()
        .map(|e| {
            let spec = JobSpec::new(e, "tiny");
            match client
                .submit(&spec)
                .unwrap_or_else(|err| fail(&format!("submit {e}: {err}")))
            {
                SubmitReply::Accepted { id, .. } => id,
                other => fail(&format!("submit {e}: {other:?}")),
            }
        })
        .collect()
}

fn collect_payloads(client: &mut Client, ids: &[String]) -> BTreeMap<String, String> {
    ids.iter()
        .map(|id| {
            let res = client
                .wait_result(id)
                .unwrap_or_else(|e| fail(&format!("wait {id}: {e}")));
            if res.state != JobState::Done {
                fail(&format!(
                    "job {id} ended {}: {}",
                    res.state.as_str(),
                    res.error.unwrap_or_default()
                ));
            }
            (id.clone(), res.payload.unwrap_or_default())
        })
        .collect()
}

fn metric(client: &mut Client, name: &str) -> u64 {
    let v = client
        .metrics()
        .unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let Ok(obj) = v.as_object("metrics") else {
        return 0;
    };
    obj.opt(name).and_then(|f| f.as_u64().ok()).unwrap_or(0)
}

/// Shut a daemon down over the wire and require a clean exit.
fn drain(mut daemon: Daemon, what: &str) {
    connect(&daemon.addr)
        .shutdown()
        .unwrap_or_else(|e| fail(&format!("shutdown {what}: {e}")));
    let status = daemon
        .child
        .wait()
        .unwrap_or_else(|e| fail(&format!("wait for {what}: {e}")));
    if !status.success() {
        fail(&format!("{what} exited {status} on a clean drain"));
    }
}

fn main() {
    let mut node_kill_ms: u64 = 2500;
    let mut slow_ms: u64 = 500;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--node-kill-ms" => {
                node_kill_ms = value("--node-kill-ms")
                    .parse()
                    .expect("--node-kill-ms must be an integer");
            }
            "--slow-ms" => {
                slow_ms = value("--slow-ms")
                    .parse()
                    .expect("--slow-ms must be an integer");
            }
            "--help" | "-h" => {
                eprintln!(
                    "fleet node-kill chaos harness\n\
                     options: --node-kill-ms N   abort worker B N ms after it boots (default 2500)\n         \
                     --slow-ms N        per-job injected slowness on worker B so the kill lands mid-sweep (default 500)"
                );
                std::process::exit(0);
            }
            other => panic!("unknown option {other:?} (try --help)"),
        }
    }

    let scratch = std::env::temp_dir().join(format!("mosaic-fleet-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let dir = |name: &str| scratch.join(name);

    // Phase 1: fault-free fleet reference.
    eprintln!("recovery_fleet: phase 1: golden (fault-free) fleet");
    let a1 = spawn_worker(&dir("a1-cache"), &dir("a1-journal"), None);
    let b1 = spawn_worker(&dir("b1-cache"), &dir("b1-journal"), None);
    let g1 = spawn_gateway(&[&a1.addr, &b1.addr]);
    let mut client = connect(&g1.addr);
    let ids = submit_all(&mut client);
    let golden = collect_payloads(&mut client, &ids);
    if metric(&mut client, "fanouts") == 0 {
        fail("the gateway never fanned the sweep out — SweepFanout did not split table1");
    }
    drop(client);
    drain(g1, "gateway");
    drain(a1, "worker A");
    drain(b1, "worker B");

    // Phase 2: the same fleet, with worker B doomed to abort
    // node_kill_ms after boot — mid-sweep, given the injected per-job
    // slowness. Spawn B last so its fuse starts just before the
    // submissions land.
    eprintln!(
        "recovery_fleet: phase 2: node-kill fleet (node_kill={node_kill_ms}ms, slow={slow_ms}ms)"
    );
    let chaos = format!("slow={slow_ms},node_kill={node_kill_ms}");
    let a2 = spawn_worker(&dir("a2-cache"), &dir("a2-journal"), None);
    let mut b2 = spawn_worker(&dir("b2-cache"), &dir("b2-journal"), Some(&chaos));
    let g2 = spawn_gateway(&[&a2.addr, &b2.addr]);
    let mut client = connect(&g2.addr);
    let chaos_ids = submit_all(&mut client);
    if chaos_ids != ids {
        fail("job ids changed between phases — the spec digest is unstable");
    }
    let recovered = collect_payloads(&mut client, &ids);

    let status = b2
        .child
        .wait()
        .unwrap_or_else(|e| fail(&format!("wait for killed worker: {e}")));
    if status.success() {
        fail("worker B exited cleanly — the node-kill fault never fired");
    }
    eprintln!("recovery_fleet: worker B died as planned ({status})");
    let reroutes = metric(&mut client, "reroutes");
    if reroutes == 0 {
        fail("the gateway re-routed nothing — the kill missed every in-flight subjob");
    }
    eprintln!("recovery_fleet: gateway re-routed {reroutes} subjob(s) to the survivor");

    let mut diverged = 0;
    for id in &ids {
        if golden[id] != recovered[id] {
            eprintln!("recovery_fleet: payload for {id} diverged from the fault-free fleet");
            diverged += 1;
        }
    }
    if diverged > 0 {
        fail(&format!(
            "{diverged} payload(s) diverged after the node kill"
        ));
    }

    // The survivors must still drain cleanly with B gone.
    drop(client);
    drain(g2, "gateway");
    drain(a2, "worker A");
    let _ = std::fs::remove_dir_all(&scratch);
    println!(
        "recovery_fleet: ok: {} jobs byte-identical after a node kill ({reroutes} re-routed)",
        ids.len()
    );
}
