//! The daemon driver behind the kill-and-recover gates
//! (`recovery_sweep`, `recovery_fleet`): spawn sibling daemon binaries
//! on an ephemeral port, talk to them over the wire, and turn every
//! surprise into a hard failure (exit 1) named after the running gate.
//!
//! Each gate keeps only its scenario: which daemons run with which
//! `--chaos-host` plan, what it submits, and which metric proves the
//! recovery happened.

use mosaic_serve::{Client, JobSpec, JobState, RetryPolicy, SubmitReply};
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take to accept a connection, and a doomed
/// daemon to die once its kill is due.
const DEADLINE: Duration = Duration::from_secs(30);

/// Report `msg` as the running gate's failure and exit 1.
pub fn fail(msg: &str) -> ! {
    let gate = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "recovery".to_string());
    eprintln!("{gate}: FAIL: {msg}");
    std::process::exit(1);
}

/// A fresh scratch directory for one gate run (removed first if a
/// previous run with the same pid left it behind).
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mosaic-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A running daemon process and the address it bound.
pub struct Daemon {
    child: Child,
    /// The `HOST:PORT` the daemon printed as its first stdout line.
    pub addr: String,
}

impl Daemon {
    /// Spawn the sibling binary `bin` with `--addr 127.0.0.1:0` plus
    /// `args`, and scrape the bound address from its stdout (both
    /// `serve` and `gateway` print exactly that line first).
    pub fn spawn(bin: &str, args: Vec<OsString>) -> Daemon {
        let exe = std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|dir| dir.join(bin)))
            .unwrap_or_else(|| fail(&format!("cannot locate the {bin} binary")));
        let mut child = Command::new(exe)
            .args(["--addr", "127.0.0.1:0"])
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .unwrap_or_else(|e| fail(&format!("launch {bin}: {e}")));
        let mut addr = String::new();
        if let Some(stdout) = child.stdout.take() {
            BufReader::new(stdout)
                .read_line(&mut addr)
                .unwrap_or_else(|e| fail(&format!("read {bin} address: {e}")));
        }
        let addr = addr.trim().to_string();
        if addr.is_empty() {
            fail(&format!("{bin} exited before printing its address"));
        }
        Daemon { child, addr }
    }

    /// A one-worker `serve` daemon with its cache and journal under
    /// `dir`, carrying the host fault plan `chaos` if one is given.
    pub fn serve(dir: &Path, chaos: Option<&str>) -> Daemon {
        let mut args: Vec<OsString> = vec![
            "--cache-dir".into(),
            dir.join("cache").into(),
            "--journal-dir".into(),
            dir.join("journal").into(),
            "--workers".into(),
            "1".into(),
        ];
        if let Some(spec) = chaos {
            args.extend(["--chaos-host".into(), spec.into()]);
        }
        Daemon::spawn("serve", args)
    }

    /// Wait for a daemon whose fault plan kills it. One still alive
    /// 30 s later is killed and fails the gate: its kill never fired.
    pub fn expect_killed(mut self, what: &str) -> ExitStatus {
        let deadline = Instant::now() + DEADLINE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => fail(&format!(
                    "{what} exited cleanly — the kill fault never fired"
                )),
                Ok(Some(status)) => return status,
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(50))
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    fail(&format!(
                        "{what} outlived its kill by {DEADLINE:?} — the kill fault never fired"
                    ));
                }
                Err(e) => fail(&format!("wait for {what}: {e}")),
            }
        }
    }

    /// Shut the daemon down over the wire and require a clean exit.
    pub fn drain(mut self, what: &str) {
        connect(&self.addr)
            .shutdown()
            .unwrap_or_else(|e| fail(&format!("shutdown {what}: {e}")));
        let status = self
            .child
            .wait()
            .unwrap_or_else(|e| fail(&format!("wait for {what}: {e}")));
        if !status.success() {
            fail(&format!("{what} exited {status} on a clean drain"));
        }
    }
}

/// Connect to a daemon that already printed its address; the deadline
/// guards against a wedged accept loop.
pub fn connect(addr: &str) -> Client {
    Client::connect_with_deadline(addr, &RetryPolicy::with_attempts(20), DEADLINE)
        .unwrap_or_else(|e| fail(&format!("connect to {addr}: {e}")))
}

/// Submit each experiment at tiny scale; returns the job ids in order.
pub fn submit_all(client: &mut Client, experiments: &[&str]) -> Vec<String> {
    experiments
        .iter()
        .map(|e| {
            match client
                .submit(&JobSpec::new(e, "tiny"))
                .unwrap_or_else(|err| fail(&format!("submit {e}: {err}")))
            {
                SubmitReply::Accepted { id, .. } => id,
                other => fail(&format!("submit {e}: {other:?}")),
            }
        })
        .collect()
}

/// Wait for every job and return its payload by id; any job that ends
/// other than `done` fails the gate.
pub fn collect_payloads(client: &mut Client, ids: &[String]) -> BTreeMap<String, String> {
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

/// One counter of the daemon's `metrics` answer (0 when absent).
pub fn metric(client: &mut Client, name: &str) -> u64 {
    let v = client
        .metrics()
        .unwrap_or_else(|e| fail(&format!("metrics: {e}")));
    let Ok(obj) = v.as_object("metrics") else {
        return 0;
    };
    obj.opt(name).and_then(|f| f.as_u64().ok()).unwrap_or(0)
}

/// Fail unless every payload in `got` is byte-identical to the
/// fault-free `golden` one; `after` names the fault in the message.
pub fn require_identical(
    golden: &BTreeMap<String, String>,
    got: &BTreeMap<String, String>,
    after: &str,
) {
    let diverged: Vec<&String> = golden
        .keys()
        .filter(|id| golden.get(*id) != got.get(*id))
        .collect();
    for id in &diverged {
        eprintln!("payload for {id} diverged from the fault-free run");
    }
    if !diverged.is_empty() {
        fail(&format!(
            "{} payload(s) diverged after {after}",
            diverged.len()
        ));
    }
}
