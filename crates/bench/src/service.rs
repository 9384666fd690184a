//! The `mosaic-serve` executor for real experiments.
//!
//! The daemon does not re-implement any experiment: the executor runs
//! the sibling harness binary (`table1`, `fig09_speedup`, ...) as a
//! child process with `--write-golden --golden-dir <scratch>` and
//! returns the golden JSON the harness writes — structured output via
//! the one serializer the repo already trusts, no stdout scraping.
//! Child stderr lines are streamed back as job progress events, the
//! cancel flag kills the child (which is how per-job timeouts reclaim
//! host threads), and a nonzero exit (verification failure, sanitizer
//! finding, golden drift) fails the job with the stderr tail attached.

use crate::cli::spec_argv;
use crate::experiment;
use mosaic_serve::{Executor, JobSpec};
use mosaic_workloads::Scale;
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How often `run_child` looks for the child's exit and the cancel
/// flag. A job costs its child's time rounded up to the next step, so
/// a child whose run time sits on a multiple of this reads one step or
/// two at random: a 24.5 ms child against a 25 ms step made the
/// benchmark's `serve_cold` read 27 or 36 jobs/s from run to run. The
/// children it times (`trace_run` 4x2 tiny, 5 ms; 8x4 small, 24.5 ms)
/// must stay 5 ms or more clear of a step. ROADMAP item 2(b) replaces
/// the poll with a blocking wait.
const CHILD_POLL: Duration = Duration::from_millis(20);

/// Executor that runs experiment harness binaries as child processes.
pub struct BinExecutor {
    /// Directory holding the harness binaries (normally the daemon's
    /// own directory — all `mosaic-bench` bins install side by side).
    pub exe_dir: PathBuf,
    /// `--jobs` handed to each child, budgeted so
    /// `workers × child_jobs ≤ host cores`.
    pub child_jobs: usize,
    /// Calibration table forwarded to analytic children
    /// (`--calibration`). `None` leaves the child resolving the
    /// committed default relative to its own working directory —
    /// fine in a repo checkout, wrong for a daemon started elsewhere
    /// with an explicit `--calibration`.
    pub calibration: Option<PathBuf>,
}

impl BinExecutor {
    /// An executor running the binaries next to the current one.
    pub fn beside_current_exe(child_jobs: usize) -> std::io::Result<BinExecutor> {
        let exe = std::env::current_exe()?;
        let exe_dir = exe
            .parent()
            .ok_or_else(|| std::io::Error::other("current exe has no parent dir"))?
            .to_path_buf();
        Ok(BinExecutor {
            exe_dir,
            child_jobs: child_jobs.max(1),
            calibration: None,
        })
    }

    pub(crate) fn validate(spec: &JobSpec) -> Result<(), String> {
        let exp = experiment::info(&spec.experiment).ok_or_else(|| {
            format!(
                "unknown experiment {:?} (known: {})",
                spec.experiment,
                experiment::names(|_| true, ", ")
            )
        })?;
        Scale::parse(&spec.scale)?;
        if (spec.cols == 0) != (spec.rows == 0) {
            return Err("cols and rows must be set together (or both 0)".to_string());
        }
        if !spec.workload.is_empty() && !exp.workload_filter {
            return Err(format!(
                "experiment {:?} does not support a workload filter (only the sweep \
                 experiments do: {})",
                spec.experiment,
                experiment::names(|e| e.workload_filter, ", ")
            ));
        }
        if !spec.config.is_empty() || spec.seed != 0 {
            return Err(
                "config filters and non-zero seeds are not supported by the \
                 experiment harnesses yet"
                    .to_string(),
            );
        }
        if !spec.faults.is_empty() {
            // Reject malformed plans at admission instead of letting
            // the child panic on its `--faults` flag.
            mosaic_chaos::FaultPlan::parse(&spec.faults)
                .map_err(|e| format!("bad faults spec {:?}: {e}", spec.faults))?;
        }
        match spec.fidelity.as_str() {
            "" | "cycle" => {}
            "analytic" => {
                if !exp.analytic {
                    return Err(format!(
                        "experiment {:?} is cycle-accurate only (analytic fidelity \
                         covers: {})",
                        spec.experiment,
                        experiment::names(|e| e.analytic, ", ")
                    ));
                }
            }
            "auto" => {
                // The scheduler resolves `auto` before the digest is
                // taken; one reaching the executor is a wiring bug.
                return Err("fidelity \"auto\" must be resolved by the scheduler".to_string());
            }
            other => return Err(format!("unknown fidelity {other:?} (cycle|analytic|auto)")),
        }
        Ok(())
    }
}

impl Executor for BinExecutor {
    fn run(
        &self,
        spec: &JobSpec,
        progress: &dyn Fn(u64, u64, &str),
        cancelled: &AtomicBool,
    ) -> Result<String, String> {
        Self::validate(spec)?;
        let scratch = std::env::temp_dir().join(format!(
            "mosaic-serve-{}-{}",
            std::process::id(),
            spec.digest()
        ));
        let _ = std::fs::remove_dir_all(&scratch);
        std::fs::create_dir_all(&scratch).map_err(|e| format!("mkdir scratch: {e}"))?;

        let mut cmd = Command::new(self.exe_dir.join(&spec.experiment));
        cmd.args(spec_argv(spec));
        if let (Some(table), "analytic") = (&self.calibration, spec.fidelity.as_str()) {
            // Hand the child the same table the daemon's escalation
            // decisions read; without this it would fall back to
            // the committed default relative to its own cwd.
            cmd.arg("--calibration").arg(table);
        }
        cmd.args(["--jobs", &self.child_jobs.to_string()]);
        if spec.checkpoint_every > 0 {
            // Durability knob: checkpoints land in the job's scratch
            // directory, so a crashed child leaves its images behind
            // for post-mortem while a clean run tidies them away with
            // the rest of the scratch. The digest ignores the cadence;
            // results are byte-identical either way.
            cmd.arg("--checkpoint-dir").arg(scratch.join("checkpoints"));
        }
        cmd.arg("--write-golden").arg("--golden-dir").arg(&scratch);
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());

        let run = run_child(cmd, spec, progress, cancelled);
        let payload = match run {
            Ok(()) => read_scratch_golden(&scratch),
            Err(e) => Err(e),
        };
        let _ = std::fs::remove_dir_all(&scratch);
        payload
    }
}

/// Spawn the child, stream its stderr as progress events, and poll
/// for exit and cancellation.
fn run_child(
    mut cmd: Command,
    spec: &JobSpec,
    progress: &dyn Fn(u64, u64, &str),
    cancelled: &AtomicBool,
) -> Result<(), String> {
    // Polls fall on a fixed schedule counted from before the spawn, not
    // from whenever this thread next gets the CPU back from its child:
    // on a daemon confined to one CPU that is up to a scheduler tick
    // (4 ms) later, for the whole life of the daemon or not at all,
    // which read as two job latencies 2 ms apart from run to run.
    let mut next_poll = Instant::now() + CHILD_POLL;
    let mut child = cmd
        .spawn()
        .map_err(|e| format!("launch {}: {e}", spec.experiment))?;
    let stderr = child.stderr.take().ok_or("child stderr not captured")?;
    // `progress` is not Send, so a helper thread forwards stderr lines
    // over a channel and the executor thread relays them as events
    // while polling exit status and the cancel flag.
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stderr).lines().map_while(Result::ok) {
            if tx.send(line).is_err() {
                return;
            }
        }
    });

    let mut cells_done: u64 = 0;
    let mut tail: VecDeque<String> = VecDeque::new();
    let mut relay = |line: String, progress: &dyn Fn(u64, u64, &str)| {
        if line.contains(" cycles ") {
            cells_done += 1;
        }
        tail.push_back(line.clone());
        if tail.len() > 25 {
            tail.pop_front();
        }
        progress(cells_done, 0, &line);
    };

    let status = loop {
        while let Ok(line) = rx.try_recv() {
            relay(line, progress);
        }
        if cancelled.load(Ordering::Relaxed) {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err("cancelled".to_string());
        }
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => {
                std::thread::sleep(next_poll.saturating_duration_since(Instant::now()));
                next_poll += CHILD_POLL;
            }
            Err(e) => {
                let _ = child.kill();
                return Err(format!("wait for {}: {e}", spec.experiment));
            }
        }
    };
    let _ = reader.join();
    while let Ok(line) = rx.try_recv() {
        relay(line, progress);
    }
    if !status.success() {
        let tail: Vec<String> = tail.into_iter().collect();
        return Err(format!(
            "{} exited with {status}; stderr tail:\n{}",
            spec.experiment,
            tail.join("\n")
        ));
    }
    Ok(())
}

/// The payload is the single golden JSON file the harness wrote into
/// the scratch directory.
fn read_scratch_golden(scratch: &std::path::Path) -> Result<String, String> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(scratch)
        .map_err(|e| format!("read scratch dir: {e}"))?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    match files.as_slice() {
        [one] => std::fs::read_to_string(one).map_err(|e| format!("read golden payload: {e}")),
        [] => Err("harness wrote no golden file".to_string()),
        many => Err(format!(
            "harness wrote {} golden files, expected 1",
            many.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_rejects_bad_specs() {
        let ok = JobSpec::new("table1", "tiny");
        assert!(BinExecutor::validate(&ok).is_ok());

        let mut bad = ok.clone();
        bad.experiment = "rm_rf".into();
        assert!(BinExecutor::validate(&bad).is_err());

        let mut bad = ok.clone();
        bad.scale = "huge".into();
        assert!(BinExecutor::validate(&bad).is_err());

        let mut bad = ok.clone();
        bad.cols = 8; // rows left 0
        assert!(BinExecutor::validate(&bad).is_err());

        let mut bad = ok.clone();
        bad.seed = 3;
        assert!(BinExecutor::validate(&bad).is_err());

        // Workload filters: fine on sweep experiments (the fleet
        // gateway's fan-out path), refused everywhere else.
        let mut filtered = ok.clone();
        filtered.workload = "cilksort".into();
        assert!(BinExecutor::validate(&filtered).is_ok());

        let mut bad = ok.clone();
        bad.experiment = "trace_run".into();
        bad.workload = "cilksort".into();
        assert!(BinExecutor::validate(&bad).is_err());

        let mut faulted = ok.clone();
        faulted.faults = "seed=7,horizon=1000,freeze=2x100".into();
        assert!(BinExecutor::validate(&faulted).is_ok());

        let mut bad = ok.clone();
        bad.faults = "not a plan".into();
        assert!(BinExecutor::validate(&bad).is_err());
    }
}
