//! One-command reproduction: run every table/figure harness at the
//! given scale and write the outputs under `results/`.
//!
//! ```sh
//! cargo run --release -p mosaic-bench --bin reproduce_all -- --scale small
//! ```
//!
//! All flags are passed through to each harness, so
//! `reproduce_all --scale tiny --check-golden --jobs 2` verifies the
//! whole reproduction against the committed golden numbers, and
//! `--write-golden` re-blesses them. Failures (including golden
//! mismatches) are collected and reported together at the end instead
//! of aborting on the first one.
//!
//! With `--via-server ADDR` the experiments are not run locally:
//! every spec is submitted to a running serve daemon (see the `serve`
//! binary), results come back over the wire as golden-format JSON,
//! and `--check-golden` / `--write-golden` are applied locally to the
//! returned cells. Resubmitting the same sweep is answered from the
//! daemon's content-addressed cache — the closing metrics snapshot
//! shows the hit count.
//!
//! `--via-fleet ADDR` is the same wire conversation pointed at a
//! fleet gateway (see the `gateway` binary) instead of a single
//! daemon: the gateway shards singleton jobs across its workers by
//! digest, fans the sweep experiments out into per-workload subjobs,
//! and merges the parts in canonical order — so `--check-golden`
//! passes against the same committed goldens as a single-node run.

use mosaic_bench::golden::{self, GoldenFile};
use mosaic_bench::{GoldenMode, Options, CATALOG};
use mosaic_serve::{Client, JobState, RetryPolicy, SubmitReply};
use mosaic_workloads::Scale;
use std::process::Command;

fn main() {
    let mut passthrough: Vec<String> = std::env::args().skip(1).collect();
    // `--via-fleet` is the same client conversation as `--via-server`
    // (a gateway speaks the daemon protocol); the split exists so
    // scripts and logs say which topology they exercised.
    for via in ["--via-server", "--via-fleet"] {
        if let Some(i) = passthrough.iter().position(|a| a == via) {
            passthrough.remove(i);
            if i >= passthrough.len() {
                eprintln!("{via} needs an ADDR (host:port of a running daemon or gateway)");
                std::process::exit(2);
            }
            let addr = passthrough.remove(i);
            via_server(&addr, &passthrough);
            return;
        }
    }
    run_local(&passthrough);
}

/// The original mode: run each harness as a local child process.
fn run_local(passthrough: &[String]) {
    std::fs::create_dir_all("results").expect("mkdir results");
    let exe_dir = std::env::current_exe()
        .expect("own path")
        .parent()
        .expect("bin dir")
        .to_path_buf();
    let mut failures: Vec<String> = Vec::new();
    for bin in CATALOG.iter().map(|e| e.name) {
        eprintln!("==> {bin}");
        let out = match Command::new(exe_dir.join(bin)).args(passthrough).output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("    FAILED to launch: {e}");
                failures.push(format!("{bin}: failed to launch ({e})"));
                continue;
            }
        };
        if !out.status.success() {
            eprintln!(
                "    FAILED ({}):\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            failures.push(format!("{bin}: exit {}", out.status));
            continue;
        }
        let path = format!("results/{bin}.txt");
        std::fs::write(&path, &out.stdout).expect("write result");
        eprintln!("    wrote {path}");
    }
    finish(failures);
}

/// Route the whole reproduction through a serve daemon.
fn via_server(addr: &str, flags: &[String]) {
    // The harness flags, parsed the way the harnesses parse them; the
    // spec-shaping ones ride the wire, the golden mode is applied
    // locally to the returned cells, and the daemon owns the rest
    // (host parallelism, paths, the profiler). Shape 0x0 leaves each
    // experiment its own default mesh.
    let opts = Options::parse_from(Scale::Small, 0, 0, flags.iter().cloned());
    for flag in opts.host_only_flags() {
        eprintln!("note: {flag} is local-only; the wire JobSpec does not carry it");
    }
    let check = opts.golden == GoldenMode::Check;
    let write = opts.golden == GoldenMode::Write;
    if !opts.fidelity.is_cycle() && (check || write) {
        // Same rule the harnesses enforce locally: committed goldens
        // are cycle-accurate truth; approximate payloads must not be
        // blessed or diffed against them.
        eprintln!(
            "refusing --{}-golden with --fidelity {}: committed goldens are \
             cycle-accurate only",
            if write { "write" } else { "check" },
            opts.fidelity
        );
        std::process::exit(1);
    }

    // Retry the connect: a freshly launched daemon may still be
    // binding its listener when the reproduction script reaches us.
    let mut client = Client::connect_with_retry(addr, &RetryPolicy::with_attempts(5))
        .unwrap_or_else(|e| {
            eprintln!("cannot connect to serve daemon at {addr}: {e}");
            std::process::exit(1);
        });

    // Submit everything up front so the daemon's queue and worker
    // pool see the whole sweep, then collect in deterministic order.
    let mut failures: Vec<String> = Vec::new();
    let mut submitted: Vec<(&str, String)> = Vec::new();
    for bin in CATALOG.iter().map(|e| e.name) {
        let spec = opts.job_spec(bin);
        // An `auto` submission to a daemon without a calibration table
        // comes back as an `error` response — collected as a per-
        // experiment failure below, like any other rejection.
        match client.submit(&spec) {
            Ok(SubmitReply::Accepted { id, state, cached }) => {
                eprintln!(
                    "==> {bin} submitted as {id} ({}{})",
                    state.as_str(),
                    if cached { ", cached" } else { "" }
                );
                submitted.push((bin, id));
            }
            Ok(SubmitReply::Overloaded { depth, cap }) => {
                failures.push(format!("{bin}: rejected, queue depth {depth} at cap {cap}"));
            }
            Ok(SubmitReply::Draining) => failures.push(format!("{bin}: server draining")),
            Err(e) => failures.push(format!("{bin}: submit failed ({e})")),
        }
    }

    for (bin, id) in &submitted {
        match client.wait_result(id) {
            Ok(res) if res.state == JobState::Done => {
                let payload = res.payload.unwrap_or_default();
                match GoldenFile::parse(&payload) {
                    Ok(fresh) => {
                        eprintln!("    {bin}: {} cells from server", fresh.cells.len());
                        if write {
                            match golden::write(&fresh) {
                                Ok(path) => eprintln!("    blessed {path}"),
                                Err(e) => failures.push(format!("{bin}: bless failed ({e})")),
                            }
                        }
                        if check {
                            match golden::check(&fresh) {
                                Ok(cells) => eprintln!(
                                    "    golden check ok: {cells} cells match {}",
                                    fresh.file_name()
                                ),
                                Err(report) => {
                                    eprintln!("{report}");
                                    failures.push(format!("{bin}: golden mismatch"));
                                }
                            }
                        }
                    }
                    Err(e) => failures.push(format!("{bin}: malformed payload ({e})")),
                }
            }
            Ok(res) => failures.push(format!(
                "{bin}: job ended {} ({})",
                res.state.as_str(),
                res.error.unwrap_or_default()
            )),
            Err(e) => failures.push(format!("{bin}: result failed ({e})")),
        }
    }

    match client.metrics() {
        Ok(snap) => eprintln!("server metrics: {}", snap.write()),
        Err(e) => eprintln!("server metrics unavailable: {e}"),
    }
    finish(failures);
}

fn finish(failures: Vec<String>) {
    if failures.is_empty() {
        eprintln!("all experiments reproduced");
    } else {
        eprintln!(
            "{} of {} experiments FAILED:",
            failures.len(),
            CATALOG.len()
        );
        for f in &failures {
            eprintln!("  {f}");
        }
        std::process::exit(1);
    }
}
