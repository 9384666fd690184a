//! CLI client for the serve daemon.
//!
//! ```sh
//! mosaic-client --addr 127.0.0.1:9118 submit table1 --scale tiny --wait
//! mosaic-client --addr 127.0.0.1:9118 metrics
//! mosaic-client --addr 127.0.0.1:9118 shutdown
//! ```
//!
//! Responses are printed as JSON, one per line, so output composes
//! with shell pipelines; `submit --wait` additionally prints the
//! result payload (the experiment's golden-format JSON) to stdout.

use mosaic_bench::{GoldenMode, Options};
use mosaic_serve::{Client, JobSpec, JobState, Request, RetryPolicy, SubmitReply};
use mosaic_workloads::Scale;

fn usage() -> ! {
    eprintln!(
        "usage: mosaic-client [--addr HOST:PORT] [--connect-timeout-ms N] COMMAND\n\
         commands:\n  \
         submit EXPERIMENT [HARNESS FLAGS] [--wait] [--watch]\n                   \
         (harness flags as `EXPERIMENT --help` lists them; the spec-shaping ones ride the wire)\n  \
         status ID\n  \
         result ID\n  \
         watch ID\n  \
         cancel ID\n  \
         metrics\n  \
         shutdown"
    );
    std::process::exit(2);
}

/// `submit EXPERIMENT [HARNESS FLAGS] [--wait] [--watch]` as (spec,
/// wait, watch). Harness flags are parsed the way the harnesses parse
/// them (shape 0x0 = the experiment's own).
fn submission(mut args: Vec<String>) -> (JobSpec, bool, bool) {
    if args.is_empty() {
        usage();
    }
    let experiment = args.remove(0);
    let mut wait = false;
    let mut watch = false;
    let mut harness_flags = Vec::new();
    for a in args {
        match a.as_str() {
            "--wait" => wait = true,
            "--watch" => watch = true,
            _ => harness_flags.push(a),
        }
    }
    let opts = Options::parse_from(Scale::Small, 0, 0, harness_flags);
    if opts.golden != GoldenMode::Run {
        // The payload is printed, not compared: reproduce_all
        // --via-server is the client that gates on goldens.
        usage();
    }
    for flag in opts.host_only_flags() {
        eprintln!("note: {flag} is local-only; the wire JobSpec does not carry it");
    }
    (opts.job_spec(&experiment), wait, watch)
}

fn main() {
    let mut addr = "127.0.0.1:9118".to_string();
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--addr") {
        args.remove(i);
        if i >= args.len() {
            usage();
        }
        addr = args.remove(i);
    }
    // Overall wall-clock budget for the connect-retry loop; without it
    // the retries are bounded only by attempt count.
    let mut connect_timeout = std::time::Duration::MAX;
    if let Some(i) = args.iter().position(|a| a == "--connect-timeout-ms") {
        args.remove(i);
        if i >= args.len() {
            usage();
        }
        let ms: u64 = args.remove(i).parse().unwrap_or_else(|_| usage());
        connect_timeout = std::time::Duration::from_millis(ms);
    }
    if args.is_empty() {
        usage();
    }
    let command = args.remove(0);
    // A submission's flags are checked before connecting, so a bad flag
    // is reported as itself whether or not a daemon is up.
    let submit = (command == "submit").then(|| submission(std::mem::take(&mut args)));
    // Bounded connect retries: tolerates a daemon that is still
    // binding (or being restarted by a supervisor) without hanging —
    // and never longer than --connect-timeout-ms in total.
    let mut client =
        Client::connect_with_deadline(&addr, &RetryPolicy::with_attempts(3), connect_timeout)
            .unwrap_or_else(|e| panic!("cannot connect to serve daemon at {addr}: {e}"));

    let fail = |e: String| -> ! {
        eprintln!("mosaic-client: {e}");
        std::process::exit(1);
    };
    let arg_id = |args: &[String]| -> String { args.first().cloned().unwrap_or_else(|| usage()) };

    match command.as_str() {
        "submit" => {
            let (spec, wait, watch) = submit.expect("parsed before connecting");
            let reply = client.submit(&spec).unwrap_or_else(|e| fail(e));
            match reply {
                SubmitReply::Accepted { id, state, cached } => {
                    eprintln!(
                        "accepted {id} ({}{})",
                        state.as_str(),
                        if cached { ", cached" } else { "" }
                    );
                    if watch && !state.is_terminal() {
                        let final_state = client
                            .watch(&id, |done, _total, msg| eprintln!("[{done}] {msg}"))
                            .unwrap_or_else(|e| fail(e));
                        eprintln!("{id}: {}", final_state.as_str());
                    }
                    if wait || watch {
                        let res = client.wait_result(&id).unwrap_or_else(|e| fail(e));
                        match res.state {
                            JobState::Done => {
                                print!("{}", res.payload.unwrap_or_default());
                            }
                            other => fail(format!(
                                "job {id} ended {}: {}",
                                other.as_str(),
                                res.error.unwrap_or_default()
                            )),
                        }
                    } else {
                        println!("{id}");
                    }
                }
                SubmitReply::Overloaded { depth, cap } => {
                    fail(format!("overloaded: queue depth {depth} at cap {cap}"))
                }
                SubmitReply::Draining => fail("server is draining".to_string()),
            }
        }
        "status" => {
            let id = arg_id(&args);
            let v = client
                .request(&Request::Status { id })
                .unwrap_or_else(|e| fail(e));
            println!("{}", v.write());
        }
        "result" => {
            let id = arg_id(&args);
            let res = client.wait_result(&id).unwrap_or_else(|e| fail(e));
            match res.state {
                JobState::Done => print!("{}", res.payload.unwrap_or_default()),
                other => fail(format!(
                    "job ended {}: {}",
                    other.as_str(),
                    res.error.unwrap_or_default()
                )),
            }
        }
        "watch" => {
            let id = arg_id(&args);
            let state = client
                .watch(&id, |done, _total, msg| eprintln!("[{done}] {msg}"))
                .unwrap_or_else(|e| fail(e));
            println!("{}", state.as_str());
        }
        "cancel" => {
            let id = arg_id(&args);
            let state = client.cancel(&id).unwrap_or_else(|e| fail(e));
            println!("{}", state.as_str());
        }
        "metrics" => {
            let v = client.metrics().unwrap_or_else(|e| fail(e));
            // The full snapshot goes to stdout for pipelines.
            if let Ok(obj) = v.as_object("metrics") {
                // Keys this client predates get a sorted "other"
                // section instead of being silently dropped — a newer
                // daemon's counters (a gateway's `forwards`,
                // `remote_cache_hits`, ...) stay visible without a
                // client upgrade.
                let known = [
                    "type",
                    "accepted",
                    "rejected",
                    "completed",
                    "failed",
                    "timed_out",
                    "cancelled",
                    "retries",
                    "worker_deaths",
                    "replayed_jobs",
                    "cache_hits",
                    "cache_misses",
                    "queue_depth",
                    "busy_workers",
                    "latency_ms",
                    "profiled_jobs",
                    "profile",
                ];
                let mut other: Vec<String> = obj
                    .keys()
                    .filter(|k| !known.contains(k))
                    .map(|k| {
                        let val = obj
                            .opt(k)
                            .map(|v| v.write())
                            .unwrap_or_else(|| "null".to_string());
                        format!("  {k}: {val}")
                    })
                    .collect();
                if !other.is_empty() {
                    other.sort();
                    eprintln!("other counters:");
                    for line in other {
                        eprintln!("{line}");
                    }
                }
            }
            println!("{}", v.write());
        }
        "shutdown" => {
            client.shutdown().unwrap_or_else(|e| fail(e));
            eprintln!("server draining");
        }
        _ => usage(),
    }
}
