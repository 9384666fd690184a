//! The `serve_*` workloads: a real `serve` child daemon driven over
//! the NDJSON protocol through `mosaic_serve::Client`, closed loop,
//! one connection, one request in flight.

use crate::metrics::RunResult;
use crate::trace::Tracer;
use crate::{host, stats, Ctx};
use mosaic_bench::GoldenFile;
use mosaic_chaos::SplitMix64;
use mosaic_serve::{Client, JobSpec, JobState, RetryPolicy, SubmitReply};
use std::io::BufRead;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Times the set-up is repeated; `setup_s` is the median.
const HOT_SETUP_REPS: usize = 2;
const COLD_SETUP_REPS: usize = 3;

/// Requests per block of the traced hit loop; every fourth block
/// records spans (a quarter of ~10^5 requests is plenty, and keeps the
/// trace file in the megabytes).
const TRACE_BLOCK: u64 = 500;
/// Every this-many hits, one `metrics` verb (an operator's scraper).
const METRICS_EVERY: u64 = 1000;

/// A `serve` or `gateway` child process. Shut down through the
/// `shutdown` verb; killed and reaped on drop if that never happened
/// (a failed assertion unwinding through it included).
pub struct Daemon {
    child: Child,
    what: &'static str,
    /// The address it bound, scraped from its first stdout line.
    pub addr: String,
}

impl Daemon {
    /// Start a worker daemon on an ephemeral port with one worker and
    /// one child job, caching under `cache` and journaling under
    /// `journal`. Its working directory and `TMPDIR` are the work
    /// directory, so harness side files (`results/trace.json`) and
    /// the executor's scratch stay inside it.
    pub fn serve(ctx: &Ctx, cache: &Path, journal: &Path) -> Daemon {
        let mut cmd = Command::new(ctx.bin_dir.join("serve"));
        cmd.args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--child-jobs",
            "1",
        ])
        .arg("--cache-dir")
        .arg(cache)
        .arg("--journal-dir")
        .arg(journal)
        .arg("--calibration")
        .arg(ctx.root.join("results/model/calibration.json"));
        Daemon::spawn(ctx, cmd, "serve")
    }

    /// Start a fleet gateway in front of the worker at `worker`.
    pub fn gateway(ctx: &Ctx, worker: &str) -> Daemon {
        let mut cmd = Command::new(ctx.bin_dir.join("gateway"));
        cmd.args(["--addr", "127.0.0.1:0", "--workers", worker]);
        Daemon::spawn(ctx, cmd, "gateway")
    }

    fn spawn(ctx: &Ctx, mut cmd: Command, what: &'static str) -> Daemon {
        cmd.current_dir(ctx.work.path())
            .env("TMPDIR", ctx.work.path())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .unwrap_or_else(|e| panic!("launch {what} from {}: {e}", ctx.bin_dir.display()));
        let stdout = child.stdout.take().expect("daemon stdout is piped");
        let mut addr = String::new();
        let read = std::io::BufReader::new(stdout).read_line(&mut addr);
        let mut daemon = Daemon {
            child,
            what,
            addr: addr.trim().to_string(),
        };
        if read.is_err() || daemon.addr.is_empty() {
            let status = daemon.child.wait();
            panic!("{what} exited before printing its address ({status:?})");
        }
        daemon
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// A fresh connection, retried while the listener comes up.
    pub fn connect(&self) -> Client {
        Client::connect_with_deadline(
            &self.addr,
            &RetryPolicy::with_attempts(20),
            Duration::from_secs(30),
        )
        .unwrap_or_else(|e| panic!("connect to {} at {}: {e}", self.what, self.addr))
    }

    /// Drain the daemon through the `shutdown` verb and reap it. If it
    /// does not go, the panic's unwind drops it: killed and reaped.
    pub fn shutdown(mut self) {
        self.connect()
            .shutdown()
            .unwrap_or_else(|e| panic!("shut down {}: {e}", self.what));
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    assert!(status.success(), "{} exited with {status}", self.what);
                    return;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => panic!("wait for {}: {e}", self.what),
            }
        }
        panic!(
            "{} did not exit within 30 s of its shutdown verb",
            self.what
        );
        // Drop kills and reaps it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// A tiny-scale cycle spec no daemon has seen before: the experiment's
/// harness under a timing-only fault plan whose seed makes it distinct
/// (the executor accepts no other seed or filter on these harnesses).
pub fn cycle_spec(experiment: &str, fault_seed: u64) -> JobSpec {
    let mut spec = JobSpec::new(experiment, "tiny");
    spec.faults = format!("seed={fault_seed},horizon=20000,links=2x40");
    spec
}

/// The tiny Table-1 sweep answered by the analytic model: no engine,
/// and the largest payload any workload here moves (12.6 KB).
pub fn analytic_sweep_spec() -> JobSpec {
    let mut spec = JobSpec::new("table1", "tiny");
    spec.fidelity = "analytic".to_string();
    spec
}

/// Submit `spec` and wait for its result; returns `(cached, payload)`.
/// Anything but an accepted submission that ends `done` with a payload
/// is an error.
pub fn round_trip(
    client: &mut Client,
    spec: &JobSpec,
    tracer: &mut Tracer,
    id: u64,
) -> Result<(bool, String), String> {
    let reply = tracer.scope("submit", id, |_| client.submit(spec))?;
    let SubmitReply::Accepted {
        id: job, cached, ..
    } = reply
    else {
        return Err(format!("submission refused: {reply:?}"));
    };
    let res = tracer.scope("result", id, |_| client.wait_result(&job))?;
    match (res.state, res.payload) {
        (JobState::Done, Some(payload)) => Ok((cached, payload)),
        (state, _) => Err(format!("job {job} ended {state:?}: {:?}", res.error)),
    }
}

/// Whether a cycle payload is a golden document whose cells all
/// verified; returns its summed `(cycles, instructions)`.
fn verified_payload(payload: &str) -> Result<(u64, u64), String> {
    let golden = GoldenFile::parse(payload)?;
    if golden.cells.is_empty() || !golden.cells.iter().all(|c| c.verified) {
        return Err("payload has an unverified (or no) cell".to_string());
    }
    Ok((
        golden.cells.iter().map(|c| c.cycles).sum(),
        golden.cells.iter().map(|c| c.instructions).sum(),
    ))
}

/// Per-request latencies of a timed section.
#[derive(Default)]
struct Samples {
    /// Seconds per request, in issue order.
    latencies: Vec<f64>,
    /// Whether spans were being recorded during each request.
    recorded: Vec<bool>,
}

impl Samples {
    fn push(&mut self, latency: f64, recorded: bool) {
        self.latencies.push(latency);
        self.recorded.push(recorded);
    }

    /// Median latency of the requests `pick` selects by index,
    /// restricted to those recorded with (or without) spans when
    /// `recorded` says so.
    fn median(&self, recorded: Option<bool>, pick: impl Fn(usize) -> bool) -> f64 {
        let picked: Vec<f64> = (0..self.latencies.len())
            .filter(|&i| pick(i) && recorded.is_none_or(|r| self.recorded[i] == r))
            .map(|i| self.latencies[i])
            .collect();
        stats::median(&picked)
    }
}

/// What both serve workloads hand to [`finish`] once their daemon is
/// reaped.
struct Timed {
    samples: Samples,
    /// Wall-clock seconds of the timed section.
    wall: f64,
    /// Percentile the tail is reported at, fixed per workload so two
    /// commits always compare the same statistic.
    tail_pct: f64,
    /// The daemon's peak RSS, MiB.
    peak_rss: f64,
    /// Seconds each set-up repetition took.
    setups: Vec<f64>,
    /// CPU time and context switches of the client plus the measured
    /// daemon and its children.
    usage: host::Usage,
}

/// Turn a timed section into the run's metrics. `cost` reduces the
/// latencies recorded with (`Some(true)`) or without (`Some(false)`)
/// spans to one number; the ratio of the two is the tracing overhead.
fn finish(
    ctx: &Ctx,
    result: &mut RunResult,
    tracer: &Tracer,
    timed: Timed,
    p50: f64,
    work_per_s: f64,
    cost: impl Fn(&Samples, Option<bool>) -> f64,
) {
    let samples = &timed.samples;
    let n = samples.latencies.len();
    result.notes.push(format!(
        "{n} requests in {:.2} s; tail taken at p{} ({:.0} samples beyond it; a sample this size supports p{})",
        timed.wall,
        timed.tail_pct,
        n as f64 * (100.0 - timed.tail_pct) / 100.0,
        stats::tail_percentile(n)
    ));
    let v = &mut result.values;
    if ctx.traced {
        v.set(
            "trace.overhead_ratio",
            cost(samples, Some(true)) / cost(samples, Some(false)),
        );
        v.set("host.ctxsw_per_op", timed.usage.vol_ctxsw as f64 / n as f64);
        v.set("host.sys_share", timed.usage.sys_share());
        crate::write_trace(ctx, result.workload, tracer, timed.wall, result);
    } else {
        let mut sorted = samples.latencies.clone();
        stats::sort(&mut sorted);
        v.set("work_per_s", work_per_s);
        v.set("latency_p50_ms", p50 * 1e3);
        v.set(
            "latency_tail_ms",
            stats::percentile(&sorted, timed.tail_pct) * 1e3,
        );
        v.set("peak_rss_mb", timed.peak_rss);
        v.set("setup_s", stats::median(&timed.setups));
    }
}

/// `serve_hot`: fill the cache, restart the daemon so its memory tier
/// is empty, then submit+result round trips on cached specs.
pub fn run_hot(ctx: &Ctx) -> RunResult {
    let mut result = RunResult::new("serve_hot", ctx.traced);
    let (cycle_jobs, fib_jobs) = if ctx.quick { (2, 0) } else { (6, 2) };
    let base = ctx.seed.wrapping_mul(1000);
    let mut specs: Vec<JobSpec> = (0..cycle_jobs)
        .map(|i| cycle_spec("trace_run", base + i))
        .chain((0..fib_jobs).map(|i| cycle_spec("fig07_fib_microbench", base + 100 + i)))
        .collect();
    // The one large payload: the p99 of the hit latency is this spec.
    specs.push(analytic_sweep_spec());
    // Seeded request order: a fixed permutation walked round-robin, so
    // every spec keeps its exact share of the traffic.
    let mut rng = SplitMix64::new(ctx.seed);
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.below(i as u64 + 1) as usize);
    }

    let mut untraced = Tracer::new(false);
    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Client, Vec<String>)> = None;
    let mut usage_before = host::Usage::now();
    for rep in 0..if ctx.quick { 1 } else { HOT_SETUP_REPS } {
        if let Some((old, old_client, _)) = live.take() {
            drop(old_client);
            old.shutdown();
        }
        let start = Instant::now();
        let cache = ctx.work.fresh(&format!("hot-cache-{rep}"));
        let journal = ctx.work.fresh(&format!("hot-journal-{rep}"));
        let filler = Daemon::serve(ctx, &cache, &journal);
        let mut client = filler.connect();
        let cold: Vec<String> = specs
            .iter()
            .map(|spec| {
                let (cached, payload) = round_trip(&mut client, spec, &mut untraced, 0)
                    .unwrap_or_else(|e| panic!("cache fill of {}: {e}", spec.experiment));
                result.check(!cached, || {
                    format!("fill of {} was already cached", spec.experiment)
                });
                payload
            })
            .collect();
        drop(client);
        filler.shutdown();
        // Everything the measured daemon and its children consume is
        // counted from here (children are accounted when reaped).
        usage_before = host::Usage::now();
        let daemon = Daemon::serve(ctx, &cache, &journal);
        let mut client = daemon.connect();
        // One untimed round: disk hits, promoted to the memory tier.
        for (spec, cold) in specs.iter().zip(&cold) {
            let hit = round_trip(&mut client, spec, &mut untraced, 0);
            let ok = matches!(&hit, Ok((true, payload)) if payload == cold);
            result.check(ok, || {
                format!(
                    "disk hit of {} differs from its cold payload",
                    spec.experiment
                )
            });
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((daemon, client, cold));
    }
    let (daemon, mut client, cold) = live.expect("at least one set-up ran");

    let mut tracer = Tracer::new(ctx.traced);
    let deadline = Duration::from_secs_f64(ctx.seconds);
    // A traced run needs one block with spans and one without.
    let min_requests = if ctx.traced { 2 * TRACE_BLOCK } else { 1 };
    let mut samples = Samples::default();
    let mut scrapes = Vec::new();
    let root = tracer.begin("workload", 0);
    let start = Instant::now();
    for i in 0u64.. {
        let which = (i % specs.len() as u64) as usize;
        tracer.recording = ctx.traced && (i / TRACE_BLOCK).is_multiple_of(4);
        let t0 = Instant::now();
        let span = tracer.begin("request", i);
        let hit = round_trip(&mut client, &specs[which], &mut tracer, i);
        tracer.end(span);
        samples.push(t0.elapsed().as_secs_f64(), tracer.recording);
        let ok = matches!(&hit, Ok((true, payload)) if *payload == cold[which]);
        result.check(ok, || match hit {
            Ok((cached, _)) => format!("hit {i} (cached={cached}) differs from its cold payload"),
            Err(e) => format!("hit {i} failed: {e}"),
        });
        if (i + 1) % METRICS_EVERY == 0 {
            let t0 = Instant::now();
            let scraped = client.metrics();
            scrapes.push(t0.elapsed().as_secs_f64() * 1e6);
            result.check(scraped.is_ok(), || {
                format!("metrics verb failed: {scraped:?}")
            });
        }
        if i + 1 >= min_requests && start.elapsed() >= deadline {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    tracer.recording = ctx.traced;
    tracer.end(root);

    let peak_rss = host::peak_rss_mb(daemon.pid()).expect("read the daemon's peak RSS");
    drop(client);
    daemon.shutdown();
    if ctx.traced {
        // No simulation runs on the hit path.
        for name in ["sim.cycles_total", "sim.instr_total", "sim.ops_total"] {
            result.values.set(name, 0.0);
        }
        // The scrape as this daemon answers it after ~10^5 requests,
        // in place of the probe daemon's fresh-boot figure.
        if !scrapes.is_empty() {
            result
                .values
                .set("serve.metrics_verb_us", stats::median(&scrapes));
        }
    }
    let hit_cost = |s: &Samples, recorded| s.median(recorded, |_| true);
    let (p50, per_s) = (
        hit_cost(&samples, None),
        samples.latencies.len() as f64 / wall,
    );
    let timed = Timed {
        samples,
        wall,
        tail_pct: 99.0,
        peak_rss,
        setups,
        usage: host::Usage::now().since(&usage_before),
    };
    finish(ctx, &mut result, &tracer, timed, p50, per_s, hit_cost);
    result
}

/// The `i`-th never-seen spec of the cold stream. Rounds of three: two
/// short jobs (`trace_run` tiny on a 4x2 mesh, a ~40 ms child) and one
/// long one (`trace_run` small on the default 8x4, a ~550 ms child).
///
/// The executor notices a finished child on a 25 ms poll, so a miss
/// costs its child's time rounded up to the next 25 ms. The short job
/// sits mid-interval (it reads ~52 ms until the child passes 50 ms),
/// which keeps the median steady; the long job is long enough that one
/// poll interval is 4 % of it, which keeps the tail and the job rate
/// sensitive to engine speed. The stock tiny 8x4 `trace_run` is a 75 ms
/// child — exactly on a poll boundary, 77 or 102 ms at random.
fn cold_spec(ctx: &Ctx, i: u64) -> JobSpec {
    let fault_seed = ctx.seed.wrapping_mul(1_000_000) + i;
    if i % 3 != 2 {
        let mut spec = cycle_spec("trace_run", fault_seed);
        (spec.cols, spec.rows) = (4, 2);
        spec
    } else if ctx.quick {
        cycle_spec("trace_run", fault_seed)
    } else {
        let mut spec = cycle_spec("trace_run", fault_seed);
        spec.scale = "small".to_string();
        spec
    }
}

/// Host seconds one round of the cold mix costs — two short jobs and a
/// long one — from per-kind medians, so it does not depend on where in
/// a round the run ended.
fn cold_round(samples: &Samples, recorded: Option<bool>) -> f64 {
    2.0 * samples.median(recorded, |i| i % 3 != 2) + samples.median(recorded, |i| i % 3 == 2)
}

/// `serve_cold`: never-seen cycle specs, one at a time.
pub fn run_cold(ctx: &Ctx) -> RunResult {
    let mut result = RunResult::new("serve_cold", ctx.traced);

    // Set-up: boot on empty directories and run one untimed round,
    // which pages in the harness binary. Its specs are never submitted
    // again.
    let mut untraced = Tracer::new(false);
    let mut setups = Vec::new();
    let mut live: Option<(Daemon, Client)> = None;
    let mut usage_before = host::Usage::now();
    for rep in 0..if ctx.quick { 1 } else { COLD_SETUP_REPS } {
        if let Some((old, old_client)) = live.take() {
            drop(old_client);
            old.shutdown();
        }
        usage_before = host::Usage::now();
        let start = Instant::now();
        let cache = ctx.work.fresh(&format!("cold-cache-{rep}"));
        let journal = ctx.work.fresh(&format!("cold-journal-{rep}"));
        let daemon = Daemon::serve(ctx, &cache, &journal);
        let mut client = daemon.connect();
        for i in 0..3 {
            let spec = cold_spec(ctx, 900_000 + 3 * rep as u64 + i);
            let warm = round_trip(&mut client, &spec, &mut untraced, 0);
            result.check(matches!(warm, Ok((false, _))), || {
                format!("warm-up miss: {warm:?}")
            });
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((daemon, client));
    }
    let (daemon, mut client) = live.expect("at least one set-up ran");

    let mut tracer = Tracer::new(ctx.traced);
    let deadline = Duration::from_secs_f64(ctx.seconds);
    // Two rounds of three: one with spans and one without, and at
    // least two samples of the rarer kind.
    const MIN_JOBS: u64 = 6;
    let mut samples = Samples::default();
    let mut first_round = (0u64, 0u64);
    let root = tracer.begin("workload", 0);
    let start = Instant::now();
    for i in 0u64.. {
        tracer.recording = ctx.traced && (i / 3) % 2 == 0;
        let spec = cold_spec(ctx, i);
        let t0 = Instant::now();
        let span = tracer.begin("request", i);
        let miss = round_trip(&mut client, &spec, &mut tracer, i);
        tracer.end(span);
        samples.push(t0.elapsed().as_secs_f64(), tracer.recording);
        let checked = miss.and_then(|(cached, payload)| {
            if cached {
                return Err("a never-seen spec came back cached".to_string());
            }
            verified_payload(&payload)
        });
        if let (Ok((cycles, instructions)), true) = (&checked, i < 3) {
            first_round = (first_round.0 + cycles, first_round.1 + instructions);
        }
        result.check(checked.is_ok(), || {
            format!("miss {i} ({}): {checked:?}", spec.scale)
        });
        if i + 1 >= MIN_JOBS && start.elapsed() >= deadline {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    tracer.recording = ctx.traced;
    tracer.end(root);

    let peak_rss = host::peak_rss_mb(daemon.pid()).expect("read the daemon's peak RSS");
    drop(client);
    daemon.shutdown();
    if ctx.traced {
        // The first round's simulated totals: exact for a seed however
        // many jobs the run then fits in. Payloads carry cycles and
        // instructions, not memory ops.
        result.values.set("sim.cycles_total", first_round.0 as f64);
        result.values.set("sim.instr_total", first_round.1 as f64);
        result.values.set("sim.ops_total", 0.0);
    }
    // The median of the short jobs alone: the pooled median sits on the
    // edge between two poll intervals whenever host noise pushes a
    // quarter of them past 50 ms.
    let p50 = samples.median(None, |i| i % 3 != 2);
    let jobs_per_s = 3.0 / cold_round(&samples, None);
    result.notes.push(format!(
        "short job p50 {:.1} ms, long job p50 {:.1} ms",
        p50 * 1e3,
        samples.median(None, |i| i % 3 == 2) * 1e3
    ));
    let timed = Timed {
        samples,
        wall,
        tail_pct: 90.0,
        peak_rss,
        setups,
        usage: host::Usage::now().since(&usage_before),
    };
    finish(
        ctx,
        &mut result,
        &tracer,
        timed,
        p50,
        jobs_per_s,
        cold_round,
    );
    result
}
