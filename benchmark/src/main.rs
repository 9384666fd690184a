//! `mosaic-hostbench`: the repository's host-performance benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml            # everything
//! cargo run --release --manifest-path benchmark/Cargo.toml -- --quick # < 10 s smoke
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload serve_hot --seed 3 --seconds 10 --trace 0           # one run
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --compare benchmark/out/a.json benchmark/out/b.json
//! ```
//!
//! See `README.md` beside this package for the metric glossary, which
//! layer metric should move which end-to-end metric, and why every
//! number here is measured pinned to one CPU.

mod cycle;
mod host;
mod metrics;
mod probes;
mod report;
mod serve;
mod stats;
mod trace;

use metrics::{RunResult, Values, RUN_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Harness binaries of the repository the benchmark drives as child
/// processes (the daemons, and the experiments the daemons execute).
const BINS: [&str; 5] = [
    "serve",
    "gateway",
    "trace_run",
    "fig07_fib_microbench",
    "table1",
];

/// Everything a run needs to know.
pub struct Ctx {
    /// `--seed`: machine seed offset, fault-plan seeds, request order.
    pub seed: u64,
    /// `--seconds`: length of the timed section.
    pub seconds: f64,
    /// `--trace 1`: record spans, report per-layer metrics.
    pub traced: bool,
    /// `--quick`: tiny cell lists, short fills, probes at 1/100.
    pub quick: bool,
    /// The repository root (the parent of this package).
    pub root: PathBuf,
    /// Where traces and reports are written (`benchmark/out`).
    pub out: PathBuf,
    /// Where the daemon and harness binaries are.
    pub bin_dir: PathBuf,
    /// Scratch space, removed on exit.
    pub work: host::WorkDir,
}

fn usage() -> ! {
    eprintln!(
        "mosaic-hostbench: host-performance benchmark\n\
         \n  (no --workload)          run all five workloads, plain then traced, print every\n\
         \x20                          metric and write <out>/report.json\n\
         \x20 --workload NAME          run one workload and print one JSON object as the last line\n\
         \x20 --seed N                 input seed (default 0)\n\
         \x20 --seconds S              length of each timed section (default {RUN_SECONDS})\n\
         \x20 --trace 0|1              0: end-to-end metrics; 1: spans, probes and per-layer metrics\n\
         \x20 --quick                  smoke-sized inputs, whole run under ten seconds\n\
         \x20 --bin-dir DIR            use the serve/gateway/harness binaries in DIR (skips building them)\n\
         \x20 --out DIR                where traces and report.json go (default benchmark/out)\n\
         \x20 --no-pin                 diagnosis only: do not pin to one CPU; output is stamped \"pinned\": false\n\
         \x20 --compare A.json B.json  compare two reports against the regression bounds\n\
         \x20 --print-benchmark-json   print BENCHMARK.json as the metric tables define it"
    );
    std::process::exit(2);
}

/// Build the repository's daemon and harness binaries with the same
/// cargo, profile and target directory this binary was built with, and
/// return the directory they land in.
fn build_bins(root: &Path) -> PathBuf {
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        Some(dir) => std::env::current_dir()
            .expect("current directory is readable")
            .join(dir),
        None => root.join("target"),
    };
    let mut cmd = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cmd.args([
        "build",
        "--release",
        "--offline",
        "--quiet",
        "-p",
        "mosaic-bench",
    ])
    .arg("--manifest-path")
    .arg(root.join("Cargo.toml"))
    .env("CARGO_TARGET_DIR", &target);
    for bin in BINS {
        cmd.args(["--bin", bin]);
    }
    let status = cmd
        .status()
        .unwrap_or_else(|e| panic!("run cargo to build the daemon binaries: {e}"));
    assert!(status.success(), "building {BINS:?} failed ({status})");
    target.join("release")
}

/// Write the run's spans as Chrome/Perfetto JSON and note where the
/// host time went. The root span must account for the timed section.
pub fn write_trace(
    ctx: &Ctx,
    name: &str,
    tracer: &trace::Tracer,
    wall: f64,
    result: &mut RunResult,
) {
    std::fs::create_dir_all(&ctx.out)
        .unwrap_or_else(|e| panic!("mkdir {}: {e}", ctx.out.display()));
    let path = ctx.out.join(format!("trace_{name}.json"));
    std::fs::write(&path, trace::to_chrome_json(tracer.spans()))
        .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
    let covered = tracer.root_seconds() / wall;
    result.check((covered - 1.0).abs() <= 0.02, || {
        format!("{name}: root spans cover {covered:.4} of the timed section")
    });
    let own: Vec<String> = trace::self_ns_by_name(tracer.spans())
        .iter()
        .map(|(name, ns)| format!("{name} {:.3} s", *ns as f64 * 1e-9))
        .collect();
    result.notes.push(format!(
        "{} spans -> {}; self time: {}",
        tracer.spans().len(),
        path.display(),
        own.join(", ")
    ));
}

/// Run one workload once, plain or traced. A traced run also reports
/// what the layer micro-probes measure, so it carries every per-layer
/// metric; the probes do not depend on the workload, so a full run
/// probes once (`probed`) and every traced workload reuses the values.
fn run_workload(ctx: &Ctx, workload: &'static str, probed: &mut Option<Values>) -> RunResult {
    host::reset_peak_rss();
    let mut result = match workload {
        "serve_hot" => serve::run_hot(ctx),
        "serve_cold" => serve::run_cold(ctx),
        _ => cycle::run(ctx, workload),
    };
    if ctx.traced {
        let probed = probed
            .get_or_insert_with(|| probes::run_all(ctx, &mut result))
            .clone();
        // What the workload measured on itself wins over the probe's
        // small-sample stand-in.
        let measured = std::mem::replace(&mut result.values, probed);
        result.values.extend(measured);
    }
    result
}

fn print_result(result: &RunResult) {
    println!(
        "{} ({}): {} attempted, {} failed (failed_share {})",
        result.workload,
        if result.traced { "traced" } else { "plain" },
        result.attempted,
        result.failed,
        result.failed_share()
    );
    for m in metrics::table(result.traced) {
        if let Some(v) = result.values.get(m.name) {
            println!("  {:36} {:>16.4} {}", m.name, v, m.unit);
        }
    }
    for note in &result.notes {
        println!("  # {note}");
    }
    for failure in &result.failures {
        println!("  ! {failure}");
    }
}

fn main() {
    let mut workload: Option<String> = None;
    let mut seed = 0u64;
    let mut seconds = RUN_SECONDS as f64;
    let mut traced = false;
    let mut quick = false;
    let mut pin = true;
    let mut bin_dir: Option<PathBuf> = None;
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
        .to_path_buf();
    let mut out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")),
            "--seed" => seed = value("--seed").parse().expect("--seed must be an integer"),
            "--seconds" => {
                seconds = value("--seconds")
                    .parse()
                    .expect("--seconds must be a number");
                assert!(
                    seconds > 0.0 && seconds <= 60.0,
                    "--seconds must be in (0, 60]"
                );
            }
            "--trace" => {
                traced = match value("--trace").as_str() {
                    "0" => false,
                    "1" => true,
                    other => panic!("--trace takes 0 or 1, not {other:?}"),
                }
            }
            "--quick" => quick = true,
            "--no-pin" => pin = false,
            "--bin-dir" => bin_dir = Some(value("--bin-dir").into()),
            "--out" => out = value("--out").into(),
            "--compare" => {
                let (a, b) = (value("--compare"), value("--compare"));
                std::process::exit(report::compare(Path::new(&a), Path::new(&b)));
            }
            "--print-benchmark-json" => {
                print!("{}", metrics::benchmark_json());
                return;
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option {other:?}");
                usage();
            }
        }
    }
    if quick {
        seconds = seconds.min(0.3);
    }

    // Pin before anything is spawned: threads, daemons and their
    // children all inherit the mask.
    if pin {
        let cpu = host::pin_to_first_allowed_cpu().unwrap_or_else(|e| {
            panic!(
                "cannot pin to one CPU ({e}); unpinned numbers are not comparable, see README.md"
            )
        });
        eprintln!("hostbench: pinned to CPU {cpu}");
    } else {
        eprintln!("hostbench: NOT PINNED (--no-pin): diagnosis only, never a baseline");
    }

    let known = |name: &str| WORKLOADS.iter().find(|w| w.name == name).map(|w| w.name);
    // Built on every invocation, whether or not this workload needs a
    // daemon: a warm build is a no-op, and the first run in a checkout
    // (the one allowed to take long) then does all the compiling.
    let bin_dir = bin_dir.unwrap_or_else(|| build_bins(&root));
    let mut ctx = Ctx {
        seed,
        seconds,
        traced,
        quick,
        root,
        work: host::WorkDir::create(&out).unwrap_or_else(|e| panic!("{e}")),
        out,
        bin_dir,
    };

    let ok = match workload {
        Some(name) => {
            let name = known(&name).unwrap_or_else(|| {
                let all: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                panic!("unknown workload {name:?} (known: {})", all.join(", "))
            });
            let result = run_workload(&ctx, name, &mut None);
            print_result(&result);
            // The driver reads the last line of standard output.
            println!("{}", result.driver_line(pin));
            result.correct()
        }
        None => {
            let mut results = Vec::new();
            let mut probed = None;
            for traced in [false, true] {
                ctx.traced = traced;
                for w in WORKLOADS {
                    let result = run_workload(&ctx, w.name, &mut probed);
                    print_result(&result);
                    results.push(result);
                }
            }
            let path = ctx.out.join("report.json");
            std::fs::write(&path, report::render(&ctx, pin, &results))
                .unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            println!("wrote {}", path.display());
            results.iter().all(RunResult::correct)
        }
    };
    // Remove the work directory before reporting failure: `exit` runs
    // no destructors.
    drop(ctx);
    if !ok {
        eprintln!("hostbench: FAILED output checks (see the `!` lines above)");
        std::process::exit(1);
    }
}
