//! The `cycle_*` workloads: in-process sweeps through
//! `Benchmark::run(MachineConfig, RuntimeConfig)`, one simulation at a
//! time on one host thread.
//!
//! A *pass* runs every cell of the workload's list once. Passes repeat
//! until `--seconds` have elapsed (stopping after the cell in flight,
//! never before every cell has run once), and every number is derived
//! from per-cell medians, so a partial last pass or one preempted cell
//! does not move the result.

use crate::metrics::RunResult;
use crate::trace::Tracer;
use crate::{host, stats, Ctx};
use mosaic_bench::GoldenFile;
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::{FaultPlan, MachineConfig};
use mosaic_workloads::{table1_benchmarks, Benchmark, Scale};
use std::time::{Duration, Instant};

/// Times the set-up (build + golden check) is repeated; `setup_s` is
/// the median.
const SETUP_REPS: usize = 3;

/// The configuration the golden cross-check and the instrumented
/// workload run under (the paper's headline: everything in SPM).
const SPM: &str = "ws/spm-stack/spm-q";
/// The naive counterpart: all runtime data in DRAM.
const DRAM: &str = "ws/dram-stack/dram-q";
/// The static-loop baseline.
const STATIC: &str = "static/dram-stack";

/// Cells checked against `results/golden/table1_tiny_8x4.json` during
/// set-up, at the machine's default seed.
const GOLDEN_CELLS: [&str; 3] = ["UTS-t3", "CilkSort-256", "SpMV-c-58"];

/// Timing-only fault plan of the instrumented workload.
const FAULTS: &str = "seed=7,horizon=20000,links=2x40";
/// Checkpoint cadence of the instrumented workload, simulated cycles.
const CHECKPOINT_EVERY: u64 = 50_000;

/// One workload's shape: mesh, cell list, and whether every observer
/// hook is switched on.
struct Plan {
    cols: u16,
    rows: u16,
    benches: &'static [(Scale, &'static str)],
    configs: &'static [&'static str],
    instrumented: bool,
}

/// The cell lists. Sized so one pass takes 2–4 s pinned on the
/// reference box: several passes fit into a ten-second run, which is
/// what the medians need. (Scale::Small throughout would be closer to
/// the paper but a single pass would outlast the run.)
fn plan(workload: &str, quick: bool) -> Plan {
    let mut plan = match workload {
        "cycle_dynamic" => Plan {
            cols: 8,
            rows: 4,
            benches: &[
                (Scale::Small, "MatTrans-128"),
                (Scale::Tiny, "CilkSort-256"),
                (Scale::Small, "NQ-6"),
                (Scale::Small, "UTS-t3"),
            ],
            configs: &[SPM, DRAM],
            instrumented: false,
        },
        "cycle_membound" => Plan {
            cols: 16,
            rows: 8,
            benches: &[(Scale::Tiny, "PR-email"), (Scale::Tiny, "SpMV-c-58")],
            configs: &[STATIC, DRAM],
            instrumented: false,
        },
        "cycle_instrumented" => Plan {
            cols: 8,
            rows: 4,
            benches: &[
                (Scale::Tiny, "CilkSort-256"),
                (Scale::Small, "NQ-6"),
                (Scale::Small, "UTS-t3"),
                (Scale::Tiny, "PR-email"),
                (Scale::Tiny, "SpMV-c-58"),
            ],
            configs: &[SPM],
            instrumented: true,
        },
        other => panic!("{other} is not a cycle workload"),
    };
    if quick {
        plan.benches = match workload {
            "cycle_membound" => &[(Scale::Tiny, "SpMV-c-58")],
            _ => &[(Scale::Tiny, "CilkSort-256")],
        };
        plan.cols = 8;
        plan.rows = 4;
    }
    plan
}

/// The exact simulated numbers of one cell; must repeat for a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Loads + stores + AMOs + fences.
    pub ops: u64,
}

/// Run one cell and return its counts, whether it verified, and the
/// host seconds `Benchmark::run` took.
pub fn run_cell(
    bench: &dyn Benchmark,
    machine: MachineConfig,
    runtime: RuntimeConfig,
    tracer: &mut Tracer,
    id: u64,
) -> (SimCounts, bool, f64) {
    let start = Instant::now();
    let out = tracer.scope("Benchmark::run", id, |_| bench.run(machine, runtime));
    let wall = start.elapsed().as_secs_f64();
    let r = &out.report;
    let ops = r
        .counters
        .iter()
        .map(|c| c.loads + c.stores + c.amos + c.fences)
        .sum();
    let counts = SimCounts {
        cycles: r.cycles,
        instructions: r.instructions(),
        ops,
    };
    (counts, out.verified, wall)
}

/// The runtime configuration Table 1 labels `label`.
pub fn runtime_config(label: &str) -> RuntimeConfig {
    RuntimeConfig::table1_sweep()
        .into_iter()
        .find(|(l, _)| *l == label)
        .map(|(_, c)| c)
        .unwrap_or_else(|| panic!("no Table-1 configuration is labelled {label}"))
}

/// The instance named `name` among Table 1's at `scale`.
pub fn find_bench(scale: Scale, name: &str) -> Box<dyn Benchmark> {
    table1_benchmarks(scale)
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("no Table-1 instance is named {name} at {scale:?}"))
}

/// Run the three golden cells at the default seed and compare them
/// with the repository's committed golden — read from `results/`, not
/// from a copy, so a change that legitimately moves cycles updates one
/// place.
fn golden_check(ctx: &Ctx, result: &mut RunResult) {
    let path = ctx.root.join("results/golden/table1_tiny_8x4.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let golden = GoldenFile::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let mut untraced = Tracer::new(false);
    for name in GOLDEN_CELLS {
        let bench = find_bench(Scale::Tiny, name);
        let machine = MachineConfig::small(golden.cols, golden.rows);
        let (counts, verified, _) = run_cell(
            bench.as_ref(),
            machine,
            runtime_config(SPM),
            &mut untraced,
            0,
        );
        let want = golden
            .cells
            .iter()
            .find(|c| c.workload == name && c.config == SPM)
            .unwrap_or_else(|| panic!("{} has no {name} {SPM} cell", path.display()));
        let ok =
            verified && counts.cycles == want.cycles && counts.instructions == want.instructions;
        result.check(ok, || {
            format!(
                "{name} {SPM}: got {} cycles / {} instructions (verified={verified}), golden says {} / {}",
                counts.cycles, counts.instructions, want.cycles, want.instructions
            )
        });
    }
}

/// One cell of the timed list plus everything measured on it.
struct Cell {
    bench: Box<dyn Benchmark>,
    config: &'static str,
    first: Option<SimCounts>,
    /// Host seconds per run, split by whether spans were recorded.
    walls: [Vec<f64>; 2],
}

impl Cell {
    fn median_wall(&self, recorded: bool) -> f64 {
        stats::median(&self.walls[recorded as usize])
    }

    fn all_walls(&self) -> Vec<f64> {
        self.walls.concat()
    }
}

/// Run one `cycle_*` workload.
pub fn run(ctx: &Ctx, workload: &'static str) -> RunResult {
    let mut result = RunResult::new(workload, ctx.traced);
    let plan = plan(workload, ctx.quick);

    // Set-up: build the instances and cross-check the simulator
    // against the committed golden. Repeated so `setup_s` is a median.
    let mut setups = Vec::new();
    let mut cells = Vec::new();
    let reps = if ctx.quick { 1 } else { SETUP_REPS };
    for _ in 0..reps {
        let start = Instant::now();
        cells = plan
            .benches
            .iter()
            .flat_map(|&(scale, name)| {
                plan.configs.iter().map(move |&config| Cell {
                    bench: find_bench(scale, name),
                    config,
                    first: None,
                    walls: [Vec::new(), Vec::new()],
                })
            })
            .collect::<Vec<Cell>>();
        golden_check(ctx, &mut result);
        setups.push(start.elapsed().as_secs_f64());
    }

    let mut machine = MachineConfig::small(plan.cols, plan.rows);
    machine.seed = machine.seed.wrapping_add(ctx.seed);
    if plan.instrumented {
        machine.profile = true;
        machine.sanitize = true;
        machine.faults = Some(FaultPlan::parse(FAULTS).expect("FAULTS is a valid plan"));
        machine.checkpoint_every = CHECKPOINT_EVERY;
        machine.checkpoint_dir = Some(ctx.work.fresh("checkpoints"));
    }

    // The timed section. A traced run records a cell's spans on every
    // other pass — odd cells on odd passes, even cells on even ones, so
    // both halves share the cold first pass — which measures the
    // tracing overhead inside one run and takes two full passes.
    let mut tracer = Tracer::new(ctx.traced);
    let len = cells.len() as u64;
    let min_runs = if ctx.traced { 2 * len } else { len };
    let deadline = Duration::from_secs_f64(ctx.seconds);
    let usage_before = host::Usage::now();
    let root = tracer.begin("workload", 0);
    let start = Instant::now();
    let mut total_ops = 0u64;
    let mut pass_span = None;
    for n in 0u64.. {
        let (pass, i) = (n / len, n % len);
        if i == 0 {
            pass_span = Some(tracer.begin("pass", pass));
        }
        let cell = &mut cells[i as usize];
        let id = pass * 1000 + i;
        tracer.recording = ctx.traced && (pass + i).is_multiple_of(2);
        let cell_span = tracer.begin("cell", id);
        let (counts, verified, wall) = run_cell(
            cell.bench.as_ref(),
            machine.clone(),
            runtime_config(cell.config),
            &mut tracer,
            id,
        );
        tracer.end(cell_span);
        cell.walls[tracer.recording as usize].push(wall);
        tracer.recording = ctx.traced;
        total_ops += counts.ops;
        let same = *cell.first.get_or_insert(counts) == counts;
        result.check(verified && same, || {
            format!(
                "{} {}: pass {pass} verified={verified}, counts {counts:?} vs first pass {:?}",
                cell.bench.name(),
                cell.config,
                cell.first
            )
        });
        // Stop after the cell in flight, once every cell has its runs.
        let done = n + 1 >= min_runs && start.elapsed() >= deadline;
        if done || i + 1 == len {
            tracer.end(pass_span.take().expect("a pass is open"));
        }
        if done {
            break;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    tracer.end(root);
    let usage = host::Usage::now().since(&usage_before);

    let first = |c: &Cell| c.first.expect("every cell ran at least once");
    let pass_ops: u64 = cells.iter().map(|c| first(c).ops).sum();
    let runs: usize = cells.iter().map(|c| c.all_walls().len()).sum();
    result.notes.push(format!(
        "{} cells at {}x{}, {runs} cell runs in {wall:.2} s, {pass_ops} simulated ops per pass",
        cells.len(),
        plan.cols,
        plan.rows
    ));

    if ctx.traced {
        let traced: f64 = cells.iter().map(|c| c.median_wall(true)).sum();
        let plain: f64 = cells.iter().map(|c| c.median_wall(false)).sum();
        let v = &mut result.values;
        v.set("trace.overhead_ratio", traced / plain);
        v.set(
            "sim.cycles_total",
            cells.iter().map(|c| first(c).cycles).sum::<u64>() as f64,
        );
        v.set(
            "sim.instr_total",
            cells.iter().map(|c| first(c).instructions).sum::<u64>() as f64,
        );
        v.set("sim.ops_total", pass_ops as f64);
        v.set(
            "host.ctxsw_per_op",
            usage.vol_ctxsw as f64 / total_ops as f64,
        );
        v.set("host.sys_share", usage.sys_share());
        crate::write_trace(ctx, workload, &tracer, wall, &mut result);
    } else {
        let pass_wall: f64 = cells.iter().map(|c| stats::median(&c.all_walls())).sum();
        let v = &mut result.values;
        v.set("work_per_s", pass_ops as f64 / pass_wall);
        v.set("latency_p50_ms", pass_wall * 1e3);
        // Too few passes for any percentile beyond the median.
        v.set("latency_tail_ms", pass_wall * 1e3);
        v.set(
            "peak_rss_mb",
            host::peak_rss_mb(std::process::id()).expect("read own peak RSS"),
        );
        v.set("setup_s", stats::median(&setups));
        result.notes.push(format!(
            "latency = one pass over the cell list (sum of per-cell medians); tail = p50 ({} passes)",
            cells.iter().map(|c| c.all_walls().len()).min().unwrap_or(0)
        ));
    }
    result
}
