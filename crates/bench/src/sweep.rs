//! Shared sweep machinery: an experiment is a list of independent
//! [`Cell`]s, [`run`] executes them on a bounded pool of host threads,
//! and [`table1_cells`] enumerates the Table-1 grid (used by `table1`
//! and `fig09_speedup`).
//!
//! ## Parallel execution model
//!
//! Every `mosaic-sim` run is deterministic and fully self-contained (no
//! process-global state), so distinct (benchmark, config) cells can run
//! on different host threads without changing any simulated number. An
//! experiment enumerates all cells up front, [`run`] executes them on
//! a bounded pool ([`run_cells`]) and *collects results in
//! deterministic cell order* — progress lines fire in exactly the
//! order a serial run would print them, so all output (tables, golden
//! JSON, progress lines) is bit-identical for any `--jobs` value. One
//! simulation is one OS thread (its cores are coroutines on it), so
//! the pool's default size is simply the host's core count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use crate::sanitize::SanCell;
use mosaic_runtime::{RunReport, RuntimeConfig};
use mosaic_sim::{Backend, BackendJob, CycleOutcome, FamilyKey, MachineConfig, MachineProfile};
use mosaic_workloads::{Benchmark, Scale};

/// What running one cell produced. The first five fields are what the
/// driver gates on (golden file, verification, sanitizer); the rest
/// carry whatever else the experiment's renderer needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Outcome {
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Whether the run verified against the host reference.
    pub verified: bool,
    /// Sanitizer outcome (default/empty when `--sanitize` is off).
    pub sanitizer: SanCell,
    /// Cycle-attribution profile (`None` unless the profiler ran).
    pub profile: Option<MachineProfile>,
    /// Named counters the experiment wants gated in its golden file.
    pub counters: Vec<(String, u64)>,
    /// Experiment-specific numbers for the renderer (kernel spans,
    /// steal counts, ...), in an order the experiment defines.
    pub extra: Vec<u64>,
    /// Experiment-specific preformatted text for the renderer.
    pub text: String,
    /// Stderr text the harness emits when this cell is collected (in
    /// cell order, whatever `--jobs` is): the sweep progress line.
    pub log: String,
}

impl Outcome {
    /// The outcome of a runtime run.
    pub fn of(report: &RunReport, verified: bool) -> Outcome {
        Outcome {
            cycles: report.cycles,
            instructions: report.instructions(),
            verified,
            sanitizer: SanCell::from_report(report.sanitizer.as_ref()),
            profile: report.profile.clone(),
            ..Outcome::default()
        }
    }
}

/// One independent simulation of an experiment's grid.
pub struct Cell {
    /// Workload label (golden file, sanitizer log).
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// Mesh shape, when the cell overrides the harness-wide
    /// `--cols/--rows` (scaling studies).
    pub shape: Option<(u16, u16)>,
    /// Runs the cell on the machine the harness flags describe; it
    /// may adjust that machine first (a ruche factor, a per-cell fault
    /// plan).
    pub run: Box<dyn Fn(MachineConfig) -> Outcome + Send + Sync>,
}

impl Cell {
    /// A cell on the harness-wide mesh shape.
    pub fn new(
        workload: impl Into<String>,
        config: impl Into<String>,
        run: impl Fn(MachineConfig) -> Outcome + Send + Sync + 'static,
    ) -> Cell {
        Cell {
            workload: workload.into(),
            config: config.into(),
            shape: None,
            run: Box::new(run),
        }
    }

    /// The same cell on its own mesh shape.
    pub fn at(mut self, cols: u16, rows: u16) -> Cell {
        self.shape = Some((cols, rows));
        self
    }
}

/// One cell's labels and outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellResult {
    /// Workload label.
    pub workload: String,
    /// Configuration label.
    pub config: String,
    /// What the run produced.
    pub out: Outcome,
}

/// One benchmark across the Table-1 configurations: a view over the
/// flat results of a [`table1_cells`] sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow<'a> {
    /// Benchmark display name.
    pub name: String,
    /// Table-1 category abbreviation.
    pub category: &'static str,
    /// Whether the static columns are meaningful for this workload.
    pub has_static_baseline: bool,
    /// Results in `RuntimeConfig::table1_sweep` order (static entries
    /// are `None` for spawn-and-sync workloads).
    pub results: Vec<Option<&'a CellResult>>,
}

impl SweepRow<'_> {
    /// Cycles of the static/SPM-stack baseline, if present.
    pub fn static_baseline_cycles(&self) -> Option<u64> {
        self.cycles_of("static/spm-stack")
    }

    /// Cycles of the given config.
    pub fn cycles_of(&self, config: &str) -> Option<u64> {
        self.results
            .iter()
            .flatten()
            .find(|r| r.config == config)
            .map(|r| r.out.cycles)
    }
}

/// Host-side timing of one sweep, for the harness speedup line.
#[derive(Debug, Clone)]
pub struct SweepTiming {
    /// Cells actually simulated (skipped static cells not counted).
    pub cells: usize,
    /// Host threads the pool used.
    pub jobs: usize,
    /// End-to-end wall-clock of the sweep.
    pub wall: Duration,
    /// Sum of per-cell host times (serial-equivalent work).
    pub cell_time: Duration,
}

impl SweepTiming {
    /// `cell_time / wall`: how many cells effectively ran at once.
    pub fn effective_parallelism(&self) -> f64 {
        if self.wall.is_zero() {
            return self.jobs as f64;
        }
        self.cell_time.as_secs_f64() / self.wall.as_secs_f64()
    }

    /// Log the timing line to stderr (stable, greppable format used by
    /// `BENCH_*.json` snapshots to track harness speedup).
    pub fn log(&self) {
        eprintln!(
            "harness: {} cells in {:.2}s wall ({:.2}s cell time, {:.2}x effective parallelism, jobs={})",
            self.cells,
            self.wall.as_secs_f64(),
            self.cell_time.as_secs_f64(),
            self.effective_parallelism(),
            self.jobs,
        );
    }
}

/// Run `count` independent jobs on at most `jobs` host threads and
/// deliver results **in index order** through `collect`.
///
/// `f(i)` must be a pure function of `i` (all Mosaic simulations are);
/// `collect(i, result)` is called from the current thread for
/// `i = 0, 1, .., count-1` exactly in that order, so any output it
/// produces is identical whatever `jobs` is. Returns the summed
/// per-job host time.
///
/// # Panics
///
/// Propagates a panic from any job.
pub fn run_cells<T, F>(
    count: usize,
    jobs: usize,
    f: F,
    mut collect: impl FnMut(usize, T),
) -> Duration
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut cell_time = Duration::ZERO;
    if count == 0 {
        return cell_time;
    }
    let jobs = jobs.clamp(1, count);
    if jobs == 1 {
        // Serial fast path: no pool, same order.
        for i in 0..count {
            let start = Instant::now();
            let r = f(i);
            cell_time += start.elapsed();
            collect(i, r);
        }
        return cell_time;
    }

    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, T, Duration)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= count {
                    return;
                }
                let start = Instant::now();
                let r = f(i);
                // The receiver only disconnects if the main thread is
                // already panicking; nothing useful to do then.
                let _ = tx.send((i, r, start.elapsed()));
            });
        }
        drop(tx);

        // Reorder buffer: deliver strictly by index so downstream
        // output is byte-identical to the serial path.
        let mut pending: HashMap<usize, (T, Duration)> = HashMap::new();
        let mut want = 0;
        while want < count {
            if let Some((r, dt)) = pending.remove(&want) {
                cell_time += dt;
                collect(want, r);
                want += 1;
                continue;
            }
            match rx.recv() {
                Ok((i, r, dt)) => {
                    pending.insert(i, (r, dt));
                }
                Err(_) => panic!("sweep worker thread died (job panicked)"),
            }
        }
    });
    cell_time
}

/// One (benchmark, config) cell of the Table-1 sweep, presented to the
/// backend seam: its calibration family plus the cycle-accurate way to
/// run it.
struct SweepCell<'a> {
    bench: &'a dyn Benchmark,
    label: &'static str,
    runtime: &'a RuntimeConfig,
    scale: &'a str,
}

impl BackendJob for SweepCell<'_> {
    fn family(&self) -> FamilyKey {
        FamilyKey {
            workload: self.bench.name(),
            config: self.label.to_string(),
            scale: self.scale.to_string(),
        }
    }

    fn execute(&self, machine: &MachineConfig) -> CycleOutcome {
        let out = self.bench.run(machine.clone(), self.runtime.clone());
        CycleOutcome {
            cycles: out.report.cycles,
            instructions: out.report.instructions(),
            verified: out.verified,
            sanitizer: out.report.sanitizer,
            profile: out.report.profile,
        }
    }
}

/// The cells of a Table-1-style sweep: every benchmark across the six
/// runtime configurations, workload-major (static configs are skipped
/// for workloads without a static baseline). Each cell is answered by
/// `backend` — the cycle engine, the calibrated analytic model, or
/// per-family auto escalation; `scale` names the calibration families
/// the cells belong to (ignored by the cycle backend). Each cell logs
/// the standard progress line.
///
/// A cell panics when the backend refuses it (e.g. `--fidelity
/// analytic` for a family the calibration table does not cover).
pub fn table1_cells(
    benches: Vec<Box<dyn Benchmark>>,
    backend: Arc<dyn Backend + Send>,
    scale: &'static str,
) -> Vec<Cell> {
    let mut cells = Vec::new();
    for bench in benches {
        let bench: Arc<dyn Benchmark> = Arc::from(bench);
        for (label, runtime) in RuntimeConfig::table1_sweep() {
            if label.starts_with("static") && !bench.has_static_baseline() {
                continue;
            }
            let name = bench.name();
            let (bench, backend) = (bench.clone(), backend.clone());
            cells.push(Cell::new(name.clone(), label, move |machine| {
                let cell = SweepCell {
                    bench: bench.as_ref(),
                    label,
                    runtime: &runtime,
                    scale,
                };
                let rep = backend
                    .run_cell(&machine, &cell)
                    .unwrap_or_else(|e| panic!("{}: {e}", cell.family()));
                Outcome {
                    cycles: rep.cycles,
                    instructions: rep.instructions,
                    verified: rep.verified,
                    sanitizer: SanCell::from_report(rep.sanitizer.as_ref()),
                    profile: rep.profile,
                    log: format!(
                        "  {name:<18} {label:<22} {:>10} cycles  {:>10} instrs  {}\n",
                        rep.cycles,
                        rep.instructions,
                        if rep.verified { "ok" } else { "FAILED-VERIFY" }
                    ),
                    ..Outcome::default()
                }
            }));
        }
    }
    cells
}

/// Group the flat results of a [`table1_cells`] sweep back into one
/// row per benchmark, with empty slots where a config was skipped.
pub fn table1_rows<'a>(
    benches: &[Box<dyn Benchmark>],
    results: &'a [CellResult],
) -> Vec<SweepRow<'a>> {
    let mut next = results.iter().peekable();
    benches
        .iter()
        .map(|b| {
            let name = b.name();
            let results = RuntimeConfig::table1_sweep()
                .iter()
                .map(|(label, _)| next.next_if(|r| r.workload == name && r.config == *label))
                .collect();
            SweepRow {
                name,
                category: b.category().abbrev(),
                has_static_baseline: b.has_static_baseline(),
                results,
            }
        })
        .collect()
}

/// Run `cells` on up to `jobs` host threads, each on the machine
/// `machine_for` derives for it — the one way harness cells execute.
/// `on_cell` sees every result in cell order, so anything it prints is
/// identical for any `jobs` value; so are the returned results.
pub fn run(
    cells: &[Cell],
    jobs: usize,
    machine_for: impl Fn(&Cell) -> MachineConfig + Sync,
    mut on_cell: impl FnMut(&CellResult),
) -> (Vec<CellResult>, SweepTiming) {
    let jobs = jobs.max(1);
    let mut results = Vec::with_capacity(cells.len());
    let start = Instant::now();
    let cell_time = run_cells(
        cells.len(),
        jobs,
        |i| (cells[i].run)(machine_for(&cells[i])),
        |i, out| {
            let result = CellResult {
                workload: cells[i].workload.clone(),
                config: cells[i].config.clone(),
                out,
            };
            on_cell(&result);
            results.push(result);
        },
    );
    let timing = SweepTiming {
        cells: cells.len(),
        jobs,
        wall: start.elapsed(),
        cell_time,
    };
    (results, timing)
}

/// The Table-1 benchmarks at `scale`, restricted to one workload by
/// exact name (`""` = the full table). This is the `--workload` seam
/// the fleet gateway fans sweeps out through: each subjob runs one
/// workload's row, and because [`table1_cells`] lays cells out
/// workload-major, concatenating the per-workload parts in table order
/// reproduces the unfiltered sweep byte for byte.
///
/// # Panics
///
/// Panics when `workload` names no benchmark at this scale — a typo
/// must not silently produce an empty (yet "passing") sweep.
pub fn table1_benches(scale: Scale, workload: &str) -> Vec<Box<dyn Benchmark>> {
    let mut benches = mosaic_workloads::table1_benchmarks(scale);
    if !workload.is_empty() {
        let known: Vec<String> = benches.iter().map(|b| b.name()).collect();
        benches.retain(|b| b.name() == workload);
        assert!(
            !benches.is_empty(),
            "--workload {workload:?} names no Table-1 benchmark (have: {})",
            known.join(", ")
        );
    }
    benches
}
