//! Shared sweep driver: run benchmark instances across the six
//! Table-1 runtime configurations (used by `table1` and `fig09`), on a
//! bounded pool of host threads.
//!
//! ## Parallel execution model
//!
//! Every `mosaic-sim` run is deterministic and fully self-contained (no
//! process-global state), so distinct (benchmark, config) cells can run
//! on different host threads without changing any simulated number. The
//! driver enumerates all cells up front, executes them on a bounded
//! pool ([`run_cells`]), and *collects results in deterministic cell
//! order* — progress callbacks fire in exactly the order the old serial
//! driver used, so all output (tables, golden JSON, progress lines) is
//! bit-identical for any `--jobs` value. One simulation is one OS
//! thread (its cores are coroutines on it), so the pool's default size
//! is simply the host's core count.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mosaic_runtime::RuntimeConfig;
use mosaic_sim::{
    Backend, BackendJob, CycleBackend, CycleOutcome, FamilyKey, Fidelity, MachineConfig,
};
use mosaic_workloads::{Benchmark, Scale};

/// One (workload, config) measurement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigResult {
    /// Config label from [`RuntimeConfig::table1_sweep`].
    pub config: &'static str,
    /// Simulated cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Whether the run verified against the host reference.
    pub verified: bool,
    /// Sanitizer outcome (default/empty when `--sanitize` is off).
    pub sanitizer: crate::sanitize::SanCell,
}

/// One benchmark across all configurations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepRow {
    /// Benchmark display name.
    pub name: String,
    /// Table-1 category abbreviation.
    pub category: &'static str,
    /// Whether the static columns are meaningful for this workload.
    pub has_static_baseline: bool,
    /// Results in `RuntimeConfig::table1_sweep` order (static entries
    /// are `None` for spawn-and-sync workloads).
    pub results: Vec<Option<ConfigResult>>,
}

impl SweepRow {
    /// Cycles of the static/SPM-stack baseline, if present.
    pub fn static_baseline_cycles(&self) -> Option<u64> {
        self.results
            .iter()
            .flatten()
            .find(|r| r.config == "static/spm-stack")
            .map(|r| r.cycles)
    }

    /// Cycles of the given config.
    pub fn cycles_of(&self, config: &str) -> Option<u64> {
        self.results
            .iter()
            .flatten()
            .find(|r| r.config == config)
            .map(|r| r.cycles)
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

/// Run every Table-1 benchmark at `scale` on `machine` across all six
/// configurations serially, calling `progress` after each run.
///
/// Kept as the compatibility entry point; use [`run_sweep_jobs`] to
/// parallelize across host threads.
pub fn run_sweep(
    benches: &[Box<dyn Benchmark>],
    machine: &MachineConfig,
    progress: impl FnMut(&str, &str, &ConfigResult),
) -> Vec<SweepRow> {
    run_sweep_jobs(benches, machine, 1, progress).0
}

/// Like [`run_sweep`], but executes the (benchmark, config) cells on up
/// to `jobs` host threads. Output is bit-identical for every `jobs`
/// value; `progress` still fires in deterministic cell order.
///
/// Always cycle-accurate ([`CycleBackend`] is a transparent
/// pass-through); use [`run_sweep_backend`] to route cells through a
/// different fidelity.
pub fn run_sweep_jobs(
    benches: &[Box<dyn Benchmark>],
    machine: &MachineConfig,
    jobs: usize,
    progress: impl FnMut(&str, &str, &ConfigResult),
) -> (Vec<SweepRow>, SweepTiming) {
    run_sweep_backend(benches, machine, &CycleBackend, "", jobs, progress)
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
        }
    }
}

/// The general sweep driver: every cell is answered by `backend` —
/// the cycle engine, the calibrated analytic model, or per-family auto
/// escalation. `scale` names the calibration families cells belong to
/// (ignored by [`CycleBackend`]).
///
/// # Panics
///
/// Panics when the backend refuses a cell (e.g. `--fidelity analytic`
/// for a family the calibration table does not cover).
pub fn run_sweep_backend(
    benches: &[Box<dyn Benchmark>],
    machine: &MachineConfig,
    backend: &dyn Backend,
    scale: &str,
    jobs: usize,
    mut progress: impl FnMut(&str, &str, &ConfigResult),
) -> (Vec<SweepRow>, SweepTiming) {
    let configs = RuntimeConfig::table1_sweep();

    // Enumerate runnable cells up front; static configs without a
    // baseline stay `None` without occupying a job slot.
    let mut cells: Vec<(usize, usize)> = Vec::new();
    for (bi, b) in benches.iter().enumerate() {
        for (ci, (label, _)) in configs.iter().enumerate() {
            if label.starts_with("static") && !b.has_static_baseline() {
                continue;
            }
            cells.push((bi, ci));
        }
    }

    let mut rows: Vec<SweepRow> = benches
        .iter()
        .map(|b| SweepRow {
            name: b.name(),
            category: b.category().abbrev(),
            has_static_baseline: b.has_static_baseline(),
            results: vec![None; configs.len()],
        })
        .collect();

    let jobs = jobs.max(1);
    let start = Instant::now();
    let cell_time = run_cells(
        cells.len(),
        jobs,
        |i| {
            let (bi, ci) = cells[i];
            let (label, cfg) = &configs[ci];
            let cell = SweepCell {
                bench: benches[bi].as_ref(),
                label,
                runtime: cfg,
                scale,
            };
            let rep = backend
                .run_cell(machine, &cell)
                .unwrap_or_else(|e| panic!("{}: {e}", cell.family()));
            ConfigResult {
                config: label,
                cycles: rep.cycles,
                instructions: rep.instructions,
                verified: rep.verified,
                sanitizer: crate::sanitize::SanCell::from_report(rep.sanitizer.as_ref()),
            }
        },
        |i, r| {
            let (bi, ci) = cells[i];
            progress(&rows[bi].name, r.config, &r);
            rows[bi].results[ci] = Some(r);
        },
    );
    let timing = SweepTiming {
        cells: cells.len(),
        jobs,
        wall: start.elapsed(),
        cell_time,
    };
    (rows, timing)
}

/// Convenience: the full Table-1 sweep at a scale on `jobs` host
/// threads, answered by `backend`, with the standard progress line and
/// the harness timing line on stderr.
pub fn table1_sweep_backend(
    scale: Scale,
    machine: &MachineConfig,
    backend: &dyn Backend,
    jobs: usize,
) -> Vec<SweepRow> {
    table1_sweep_filtered(scale, machine, backend, jobs, "")
}

/// Like [`table1_sweep_backend`] but restricted to one workload by
/// exact name (`""` = the full table). This is the `--workload` seam
/// the fleet gateway fans sweeps out through: each subjob runs one
/// workload's row, and because [`GoldenFile::push_sweep`] lays cells
/// out workload-major, concatenating the per-workload parts in table
/// order reproduces the unfiltered sweep byte for byte.
///
/// [`GoldenFile::push_sweep`]: crate::golden::GoldenFile::push_sweep
///
/// # Panics
///
/// Panics when `workload` names no benchmark at this scale — a typo
/// must not silently produce an empty (yet "passing") sweep.
pub fn table1_sweep_filtered(
    scale: Scale,
    machine: &MachineConfig,
    backend: &dyn Backend,
    jobs: usize,
    workload: &str,
) -> Vec<SweepRow> {
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
    let scale_name = match scale {
        Scale::Tiny => "tiny",
        Scale::Small => "small",
        Scale::Full => "full",
    };
    let (rows, timing) = run_sweep_backend(
        &benches,
        machine,
        backend,
        scale_name,
        jobs,
        |name, cfg, r| {
            eprintln!(
                "  {name:<18} {cfg:<22} {:>10} cycles  {:>10} instrs  {}",
                r.cycles,
                r.instructions,
                if r.verified { "ok" } else { "FAILED-VERIFY" }
            );
        },
    );
    if backend.fidelity() != Fidelity::Cycle {
        eprintln!(
            "fidelity: {} backend answered the sweep",
            backend.fidelity()
        );
    }
    timing.log();
    rows
}

/// Convenience: the full Table-1 sweep at a scale on `jobs` host
/// threads, cycle-accurately.
pub fn table1_sweep_jobs(scale: Scale, machine: &MachineConfig, jobs: usize) -> Vec<SweepRow> {
    table1_sweep_backend(scale, machine, &CycleBackend, jobs)
}

/// Convenience: the full Table-1 sweep at a scale, serially.
pub fn table1_sweep(scale: Scale, machine: &MachineConfig) -> Vec<SweepRow> {
    table1_sweep_jobs(scale, machine, 1)
}
