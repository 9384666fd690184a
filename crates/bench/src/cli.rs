//! Minimal argument parsing shared by the harness binaries (no
//! external CLI dependency needed for `--scale/--cols/--rows/--jobs`
//! and the golden-number modes).

use crate::golden::{self, GoldenFile};
use mosaic_chaos::FaultPlan;
use mosaic_model::CalibrationTable;
use mosaic_sim::{AnalyticBackend, AutoBackend, Backend, CycleBackend, Fidelity, MachineConfig};
use mosaic_workloads::Scale;

/// Where the committed calibration artifact lives (written by the
/// `calibrate` harness, consumed by `--fidelity analytic|auto` and the
/// serve daemon).
pub const CALIBRATION_PATH: &str = "results/model/calibration.json";

/// What to do with golden (committed reference) numbers this run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GoldenMode {
    /// Just run; don't read or write goldens.
    #[default]
    Run,
    /// After running, diff against the committed golden file and exit
    /// nonzero on any difference (`--check-golden`).
    Check,
    /// After running, (re)write the golden file — "blessing" the
    /// current numbers (`--write-golden`).
    Write,
}

/// Common harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input scale preset.
    pub scale: Scale,
    /// Mesh columns.
    pub cols: u16,
    /// Mesh core rows.
    pub rows: u16,
    /// Host threads for independent simulation cells (`--jobs`);
    /// `None` = pick a default from the host/machine core counts.
    pub jobs: Option<usize>,
    /// Golden-number mode.
    pub golden: GoldenMode,
    /// Directory for golden files (`--golden-dir`); `None` = the
    /// committed `results/golden/`. The serve executor points this at
    /// a per-job scratch directory to collect results as structured
    /// JSON instead of scraping stdout.
    pub golden_dir: Option<std::path::PathBuf>,
    /// Attach the `mosaic-san` memory-model sanitizer to every run and
    /// exit nonzero on any finding (`--sanitize`). Zero simulated-cycle
    /// cost: reported numbers are identical either way.
    pub sanitize: bool,
    /// Deterministic fault-injection plan (`--faults SPEC`, see
    /// `mosaic_chaos::FaultPlan::parse`); `None` = no injected faults
    /// (zero cost). Timing-only plans change cycle counts but never
    /// results; plans with bit flips corrupt results on purpose —
    /// expect verification failures and golden drift.
    pub faults: Option<FaultPlan>,
    /// Attach the `mosaic-prof` cycle-attribution profiler to every run
    /// (`--profile`). Like the sanitizer, zero simulated-cycle cost:
    /// cycles and instructions are identical either way.
    pub profile: bool,
    /// Directory to write per-run profile JSON into (`--prof-out DIR`);
    /// implies `--profile`. `None` = don't write profile files.
    pub prof_out: Option<std::path::PathBuf>,
    /// Which backend answers runs (`--fidelity cycle|analytic|auto`):
    /// the cycle-accurate engine (default), the calibrated analytic
    /// model, or per-family escalation. Only the sweep experiments
    /// (`table1`, `fig09_speedup`) support non-cycle fidelities; the
    /// rest call [`Options::cycle_only`] and refuse.
    pub fidelity: Fidelity,
    /// Calibration table for the analytic backend
    /// (`--calibration PATH`); `None` = the committed
    /// [`CALIBRATION_PATH`].
    pub calibration: Option<std::path::PathBuf>,
    /// Checkpoint cadence in simulated cycles (`--checkpoint-every N`);
    /// 0 = no checkpoints. Purely a durability knob: results are
    /// byte-identical at every cadence.
    pub checkpoint_every: u64,
    /// Directory for checkpoint images (`--checkpoint-dir PATH`);
    /// `None` = `results/checkpoints/`.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume-verify against a checkpoint image (`--resume-from PATH`):
    /// the run re-executes deterministically from cycle 0 and
    /// hard-fails unless its state at the checkpoint's event boundary
    /// is byte-identical to the image. Applies to *every* cell a
    /// harness runs, so use it with single-run harnesses (trace_run)
    /// or a sweep filtered down to the cell that wrote the image —
    /// other cells correctly fail the verification.
    pub resume_from: Option<std::path::PathBuf>,
    /// Restrict a sweep to one workload by exact name (`--workload
    /// NAME`); empty = run the full table. Only the sweep experiments
    /// (`table1`, `fig09_speedup`) honor it — the fleet gateway uses it
    /// to fan a sweep out into per-workload subjobs whose concatenation
    /// is byte-identical to the unfiltered run. Single-workload
    /// harnesses refuse the flag via [`Options::no_workload_filter`].
    pub workload: String,
}

impl Options {
    /// Parse from `std::env::args`, with the given defaults.
    ///
    /// Recognized flags: `--scale tiny|small|full`, `--cols N`,
    /// `--rows N`, `--paper` (16x8 like the paper), `--jobs N`,
    /// `--check-golden`, `--write-golden`, `--help`.
    ///
    /// # Panics
    ///
    /// Panics (with usage output) on malformed arguments.
    pub fn parse(default_scale: Scale, default_cols: u16, default_rows: u16) -> Options {
        let mut opts = Options {
            scale: default_scale,
            cols: default_cols,
            rows: default_rows,
            jobs: None,
            golden: GoldenMode::Run,
            golden_dir: None,
            sanitize: false,
            faults: None,
            profile: false,
            prof_out: None,
            fidelity: Fidelity::Cycle,
            calibration: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume_from: None,
            workload: String::new(),
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    opts.scale = match v.as_str() {
                        "tiny" => Scale::Tiny,
                        "small" => Scale::Small,
                        "full" => Scale::Full,
                        other => panic!("unknown scale {other:?} (tiny|small|full)"),
                    };
                }
                "--cols" => {
                    opts.cols = args
                        .next()
                        .expect("--cols needs a value")
                        .parse()
                        .expect("--cols must be an integer");
                }
                "--rows" => {
                    opts.rows = args
                        .next()
                        .expect("--rows needs a value")
                        .parse()
                        .expect("--rows must be an integer");
                }
                "--paper" => {
                    opts.cols = 16;
                    opts.rows = 8;
                }
                "--jobs" => {
                    let n: usize = args
                        .next()
                        .expect("--jobs needs a value")
                        .parse()
                        .expect("--jobs must be an integer");
                    opts.jobs = Some(n.max(1));
                }
                "--check-golden" => opts.golden = GoldenMode::Check,
                "--write-golden" => opts.golden = GoldenMode::Write,
                "--golden-dir" => {
                    opts.golden_dir = Some(args.next().expect("--golden-dir needs a value").into());
                }
                "--sanitize" => opts.sanitize = true,
                "--profile" => opts.profile = true,
                "--prof-out" => {
                    opts.profile = true;
                    opts.prof_out = Some(args.next().expect("--prof-out needs a DIR value").into());
                }
                "--fidelity" => {
                    let v = args.next().expect("--fidelity needs a value");
                    opts.fidelity =
                        Fidelity::parse(&v).unwrap_or_else(|e| panic!("bad --fidelity: {e}"));
                }
                "--calibration" => {
                    opts.calibration = Some(
                        args.next()
                            .expect("--calibration needs a PATH value")
                            .into(),
                    );
                }
                "--checkpoint-every" => {
                    opts.checkpoint_every = args
                        .next()
                        .expect("--checkpoint-every needs a value")
                        .parse()
                        .expect("--checkpoint-every must be an integer (cycles)");
                }
                "--checkpoint-dir" => {
                    opts.checkpoint_dir = Some(
                        args.next()
                            .expect("--checkpoint-dir needs a PATH value")
                            .into(),
                    );
                }
                "--resume-from" => {
                    opts.resume_from = Some(
                        args.next()
                            .expect("--resume-from needs a PATH value")
                            .into(),
                    );
                }
                "--workload" => {
                    opts.workload = args.next().expect("--workload needs a NAME value");
                }
                "--faults" => {
                    let spec = args.next().expect("--faults needs a SPEC value");
                    let plan = FaultPlan::parse(&spec)
                        .unwrap_or_else(|e| panic!("bad --faults spec {spec:?}: {e}"));
                    opts.faults = (!plan.is_empty()).then_some(plan);
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --scale tiny|small|full   input sizes\n         \
                         --cols N --rows N          mesh dimensions\n         \
                         --paper                    16x8 = 128 cores (paper machine)\n         \
                         --jobs N                   host threads for independent cells\n         \
                         --check-golden             verify against results/golden/ (exit 1 on drift)\n         \
                         --write-golden             re-bless results/golden/ with this run\n         \
                         --golden-dir PATH          read/write goldens under PATH instead\n         \
                         --sanitize                 run the memory-model sanitizer (exit 1 on findings)\n         \
                         --profile                  attach the cycle-attribution profiler (zero simulated cost)\n         \
                         --prof-out DIR             write per-run profile JSON under DIR (implies --profile)\n         \
                         --fidelity cycle|analytic|auto\n                                    \
                         backend: cycle-accurate engine (default), calibrated\n                                    \
                         analytic model, or per-family escalation\n         \
                         --calibration PATH         calibration table for analytic/auto\n                                    \
                         (default results/model/calibration.json)\n         \
                         --checkpoint-every N       write a machine checkpoint every N simulated cycles\n                                    \
                         (0 = never; results byte-identical either way)\n         \
                         --checkpoint-dir PATH      checkpoint directory (default results/checkpoints)\n         \
                         --resume-from PATH         verify this run against a checkpoint image\n                                    \
                         (applies to every cell; hard-fails on divergence at its boundary)\n         \
                         --workload NAME            restrict a sweep to one workload (table1/fig09_speedup\n                                    \
                         only; the fleet gateway fans sweeps out with it)\n         \
                         --faults SPEC              inject deterministic faults (e.g. seed=7,horizon=100000,links=4x300;\n                                    \
                         timing-only plans shift cycles, flip=... corrupts data on purpose)"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown option {other:?} (try --help)"),
            }
        }
        opts
    }

    /// The machine these options describe.
    pub fn machine(&self) -> MachineConfig {
        let mut m = MachineConfig::small(self.cols, self.rows);
        m.sanitize = self.sanitize;
        m.faults = self.faults.clone();
        m.profile = self.profile;
        m.fidelity = self.fidelity;
        m.checkpoint_every = self.checkpoint_every;
        m.checkpoint_dir = self.checkpoint_dir.clone();
        m.resume_from = self.resume_from.clone();
        m
    }

    /// Refuse non-cycle fidelities for experiments the analytic model
    /// is not calibrated for (everything outside the Table-1 sweep).
    ///
    /// # Panics
    ///
    /// Panics when `--fidelity analytic|auto` was given.
    pub fn cycle_only(&self, experiment: &str) {
        assert!(
            self.fidelity.is_cycle(),
            "{experiment} is cycle-accurate only: --fidelity {} is not supported \
             (the analytic model covers the sweep experiments table1/fig09_speedup)",
            self.fidelity
        );
    }

    /// Refuse `--workload` for experiments that are not multi-workload
    /// sweeps: a silently ignored filter would let a fleet gateway
    /// believe it split a job it actually ran whole.
    ///
    /// # Panics
    ///
    /// Panics when `--workload` was given.
    pub fn no_workload_filter(&self, experiment: &str) {
        assert!(
            self.workload.is_empty(),
            "{experiment} does not support --workload (only the sweep \
             experiments table1/fig09_speedup do)"
        );
    }

    /// Load the calibration table for analytic/auto fidelities from
    /// `--calibration` (default [`CALIBRATION_PATH`]).
    pub fn calibration_table(&self) -> Result<CalibrationTable, String> {
        let path = self
            .calibration
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from(CALIBRATION_PATH));
        let text = std::fs::read_to_string(&path).map_err(|e| {
            format!(
                "cannot read calibration table {}: {e} (run the calibrate harness \
                 with --write-golden first, or use --fidelity cycle)",
                path.display()
            )
        })?;
        CalibrationTable::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// The backend answering this run's cells, per `--fidelity`. Auto
    /// escalates per family past the calibration table's own
    /// acceptance bound.
    ///
    /// # Panics
    ///
    /// Panics when analytic/auto fidelity was requested but the
    /// calibration table is missing or unreadable.
    pub fn backend(&self) -> Box<dyn Backend> {
        match self.fidelity {
            Fidelity::Cycle => Box::new(CycleBackend),
            Fidelity::Analytic | Fidelity::Auto => {
                let table = self
                    .calibration_table()
                    .unwrap_or_else(|e| panic!("--fidelity {}: {e}", self.fidelity));
                let bound = table.bound_ppm;
                match self.fidelity {
                    Fidelity::Analytic => Box::new(AnalyticBackend::new(table)),
                    _ => Box::new(AutoBackend::new(table, bound)),
                }
            }
        }
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cols as usize * self.rows as usize
    }

    /// The scale's lowercase name (golden file names, headers).
    pub fn scale_name(&self) -> &'static str {
        match self.scale {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }

    /// Host threads to use for a sweep of `cells` independent cells:
    /// `--jobs` if given, else `min(host_cores, cells)` — one
    /// simulation occupies exactly one OS thread, whatever its core
    /// count.
    pub fn effective_jobs(&self, cells: usize) -> usize {
        let cells = cells.max(1);
        match self.jobs {
            Some(n) => n.max(1),
            None => {
                let host = std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1);
                host.clamp(1, cells)
            }
        }
    }

    /// An empty golden file tagged with this run's experiment name,
    /// scale, and machine shape.
    pub fn golden_file(&self, experiment: &str) -> GoldenFile {
        GoldenFile::new(experiment, self.scale_name(), self.cols, self.rows)
    }

    /// Apply the golden mode to a completed run's numbers: no-op in
    /// [`GoldenMode::Run`], write the file under `results/golden/` in
    /// [`GoldenMode::Write`], diff against the committed file in
    /// [`GoldenMode::Check`].
    ///
    /// In check mode a difference (or a missing golden file) prints a
    /// per-cell diff table to stderr and exits the process with status
    /// 1.
    pub fn finish_golden(&self, fresh: &GoldenFile) {
        // Committed goldens are cycle-accurate truth by definition;
        // refuse to bless or check them from an approximate backend.
        // An explicit --golden-dir (e.g. the serve executor's scratch
        // directory) is fine — that is result collection, not truth.
        if !self.fidelity.is_cycle() && self.golden_dir.is_none() && self.golden != GoldenMode::Run
        {
            eprintln!(
                "refusing --{}-golden under --fidelity {}: committed goldens are \
                 cycle-accurate only (pass an explicit --golden-dir to collect \
                 analytic results elsewhere)",
                if self.golden == GoldenMode::Write {
                    "write"
                } else {
                    "check"
                },
                self.fidelity
            );
            std::process::exit(1);
        }
        let dir = self
            .golden_dir
            .clone()
            .unwrap_or_else(|| std::path::PathBuf::from(golden::GOLDEN_DIR));
        match self.golden {
            GoldenMode::Run => {}
            GoldenMode::Write => {
                let path = golden::write_in(&dir, fresh).expect("write golden file");
                eprintln!("blessed {path}");
            }
            GoldenMode::Check => match golden::check_in(&dir, fresh) {
                Ok(cells) => eprintln!(
                    "golden check ok: {} cells match {}",
                    cells,
                    fresh.file_name()
                ),
                Err(report) => {
                    eprintln!("{report}");
                    std::process::exit(1);
                }
            },
        }
    }
}
