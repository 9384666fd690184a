//! Minimal argument parsing shared by the harness binaries (no
//! external CLI dependency needed for `--scale/--cols/--rows/--jobs`
//! and the golden-number modes).

use crate::golden::{self, GoldenFile};
use mosaic_chaos::FaultPlan;
use mosaic_model::CalibrationTable;
use mosaic_serve::JobSpec;
use mosaic_sim::{AnalyticBackend, AutoBackend, Backend, CycleBackend, Fidelity, MachineConfig};
use mosaic_workloads::Scale;
use std::sync::Arc;

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
    /// model, or per-family escalation. Only experiments registered as
    /// `analytic` (see [`crate::experiment`]) support non-cycle
    /// fidelities; the driver refuses the flag for the rest.
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
    /// NAME`); empty = run the full table. Only experiments registered
    /// with `workload_filter` honor it — the fleet gateway uses it to
    /// fan a sweep out into per-workload subjobs whose concatenation
    /// is byte-identical to the unfiltered run. The driver refuses the
    /// flag for every other experiment.
    pub workload: String,
}

impl Options {
    /// Parse from `std::env::args`, with the given defaults.
    ///
    /// # Panics
    ///
    /// Panics (with usage output) on malformed arguments.
    pub fn parse(default_scale: Scale, default_cols: u16, default_rows: u16) -> Options {
        Options::parse_from(
            default_scale,
            default_cols,
            default_rows,
            std::env::args().skip(1),
        )
    }

    /// Parse the given arguments (program name already stripped), with
    /// the given defaults — the one parser of the harness flags: the
    /// experiment driver, `reproduce_all --via-server` and
    /// `mosaic-client submit` all read their flags through it.
    ///
    /// Recognized flags: `--scale tiny|small|full`, `--cols N`,
    /// `--rows N`, `--paper` (16x8 like the paper), `--jobs N`,
    /// `--check-golden`, `--write-golden`, `--help` and the observer
    /// flags the help text lists.
    ///
    /// # Panics
    ///
    /// Panics (with usage output) on malformed arguments.
    pub fn parse_from(
        default_scale: Scale,
        default_cols: u16,
        default_rows: u16,
        args: impl IntoIterator<Item = String>,
    ) -> Options {
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
        let mut args = args.into_iter();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--scale" => {
                    let v = args.next().expect("--scale needs a value");
                    opts.scale = Scale::parse(&v).unwrap_or_else(|e| panic!("{e}"));
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
        self.machine_at(self.cols, self.rows)
    }

    /// The machine these options describe at another mesh shape —
    /// every observer and durability flag applied, so an experiment
    /// that varies the shape per cell cannot drop one.
    pub fn machine_at(&self, cols: u16, rows: u16) -> MachineConfig {
        let mut m = MachineConfig::small(cols, rows);
        m.sanitize = self.sanitize;
        m.faults = self.faults.clone();
        m.profile = self.profile;
        m.fidelity = self.fidelity;
        m.checkpoint_every = self.checkpoint_every;
        m.checkpoint_dir = self.checkpoint_dir.clone();
        m.resume_from = self.resume_from.clone();
        m
    }

    /// The wire [`JobSpec`] asking a daemon for `experiment` under
    /// these options. Inverse of [`spec_argv`]: cycle fidelity and an
    /// empty fault plan are the spec's empty-string defaults.
    pub fn job_spec(&self, experiment: &str) -> JobSpec {
        let mut spec = JobSpec::new(experiment, self.scale.name());
        spec.workload = self.workload.clone();
        spec.cols = self.cols;
        spec.rows = self.rows;
        spec.sanitize = self.sanitize;
        spec.faults = self
            .faults
            .as_ref()
            .map(FaultPlan::to_spec)
            .unwrap_or_default();
        spec.checkpoint_every = self.checkpoint_every;
        if !self.fidelity.is_cycle() {
            spec.fidelity = self.fidelity.to_string();
        }
        spec
    }

    /// The flags given here that a wire [`JobSpec`] cannot carry: the
    /// daemon owns host parallelism, paths and the profiler.
    pub fn host_only_flags(&self) -> Vec<&'static str> {
        let given = [
            (self.jobs.is_some(), "--jobs"),
            (self.profile, "--profile"),
            (self.prof_out.is_some(), "--prof-out"),
            (self.golden_dir.is_some(), "--golden-dir"),
            (self.calibration.is_some(), "--calibration"),
            (self.checkpoint_dir.is_some(), "--checkpoint-dir"),
            (self.resume_from.is_some(), "--resume-from"),
        ];
        given
            .iter()
            .filter(|(set, _)| *set)
            .map(|(_, f)| *f)
            .collect()
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
    pub fn backend(&self) -> Arc<dyn Backend + Send> {
        match self.fidelity {
            Fidelity::Cycle => Arc::new(CycleBackend),
            Fidelity::Analytic | Fidelity::Auto => {
                let table = self
                    .calibration_table()
                    .unwrap_or_else(|e| panic!("--fidelity {}: {e}", self.fidelity));
                let bound = table.bound_ppm;
                match self.fidelity {
                    Fidelity::Analytic => Arc::new(AnalyticBackend::new(table)),
                    _ => Arc::new(AutoBackend::new(table, bound)),
                }
            }
        }
    }

    /// Core count.
    pub fn cores(&self) -> usize {
        self.cols as usize * self.rows as usize
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
        GoldenFile::new(experiment, self.scale.name(), self.cols, self.rows)
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

/// The harness flags that reproduce `spec` on a child's command line.
/// Inverse of [`Options::job_spec`]. Flags at their defaults are
/// omitted, so a spec that leaves a knob alone produces the argv it
/// always did (and `cols == 0` leaves the shape to the experiment).
pub fn spec_argv(spec: &JobSpec) -> Vec<String> {
    let mut argv = vec!["--scale".to_string(), spec.scale.clone()];
    if spec.cols != 0 {
        argv.extend(["--cols".to_string(), spec.cols.to_string()]);
        argv.extend(["--rows".to_string(), spec.rows.to_string()]);
    }
    if spec.sanitize {
        argv.push("--sanitize".to_string());
    }
    if !spec.workload.is_empty() {
        argv.extend(["--workload".to_string(), spec.workload.clone()]);
    }
    if !spec.faults.is_empty() {
        argv.extend(["--faults".to_string(), spec.faults.clone()]);
    }
    if !matches!(spec.fidelity.as_str(), "" | "cycle") {
        argv.extend(["--fidelity".to_string(), spec.fidelity.clone()]);
    }
    if spec.checkpoint_every > 0 {
        argv.extend([
            "--checkpoint-every".to_string(),
            spec.checkpoint_every.to_string(),
        ]);
    }
    argv
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `spec` -> argv -> `Options` -> spec, under the defaults the wire
    /// clients parse with (shape 0x0 = the experiment's own).
    fn round_trip(spec: &JobSpec) -> JobSpec {
        Options::parse_from(Scale::Small, 0, 0, spec_argv(spec)).job_spec(&spec.experiment)
    }

    #[test]
    fn job_specs_round_trip_through_argv_field_by_field() {
        let plain = JobSpec::new("table1", "small");
        assert_eq!(
            spec_argv(&plain),
            ["--scale", "small"],
            "defaults are omitted: legacy argv, and so child behaviour, is unchanged"
        );
        assert_eq!(round_trip(&plain), plain);

        // Every spec-shaping flag, one at a time, then all together.
        let edits: [fn(&mut JobSpec); 7] = [
            |s| s.scale = "tiny".into(),
            |s| (s.cols, s.rows) = (4, 2),
            |s| s.sanitize = true,
            |s| s.faults = "seed=7,horizon=1000,freeze=2x100".into(),
            |s| s.fidelity = "analytic".into(),
            |s| s.workload = "CilkSort".into(),
            |s| s.checkpoint_every = 5000,
        ];
        let mut all = plain.clone();
        for edit in edits {
            let mut one = plain.clone();
            edit(&mut one);
            edit(&mut all);
            assert_ne!(spec_argv(&one), spec_argv(&plain));
            assert_eq!(round_trip(&one), one);
        }
        assert_eq!(round_trip(&all), all);

        // `--paper` is the 16x8 shape; an explicit cycle fidelity and
        // an empty fault plan are the spec's empty-string defaults.
        let paper = Options::parse_from(Scale::Small, 0, 0, ["--paper".to_string()]);
        assert_eq!(
            (paper.job_spec("x").cols, paper.job_spec("x").rows),
            (16, 8)
        );
        let mut spelled = plain.clone();
        spelled.fidelity = "cycle".into();
        assert_eq!(round_trip(&spelled), plain);
        let empty_plan = ["--faults", "seed=1"].map(String::from);
        let opts = Options::parse_from(Scale::Small, 0, 0, empty_plan);
        assert_eq!(opts.job_spec("table1"), plain);
    }
}
