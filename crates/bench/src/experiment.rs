//! The experiment registry and the one harness driver.
//!
//! The paper's whole evaluation is one shape — a grid of independent
//! simulation cells, each run, verified and tabulated — so an
//! experiment is data: an [`Experiment`] descriptor in [`EXPERIMENTS`]
//! naming its defaults, its capabilities, how to enumerate its cells
//! and how to render their results. [`main`] is the skeleton every
//! harness binary shares; the binaries under `src/bin/` only name
//! their entry. `reproduce_all`, the serve executor's admission check
//! and the fleet gateway's fan-out read the same table (through
//! [`CATALOG`], its code-free projection), so adding an experiment is
//! one entry here, one shim and one golden file (see
//! `docs/architecture.md`).

use crate::cli::Options;
use crate::golden::GoldenFile;
use crate::prof;
use crate::sanitize::SanitizeGate;
use crate::sweep::{self, Cell, CellResult, SweepTiming};
use mosaic_workloads::Scale;

mod ablation_dealing;
mod ablation_grain;
mod ablation_ruche;
mod ablation_victim;
mod chaos_sweep;
mod fig05_heatmap;
mod fig06_rd_duplication;
mod fig07_fib_microbench;
mod fig09_speedup;
mod fig10_dynamic;
mod fig11_scaling;
mod profile;
mod table1;
mod trace_run;

/// What every reader of the registry needs to know about an
/// experiment — everything but its code.
#[derive(Debug, Clone, Copy)]
pub struct Info {
    /// Harness binary name, golden file prefix and `JobSpec`
    /// experiment name.
    pub name: &'static str,
    /// Default `--scale`.
    pub scale: Scale,
    /// Default `--cols`.
    pub cols: u16,
    /// Default `--rows`.
    pub rows: u16,
    /// Whether `--fidelity analytic|auto` is supported: the cells are
    /// calibration families the analytic model covers.
    pub analytic: bool,
    /// Whether `--workload NAME` is supported: the cells sweep the
    /// Table-1 workloads, so the fleet gateway can fan the experiment
    /// out into per-workload subjobs.
    pub workload_filter: bool,
    /// Golden identity under `--faults`, for an experiment whose cell
    /// set is a different one then (`chaos_sweep` divergence-checks
    /// the user's plan): such a run must never pass for, or be blessed
    /// over, the committed default-mode golden.
    pub faulted_golden: Option<&'static str>,
}

/// One experiment of the evaluation: what its harness binary runs.
pub struct Experiment {
    /// Name, defaults and capabilities.
    pub info: Info,
    /// Enumerate the cells, in canonical order. Inputs are built here,
    /// so an experiment costs nothing until it runs.
    pub cells: fn(&Options) -> Vec<Cell>,
    /// Render the results (in cell order) as the harness's stdout.
    /// May panic on a broken experiment invariant.
    pub render: fn(&Options, &[CellResult]) -> String,
}

/// Every experiment, in the canonical order `reproduce_all` runs them
/// (one committed golden each under `results/golden/`).
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        info: Info {
            name: "table1",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: true,
            workload_filter: true,
            faulted_golden: None,
        },
        cells: table1::cells,
        render: table1::render,
    },
    Experiment {
        info: Info {
            name: "fig05_heatmap",
            scale: Scale::Small,
            cols: 16,
            rows: 8,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: fig05_heatmap::cells,
        render: fig05_heatmap::render,
    },
    Experiment {
        info: Info {
            name: "fig06_rd_duplication",
            scale: Scale::Small,
            cols: 16,
            rows: 8,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: fig06_rd_duplication::cells,
        render: fig06_rd_duplication::render,
    },
    Experiment {
        info: Info {
            name: "fig07_fib_microbench",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: fig07_fib_microbench::cells,
        render: fig07_fib_microbench::render,
    },
    Experiment {
        info: Info {
            name: "fig09_speedup",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: true,
            workload_filter: true,
            faulted_golden: None,
        },
        cells: fig09_speedup::cells,
        render: fig09_speedup::render,
    },
    Experiment {
        info: Info {
            name: "fig10_dynamic",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: fig10_dynamic::cells,
        render: fig10_dynamic::render,
    },
    Experiment {
        info: Info {
            name: "fig11_scaling",
            scale: Scale::Small,
            cols: 16,
            rows: 8,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: fig11_scaling::cells,
        render: fig11_scaling::render,
    },
    Experiment {
        info: Info {
            name: "ablation_grain",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: ablation_grain::cells,
        render: ablation_grain::render,
    },
    Experiment {
        info: Info {
            name: "ablation_victim",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: ablation_victim::cells,
        render: ablation_victim::render,
    },
    Experiment {
        info: Info {
            name: "ablation_ruche",
            scale: Scale::Small,
            cols: 16,
            rows: 8,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: ablation_ruche::cells,
        render: ablation_ruche::render,
    },
    Experiment {
        info: Info {
            name: "ablation_dealing",
            scale: Scale::Small,
            cols: 8,
            rows: 4,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: ablation_dealing::cells,
        render: ablation_dealing::render,
    },
    Experiment {
        info: Info {
            name: "trace_run",
            scale: Scale::Tiny,
            cols: 8,
            rows: 4,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: trace_run::cells,
        render: trace_run::render,
    },
    Experiment {
        info: Info {
            name: "chaos_sweep",
            scale: Scale::Tiny,
            cols: 4,
            rows: 2,
            analytic: false,
            workload_filter: false,
            faulted_golden: Some("chaos_sweep_user"),
        },
        cells: chaos_sweep::cells,
        render: chaos_sweep::render,
    },
    Experiment {
        info: Info {
            name: "profile",
            scale: Scale::Tiny,
            cols: 4,
            rows: 2,
            analytic: false,
            workload_filter: false,
            faulted_golden: None,
        },
        cells: profile::cells,
        render: profile::render,
    },
];

/// The registry without the code, projected at compile time: what
/// `reproduce_all`, the serve executor's admission check and the fleet
/// gateway's fan-out read. A binary that touches [`EXPERIMENTS`] at run
/// time links every experiment — the whole simulator — through its
/// function pointers; the daemons only route jobs to the harness
/// binaries, and the serve daemon's resident size is a benchmark
/// metric, so they read this instead.
pub const CATALOG: [Info; EXPERIMENTS.len()] = {
    let mut catalog = [EXPERIMENTS[0].info; EXPERIMENTS.len()];
    let mut i = 1;
    while i < catalog.len() {
        catalog[i] = EXPERIMENTS[i].info;
        i += 1;
    }
    catalog
};

/// What the registry says about the experiment called `name`.
pub fn info(name: &str) -> Option<Info> {
    CATALOG.into_iter().find(|e| e.name == name)
}

/// The names of the experiments `keep` selects, joined by `sep` (for
/// error messages that say which experiments do support something).
pub fn names(keep: impl Fn(&Info) -> bool, sep: &str) -> String {
    let names: Vec<&str> = CATALOG.iter().filter(|e| keep(e)).map(|e| e.name).collect();
    names.join(sep)
}

/// Refuse the flags harness `name` cannot honor: a non-cycle
/// `--fidelity` outside the experiments the analytic model is
/// calibrated for, and a `--workload` filter outside the Table-1
/// sweeps — silently ignored, that filter would let a fleet gateway
/// believe it split a job it actually ran whole.
pub fn refuse_unsupported(
    name: &str,
    analytic: bool,
    workload_filter: bool,
    opts: &Options,
) -> Result<(), String> {
    if !analytic && !opts.fidelity.is_cycle() {
        return Err(format!(
            "{name} is cycle-accurate only: --fidelity {} is not supported \
             (the analytic model covers the sweep experiments {})",
            opts.fidelity,
            names(|e| e.analytic, "/")
        ));
    }
    if !workload_filter && !opts.workload.is_empty() {
        return Err(format!(
            "{name} does not support --workload (only the sweep experiments {} do)",
            names(|e| e.workload_filter, "/")
        ));
    }
    Ok(())
}

impl Experiment {
    /// Run every cell under `opts` on the harness job pool: each on
    /// the machine the flags describe (at the cell's own shape when it
    /// has one), progress on stderr in cell order, and one profile
    /// JSON per profiled cell under `--prof-out`.
    pub fn run(&self, opts: &Options) -> (Vec<CellResult>, SweepTiming) {
        let cells = (self.cells)(opts);
        sweep::run(
            &cells,
            opts.effective_jobs(cells.len()),
            |cell| {
                let (cols, rows) = cell.shape.unwrap_or((opts.cols, opts.rows));
                opts.machine_at(cols, rows)
            },
            |r| {
                eprint!("{}", r.out.log);
                if let (Some(dir), Some(p)) = (&opts.prof_out, &r.out.profile) {
                    let path = prof::write_profile(dir, &self.profile_name(opts, r), p)
                        .expect("write profile JSON");
                    eprintln!("wrote {path}");
                }
            },
        )
    }

    /// `--prof-out` file stem of one cell: the golden identity plus
    /// the cell's labels, with path-hostile characters replaced.
    fn profile_name(&self, opts: &Options, r: &CellResult) -> String {
        format!(
            "{}_{}_{}x{}_{}_{}",
            self.info.name,
            opts.scale.name(),
            opts.cols,
            opts.rows,
            r.workload,
            r.config
        )
        .replace(
            |c: char| !(c.is_ascii_alphanumeric() || "._()-".contains(c)),
            "-",
        )
    }

    /// The golden file of a completed run.
    pub fn golden(&self, opts: &Options, results: &[CellResult]) -> GoldenFile {
        let name = match (self.info.faulted_golden, &opts.faults) {
            (Some(faulted), Some(_)) => faulted,
            _ => self.info.name,
        };
        let mut golden = opts.golden_file(name);
        golden.push_results(results);
        golden
    }
}

/// The whole of a harness binary: parse the shared flags with the
/// experiment's defaults, refuse the ones it cannot honor, run its
/// cells, print the rendering, then gate on verification, the golden
/// mode and the sanitizer (each exits nonzero on failure).
///
/// # Panics
///
/// Panics when `name` is not registered, on malformed or unsupported
/// flags, and when a cell or the renderer does.
pub fn main(name: &str) {
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.info.name == name)
        .unwrap_or_else(|| {
            panic!(
                "{name:?} is not a registered experiment (known: {})",
                names(|_| true, ", ")
            )
        });
    let info = exp.info;
    let opts = Options::parse(info.scale, info.cols, info.rows);
    refuse_unsupported(name, info.analytic, info.workload_filter, &opts)
        .unwrap_or_else(|e| panic!("{e}"));

    let (results, timing) = exp.run(&opts);
    if !opts.fidelity.is_cycle() {
        eprintln!("fidelity: {} backend answered the sweep", opts.fidelity);
    }
    if results.len() > 1 {
        // A one-cell experiment has no parallelism to report.
        timing.log();
    }
    print!("{}", (exp.render)(&opts, &results));

    let failed: Vec<&CellResult> = results.iter().filter(|r| !r.out.verified).collect();
    if !failed.is_empty() {
        eprintln!(
            "{name}: {} of {} cells FAILED verification:",
            failed.len(),
            results.len()
        );
        for r in failed {
            eprintln!("  {} / {}", r.workload, r.config);
        }
        std::process::exit(1);
    }
    opts.finish_golden(&exp.golden(&opts, &results));
    let mut gate = SanitizeGate::new(opts.sanitize);
    for r in &results {
        gate.record(&r.workload, &r.config, &r.out.sanitizer);
    }
    gate.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cli::spec_argv;
    use crate::service::BinExecutor;
    use mosaic_serve::JobSpec;
    use std::collections::BTreeSet;

    fn repo_path(rel: &str) -> String {
        format!("{}/{rel}", env!("CARGO_MANIFEST_DIR"))
    }

    fn file_names(dir: &str) -> Vec<String> {
        std::fs::read_dir(repo_path(dir))
            .unwrap_or_else(|e| panic!("{dir}: {e}"))
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }

    #[test]
    fn registry_matches_the_committed_goldens_and_the_shims() {
        // One committed golden per entry, at its default shape.
        let goldens = file_names("../../results/golden");
        for exp in CATALOG {
            let prefix = format!("{}_", exp.name);
            let mine: Vec<&String> = goldens.iter().filter(|f| f.starts_with(&prefix)).collect();
            let expected = format!("{}_tiny_{}x{}.json", exp.name, exp.cols, exp.rows);
            assert_eq!(mine, [&expected], "committed goldens of {}", exp.name);
        }

        // Every shim names a registered experiment — its own file name
        // — and every entry has one.
        let mut shims = BTreeSet::new();
        for file in file_names("src/bin") {
            let text = std::fs::read_to_string(repo_path(&format!("src/bin/{file}"))).unwrap();
            if let Some(rest) = text.split("experiment::main(\"").nth(1) {
                let name = rest.split('"').next().unwrap();
                assert_eq!(file, format!("{name}.rs"), "shim names another experiment");
                assert!(
                    info(name).is_some(),
                    "{file} names an unregistered experiment"
                );
                shims.insert(name.to_string());
            }
        }
        let registered: BTreeSet<String> = CATALOG.iter().map(|e| e.name.to_string()).collect();
        assert_eq!(shims, registered);
        assert_eq!(registered.len(), CATALOG.len(), "duplicate entry");
    }

    #[test]
    fn capabilities_are_refused_from_the_table_by_driver_and_executor_alike() {
        for exp in CATALOG {
            let mut analytic = JobSpec::new(exp.name, "tiny");
            analytic.fidelity = "analytic".into();
            let mut filtered = JobSpec::new(exp.name, "tiny");
            filtered.workload = "CilkSort".into();
            for (spec, capable) in [(analytic, exp.analytic), (filtered, exp.workload_filter)] {
                let opts = Options::parse_from(exp.scale, exp.cols, exp.rows, spec_argv(&spec));
                let driver = refuse_unsupported(exp.name, exp.analytic, exp.workload_filter, &opts);
                assert_eq!(driver.is_ok(), capable, "driver, {spec:?}");
                assert_eq!(
                    BinExecutor::validate(&spec).is_ok(),
                    capable,
                    "executor, {spec:?}"
                );
            }
            assert!(BinExecutor::validate(&JobSpec::new(exp.name, "tiny")).is_ok());
        }
    }

    /// The committed golden of `exp` at tiny scale, as text.
    fn committed(exp: &Experiment) -> String {
        let Info {
            name, cols, rows, ..
        } = exp.info;
        let file = format!("{name}_tiny_{cols}x{rows}.json");
        std::fs::read_to_string(repo_path(&format!("../../results/golden/{file}"))).unwrap()
    }

    fn run_tiny(exp: &Experiment, flags: &[&str]) -> GoldenFile {
        let args = ["--scale", "tiny"]
            .iter()
            .chain(flags)
            .map(|s| s.to_string());
        let opts = Options::parse_from(exp.info.scale, exp.info.cols, exp.info.rows, args);
        let (results, _) = exp.run(&opts);
        assert!(results.iter().all(|r| r.out.verified));
        exp.golden(&opts, &results)
    }

    #[test]
    fn fig11_applies_every_flag_at_every_grid_point() {
        // Per-cell mesh shapes used to be built by hand and dropped
        // --faults/--profile/--checkpoint-every on the floor.
        let exp = EXPERIMENTS
            .iter()
            .find(|e| e.info.name == "fig11_scaling")
            .unwrap();
        let golden = GoldenFile::parse(&committed(exp)).unwrap();

        let profiled = run_tiny(exp, &["--profile"]);
        assert_eq!(profiled.to_json(), committed(exp), "the profiler is free");

        let timing_only = "seed=3,horizon=1500,links=4x200,freeze=2x300";
        let faulted = run_tiny(exp, &["--faults", timing_only]);
        assert_eq!(faulted.cells.len(), golden.cells.len());
        assert!(
            faulted
                .cells
                .iter()
                .zip(&golden.cells)
                .any(|(f, g)| f.cycles != g.cycles),
            "a timing plan must shift fig11's cycle counts"
        );
    }
}
