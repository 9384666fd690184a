//! The full run's `report.json` and `--compare`.
//!
//! The report is written with the repository's own `jsonlite`, whose
//! numbers are unsigned integers only, so measured values travel as
//! strings (the idiom `perf_smoke` uses for its seconds).

use crate::metrics::{self, Better, RunResult, END_TO_END, WORKLOADS};
use crate::Ctx;
use jsonlite::Json;
use std::path::Path;

/// Simulated counts that must be bit-identical between two reports of
/// one commit at one seed.
const EXACT: [&str; 3] = ["sim.cycles_total", "sim.ops_total", "sim.instr_total"];

/// Render the report of a full run.
pub fn render(ctx: &Ctx, pinned: bool, results: &[RunResult]) -> String {
    let runs: Vec<Json> = results
        .iter()
        .map(|r| {
            let values = metrics::table(r.traced).iter().fold(Json::obj(), |obj, m| {
                let v = r.values.get(m.name).unwrap_or_else(|| {
                    panic!("{}: metric {} was not measured", r.workload, m.name)
                });
                obj.field(
                    m.name,
                    Json::obj()
                        .field("value", metrics::json_number(v).as_str())
                        .field("unit", m.unit)
                        .build(),
                )
            });
            Json::obj()
                .field("workload", r.workload)
                .field("traced", r.traced)
                .field("attempted", r.attempted)
                .field("failed", r.failed)
                .field("metrics", values.build())
                .build()
        })
        .collect();
    let mut text = Json::obj()
        .field("pinned", pinned)
        .field("quick", ctx.quick)
        .field("seed", ctx.seed)
        .field("seconds", metrics::json_number(ctx.seconds).as_str())
        .field("runs", runs)
        .build()
        .write();
    text.push('\n');
    text
}

/// A report read back: just what `--compare` needs.
struct Report {
    pinned: bool,
    seed: u64,
    runs: Vec<Json>,
}

impl Report {
    fn load(path: &Path) -> Result<Report, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let json = Json::parse(text.trim_end())?;
        let obj = json.as_object("report")?;
        Ok(Report {
            pinned: obj.get("pinned", "report")?.as_bool()?,
            seed: obj.get("seed", "report")?.as_u64()?,
            runs: obj.get("runs", "report")?.as_array("runs")?.to_vec(),
        })
    }

    /// The run of `workload` with the given tracing flag.
    fn run(&self, workload: &str, traced: bool) -> Result<&Json, String> {
        for run in &self.runs {
            let obj = run.as_object("run")?;
            if obj.get("workload", "run")?.as_string()? == workload
                && obj.get("traced", "run")?.as_bool()? == traced
            {
                return Ok(run);
            }
        }
        Err(format!(
            "no {} run of {workload}",
            if traced { "traced" } else { "plain" }
        ))
    }
}

fn failed(run: &Json) -> Result<u64, String> {
    run.as_object("run")?.get("failed", "run")?.as_u64()
}

fn value(run: &Json, metric: &str) -> Result<f64, String> {
    let text = run
        .as_object("run")?
        .get("metrics", "run")?
        .as_object("metrics")?
        .get(metric, "metrics")?
        .as_object("metric")?
        .get("value", "metric")?
        .as_string()?;
    text.parse()
        .map_err(|e| format!("{metric} value {text:?}: {e}"))
}

/// How much worse `b` is than `a` as a share of `a`; negative when it
/// is better.
pub fn worse_by(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Print, per workload and end-to-end metric, both values, how much
/// worse B is than A, and the bound. Returns the process exit code: 1
/// if any pair differs beyond its bound in either direction, a run had
/// failures or was not pinned, or (at equal seeds) the exact simulated
/// counts differ.
pub fn compare(a_path: &Path, b_path: &Path) -> i32 {
    let check = || -> Result<bool, String> {
        let (a, b) = (Report::load(a_path)?, Report::load(b_path)?);
        let mut ok = true;
        if !(a.pinned && b.pinned) {
            println!("NOT COMPARABLE: a report was made with --no-pin");
            ok = false;
        }
        println!(
            "{:20} {:16} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "A", "B", "B worse", "bound"
        );
        for w in WORKLOADS {
            let (ra, rb) = (a.run(w.name, false)?, b.run(w.name, false)?);
            for m in END_TO_END {
                let (va, vb) = (value(ra, m.name)?, value(rb, m.name)?);
                let worse = worse_by(m.better, va, vb);
                let bound = m.bound.expect("end-to-end metrics carry a bound");
                let verdict = if worse.abs() <= bound {
                    ""
                } else if worse > 0.0 {
                    "  WORSE BEYOND BOUND"
                } else {
                    "  BETTER BEYOND BOUND"
                };
                ok &= verdict.is_empty();
                println!(
                    "{:20} {:16} {va:>14.4} {vb:>14.4} {:>+8.2}% {:>6.0}%{verdict}",
                    w.name,
                    m.name,
                    worse * 100.0,
                    bound * 100.0
                );
            }
            let (ta, tb) = (a.run(w.name, true)?, b.run(w.name, true)?);
            for run in [ra, rb, ta, tb] {
                if failed(run)? != 0 {
                    println!("{:20} has failed output checks", w.name);
                    ok = false;
                }
            }
            if a.seed == b.seed {
                for name in EXACT {
                    let (va, vb) = (value(ta, name)?, value(tb, name)?);
                    if va != vb {
                        println!("{:20} {name} differs at one seed: {va} vs {vb}", w.name);
                        ok = false;
                    }
                }
            }
        }
        Ok(ok)
    };
    match check() {
        Ok(true) => {
            println!("reports agree within the bounds");
            0
        }
        Ok(false) => 1,
        Err(e) => {
            eprintln!("--compare: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_by_follows_the_metric_direction() {
        assert!((worse_by(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Lower, 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!((worse_by(Better::Higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
    }
}
