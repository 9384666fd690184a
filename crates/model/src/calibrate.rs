//! Calibration: per-workload correction factors fitted against the
//! cycle-accurate engine, with residual-error bounds.
//!
//! The analytic formulas are approximations; what makes them usable
//! is knowing *how wrong* they are. The `calibrate` harness in
//! `mosaic-bench` runs every (workload, config) family of the sweep
//! grid through **both** fidelities across a set of mesh shapes, fits
//! one multiplicative correction per family (the minimax measured /
//! estimated ratio), and records the worst residual relative error
//! after correction. The result — this table, serialized as
//! `results/model/calibration.json` — is a golden-style artifact:
//! byte-reproducible, committed, and regenerated+diffed by the
//! `model-smoke` CI job, which hard-fails when any family's residual
//! exceeds [`CalibrationTable::bound_ppm`].
//!
//! [`CalibrationTable::answer`] is the one consumer: `--fidelity
//! analytic` asks it for each sweep cell, and it refuses families the
//! table does not cover or whose residual is out of bound rather than
//! guessing.

use crate::{rel_err_ppm, scale_ppm, AnalyticModel, MachineParams, WorkloadDemand, PPM};
use jsonlite::Json;

/// One calibration grid point: both backends' answers for a family at
/// one mesh shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalPoint {
    /// Mesh columns.
    pub cols: u64,
    /// Mesh rows.
    pub rows: u64,
    /// Cycle-accurate elapsed cycles.
    pub measured: u64,
    /// Raw (uncorrected) analytic estimate.
    pub estimated: u64,
}

impl CalPoint {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("cols", self.cols)
            .field("rows", self.rows)
            .field("measured", self.measured)
            .field("estimated", self.estimated)
            .build()
    }

    fn from_json(v: &Json) -> Result<CalPoint, String> {
        let obj = v.as_object("point")?;
        Ok(CalPoint {
            cols: obj.get("cols", "point")?.as_u64()?,
            rows: obj.get("rows", "point")?.as_u64()?,
            measured: obj.get("measured", "point")?.as_u64()?,
            estimated: obj.get("estimated", "point")?.as_u64()?,
        })
    }
}

/// One workload family's calibration: its measured demand, the grid
/// points, and the fitted correction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CalFamily {
    /// Workload display name (e.g. `CilkSort`).
    pub workload: String,
    /// Runtime config label (e.g. `ws/spm-stack/spm-q`).
    pub config: String,
    /// Scale preset the family was calibrated at.
    pub scale: String,
    /// The traffic demand measured at the smallest grid shape — the
    /// analytic backend's input for this family.
    pub demand: WorkloadDemand,
    /// Both backends' answers across the grid.
    pub points: Vec<CalPoint>,
    /// Fitted multiplicative correction (harmonic midpoint of the
    /// extreme measured/estimated ratios — minimax over the grid), in
    /// [`PPM`].
    pub correction_ppm: u64,
    /// Worst residual relative error after correction, in [`PPM`].
    pub max_err_ppm: u64,
}

impl CalFamily {
    /// Fit the correction from the grid points and record the
    /// residual. The correction is the harmonic mean of the extreme
    /// measured/estimated ratios — the single multiplier that
    /// *minimizes the worst* relative error across the grid (relative
    /// error of `c·est` vs `meas` is `|c/r - 1|` for ratio
    /// `r = meas/est`, and the harmonic midpoint of `r_min, r_max`
    /// balances the two extremes exactly).
    pub fn fit(&mut self) {
        if self.points.is_empty() {
            self.correction_ppm = PPM;
            self.max_err_ppm = 0;
            return;
        }
        let ratios: Vec<u128> = self
            .points
            .iter()
            .map(|pt| pt.measured as u128 * PPM as u128 / pt.estimated.max(1) as u128)
            .collect();
        let lo = *ratios.iter().min().expect("nonempty");
        let hi = *ratios.iter().max().expect("nonempty");
        self.correction_ppm = ((2 * lo * hi / (lo + hi).max(1)) as u64).max(1);
        self.max_err_ppm = self
            .points
            .iter()
            .map(|pt| rel_err_ppm(self.corrected(pt.estimated), pt.measured))
            .max()
            .unwrap_or(0);
    }

    /// Apply this family's correction to a raw estimate.
    pub fn corrected(&self, raw: u64) -> u64 {
        scale_ppm(raw, self.correction_ppm)
    }

    fn to_json(&self) -> Json {
        Json::obj()
            .field("workload", self.workload.as_str())
            .field("config", self.config.as_str())
            .field("scale", self.scale.as_str())
            .field("correction_ppm", self.correction_ppm)
            .field("max_err_ppm", self.max_err_ppm)
            .field("demand", self.demand.to_json())
            .field(
                "points",
                self.points.iter().map(|p| p.to_json()).collect::<Vec<_>>(),
            )
            .build()
    }

    fn from_json(v: &Json) -> Result<CalFamily, String> {
        let obj = v.as_object("family")?;
        Ok(CalFamily {
            workload: obj.get("workload", "family")?.as_string()?,
            config: obj.get("config", "family")?.as_string()?,
            scale: obj.get("scale", "family")?.as_string()?,
            correction_ppm: obj.get("correction_ppm", "family")?.as_u64()?,
            max_err_ppm: obj.get("max_err_ppm", "family")?.as_u64()?,
            demand: WorkloadDemand::from_json(obj.get("demand", "family")?)?,
            points: obj
                .get("points", "family")?
                .as_array("points")?
                .iter()
                .map(CalPoint::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

/// Experiment-level error bound: the worst family residual among the
/// families an experiment's cells draw from (recorded in the committed
/// table for readers; nothing gates on it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExperimentBound {
    /// Experiment (harness) name, e.g. `table1`.
    pub experiment: String,
    /// Scale the bound holds at.
    pub scale: String,
    /// Worst residual relative error across the experiment's families,
    /// in [`PPM`].
    pub max_err_ppm: u64,
}

impl ExperimentBound {
    fn to_json(&self) -> Json {
        Json::obj()
            .field("experiment", self.experiment.as_str())
            .field("scale", self.scale.as_str())
            .field("max_err_ppm", self.max_err_ppm)
            .build()
    }

    fn from_json(v: &Json) -> Result<ExperimentBound, String> {
        let obj = v.as_object("experiment bound")?;
        Ok(ExperimentBound {
            experiment: obj.get("experiment", "experiment bound")?.as_string()?,
            scale: obj.get("scale", "experiment bound")?.as_string()?,
            max_err_ppm: obj.get("max_err_ppm", "experiment bound")?.as_u64()?,
        })
    }
}

/// The committed calibration artifact: the accepted error bound, the
/// per-experiment bounds, and every fitted family.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CalibrationTable {
    /// Hard acceptance bound on every family's residual, in [`PPM`]
    /// (the `calibrate` harness and `model-smoke` CI fail past it).
    pub bound_ppm: u64,
    /// Experiment-level bounds derived from the families.
    pub experiments: Vec<ExperimentBound>,
    /// Fitted families, sorted by (scale, workload, config).
    pub families: Vec<CalFamily>,
}

impl CalibrationTable {
    /// An empty table with the given acceptance bound.
    pub fn new(bound_ppm: u64) -> CalibrationTable {
        CalibrationTable {
            bound_ppm,
            experiments: Vec::new(),
            families: Vec::new(),
        }
    }

    /// Fit every family and normalize ordering (sorted families make
    /// the serialized table byte-stable regardless of insertion
    /// order).
    pub fn fit(&mut self) {
        for f in &mut self.families {
            f.fit();
        }
        self.families.sort_by(|a, b| {
            (a.scale.as_str(), a.workload.as_str(), a.config.as_str()).cmp(&(
                b.scale.as_str(),
                b.workload.as_str(),
                b.config.as_str(),
            ))
        });
    }

    /// Record that `experiment`'s cells at `scale` draw from every
    /// family of that scale: its bound is the worst family residual.
    pub fn bind_experiment(&mut self, experiment: &str, scale: &str) {
        let max_err_ppm = self
            .families
            .iter()
            .filter(|f| f.scale == scale)
            .map(|f| f.max_err_ppm)
            .max()
            .unwrap_or(u64::MAX);
        self.experiments
            .retain(|e| !(e.experiment == experiment && e.scale == scale));
        self.experiments.push(ExperimentBound {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            max_err_ppm,
        });
        self.experiments
            .sort_by(|a, b| (&a.experiment, &a.scale).cmp(&(&b.experiment, &b.scale)));
    }

    /// The family covering (workload, config, scale), if calibrated.
    pub fn family(&self, workload: &str, config: &str, scale: &str) -> Option<&CalFamily> {
        self.families
            .iter()
            .find(|f| f.workload == workload && f.config == config && f.scale == scale)
    }

    /// The analytic answer for one sweep cell on a machine: corrected
    /// elapsed cycles and the family's measured instruction count
    /// (instruction counts are input-derived, not timing-derived).
    /// Refuses families the table does not cover and families whose
    /// residual is past the acceptance bound — the caller gets an
    /// error, never a guess.
    pub fn answer(
        &self,
        params: &MachineParams,
        workload: &str,
        config: &str,
        scale: &str,
    ) -> Result<(u64, u64), String> {
        let key = format!("{workload} / {config} @ {scale}");
        let family = self.family(workload, config, scale).ok_or_else(|| {
            format!(
                "no calibration for family {key}; run the calibrate harness \
                 (or use --fidelity cycle)"
            )
        })?;
        if family.max_err_ppm > self.bound_ppm {
            return Err(format!(
                "calibration for family {key} is out of bound \
                 ({}ppm > {}ppm); the analytic answer would be untrustworthy",
                family.max_err_ppm, self.bound_ppm
            ));
        }
        let estimate = AnalyticModel::new(params.clone()).estimate(&family.demand);
        Ok((
            family.corrected(estimate.cycles),
            family.demand.instructions,
        ))
    }

    /// Families whose residual exceeds the table's acceptance bound —
    /// nonempty means the artifact must not be blessed.
    pub fn violations(&self) -> Vec<String> {
        self.families
            .iter()
            .filter(|f| f.max_err_ppm > self.bound_ppm)
            .map(|f| {
                format!(
                    "{} / {} @ {}: residual {}ppm exceeds bound {}ppm",
                    f.workload, f.config, f.scale, f.max_err_ppm, self.bound_ppm
                )
            })
            .collect()
    }

    /// Serialize the whole table, one family per line — deterministic
    /// bytes (the `model-smoke` job diffs this against the committed
    /// file exactly like a golden).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"bound_ppm\": {},\n", self.bound_ppm));
        out.push_str("  \"experiments\": [\n");
        for (i, e) in self.experiments.iter().enumerate() {
            let sep = if i + 1 == self.experiments.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    {}{}\n", e.to_json().write(), sep));
        }
        out.push_str("  ],\n");
        out.push_str("  \"families\": [\n");
        for (i, f) in self.families.iter().enumerate() {
            let sep = if i + 1 == self.families.len() {
                ""
            } else {
                ","
            };
            out.push_str(&format!("    {}{}\n", f.to_json().write(), sep));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a rendered table.
    pub fn parse(text: &str) -> Result<CalibrationTable, String> {
        let v = Json::parse(text)?;
        let obj = v.as_object("calibration")?;
        Ok(CalibrationTable {
            bound_ppm: obj.get("bound_ppm", "calibration")?.as_u64()?,
            experiments: obj
                .get("experiments", "calibration")?
                .as_array("experiments")?
                .iter()
                .map(ExperimentBound::from_json)
                .collect::<Result<_, _>>()?,
            families: obj
                .get("families", "calibration")?
                .as_array("families")?
                .iter()
                .map(CalFamily::from_json)
                .collect::<Result<_, _>>()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn family(workload: &str, points: Vec<CalPoint>) -> CalFamily {
        CalFamily {
            workload: workload.to_string(),
            config: "ws/spm-stack/spm-q".to_string(),
            scale: "tiny".to_string(),
            demand: WorkloadDemand {
                base_cols: 4,
                base_rows: 2,
                base_elapsed: 1000,
                compute: 7000,
                ..WorkloadDemand::default()
            },
            points,
            correction_ppm: 0,
            max_err_ppm: 0,
        }
    }

    #[test]
    fn fit_finds_a_pure_scale_error_exactly() {
        // Estimates exactly 20% low at every point: correction 1.25x,
        // residual 0.
        let mut f = family(
            "Fib",
            vec![
                CalPoint {
                    cols: 4,
                    rows: 2,
                    measured: 1000,
                    estimated: 800,
                },
                CalPoint {
                    cols: 8,
                    rows: 4,
                    measured: 500,
                    estimated: 400,
                },
            ],
        );
        f.fit();
        assert_eq!(f.correction_ppm, 1_250_000);
        assert_eq!(f.max_err_ppm, 0);
        assert_eq!(f.corrected(800), 1000);
    }

    #[test]
    fn fit_records_the_residual_spread() {
        // Ratios 1.0 and 1.5: the minimax correction is their
        // harmonic midpoint 1.2x, which balances both residuals at
        // exactly 20% (the arithmetic mean 1.25 would leave 25% on
        // the first point).
        let mut f = family(
            "SpMV",
            vec![
                CalPoint {
                    cols: 4,
                    rows: 2,
                    measured: 1000,
                    estimated: 1000,
                },
                CalPoint {
                    cols: 8,
                    rows: 4,
                    measured: 1500,
                    estimated: 1000,
                },
            ],
        );
        f.fit();
        assert_eq!(f.correction_ppm, 1_200_000);
        assert_eq!(f.max_err_ppm, 200_000);
    }

    fn table() -> CalibrationTable {
        let mut t = CalibrationTable::new(100_000);
        let mut good = family(
            "Fib",
            vec![CalPoint {
                cols: 4,
                rows: 2,
                measured: 1000,
                estimated: 950,
            }],
        );
        good.fit();
        t.families.push(good);
        t.fit();
        t.bind_experiment("table1", "tiny");
        t
    }

    #[test]
    fn bind_experiment_records_the_worst_family_residual() {
        let t = table();
        // One-point fit: the correction absorbs the error up to PPM
        // floor rounding (~0.1%).
        let [bound] = t.experiments.as_slice() else {
            panic!("one bound: {:?}", t.experiments);
        };
        assert_eq!(
            (bound.experiment.as_str(), bound.scale.as_str()),
            ("table1", "tiny")
        );
        assert!(
            bound.max_err_ppm <= 2_000,
            "residual {}ppm",
            bound.max_err_ppm
        );
        assert_eq!(bound.max_err_ppm, t.families[0].max_err_ppm);
        assert!(t.family("Fib", "ws/spm-stack/spm-q", "tiny").is_some());
        assert!(t.family("Fib", "ws/spm-stack/spm-q", "small").is_none());
    }

    #[test]
    fn violations_flag_out_of_bound_families() {
        let mut t = table();
        assert!(t.violations().is_empty());
        t.families[0].max_err_ppm = 400_000;
        let v = t.violations();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("Fib"), "{v:?}");
    }

    #[test]
    fn render_parse_round_trips_byte_stably() {
        let t = table();
        let text = t.render();
        let back = CalibrationTable::parse(&text).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.render(), text, "render is a fixed point");
    }

    #[test]
    fn fit_sorts_families_for_byte_stable_output() {
        let mut t = CalibrationTable::new(100_000);
        t.families.push(family("Zeta", Vec::new()));
        t.families.push(family("Alpha", Vec::new()));
        t.fit();
        assert_eq!(t.families[0].workload, "Alpha");
    }
}
