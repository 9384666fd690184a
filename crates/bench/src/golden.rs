//! Golden-number regression subsystem.
//!
//! Every reproduction binary can serialize its results as
//! machine-readable JSON under [`GOLDEN_DIR`] (one file per
//! experiment × scale × machine shape) and later *verify* a fresh run
//! against the committed file with **exact equality** — the simulator
//! is bit-deterministic, so any cycle drift is a real behavior change,
//! not noise. A failed check renders a per-cell diff table and exits
//! nonzero, which is what turns `reproduce_all --check-golden` into a
//! CI reproduction gate.
//!
//! The JSON codec is the workspace-shared [`jsonlite`] (the build
//! container cannot fetch serde): a strict writer plus a small
//! recursive-descent parser that accepts exactly what the writer emits
//! (objects, arrays, strings, unsigned integers, booleans). This file
//! only keeps the golden-specific canonical *layout* (stable key
//! order, one cell per line) so committed files diff cleanly.

use crate::table::Table;
use jsonlite::{escape, Json};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Directory (relative to the repo root) holding committed goldens.
pub const GOLDEN_DIR: &str = "results/golden";

/// One measured cell: a (workload, config) point and its exact counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenCell {
    /// Workload display name (e.g. `PR-email`).
    pub workload: String,
    /// Configuration label (e.g. `ws/spm-stack/spm-q`, or an
    /// experiment-specific axis like `64c` for scaling columns).
    pub config: String,
    /// Simulated cycles (exact).
    pub cycles: u64,
    /// Dynamic instructions (exact).
    pub instructions: u64,
    /// Whether the run verified against the host reference.
    pub verified: bool,
}

/// One named profiler counter attached to a golden file (a bucket
/// total, a heatmap cell, a traffic count — anything `mosaic-prof`
/// measured that the experiment wants gated exactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenCounter {
    /// Counter name, e.g. `dup-off/steal_search`.
    pub name: String,
    /// Exact value.
    pub value: u64,
}

/// All cells of one experiment at one scale on one machine shape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GoldenFile {
    /// Experiment name (the binary name, e.g. `table1`).
    pub experiment: String,
    /// Scale preset name (`tiny`/`small`/`full`).
    pub scale: String,
    /// Mesh columns of the simulated machine.
    pub cols: u16,
    /// Mesh core rows of the simulated machine.
    pub rows: u16,
    /// Measured cells, in deterministic experiment order.
    pub cells: Vec<GoldenCell>,
    /// Profiler counters, in deterministic order. Serialized only when
    /// non-empty, so goldens of experiments that don't profile are
    /// byte-identical to the pre-profiler format.
    pub counters: Vec<GoldenCounter>,
}

impl GoldenFile {
    /// An empty golden file with the given identity.
    pub fn new(experiment: &str, scale: &str, cols: u16, rows: u16) -> Self {
        GoldenFile {
            experiment: experiment.to_string(),
            scale: scale.to_string(),
            cols,
            rows,
            cells: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Append one measured cell.
    pub fn push(
        &mut self,
        workload: impl Into<String>,
        config: impl Into<String>,
        cycles: u64,
        instructions: u64,
        verified: bool,
    ) {
        self.cells.push(GoldenCell {
            workload: workload.into(),
            config: config.into(),
            cycles,
            instructions,
            verified,
        });
    }

    /// Append one named profiler counter.
    pub fn push_counter(&mut self, name: impl Into<String>, value: u64) {
        self.counters.push(GoldenCounter {
            name: name.into(),
            value,
        });
    }

    /// Append every result of a sweep, in cell order: its measured
    /// cell plus whatever counters it wants gated.
    pub fn push_results(&mut self, results: &[crate::sweep::CellResult]) {
        for r in results {
            self.push(
                &r.workload,
                &r.config,
                r.out.cycles,
                r.out.instructions,
                r.out.verified,
            );
            for (name, value) in &r.out.counters {
                self.push_counter(name, *value);
            }
        }
    }

    /// The canonical file name: `{experiment}_{scale}_{cols}x{rows}.json`.
    pub fn file_name(&self) -> String {
        format!(
            "{}_{}_{}x{}.json",
            self.experiment, self.scale, self.cols, self.rows
        )
    }

    /// Serialize to the canonical JSON form (stable key order, one cell
    /// per line, trailing newline) so files diff cleanly in review.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"experiment\": {},", escape(&self.experiment));
        let _ = writeln!(s, "  \"scale\": {},", escape(&self.scale));
        let _ = writeln!(
            s,
            "  \"machine\": {{\"cols\": {}, \"rows\": {}}},",
            self.cols, self.rows
        );
        s.push_str("  \"cells\": [\n");
        for (i, c) in self.cells.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"workload\": {}, \"config\": {}, \"cycles\": {}, \"instructions\": {}, \"verified\": {}}}",
                escape(&c.workload),
                escape(&c.config),
                c.cycles,
                c.instructions,
                c.verified
            );
            s.push_str(if i + 1 < self.cells.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]");
        if !self.counters.is_empty() {
            s.push_str(",\n  \"profile\": [\n");
            for (i, c) in self.counters.iter().enumerate() {
                let _ = write!(
                    s,
                    "    {{\"counter\": {}, \"value\": {}}}",
                    escape(&c.name),
                    c.value
                );
                s.push_str(if i + 1 < self.counters.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            s.push_str("  ]");
        }
        s.push_str("\n}\n");
        s
    }

    /// Parse the canonical JSON form back.
    pub fn parse(text: &str) -> Result<GoldenFile, String> {
        let value = Json::parse(text)?;
        let obj = value.as_object("top level")?;
        let machine = obj.get("machine", "top level")?.as_object("machine")?;
        let dim = |name: &str| -> Result<u16, String> {
            let n = machine.get(name, "machine")?.as_u64()?;
            u16::try_from(n).map_err(|_| format!("machine: {name} {n} exceeds {}", u16::MAX))
        };
        let mut file = GoldenFile {
            experiment: obj.get("experiment", "top level")?.as_string()?,
            scale: obj.get("scale", "top level")?.as_string()?,
            cols: dim("cols")?,
            rows: dim("rows")?,
            cells: Vec::new(),
            counters: Vec::new(),
        };
        for (i, cell) in obj
            .get("cells", "top level")?
            .as_array("cells")?
            .iter()
            .enumerate()
        {
            let c = cell.as_object(&format!("cells[{i}]"))?;
            file.cells.push(GoldenCell {
                workload: c.get("workload", "cell")?.as_string()?,
                config: c.get("config", "cell")?.as_string()?,
                cycles: c.get("cycles", "cell")?.as_u64()?,
                instructions: c.get("instructions", "cell")?.as_u64()?,
                verified: c.get("verified", "cell")?.as_bool()?,
            });
        }
        if let Some(profile) = obj.opt("profile") {
            for (i, counter) in profile.as_array("profile")?.iter().enumerate() {
                let c = counter.as_object(&format!("profile[{i}]"))?;
                file.counters.push(GoldenCounter {
                    name: c.get("counter", "profile entry")?.as_string()?,
                    value: c.get("value", "profile entry")?.as_u64()?,
                });
            }
        }
        Ok(file)
    }

    /// Cell-by-cell differences of `fresh` against `self` (the
    /// committed golden), as diff-table rows. Empty means identical.
    pub fn diff(&self, fresh: &GoldenFile) -> Vec<[String; 5]> {
        let mut out = Vec::new();
        let mut meta = |field: &str, golden: String, fresh: String| {
            if golden != fresh {
                out.push([
                    "-".to_string(),
                    "-".to_string(),
                    field.to_string(),
                    golden,
                    fresh,
                ]);
            }
        };
        meta(
            "experiment",
            self.experiment.clone(),
            fresh.experiment.clone(),
        );
        meta("scale", self.scale.clone(), fresh.scale.clone());
        meta(
            "machine",
            format!("{}x{}", self.cols, self.rows),
            format!("{}x{}", fresh.cols, fresh.rows),
        );

        let key = |c: &GoldenCell| (c.workload.clone(), c.config.clone());
        let fresh_by_key: std::collections::HashMap<_, _> =
            fresh.cells.iter().map(|c| (key(c), c)).collect();
        let golden_keys: std::collections::HashSet<_> = self.cells.iter().map(key).collect();

        for g in &self.cells {
            match fresh_by_key.get(&key(g)) {
                None => out.push([
                    g.workload.clone(),
                    g.config.clone(),
                    "cell".into(),
                    "present".into(),
                    "MISSING".into(),
                ]),
                Some(f) => {
                    let mut field = |name: &str, gv: String, fv: String| {
                        if gv != fv {
                            out.push([g.workload.clone(), g.config.clone(), name.into(), gv, fv]);
                        }
                    };
                    field("cycles", g.cycles.to_string(), f.cycles.to_string());
                    field(
                        "instructions",
                        g.instructions.to_string(),
                        f.instructions.to_string(),
                    );
                    field("verified", g.verified.to_string(), f.verified.to_string());
                }
            }
        }
        for f in &fresh.cells {
            if !golden_keys.contains(&key(f)) {
                out.push([
                    f.workload.clone(),
                    f.config.clone(),
                    "cell".into(),
                    "MISSING".into(),
                    "present".into(),
                ]);
            }
        }

        let fresh_counters: std::collections::HashMap<&str, u64> = fresh
            .counters
            .iter()
            .map(|c| (c.name.as_str(), c.value))
            .collect();
        let golden_names: std::collections::HashSet<&str> =
            self.counters.iter().map(|c| c.name.as_str()).collect();
        for g in &self.counters {
            match fresh_counters.get(g.name.as_str()) {
                None => out.push([
                    "profile".into(),
                    g.name.clone(),
                    "counter".into(),
                    "present".into(),
                    "MISSING".into(),
                ]),
                Some(&v) if v != g.value => out.push([
                    "profile".into(),
                    g.name.clone(),
                    "value".into(),
                    g.value.to_string(),
                    v.to_string(),
                ]),
                Some(_) => {}
            }
        }
        for f in &fresh.counters {
            if !golden_names.contains(f.name.as_str()) {
                out.push([
                    "profile".into(),
                    f.name.clone(),
                    "counter".into(),
                    "MISSING".into(),
                    "present".into(),
                ]);
            }
        }
        out
    }
}

/// Write `fresh` under [`GOLDEN_DIR`]; returns the path written.
pub fn write(fresh: &GoldenFile) -> std::io::Result<String> {
    write_in(Path::new(GOLDEN_DIR), fresh)
}

/// Write `fresh` under an explicit directory; returns the path written.
pub fn write_in(dir: &Path, fresh: &GoldenFile) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(fresh.file_name());
    std::fs::write(&path, fresh.to_json())?;
    Ok(path.display().to_string())
}

/// Check `fresh` against the committed golden under [`GOLDEN_DIR`].
/// `Ok(cells)` on an exact match; `Err(report)` with a rendered diff
/// table (or load error) otherwise.
pub fn check(fresh: &GoldenFile) -> Result<usize, String> {
    check_in(Path::new(GOLDEN_DIR), fresh)
}

/// Check `fresh` against the golden in an explicit directory.
pub fn check_in(dir: &Path, fresh: &GoldenFile) -> Result<usize, String> {
    let path: PathBuf = dir.join(fresh.file_name());
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "golden check FAILED: cannot read {} ({e}); run with --write-golden to bless",
            path.display()
        )
    })?;
    let golden = GoldenFile::parse(&text)
        .map_err(|e| format!("golden check FAILED: {} is malformed: {e}", path.display()))?;
    let diffs = golden.diff(fresh);
    if diffs.is_empty() {
        return Ok(golden.cells.len());
    }
    let mut table = Table::new(&["workload", "config", "field", "golden", "fresh"]);
    for d in &diffs {
        table.row(d.to_vec());
    }
    Err(format!(
        "golden check FAILED: {} differs from {} in {} cell field(s):\n{}\
         (if this change is intentional, re-bless with --write-golden)",
        "fresh run",
        path.display(),
        diffs.len(),
        table.render()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GoldenFile {
        let mut g = GoldenFile::new("table1", "tiny", 8, 4);
        g.push("MatMul-48", "static/spm-stack", 12345, 6789, true);
        g.push("PR-\"email\"", "ws/spm-stack/spm-q", 999, 888, true);
        g
    }

    #[test]
    fn json_round_trips_exactly() {
        let g = sample();
        let parsed = GoldenFile::parse(&g.to_json()).unwrap();
        assert_eq!(parsed, g);
    }

    #[test]
    fn out_of_range_mesh_shapes_are_rejected() {
        let text = sample().to_json();
        let shaped = |cols: &str, rows: &str| {
            text.replace(
                r#""machine": {"cols": 8, "rows": 4}"#,
                &format!(r#""machine": {{"cols": {cols}, "rows": {rows}}}"#),
            )
        };
        assert_eq!(GoldenFile::parse(&shaped("8", "4")).unwrap(), sample());
        // Under `as u16`, 65544 would pass for the 8x4 file.
        let err = GoldenFile::parse(&shaped("65544", "4")).unwrap_err();
        assert!(err.contains("cols"), "{err}");
        let err = GoldenFile::parse(&shaped("8", "65536")).unwrap_err();
        assert!(err.contains("rows"), "{err}");
    }

    #[test]
    fn file_name_encodes_identity() {
        assert_eq!(sample().file_name(), "table1_tiny_8x4.json");
    }

    #[test]
    fn identical_files_have_no_diff() {
        assert!(sample().diff(&sample()).is_empty());
    }

    #[test]
    fn cycle_drift_is_reported_per_cell() {
        let golden = sample();
        let mut fresh = sample();
        fresh.cells[0].cycles += 1;
        let d = golden.diff(&fresh);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0][2], "cycles");
        assert_eq!(d[0][3], "12345");
        assert_eq!(d[0][4], "12346");
    }

    #[test]
    fn missing_and_extra_cells_are_reported() {
        let golden = sample();
        let mut fresh = sample();
        fresh.cells.remove(0);
        fresh.push("NewBench", "ws/spm-stack/spm-q", 1, 1, true);
        let d = golden.diff(&fresh);
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|r| r[4] == "MISSING"));
        assert!(d.iter().any(|r| r[3] == "MISSING"));
    }

    #[test]
    fn check_in_write_in_round_trip() {
        let dir = std::env::temp_dir().join(format!("golden-test-{}", std::process::id()));
        let g = sample();
        write_in(&dir, &g).unwrap();
        assert_eq!(check_in(&dir, &g), Ok(2));
        let mut drift = g.clone();
        drift.cells[1].instructions = 0;
        let err = check_in(&dir, &drift).unwrap_err();
        assert!(err.contains("instructions"), "{err}");
        assert!(err.contains("888"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_golden_file_is_a_check_failure() {
        let dir = std::env::temp_dir().join("golden-test-nonexistent-dir");
        let err = check_in(&dir, &sample()).unwrap_err();
        assert!(err.contains("--write-golden"), "{err}");
    }

    #[test]
    fn counters_round_trip_and_diff() {
        let mut g = sample();
        g.push_counter("dup-off/steal_search", 992);
        g.push_counter("dup-off/core0_inbound", 4096);
        let parsed = GoldenFile::parse(&g.to_json()).unwrap();
        assert_eq!(parsed, g);
        assert!(g.diff(&parsed).is_empty());
        let mut drift = g.clone();
        drift.counters[0].value = 991;
        drift.counters.pop();
        let d = g.diff(&drift);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d
            .iter()
            .any(|r| r[1] == "dup-off/steal_search" && r[4] == "991"));
        assert!(d
            .iter()
            .any(|r| r[1] == "dup-off/core0_inbound" && r[4] == "MISSING"));
    }

    #[test]
    fn empty_counters_keep_the_legacy_format() {
        // Experiments that don't profile must emit byte-identical JSON
        // to the pre-profiler golden format.
        assert!(!sample().to_json().contains("profile"));
        assert!(sample().to_json().ends_with("  ]\n}\n"));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(GoldenFile::parse("{").is_err());
        assert!(GoldenFile::parse("{}").is_err());
        assert!(GoldenFile::parse("[1, 2]").is_err());
    }
}
