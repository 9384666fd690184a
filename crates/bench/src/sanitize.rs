//! Host-side aggregation of `mosaic-san` findings across a harness
//! run: every simulation executed under `--sanitize` records its
//! [`SanReport`] here, and [`SanitizeGate::finish`] turns any finding
//! into a nonzero exit after printing the per-cell diagnostics.

use mosaic_san::SanReport;

/// Compact, `Send` summary of one run's sanitizer outcome, so cell
/// closures on the job pool can thread it through result tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanCell {
    /// Distinct findings (0 when clean or when the sanitizer was off).
    pub findings: u64,
    /// Memory operations the sanitizer checked.
    pub ops: u64,
    /// Rendered report, empty when clean.
    pub log: String,
}

impl SanCell {
    /// Summarize a run's report (`None` = sanitizer not attached).
    pub fn from_report(report: Option<&SanReport>) -> Self {
        match report {
            None => SanCell::default(),
            Some(r) => SanCell {
                findings: r.total_findings(),
                ops: r.ops,
                log: if r.is_clean() {
                    String::new()
                } else {
                    r.to_string()
                },
            },
        }
    }
}

/// Accumulates sanitizer outcomes across a harness's runs and enforces
/// the zero-findings contract at exit.
#[derive(Debug)]
pub struct SanitizeGate {
    enabled: bool,
    runs: u64,
    ops: u64,
    findings: u64,
    dirty: Vec<(String, String)>,
}

impl SanitizeGate {
    /// A gate; inert unless `enabled` (the `--sanitize` flag).
    pub fn new(enabled: bool) -> Self {
        SanitizeGate {
            enabled,
            runs: 0,
            ops: 0,
            findings: 0,
            dirty: Vec::new(),
        }
    }

    /// Whether `--sanitize` is on.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one run's outcome under a `workload/config` cell label.
    pub fn record(&mut self, workload: &str, config: &str, cell: &SanCell) {
        if !self.enabled {
            return;
        }
        self.runs += 1;
        self.ops += cell.ops;
        self.findings += cell.findings;
        if cell.findings > 0 {
            eprintln!("sanitizer[{workload} / {config}]:\n{}", cell.log);
            self.dirty.push((
                format!("{workload} / {config}"),
                format!("{} finding(s)", cell.findings),
            ));
        }
    }

    /// Print the summary; exit the process with status 1 on any
    /// finding. No-op when the gate is disabled.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        if self.findings == 0 {
            eprintln!(
                "sanitizer: clean across {} run(s) ({} memory ops checked)",
                self.runs, self.ops
            );
            return;
        }
        eprintln!(
            "sanitizer: {} finding(s) across {} of {} run(s):",
            self.findings,
            self.dirty.len(),
            self.runs
        );
        for (cell, count) in &self.dirty {
            eprintln!("  {cell}: {count}");
        }
        std::process::exit(1);
    }
}
