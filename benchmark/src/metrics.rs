//! The benchmark's contract as data: workloads, end-to-end metrics
//! with their regression bounds, per-layer metrics, and the result
//! record every run produces. `BENCHMARK.json` at the repository root
//! is rendered from these tables (a test keeps the file in step).

/// Seconds one run measures for (`run_seconds` in `BENCHMARK.json`,
/// and the default of `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// The command of `BENCHMARK.json`.
const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// One workload and why it exists.
pub struct Workload {
    /// Name, as `--workload` takes it.
    pub name: &'static str,
    /// One line on what it stresses.
    pub why: &'static str,
}

/// The five workloads, in the order a full run executes them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "cycle_dynamic",
        why: "dynamic quadrants with runtime data in SPM vs DRAM at 8x4: spawn/steal/lock traffic, so engine handoff is nearly all the time",
    },
    Workload {
        name: "cycle_membound",
        why: "static-unbalanced LLC/DRAM/NoC-bound kernels on the paper's 16x8 mesh: every op walks mesh+LLC+DRAM and each cell spawns 128 core threads",
    },
    Workload {
        name: "cycle_instrumented",
        why: "the same engine with profiler, sanitizer, timing fault plan and checkpoints all on: a gain that taxes those hooks shows as a loss here",
    },
    Workload {
        name: "serve_hot",
        why: "cache-hit submit+result round trips on a restarted daemon: protocol, scheduler and cache only, no engine, no fsync, no child",
    },
    Workload {
        name: "serve_cold",
        why: "never-seen cycle specs one at a time: journal fsync, child spawn, engine and cache insert; unchanged by anything that touches only the hit path",
    },
];

/// Whether a smaller or a larger value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Times, sizes, ratios of overhead.
    Lower,
    /// Rates.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric definition. `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen before it counts as a
/// regression; per-layer metrics carry none.
pub struct Metric {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off. Every
/// workload reports every one of them; what the unit of work and of
/// latency is per workload is in `README.md`.
pub const END_TO_END: &[Metric] = &[
    e2e("work_per_s", "1/s", Better::Higher, 0.15),
    e2e("latency_p50_ms", "ms", Better::Lower, 0.20),
    e2e("latency_tail_ms", "ms", Better::Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// Host time (and exact simulated counts) per layer, from the traced
/// run and the micro-probes. No bounds: they explain an end-to-end
/// movement, they do not gate.
pub const PER_LAYER: &[Metric] = &[
    layer("sim.engine.ns_per_op", "ns", Lower),
    layer("sim.engine.spawn_us_per_core", "us", Lower),
    layer("sim.calendar.ns_per_event", "ns", Lower),
    layer("sim.machine.spm_local_ns", "ns", Lower),
    layer("sim.machine.spm_remote_ns", "ns", Lower),
    layer("sim.machine.llc_hit_ns", "ns", Lower),
    layer("sim.machine.dram_miss_ns", "ns", Lower),
    layer("sim.machine.amo_ns", "ns", Lower),
    layer("sim.checkpoint.overhead_ratio", "ratio", Lower),
    layer("sim.checkpoint.ms_per_image", "ms", Lower),
    layer("sim.cycles_total", "count", Lower),
    layer("sim.ops_total", "count", Lower),
    layer("sim.instr_total", "count", Lower),
    layer("host.ctxsw_per_op", "ratio", Lower),
    layer("host.sys_share", "ratio", Lower),
    layer("mesh.traverse_ns", "ns", Lower),
    layer("mesh.roundtrip_ns", "ns", Lower),
    layer("mem.spm_access_ns", "ns", Lower),
    layer("mem.llc_hit_ns", "ns", Lower),
    layer("mem.llc_miss_ns", "ns", Lower),
    layer("mem.dram_access_ns", "ns", Lower),
    layer("mem.addr_decode_ns", "ns", Lower),
    layer("prof.overhead_ratio", "ratio", Lower),
    layer("san.overhead_ratio", "ratio", Lower),
    layer("chaos.overhead_ratio", "ratio", Lower),
    layer("workloads.build_ms", "ms", Lower),
    layer("model.estimate_us_per_cell", "us", Lower),
    layer("jsonlite.parse_mb_s", "MB/s", Higher),
    layer("jsonlite.write_mb_s", "MB/s", Higher),
    layer("jsonlite.frame_roundtrip_ns", "ns", Lower),
    layer("serve.job.digest_ns", "ns", Lower),
    layer("serve.cache.mem_hit_ns", "ns", Lower),
    layer("serve.cache.disk_hit_us", "us", Lower),
    layer("serve.cache.insert_us", "us", Lower),
    layer("serve.scheduler.submit_hit_us", "us", Lower),
    layer("serve.protocol.rtt_us", "us", Lower),
    layer("serve.metrics_verb_us", "us", Lower),
    layer("serve.server.first_request_ms", "ms", Lower),
    layer("serve.journal.admit_fsync_us_p50", "us", Lower),
    layer("serve.journal.admit_fsync_us_p99", "us", Lower),
    layer("serve.journal.replay_ms_per_1k", "ms", Lower),
    layer("bench.child.trace_run_ms", "ms", Lower),
    layer("bench.executor.overhead_ms", "ms", Lower),
    layer("fleet.ring.route_ns", "ns", Lower),
    layer("fleet.gateway.forward_us", "us", Lower),
    layer("fleet.gateway.sweep_overhead_ms", "ms", Lower),
    layer("trace.overhead_ratio", "ratio", Lower),
];

/// The metric table a run of the given kind must fill.
pub fn table(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Named values collected during a run, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Record `name = value`; a later value for the same name wins.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Record every pair of `other`.
    pub fn extend(&mut self, other: Values) {
        for (n, v) in other.0 {
            self.set(n, v);
        }
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }
}

/// What one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run (per-layer metrics) or the
    /// plain one (end-to-end metrics).
    pub traced: bool,
    /// Cells or requests attempted, checks included.
    pub attempted: u64,
    /// Of those, how many failed an output check.
    pub failed: u64,
    /// Human-readable descriptions of the first few failures.
    pub failures: Vec<String>,
    /// The metrics of [`table`]`(traced)`.
    pub values: Values,
    /// Free-form lines for the human-readable output (sample counts,
    /// the percentile a tail was taken at, the trace file written).
    pub notes: Vec<String>,
}

impl RunResult {
    /// An empty result for `workload`.
    pub fn new(workload: &'static str, traced: bool) -> RunResult {
        RunResult {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            values: Values::default(),
            notes: Vec::new(),
        }
    }

    /// Count one attempted operation and whether its check held.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Whether every output check held.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// `failed / attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result as the single JSON object the driver reads from the
    /// last line of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`. A run that was not pinned carries an
    /// extra `"pinned": false`, so it can never pass for a baseline.
    ///
    /// # Panics
    ///
    /// Panics if a metric of the table was not measured: that is a bug
    /// in the workload, not a property of the machine.
    pub fn driver_line(&self, pinned: bool) -> String {
        let metrics: Vec<String> = table(self.traced)
            .iter()
            .map(|m| {
                let v = self.values.get(m.name).unwrap_or_else(|| {
                    panic!("{}: metric {} was not measured", self.workload, m.name)
                });
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    jsonlite::escape(m.name),
                    json_number(v),
                    jsonlite::escape(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, {}\"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            if pinned { "" } else { "\"pinned\": false, " },
            metrics.join(", ")
        )
    }
}

/// A finite float with all its digits, as a JSON number.
pub fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// Render `BENCHMARK.json` from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| -> String {
        items
            .iter()
            .map(|s| jsonlite::escape(s))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"command\": [{}],\n", quoted(COMMAND)));
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                jsonlite::escape(w.name),
                jsonlite::escape(w.why)
            )
        })
        .collect();
    out.push_str(&rows.join(",\n"));
    out.push_str("\n  ],\n");
    for (key, metrics) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        out.push_str(&format!("  \"{key}\": [\n"));
        let rows: Vec<String> = metrics
            .iter()
            .map(|m| {
                let bound = m
                    .bound
                    .map_or(String::new(), |b| format!(", \"bound\": {b:?}"));
                format!(
                    "    {{\"name\": {}, \"unit\": {}, \"better\": \"{}\"{bound}}}",
                    jsonlite::escape(m.name),
                    jsonlite::escape(m.unit),
                    m.better.as_str()
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str(if key == "end_to_end" {
            "\n  ],\n"
        } else {
            "\n  ]\n"
        });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.as_bytes()[0].is_ascii_alphanumeric()
            && name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_benchmark_contract() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "bad name {n:?}");
        }
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .bytes()
                        .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b)),
                "bad unit {:?}",
                m.unit
            );
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(widest), "setup_s takes the largest bound");
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        assert_eq!(
            committed,
            benchmark_json(),
            "BENCHMARK.json is stale: regenerate it with --print-benchmark-json"
        );
        assert!(committed.len() <= 64 * 1024);
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut r = RunResult::new("cycle_dynamic", false);
        r.check(true, String::new);
        for (i, m) in END_TO_END.iter().enumerate() {
            r.values.set(m.name, 1.5 + i as f64);
        }
        let line = r.driver_line(true);
        assert!(!line.contains('\n'));
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        assert_eq!(line.matches("\"value\"").count(), END_TO_END.len());
        // An unpinned run is stamped so it cannot pass for a baseline.
        assert!(r.driver_line(false).contains("\"pinned\": false"));
    }
}
