//! The real [`Fanout`] for the fleet gateway: split Table-1-shaped
//! sweeps into one subjob per workload, merge the per-workload golden
//! payloads back byte-identically.
//!
//! Why this is sound: the sweep harnesses lay golden cells out
//! *workload-major* ([`crate::sweep::table1_cells`] walks benchmarks in
//! `table1_benchmarks` order, each one's configs in sweep order), and a
//! `--workload NAME` run emits exactly that workload's row slice. So a
//! merge that keeps the first part's header and concatenates the
//! parts' cells in canonical table order reproduces the unfiltered
//! run's [`GoldenFile::to_json`] bytes exactly — which is what lets
//! `reproduce_all --via-fleet --check-golden` gate a multi-node run
//! against the same committed goldens as a laptop run.

use crate::experiment;
use crate::golden::GoldenFile;
use mosaic_serve::{Fanout, JobSpec, SubJob};
use mosaic_workloads::Scale;

/// Gateway fanout for the Table-1 sweep experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepFanout;

/// The canonical per-workload split order: benchmark display names in
/// `table1_benchmarks` order (deduplicated defensively — a duplicate
/// name would double its cells in the merge).
fn workload_names(scale: Scale) -> Vec<String> {
    let mut names = Vec::new();
    for b in mosaic_workloads::table1_benchmarks(scale) {
        let name = b.name();
        if !names.contains(&name) {
            names.push(name);
        }
    }
    names
}

impl Fanout for SweepFanout {
    fn split(&self, spec: &JobSpec) -> Option<Vec<SubJob>> {
        if !experiment::info(&spec.experiment).is_some_and(|e| e.workload_filter) {
            return None;
        }
        if !spec.workload.is_empty() || !spec.config.is_empty() || spec.seed != 0 {
            // Already filtered (or carrying knobs we don't split on):
            // forward whole and let the worker validate.
            return None;
        }
        // Unknown scale: forward whole so the worker's validation
        // error (not a split panic) reaches the client.
        let scale = Scale::parse(&spec.scale).ok()?;
        let subs: Vec<SubJob> = workload_names(scale)
            .into_iter()
            .map(|name| {
                let mut sub = spec.clone();
                sub.workload = name.clone();
                SubJob {
                    label: name,
                    spec: sub,
                }
            })
            .collect();
        // A single-workload table would make fan-out pure overhead.
        (subs.len() > 1).then_some(subs)
    }

    fn merge(&self, spec: &JobSpec, parts: &[(String, String)]) -> Result<String, String> {
        let mut merged: Option<GoldenFile> = None;
        for (label, payload) in parts {
            let part = GoldenFile::parse(payload)
                .map_err(|e| format!("subjob {label}: malformed golden payload: {e}"))?;
            match &mut merged {
                None => merged = Some(part),
                Some(m) => {
                    if (
                        part.experiment.as_str(),
                        part.scale.as_str(),
                        part.cols,
                        part.rows,
                    ) != (m.experiment.as_str(), m.scale.as_str(), m.cols, m.rows)
                    {
                        return Err(format!(
                            "subjob {label}: golden identity {}/{}/{}x{} does not match \
                             the sweep's {}/{}/{}x{}",
                            part.experiment,
                            part.scale,
                            part.cols,
                            part.rows,
                            m.experiment,
                            m.scale,
                            m.cols,
                            m.rows
                        ));
                    }
                    m.cells.extend(part.cells);
                    m.counters.extend(part.counters);
                }
            }
        }
        merged
            .map(|m| m.to_json())
            .ok_or_else(|| format!("sweep {} produced no parts to merge", spec.experiment))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_sweeps_per_workload_and_nothing_else() {
        let f = SweepFanout;
        let sweep = JobSpec::new("table1", "tiny");
        let subs = f.split(&sweep).expect("table1 must fan out");
        assert!(subs.len() > 1);
        for s in &subs {
            assert_eq!(s.spec.workload, s.label);
            assert_eq!(s.spec.experiment, "table1");
            assert_eq!(s.spec.scale, "tiny");
        }
        // Labels are unique and in canonical (table) order.
        let names = workload_names(Scale::Tiny);
        let labels: Vec<&str> = subs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, names.iter().map(String::as_str).collect::<Vec<_>>());

        assert!(f.split(&JobSpec::new("trace_run", "tiny")).is_none());
        let mut filtered = sweep.clone();
        filtered.workload = names[0].clone();
        assert!(
            f.split(&filtered).is_none(),
            "an already-filtered sweep must forward whole"
        );
        let mut bad_scale = sweep.clone();
        bad_scale.scale = "huge".into();
        assert!(f.split(&bad_scale).is_none());
    }

    #[test]
    fn merge_reproduces_the_workload_major_layout_byte_for_byte() {
        // Synthesize the "single-node" golden and its per-workload
        // slices; merging the slices must reproduce the whole file's
        // bytes exactly.
        let mut whole = GoldenFile::new("table1", "tiny", 8, 4);
        let mut parts: Vec<(String, String)> = Vec::new();
        for (w, base) in [("MatMul-48", 100u64), ("PR-email", 2000), ("UTS-t1", 30)] {
            let mut slice = GoldenFile::new("table1", "tiny", 8, 4);
            for (c, cfg) in [("static/spm-stack", 0u64), ("ws/spm-stack/spm-q", 7)] {
                whole.push(w, c, base + cfg, base * 2 + cfg, true);
                slice.push(w, c, base + cfg, base * 2 + cfg, true);
            }
            parts.push((w.to_string(), slice.to_json()));
        }
        let merged = SweepFanout
            .merge(&JobSpec::new("table1", "tiny"), &parts)
            .unwrap();
        assert_eq!(merged, whole.to_json());
    }

    #[test]
    fn merge_rejects_mismatched_identities_and_garbage() {
        let f = SweepFanout;
        let spec = JobSpec::new("table1", "tiny");
        assert!(f.merge(&spec, &[]).is_err());
        assert!(f.merge(&spec, &[("w".into(), "not json".into())]).is_err());
        let a = GoldenFile::new("table1", "tiny", 8, 4);
        let b = GoldenFile::new("table1", "small", 8, 4);
        let err = f
            .merge(
                &spec,
                &[("a".into(), a.to_json()), ("b".into(), b.to_json())],
            )
            .unwrap_err();
        assert!(err.contains("does not match"), "{err}");
    }
}
