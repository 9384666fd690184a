//! Host-level fault plans: executor panics and artificial slowness
//! injected into the serve stack.
//!
//! Unlike the machine families, host faults perturb the *service*
//! around the simulator — they exist to exercise panic isolation, job
//! timeouts, retry-with-backoff, and (with `kill=`) whole-process
//! crash recovery. The plan is a tiny spec string
//! (`panics=N,slow=MS,kill=AFTER_MS`) so the serve daemon can accept
//! it on the command line without depending on the full simulator
//! fault model.

/// A host fault plan: fail the first `panic_attempts` executions of
/// each job, add `slow_ms` of artificial latency to every execution,
/// and — the nuclear option — abort the whole process `kill_after_ms`
/// milliseconds after the first job starts running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HostFaultPlan {
    /// Number of leading attempts per job that panic (0 = never).
    pub panic_attempts: u32,
    /// Milliseconds of sleep added to every execution (0 = none).
    pub slow_ms: u64,
    /// Milliseconds after the first execution begins at which the
    /// whole process aborts, `SIGKILL`-style — no unwinding, no drain,
    /// no journal flush beyond what is already durable (0 = never).
    /// Exercises journal replay plus the result cache, the only
    /// recovery path (no job resumes from a checkpoint).
    pub kill_after_ms: u64,
    /// Milliseconds after *daemon boot* at which the whole process
    /// aborts (0 = never). Unlike `kill_after_ms` this is anchored at
    /// startup, not at the first execution, so it models a whole-node
    /// failure independent of workload timing — the fleet recovery
    /// harness uses it to take a worker down mid-sweep and assert the
    /// gateway re-routes its journaled subjobs to survivors.
    pub node_kill_ms: u64,
}

impl HostFaultPlan {
    /// Parse `panics=N,slow=MS,kill=AFTER_MS` (every key optional;
    /// empty string is the no-op plan).
    pub fn parse(spec: &str) -> Result<HostFaultPlan, String> {
        let mut plan = HostFaultPlan::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| format!("host fault token {token:?} is not key=value"))?;
            let n: u64 = value
                .parse()
                .map_err(|_| format!("host fault {key} wants an integer, got {value:?}"))?;
            match key {
                "panics" => {
                    plan.panic_attempts = u32::try_from(n)
                        .map_err(|_| format!("host fault panics={n} is out of range"))?
                }
                "slow" => plan.slow_ms = n,
                "kill" => plan.kill_after_ms = n,
                "node_kill" => plan.node_kill_ms = n,
                other => {
                    return Err(format!(
                        "host fault: unknown key {other:?} (panics|slow|kill|node_kill)"
                    ))
                }
            }
        }
        Ok(plan)
    }

    /// Canonical spec string; `parse` of the result reproduces the
    /// plan. Every field is bound here, so a new one does not compile
    /// until it is serialized.
    pub fn to_spec(&self) -> String {
        let HostFaultPlan {
            panic_attempts,
            slow_ms,
            kill_after_ms,
            node_kill_ms,
        } = self;
        format!(
            "panics={panic_attempts},slow={slow_ms},kill={kill_after_ms},node_kill={node_kill_ms}"
        )
    }

    /// Whether the plan has any effect.
    pub fn is_empty(&self) -> bool {
        self.panic_attempts == 0
            && self.slow_ms == 0
            && self.kill_after_ms == 0
            && self.node_kill_ms == 0
    }

    /// Arm the whole-node kill: spawn a detached timer thread that
    /// aborts the process `node_kill_ms` after this call (daemon boot).
    /// No-op when the knob is 0. `abort` rather than `exit` so no
    /// destructor, drain, or journal flush runs — the closest portable
    /// stand-in for yanking the node's power.
    pub fn arm_node_kill(&self) {
        if self.node_kill_ms == 0 {
            return;
        }
        let delay = std::time::Duration::from_millis(self.node_kill_ms);
        std::thread::spawn(move || {
            std::thread::sleep(delay);
            eprintln!("chaos: node_kill timer expired; aborting the process");
            std::process::abort();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_and_round_trips() {
        let plan = HostFaultPlan::parse("panics=2,slow=150,kill=900,node_kill=4000").unwrap();
        assert_eq!(
            plan,
            HostFaultPlan {
                panic_attempts: 2,
                slow_ms: 150,
                kill_after_ms: 900,
                node_kill_ms: 4000
            }
        );
        assert_eq!(HostFaultPlan::parse(&plan.to_spec()).unwrap(), plan);
    }

    #[test]
    fn node_kill_alone_is_a_nonempty_plan() {
        let plan = HostFaultPlan::parse("node_kill=1500").unwrap();
        assert_eq!(plan.node_kill_ms, 1500);
        assert_eq!(plan.kill_after_ms, 0);
        assert!(!plan.is_empty());
        // Arming a zeroed plan is a no-op (must not spawn an abort
        // timer in the test process).
        HostFaultPlan::default().arm_node_kill();
    }

    #[test]
    fn kill_alone_is_a_nonempty_plan() {
        let plan = HostFaultPlan::parse("kill=250").unwrap();
        assert_eq!(plan.kill_after_ms, 250);
        assert_eq!(plan.panic_attempts, 0);
        assert!(!plan.is_empty());
    }

    #[test]
    fn empty_spec_is_the_noop_plan() {
        let plan = HostFaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
    }

    #[test]
    fn rejects_unknown_keys_and_bad_values() {
        assert!(HostFaultPlan::parse("wat=1").is_err());
        assert!(HostFaultPlan::parse("panics=lots").is_err());
        assert!(HostFaultPlan::parse("panics").is_err());
        assert!(HostFaultPlan::parse("panics=4294967296").is_err());
        assert_eq!(
            HostFaultPlan::parse("panics=4294967295")
                .unwrap()
                .panic_attempts,
            u32::MAX
        );
    }
}
