//! Runtime-level statistics and the run report.

use mosaic_sim::{Cycle, MachineCounters};

/// Host-side counters one worker collects while running.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerStats {
    /// Tasks spawned onto this core's queue.
    pub spawns: u64,
    /// Tasks executed by this core (popped, stolen, or inlined).
    pub tasks_executed: u64,
    /// Tasks executed inline because the queue was full.
    pub inline_executions: u64,
    /// Successful steals by this core.
    pub steals: u64,
    /// Tasks this core dealt to hungry cores (work-dealing mode).
    pub deals: u64,
    /// Steal attempts that found an empty victim queue.
    pub failed_steals: u64,
    /// Failed spin-lock acquire attempts.
    pub lock_retries: u64,
    /// Stack frames that overflowed to DRAM.
    pub stack_overflows: u64,
    /// High-water stack depth in words.
    pub max_stack_words: u32,
    /// High-water mark of this core's task-queue occupancy.
    pub max_queue_depth: u32,
}

impl WorkerStats {
    /// Fold `other` into an aggregate.
    pub fn merge(&mut self, other: &WorkerStats) {
        self.spawns += other.spawns;
        self.tasks_executed += other.tasks_executed;
        self.inline_executions += other.inline_executions;
        self.steals += other.steals;
        self.deals += other.deals;
        self.failed_steals += other.failed_steals;
        self.lock_retries += other.lock_retries;
        self.stack_overflows += other.stack_overflows;
        self.max_stack_words = self.max_stack_words.max(other.max_stack_words);
        self.max_queue_depth = self.max_queue_depth.max(other.max_queue_depth);
    }
}

/// Everything a completed run reports.
#[derive(Debug)]
pub struct RunReport {
    /// Total simulated cycles.
    pub cycles: Cycle,
    /// Per-core architectural counters from the simulator.
    pub counters: MachineCounters,
    /// The machine, for reading results out of simulated memory.
    pub machine: mosaic_sim::Machine,
    /// Per-core runtime statistics.
    pub worker_stats: Vec<WorkerStats>,
    /// Timestamped marks recorded via `TaskCtx::mark` (label, cycle).
    pub marks: Vec<(String, Cycle)>,
    /// Trace events (empty unless `RuntimeConfig::trace` was set).
    pub trace: Vec<crate::trace::TraceEvent>,
    /// Sanitizer findings (None unless `MachineConfig::sanitize` was
    /// set; the sanitizer charges no simulated cycles, so `cycles` is
    /// identical either way).
    pub sanitizer: Option<mosaic_san::SanReport>,
    /// Cycle-attribution profile (None unless `MachineConfig::profile`
    /// was set; like the sanitizer, the profiler charges no simulated
    /// cycles, so `cycles` is identical either way).
    pub profile: Option<mosaic_sim::MachineProfile>,
}

impl RunReport {
    /// Total dynamic instructions.
    pub fn instructions(&self) -> u64 {
        self.counters.total_instructions()
    }

    /// Aggregate of all per-core runtime statistics.
    pub fn totals(&self) -> WorkerStats {
        let mut t = WorkerStats::default();
        for w in &self.worker_stats {
            t.merge(w);
        }
        t
    }

    /// Approximate per-core utilization: the fraction of the run each
    /// core spent issuing instructions or waiting on its own memory
    /// accesses (the remainder is scheduling backoff / low-power
    /// waiting). Instructions are counted at the modeled 1 IPC.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: one division per core, no accumulation; a derived report metric, not a golden number"
    )]
    pub fn utilization(&self) -> Vec<f64> {
        let total = self.cycles.max(1) as f64;
        self.counters
            .iter()
            .map(|c| ((c.instructions + c.mem_stall_cycles) as f64 / total).min(1.0))
            .collect()
    }

    /// Machine-wide mean utilization (see [`RunReport::utilization`]).
    #[expect(
        clippy::float_arithmetic,
        reason = "order: sums the per-core Vec in core-id order; a derived report metric, not a golden number"
    )]
    pub fn mean_utilization(&self) -> f64 {
        let u = self.utilization();
        u.iter().sum::<f64>() / u.len().max(1) as f64
    }

    /// Cycles between two marks, by label.
    ///
    /// # Panics
    ///
    /// Panics if either label was never recorded.
    pub fn span(&self, from: &str, to: &str) -> Cycle {
        let find = |l: &str| {
            self.marks
                .iter()
                .find(|(m, _)| m == l)
                .unwrap_or_else(|| panic!("mark {l:?} not recorded"))
                .1
        };
        find(to) - find(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_and_maxes() {
        let mut a = WorkerStats {
            spawns: 2,
            max_stack_words: 10,
            ..WorkerStats::default()
        };
        let b = WorkerStats {
            spawns: 3,
            steals: 1,
            max_stack_words: 7,
            ..WorkerStats::default()
        };
        a.merge(&b);
        assert_eq!(a.spawns, 5);
        assert_eq!(a.steals, 1);
        assert_eq!(a.max_stack_words, 10);
    }
}
