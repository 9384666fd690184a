//! The dual-fidelity `Backend` seam: one request shape, two ways to
//! answer it.
//!
//! Historically `Machine` + [`Engine`](crate::Engine) were the *only*
//! way to turn a job into numbers. This module extracts that coupling
//! into a trait so a request (a `JobSpec`-shaped cell: workload,
//! config, scale, machine shape) can be answered by either
//!
//! * [`CycleBackend`] — the existing cycle-accurate discrete-event
//!   engine, wrapped byte-for-byte: it calls straight through to the
//!   caller's execution closure, so every committed golden number is
//!   unchanged; or
//! * [`AnalyticBackend`] — `mosaic-model`'s queueing/throughput
//!   formulas, answering from a [`CalibrationTable`] in microseconds
//!   and *refusing* families the table does not cover (no silent
//!   guessing); or
//! * [`AutoBackend`] — per-cell escalation: analytic when the family's
//!   calibrated residual is inside a threshold, cycle-accurate
//!   otherwise (the same policy the serve scheduler applies per job).
//!
//! The seam deliberately hands *execution* back to the caller through
//! [`BackendJob::execute`]: the benchmark catalog lives above this
//! crate (`mosaic-workloads`), so the backend owns the decision — not
//! the workload plumbing.

use crate::config::MachineConfig;
use crate::counters::MachineCounters;
use mosaic_model::{
    AnalyticModel, CalibrationTable, Estimate, Fidelity, MachineParams, WorkloadDemand,
};
use mosaic_prof::{Bucket, MachineProfile};

/// Calibration identity of one cell: which
/// [`CalFamily`](mosaic_model::CalFamily) covers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyKey {
    /// Workload display name (e.g. `CilkSort`).
    pub workload: String,
    /// Runtime config label (e.g. `ws/spm-stack/spm-q`).
    pub config: String,
    /// Scale preset name (`tiny` / `small` / `full`).
    pub scale: String,
}

impl std::fmt::Display for FamilyKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} / {} @ {}", self.workload, self.config, self.scale)
    }
}

/// What a cycle-accurate execution hands back through the seam.
#[derive(Debug, Clone)]
pub struct CycleOutcome {
    /// Simulated elapsed cycles.
    pub cycles: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Whether the payload matched the host reference.
    pub verified: bool,
    /// Sanitizer findings, when the run was sanitized.
    pub sanitizer: Option<mosaic_san::SanReport>,
    /// Cycle-attribution profile, when the run was profiled.
    pub profile: Option<MachineProfile>,
}

/// One cell's answer from whichever backend produced it.
#[derive(Debug, Clone)]
pub struct BackendReport {
    /// The fidelity that actually answered (never `Auto`).
    pub fidelity: Fidelity,
    /// Elapsed cycles: simulated (cycle) or estimated-and-corrected
    /// (analytic).
    pub cycles: u64,
    /// Dynamic instructions: counted (cycle) or replayed from the
    /// family's measured demand (analytic — instruction counts are
    /// input-derived, not timing-derived).
    pub instructions: u64,
    /// Whether the payload verified. Analytic answers report `true`:
    /// they execute nothing, so there is no payload to falsify — the
    /// calibration bound is their correctness statement.
    pub verified: bool,
    /// Sanitizer findings (cycle runs under `--sanitize` only).
    pub sanitizer: Option<mosaic_san::SanReport>,
    /// Cycle-attribution profile (cycle runs under `--profile` only).
    pub profile: Option<MachineProfile>,
    /// The analytic roofline breakdown, when the model answered.
    pub estimate: Option<Estimate>,
}

/// A unit of work the backend seam can answer: its calibration
/// identity plus a way to run it for real.
pub trait BackendJob {
    /// Which calibration family covers this cell.
    fn family(&self) -> FamilyKey;
    /// Execute cycle-accurately on `machine` (the existing
    /// `Benchmark::run` path; panics propagate like they always did).
    fn execute(&self, machine: &MachineConfig) -> CycleOutcome;
}

/// How a `JobSpec`-shaped request becomes counters and an
/// elapsed-cycle answer.
pub trait Backend: Sync {
    /// The fidelity this backend implements.
    fn fidelity(&self) -> Fidelity;
    /// Answer one cell on the given machine.
    fn run_cell(
        &self,
        machine: &MachineConfig,
        job: &dyn BackendJob,
    ) -> Result<BackendReport, String>;
}

/// The cycle-accurate engine behind the seam: a transparent
/// pass-through to [`BackendJob::execute`], byte-for-byte identical to
/// calling the engine directly (`crates/bench/tests/backend.rs` pins
/// this against committed goldens).
#[derive(Debug, Clone, Copy, Default)]
pub struct CycleBackend;

impl Backend for CycleBackend {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Cycle
    }

    fn run_cell(
        &self,
        machine: &MachineConfig,
        job: &dyn BackendJob,
    ) -> Result<BackendReport, String> {
        let out = job.execute(machine);
        Ok(BackendReport {
            fidelity: Fidelity::Cycle,
            cycles: out.cycles,
            instructions: out.instructions,
            verified: out.verified,
            sanitizer: out.sanitizer,
            profile: out.profile,
            estimate: None,
        })
    }
}

/// The analytic model behind the seam: answers from a calibration
/// table, never executes anything.
#[derive(Debug, Clone)]
pub struct AnalyticBackend {
    calibration: CalibrationTable,
}

impl AnalyticBackend {
    /// A backend answering from the given calibration table.
    pub fn new(calibration: CalibrationTable) -> AnalyticBackend {
        AnalyticBackend { calibration }
    }

    /// The calibration this backend answers from.
    pub fn calibration(&self) -> &CalibrationTable {
        &self.calibration
    }
}

impl Backend for AnalyticBackend {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Analytic
    }

    fn run_cell(
        &self,
        machine: &MachineConfig,
        job: &dyn BackendJob,
    ) -> Result<BackendReport, String> {
        let key = job.family();
        let family = self
            .calibration
            .family(&key.workload, &key.config, &key.scale)
            .ok_or_else(|| {
                format!(
                    "no calibration for family {key}; run the calibrate harness \
                     (or use --fidelity cycle)"
                )
            })?;
        if family.max_err_ppm > self.calibration.bound_ppm {
            return Err(format!(
                "calibration for family {key} is out of bound \
                 ({}ppm > {}ppm); the analytic answer would be untrustworthy",
                family.max_err_ppm, self.calibration.bound_ppm
            ));
        }
        let model = AnalyticModel::new(machine_params(machine));
        let estimate = model.estimate(&family.demand);
        Ok(BackendReport {
            fidelity: Fidelity::Analytic,
            cycles: family.corrected(estimate.cycles),
            instructions: family.demand.instructions,
            verified: true,
            sanitizer: None,
            profile: None,
            estimate: Some(estimate),
        })
    }
}

/// Per-cell escalation: analytic when calibrated tightly enough,
/// cycle-accurate otherwise.
#[derive(Debug, Clone)]
pub struct AutoBackend {
    cycle: CycleBackend,
    analytic: AnalyticBackend,
    /// Escalate when the family's residual exceeds this (ppm).
    threshold_ppm: u64,
}

impl AutoBackend {
    /// An auto backend escalating past `threshold_ppm` residual error.
    pub fn new(calibration: CalibrationTable, threshold_ppm: u64) -> AutoBackend {
        AutoBackend {
            cycle: CycleBackend,
            analytic: AnalyticBackend::new(calibration),
            threshold_ppm,
        }
    }

    /// Whether a cell would be answered analytically (false =
    /// escalates to the cycle engine).
    pub fn answers_fast(&self, key: &FamilyKey) -> bool {
        self.analytic
            .calibration()
            .family(&key.workload, &key.config, &key.scale)
            .is_some_and(|f| f.max_err_ppm <= self.threshold_ppm)
    }
}

impl Backend for AutoBackend {
    fn fidelity(&self) -> Fidelity {
        Fidelity::Auto
    }

    fn run_cell(
        &self,
        machine: &MachineConfig,
        job: &dyn BackendJob,
    ) -> Result<BackendReport, String> {
        if self.answers_fast(&job.family()) {
            self.analytic.run_cell(machine, job)
        } else {
            self.cycle.run_cell(machine, job)
        }
    }
}

/// Derive the analytic model's per-component service rates from a
/// machine configuration — the one place the two machine descriptions
/// are kept in sync.
pub fn machine_params(cfg: &MachineConfig) -> MachineParams {
    MachineParams {
        cols: cfg.cols as u64,
        rows: cfg.rows as u64,
        hop_latency: mosaic_mesh::Mesh::new(cfg.mesh_config()).hop_latency(),
        llc_banks: cfg.llc.banks as u64,
        llc_hit_latency: cfg.llc.hit_latency,
        // The machine models one HBM2 pseudo-channel pair as a single
        // DRAM endpoint.
        dram_channels: 1,
        // Uncontended access latency: CAS plus half an activate (rows
        // hit about as often as they miss at these working sets).
        dram_latency: cfg.dram.t_cas + cfg.dram.t_rcd / 2,
        dram_bus: cfg.dram.t_bl,
    }
}

/// Build a [`WorkloadDemand`] from a profiled cycle-accurate run —
/// how the `calibrate` harness measures a family's traffic.
pub fn demand_from_profile(
    profile: &MachineProfile,
    counters: &MachineCounters,
    elapsed: u64,
) -> WorkloadDemand {
    let t = profile.totals();
    let bucket = |b: Bucket| t[b.index()];
    let cores = (profile.cores() as u64).max(1);
    let busy = bucket(Bucket::Compute)
        + bucket(Bucket::FenceAmo)
        + bucket(Bucket::StackOverflow)
        + bucket(Bucket::SpmStall)
        + bucket(Bucket::LlcStall)
        + bucket(Bucket::DramStall)
        + bucket(Bucket::StealSearch)
        + bucket(Bucket::QueueLockWait);
    WorkloadDemand {
        base_cols: profile.cols as u64,
        base_rows: profile.rows as u64,
        base_elapsed: elapsed,
        instructions: counters.total_instructions(),
        compute: bucket(Bucket::Compute) + bucket(Bucket::FenceAmo) + bucket(Bucket::StackOverflow),
        spm_stall: bucket(Bucket::SpmStall),
        llc_stall: bucket(Bucket::LlcStall),
        dram_stall: bucket(Bucket::DramStall),
        steal_search: bucket(Bucket::StealSearch),
        queue_lock: bucket(Bucket::QueueLockWait),
        llc_accesses: profile.llc_bank_accesses.iter().sum(),
        link_flits: profile.total_link_flits,
        // Imbalance/critical-path slack: what the mean busy share does
        // not explain of the elapsed time. The split between the
        // shape-independent and distance-dependent (span_hop) parts is
        // not observable from bucket totals; the calibrate harness
        // fits it from the scaling grid.
        span: elapsed.saturating_sub(busy / cores),
        span_hop: 0,
        span_hop_exp2: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_model::{CalFamily, CalPoint, PPM};

    fn key() -> FamilyKey {
        FamilyKey {
            workload: "Fib".into(),
            config: "ws/spm-stack/spm-q".into(),
            scale: "tiny".into(),
        }
    }

    struct FakeJob;
    impl BackendJob for FakeJob {
        fn family(&self) -> FamilyKey {
            key()
        }
        fn execute(&self, machine: &MachineConfig) -> CycleOutcome {
            CycleOutcome {
                cycles: 1000 + machine.core_count() as u64,
                instructions: 500,
                verified: true,
                sanitizer: None,
                profile: None,
            }
        }
    }

    fn calibration(max_err_ppm: u64) -> CalibrationTable {
        let mut t = CalibrationTable::new(100_000);
        t.families.push(CalFamily {
            workload: "Fib".into(),
            config: "ws/spm-stack/spm-q".into(),
            scale: "tiny".into(),
            demand: WorkloadDemand {
                base_cols: 4,
                base_rows: 2,
                base_elapsed: 1200,
                instructions: 500,
                compute: 8000,
                span: 200,
                ..WorkloadDemand::default()
            },
            points: vec![CalPoint {
                cols: 4,
                rows: 2,
                measured: 1200,
                estimated: 1200,
            }],
            correction_ppm: PPM,
            max_err_ppm,
        });
        t.bind_experiment("table1", "tiny");
        t
    }

    #[test]
    fn cycle_backend_is_a_transparent_passthrough() {
        let cfg = MachineConfig::small(4, 2);
        let rep = CycleBackend.run_cell(&cfg, &FakeJob).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Cycle);
        assert_eq!(rep.cycles, 1008, "exactly what execute() returned");
        assert_eq!(rep.instructions, 500);
        assert!(rep.estimate.is_none());
    }

    #[test]
    fn analytic_backend_answers_calibrated_families_without_executing() {
        let cfg = MachineConfig::small(8, 4);
        let b = AnalyticBackend::new(calibration(0));
        let rep = b.run_cell(&cfg, &FakeJob).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Analytic);
        assert!(rep.estimate.is_some());
        assert_eq!(rep.instructions, 500, "instructions replayed from demand");
        assert_ne!(rep.cycles, 1032, "did not come from execute()");
    }

    #[test]
    fn analytic_backend_refuses_uncalibrated_or_out_of_bound_families() {
        let cfg = MachineConfig::small(4, 2);
        let empty = AnalyticBackend::new(CalibrationTable::new(100_000));
        let err = empty.run_cell(&cfg, &FakeJob).unwrap_err();
        assert!(err.contains("no calibration"), "{err}");

        let wide = AnalyticBackend::new(calibration(400_000));
        let err = wide.run_cell(&cfg, &FakeJob).unwrap_err();
        assert!(err.contains("out of bound"), "{err}");
    }

    #[test]
    fn auto_backend_escalates_on_wide_confidence_bands() {
        let cfg = MachineConfig::small(4, 2);
        let fast = AutoBackend::new(calibration(0), 100_000);
        assert!(fast.answers_fast(&key()));
        assert_eq!(
            fast.run_cell(&cfg, &FakeJob).unwrap().fidelity,
            Fidelity::Analytic
        );

        let slow = AutoBackend::new(calibration(200_000), 100_000);
        assert!(!slow.answers_fast(&key()));
        let rep = slow.run_cell(&cfg, &FakeJob).unwrap();
        assert_eq!(rep.fidelity, Fidelity::Cycle);
        assert_eq!(rep.cycles, 1008);
    }

    #[test]
    fn machine_params_mirror_the_config() {
        let cfg = MachineConfig::small(8, 4);
        let p = machine_params(&cfg);
        assert_eq!(p.cores(), 32);
        assert_eq!(p.llc_banks, 16);
        assert_eq!(p.llc_hit_latency, cfg.llc.hit_latency);
        assert_eq!(p.dram_bus, cfg.dram.t_bl);
        assert!(p.dram_latency > 0);
    }
}
