//! The bridge from a machine configuration and a profiled run to the
//! analytic model's inputs: [`machine_params`] (what `--fidelity
//! analytic` answers on) and [`demand_from_profile`] (what the
//! `calibrate` harness measures a family's traffic with).

use crate::config::MachineConfig;
use crate::counters::MachineCounters;
use mosaic_model::{MachineParams, WorkloadDemand};
use mosaic_prof::{Bucket, MachineProfile};

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
    use mosaic_model::{AnalyticModel, CalFamily, CalibrationTable, PPM};

    /// A one-family table covering `Fib / ws/spm-stack/spm-q @ tiny`
    /// whose residual is `max_err_ppm`.
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
            points: Vec::new(),
            correction_ppm: 2 * PPM,
            max_err_ppm,
        });
        t
    }

    #[test]
    fn analytic_backend_answers_calibrated_families_without_executing() {
        let t = calibration(0);
        let params = machine_params(&MachineConfig::small(8, 4));
        let (cycles, instructions) = t
            .answer(&params, "Fib", "ws/spm-stack/spm-q", "tiny")
            .unwrap();
        assert_eq!(instructions, 500, "instructions replayed from demand");
        let raw = AnalyticModel::new(params).estimate(&t.families[0].demand);
        assert_eq!(cycles, 2 * raw.cycles, "the family's 2x correction applied");
    }

    #[test]
    fn analytic_backend_refuses_uncalibrated_or_out_of_bound_families() {
        let params = machine_params(&MachineConfig::small(4, 2));
        let err = CalibrationTable::new(100_000)
            .answer(&params, "Fib", "ws/spm-stack/spm-q", "tiny")
            .unwrap_err();
        assert!(err.contains("no calibration"), "{err}");
        assert!(err.contains("Fib / ws/spm-stack/spm-q @ tiny"), "{err}");
        let err = calibration(0)
            .answer(&params, "Fib", "ws/spm-stack/spm-q", "small")
            .unwrap_err();
        assert!(err.contains("no calibration"), "wrong scale: {err}");

        let err = calibration(400_000)
            .answer(&params, "Fib", "ws/spm-stack/spm-q", "tiny")
            .unwrap_err();
        assert!(err.contains("out of bound"), "{err}");
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
