//! The dual-fidelity seam's two contracts, pinned from the harness
//! side:
//!
//! 1. `CycleBackend` is a transparent pass-through — the committed
//!    golden numbers reproduce *byte-for-byte* through the seam, so
//!    threading a `Backend` through the harnesses changed nothing
//!    about the cycle-accurate truth.
//! 2. `AnalyticBackend` is a pure function of (machine, calibration):
//!    deterministic across calls, and monotone non-increasing in core
//!    count for static-loop demands (`span_hop == 0` — the property
//!    `mosaic-model`'s module docs promise the backend pins down).

use mosaic_bench::{sweep, GoldenFile};
use mosaic_model::{CalFamily, CalibrationTable, WorkloadDemand, PPM};
use mosaic_sim::backend::{
    AnalyticBackend, Backend, BackendJob, CycleBackend, CycleOutcome, FamilyKey,
};
use mosaic_sim::MachineConfig;
use mosaic_workloads::Scale;
use proptest::prelude::*;
use std::sync::Arc;

/// The committed golden for the table1 tiny sweep at the default 8x4
/// shape — the exact bytes `--check-golden` diffs against.
fn committed_table1_tiny() -> String {
    let path = format!(
        "{}/../../results/golden/table1_tiny_8x4.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).expect("committed golden table1_tiny_8x4.json")
}

#[test]
fn cycle_backend_reproduces_committed_goldens() {
    let committed_text = committed_table1_tiny();
    let committed = GoldenFile::parse(&committed_text).expect("committed golden parses");
    // Sweep-pool budget: one simulation is one host thread.
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let machine = MachineConfig::small(8, 4);
    let cells = sweep::table1_cells(
        sweep::table1_benches(Scale::Tiny, ""),
        Arc::new(CycleBackend),
        "tiny",
    );
    let (results, _) = sweep::run(&cells, jobs, |_| machine.clone(), |_| {});
    let mut fresh = GoldenFile::new("table1", "tiny", 8, 4);
    fresh.push_results(&results);
    // Cell-level diff first: on failure it names the drifted cell
    // instead of dumping two JSON blobs.
    let drift = committed.diff(&fresh);
    assert!(
        drift.is_empty(),
        "cells drifted from committed golden: {drift:?}"
    );
    assert_eq!(
        fresh.to_json(),
        committed_text,
        "serialized golden is not byte-identical"
    );
}

// ---------------------------------------------------------------- //

/// A job the analytic backend must answer *without* executing.
struct NeverExecute;

impl BackendJob for NeverExecute {
    fn family(&self) -> FamilyKey {
        FamilyKey {
            workload: "Synthetic".into(),
            config: "ws/spm-stack/spm-q".into(),
            scale: "tiny".into(),
        }
    }
    fn execute(&self, _machine: &MachineConfig) -> CycleOutcome {
        panic!("the analytic backend must never reach the cycle engine");
    }
}

/// Wrap a synthetic demand in a perfectly calibrated single-family
/// table covering [`NeverExecute`]'s family.
fn table_for(demand: WorkloadDemand) -> CalibrationTable {
    let mut t = CalibrationTable::new(100_000);
    t.families.push(CalFamily {
        workload: "Synthetic".into(),
        config: "ws/spm-stack/spm-q".into(),
        scale: "tiny".into(),
        demand,
        points: Vec::new(),
        correction_ppm: PPM,
        max_err_ppm: 0,
    });
    t
}

/// Static-loop demands: no remote-span growth (`span_hop == 0`), no
/// dynamic-runtime overhead — the regime where more cores can only
/// help. Follows the model's own monotonicity precedent
/// (`estimate.rs` zeroes `steal_search`/`queue_lock` for the same
/// reason).
fn static_loop_demand(
    compute: u64,
    stalls: (u64, u64, u64),
    llc_accesses: u64,
    link_flits: u64,
    span: u64,
) -> WorkloadDemand {
    let (spm_stall, llc_stall, dram_stall) = stalls;
    WorkloadDemand {
        base_cols: 2,
        base_rows: 2,
        base_elapsed: compute / 4 + span,
        instructions: compute / 2,
        compute,
        spm_stall,
        llc_stall,
        dram_stall,
        steal_search: 0,
        queue_lock: 0,
        llc_accesses,
        link_flits,
        span,
        span_hop: 0,
        ..WorkloadDemand::default()
    }
}

proptest! {
    // Each case runs the model across four mesh shapes; keep the
    // shapes small because deriving machine parameters allocates the
    // whole NoC.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn analytic_backend_is_deterministic_and_monotone_in_core_count(
        compute in 1_000u64..200_000,
        stalls in (0u64..50_000, 0u64..50_000, 0u64..50_000),
        llc_accesses in 0u64..20_000,
        link_flits in 0u64..20_000,
        span in 0u64..5_000,
    ) {
        let demand = static_loop_demand(compute, stalls, llc_accesses, link_flits, span);
        let backend = AnalyticBackend::new(table_for(demand));
        let mut previous: Option<u64> = None;
        for (cols, rows) in [(2u16, 2u16), (4, 2), (4, 4), (8, 4)] {
            let machine = MachineConfig::small(cols, rows);
            let a = backend.run_cell(&machine, &NeverExecute).unwrap();
            let b = backend.run_cell(&machine, &NeverExecute).unwrap();
            prop_assert_eq!(a.cycles, b.cycles, "nondeterministic at {}x{}", cols, rows);
            prop_assert_eq!(a.instructions, b.instructions);
            prop_assert_eq!(a.estimate.clone(), b.estimate.clone());
            prop_assert!(a.verified, "analytic answers always verify");
            if let Some(prev) = previous {
                prop_assert!(
                    a.cycles <= prev,
                    "static-loop estimate grew with cores at {}x{}: {} > {}",
                    cols, rows, a.cycles, prev
                );
            }
            previous = Some(a.cycles);
        }
    }
}
