//! The two fidelities of the Table-1 sweep, pinned from the harness
//! side:
//!
//! 1. `table1_cells` without a calibration table is the cycle engine,
//!    untouched — the committed golden numbers reproduce
//!    *byte-for-byte*.
//! 2. With a table, every cell is `CalibrationTable::answer` for its
//!    family and nothing runs; the answer is a pure function of
//!    (machine, calibration): deterministic across calls, and monotone
//!    non-increasing in core count for static-loop demands
//!    (`span_hop == 0` — the property `mosaic-model`'s module docs
//!    promise).

use mosaic_bench::{sweep, GoldenFile};
use mosaic_model::{CalFamily, CalibrationTable, MachineParams, WorkloadDemand, PPM};
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::{machine_params, MachineConfig};
use mosaic_workloads::{Benchmark, Category, RunOutcome, Scale};
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
fn table1_cells_reproduce_committed_goldens() {
    let committed_text = committed_table1_tiny();
    let committed = GoldenFile::parse(&committed_text).expect("committed golden parses");
    // Sweep-pool budget: one simulation is one host thread.
    let jobs = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let machine = MachineConfig::small(8, 4);
    let cells = sweep::table1_cells(sweep::table1_benches(Scale::Tiny, ""), None, "tiny");
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

/// A benchmark the analytic tier must answer *without* running.
struct NeverRun;

impl Benchmark for NeverRun {
    fn name(&self) -> String {
        "Synthetic".into()
    }
    fn category(&self) -> Category {
        Category::StaticBalanced
    }
    fn run(&self, _machine: MachineConfig, _runtime: RuntimeConfig) -> RunOutcome {
        panic!("the analytic tier must never reach the cycle engine");
    }
}

/// A perfectly calibrated table covering `Synthetic` under every
/// Table-1 config with the same demand.
fn table_for(demand: WorkloadDemand) -> CalibrationTable {
    let mut t = CalibrationTable::new(100_000);
    for (config, _) in RuntimeConfig::table1_sweep() {
        t.families.push(CalFamily {
            workload: "Synthetic".into(),
            config: config.into(),
            scale: "tiny".into(),
            demand: demand.clone(),
            points: Vec::new(),
            correction_ppm: PPM,
            max_err_ppm: 0,
        });
    }
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

#[test]
fn analytic_cells_are_the_tables_answers_and_never_run() {
    let table = Arc::new(table_for(static_loop_demand(
        50_000,
        (1_000, 2_000, 3_000),
        4_000,
        5_000,
        600,
    )));
    let machine = MachineConfig::small(4, 2);
    let cells = sweep::table1_cells(vec![Box::new(NeverRun)], Some(table.clone()), "tiny");
    let (results, _) = sweep::run(&cells, 1, |_| machine.clone(), |_| {});
    assert_eq!(results.len(), RuntimeConfig::table1_sweep().len());
    for r in &results {
        let answer = table
            .answer(&machine_params(&machine), "Synthetic", &r.config, "tiny")
            .unwrap();
        assert_eq!((r.out.cycles, r.out.instructions), answer);
        assert!(r.out.verified, "analytic answers always verify");
        assert!(r.out.profile.is_none());
        assert!(r.out.log.contains(" cycles "), "{}", r.out.log);
        assert!(r.out.log.trim_end().ends_with("ok"), "{}", r.out.log);
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
        let table = table_for(demand);
        let answer = |params: &MachineParams| table.answer(params, "Synthetic", "ws/spm-stack/spm-q", "tiny");
        let mut previous: Option<u64> = None;
        for (cols, rows) in [(2u16, 2u16), (4, 2), (4, 4), (8, 4)] {
            let params = machine_params(&MachineConfig::small(cols, rows));
            let (cycles, instructions) = answer(&params).unwrap();
            prop_assert_eq!(
                answer(&params).unwrap(),
                (cycles, instructions),
                "nondeterministic at {}x{}", cols, rows
            );
            if let Some(prev) = previous {
                prop_assert!(
                    cycles <= prev,
                    "static-loop estimate grew with cores at {}x{}: {} > {}",
                    cols, rows, cycles, prev
                );
            }
            previous = Some(cycles);
        }
    }
}
