//! Tests of the harness plumbing itself: the sweep driver, table
//! rendering, and figure helpers produce consistent artifacts.

use mosaic_bench::sweep::{self, CellResult, SweepTiming};
use mosaic_bench::{GoldenFile, Table};
use mosaic_runtime::RuntimeConfig;
use mosaic_sim::MachineConfig;
use mosaic_workloads::{fib::Fib, matmul::MatMul, Benchmark};

fn fib() -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(Fib { n: 8 })]
}

fn matmul() -> Vec<Box<dyn Benchmark>> {
    vec![Box::new(MatMul { n: 16, seed: 1 })]
}

/// The Table-1 sweep of `benches` on a 2x2 machine, cycle-accurately.
fn run_sweep(benches: Vec<Box<dyn Benchmark>>, jobs: usize) -> (Vec<CellResult>, SweepTiming) {
    let machine = MachineConfig::small(2, 2);
    let cells = sweep::table1_cells(benches, None, "tiny");
    sweep::run(&cells, jobs, |_| machine.clone(), |_| {})
}

#[test]
fn sweep_runs_all_configs_and_skips_missing_baselines() {
    let (results, _) = run_sweep(fib(), 1);
    let rows = sweep::table1_rows(&fib(), &results);
    assert_eq!(rows.len(), 1);
    let row = &rows[0];
    assert!(!row.has_static_baseline, "Fib has no static baseline");
    assert_eq!(row.results.len(), RuntimeConfig::table1_sweep().len());
    // Static slots empty, WS slots filled and verified.
    assert_eq!(row.results.iter().filter(|r| r.is_none()).count(), 2);
    for r in row.results.iter().flatten() {
        assert!(r.out.verified, "{} failed", r.config);
        assert!(r.out.cycles > 0 && r.out.instructions > 0);
        assert!(r.out.profile.is_none(), "{} profiled unasked", r.config);
    }
    assert!(row.static_baseline_cycles().is_none());
    assert!(row.cycles_of("ws/spm-stack/spm-q").is_some());
}

#[test]
fn profile_rides_into_every_table1_cell() {
    let mut machine = MachineConfig::small(2, 2);
    machine.profile = true;
    let cells = sweep::table1_cells(fib(), None, "tiny");
    let (results, _) = sweep::run(&cells, 1, |_| machine.clone(), |_| {});
    for r in &results {
        let p = r.out.profile.as_ref().expect("profiler was enabled");
        assert_eq!(p.accounting_error(), None, "{}", r.config);
    }
}

#[test]
fn sweep_rows_expose_baseline_for_loop_workloads() {
    let (results, _) = run_sweep(matmul(), 1);
    let rows = sweep::table1_rows(&matmul(), &results);
    assert!(rows[0].static_baseline_cycles().unwrap() > 0);
}

#[test]
fn parallel_sweep_matches_serial_exactly() {
    // The core guarantee of the job pool: `--jobs N` produces results
    // indistinguishable from a serial run, cell for cell.
    let benches = || matmul().into_iter().chain(fib()).collect();
    let (serial, t1) = run_sweep(benches(), 1);
    let (parallel, t4) = run_sweep(benches(), 4);
    assert_eq!(t1.jobs, 1);
    assert_eq!(t4.jobs, 4);
    assert_eq!(t1.cells, t4.cells);
    assert_eq!(serial, parallel, "jobs=4 diverged from jobs=1");
}

#[test]
fn run_cells_collects_in_order_for_any_job_count() {
    for jobs in [1usize, 2, 3, 8, 32] {
        let mut seen = Vec::new();
        sweep::run_cells(
            17,
            jobs,
            |i| i * i,
            |i, v| {
                assert_eq!(v, i * i);
                seen.push(i);
            },
        );
        let expect: Vec<usize> = (0..17).collect();
        assert_eq!(seen, expect, "out-of-order collection at jobs={jobs}");
    }
}

#[test]
fn golden_round_trips_through_json() {
    // Serialize a real sweep to golden JSON, parse it back, and verify
    // the parsed file compares clean against the original.
    let (results, _) = run_sweep(matmul(), 1);
    let mut golden = GoldenFile::new("harness_test", "tiny", 2, 2);
    golden.push_results(&results);
    assert!(!golden.cells.is_empty());
    let json = golden.to_json();
    let parsed = GoldenFile::parse(&json).expect("golden JSON must parse");
    assert_eq!(parsed.cells.len(), golden.cells.len());
    assert!(
        golden.diff(&parsed).is_empty(),
        "round-tripped golden differs"
    );
}

#[test]
fn table_renders_all_rows() {
    let mut t = Table::new(&["a", "b", "c"]);
    for i in 0..5 {
        t.row(vec![format!("r{i}"), format!("{}", i * 10), "x".into()]);
    }
    let s = t.render();
    assert_eq!(s.lines().count(), 7); // header + rule + 5 rows
    assert!(s.contains("r4"));
}
