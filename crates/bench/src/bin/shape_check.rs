//! Shape check: does the model reproduce the paper's orderings?
use mosaic_bench::{experiment, Options};
use mosaic_runtime::RuntimeConfig;
use mosaic_workloads::{fib::Fib, pagerank, uts, Benchmark, Scale};

fn main() {
    let opts = Options::parse(Scale::Small, 8, 4); // 32 cores
    experiment::refuse_unsupported("shape_check", false, false, &opts)
        .unwrap_or_else(|e| panic!("{e}"));
    let mcfg = opts.machine();
    let scale = opts.scale;
    println!("=== Fib(12), 4 WS variants (paper Fig 7 ordering) ===");
    for (label, cfg) in RuntimeConfig::table1_sweep() {
        if label.starts_with("static") {
            continue;
        }
        let out = Fib { n: 12 }.run(mcfg.clone(), cfg);
        out.assert_verified();
        let t = out.report.totals();
        println!(
            "{label:24} cycles={:>9} DI={:>9} steals={} fails={} ovf={}",
            out.report.cycles,
            out.report.instructions(),
            t.steals,
            t.failed_steals,
            t.stack_overflows
        );
    }
    println!("=== UTS-t3 ({}) static vs WS ===", opts.scale.name());
    let u = &uts::instances(scale)[1];
    for (label, cfg) in RuntimeConfig::table1_sweep() {
        let out = u.run(mcfg.clone(), cfg);
        out.assert_verified();
        println!(
            "{label:24} cycles={:>9} DI={:>9}",
            out.report.cycles,
            out.report.instructions()
        );
    }
    println!(
        "=== PageRank-email ({}) static vs WS ===",
        opts.scale.name()
    );
    let pr = &pagerank::instances(scale)[1];
    for (label, cfg) in RuntimeConfig::table1_sweep() {
        let out = pr.run(mcfg.clone(), cfg);
        out.assert_verified();
        println!(
            "{label:24} cycles={:>9} DI={:>9}",
            out.report.cycles,
            out.report.instructions()
        );
    }
}
