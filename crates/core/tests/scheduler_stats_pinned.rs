//! Pins cycles, instructions and every `WorkerStats` total across the
//! scheduler-policy matrix: work-stealing under each victim policy and
//! steal amount, work-dealing, and the static baseline, on a recursive
//! and a flat `parallel_for` workload at two mesh sizes.
//!
//! The goldens gate only cycles and instructions; these pins also catch
//! a refactor that moves a steal, deal, lock retry or inline execution
//! without moving the clock. Re-pin only for an intended behaviour
//! change: on a mismatch the test prints the table the current code
//! produces.

use mosaic_runtime::{Addr, Mosaic, RuntimeConfig, StealAmount, TaskCtx, VictimPolicy};
use mosaic_sim::MachineConfig;
use std::cell::Cell;
use std::rc::Rc;

fn fib(ctx: &mut TaskCtx<'_>, n: u32) -> u32 {
    if n < 2 {
        ctx.compute(2, 2);
        return n;
    }
    let (x, y) = ctx.parallel_invoke(move |ctx| fib(ctx, n - 1), move |ctx| fib(ctx, n - 2));
    ctx.compute(1, 1);
    x + y
}

/// 200 root children (more than the 124-entry SPM queue holds, so some
/// inline), each a recursive `fib(7)`.
fn recursive(ctx: &mut TaskCtx<'_>, _out: Addr) -> u32 {
    let total = Rc::new(Cell::new(0));
    for _ in 0..200 {
        let t = total.clone();
        ctx.spawn(move |ctx| {
            let v = fib(ctx, 7);
            t.set(t.get() + v);
        });
    }
    ctx.wait();
    total.get()
}

/// A flat loop of uneven iterations writing its index to DRAM.
fn flat(ctx: &mut TaskCtx<'_>, out: Addr) -> u32 {
    ctx.parallel_for(0, 512, 2, 2, move |ctx, i| {
        ctx.compute(4, 4 + u64::from(i % 7) * 9);
        ctx.store(out.offset_words(u64::from(i)), i);
    });
    (0..512).map(|i| ctx.load(out.offset_words(i))).sum()
}

fn configs() -> Vec<(String, RuntimeConfig)> {
    let victims = [
        ("random", VictimPolicy::Random),
        ("round-robin", VictimPolicy::RoundRobin),
        ("nearest", VictimPolicy::Nearest),
    ];
    let amounts = [("one", StealAmount::One), ("half", StealAmount::Half)];
    let mut out = Vec::new();
    for (vn, victim) in victims {
        for (an, steal_amount) in amounts {
            out.push((
                format!("ws/{vn}/{an}"),
                RuntimeConfig {
                    victim,
                    steal_amount,
                    ..RuntimeConfig::work_stealing()
                },
            ));
        }
    }
    out.push(("dealing".into(), RuntimeConfig::work_dealing()));
    out.push((
        "static".into(),
        RuntimeConfig::static_loops(mosaic_runtime::Placement::Spm),
    ));
    out
}

type Workload = fn(&mut TaskCtx<'_>, Addr) -> u32;

fn current_pins() -> Vec<String> {
    let workloads: [(&str, Workload, u32); 2] = [
        ("recursive", recursive, 200 * 13),
        ("flat", flat, (0..512).sum()),
    ];
    let mut lines = Vec::new();
    for (cols, rows) in [(4u16, 2u16), (8, 4)] {
        for (wname, work, expect) in workloads {
            for (cname, cfg) in configs() {
                let result = Rc::new(Cell::new(0));
                let r = result.clone();
                let mut sys = Mosaic::new(MachineConfig::small(cols, rows), cfg);
                let out = sys.machine_mut().dram_alloc_words(512);
                let report = sys.run(move |ctx| r.set(work(ctx, out)));
                assert_eq!(result.get(), expect, "{cname} {wname} {cols}x{rows}");
                let t = report.totals();
                lines.push(format!(
                    "{cols}x{rows} {wname} {cname}: cycles={} instr={} spawns={} exec={} \
                     inline={} steals={} deals={} failed={} retries={} overflows={} \
                     stack={} qdepth={}",
                    report.cycles,
                    report.instructions(),
                    t.spawns,
                    t.tasks_executed,
                    t.inline_executions,
                    t.steals,
                    t.deals,
                    t.failed_steals,
                    t.lock_retries,
                    t.stack_overflows,
                    t.max_stack_words,
                    t.max_queue_depth,
                ));
            }
        }
    }
    lines
}

const PINNED: &[&str] = &[
    "4x2 recursive ws/random/one: cycles=80355 instr=408106 spawns=4200 exec=4200 inline=114 steals=623 deals=0 failed=725 retries=1279 overflows=0 stack=689 qdepth=124",
    "4x2 recursive ws/random/half: cycles=67875 instr=393567 spawns=4200 exec=4200 inline=40 steals=106 deals=0 failed=137 retries=413 overflows=0 stack=843 qdepth=124",
    "4x2 recursive ws/round-robin/one: cycles=78937 instr=407341 spawns=4200 exec=4200 inline=153 steals=585 deals=0 failed=739 retries=1324 overflows=0 stack=689 qdepth=124",
    "4x2 recursive ws/round-robin/half: cycles=67140 instr=393581 spawns=4200 exec=4200 inline=0 steals=95 deals=0 failed=116 retries=381 overflows=0 stack=710 qdepth=123",
    "4x2 recursive ws/nearest/one: cycles=78886 instr=407418 spawns=4200 exec=4200 inline=121 steals=626 deals=0 failed=685 retries=1332 overflows=0 stack=710 qdepth=124",
    "4x2 recursive ws/nearest/half: cycles=66898 instr=393151 spawns=4200 exec=4200 inline=0 steals=81 deals=0 failed=108 retries=331 overflows=0 stack=689 qdepth=120",
    "4x2 recursive dealing: cycles=202528 instr=612763 spawns=4200 exec=4200 inline=15 steals=0 deals=1249 failed=0 retries=36 overflows=2586 stack=3454 qdepth=0",
    "4x2 recursive static: cycles=137772 instr=147244 spawns=200 exec=200 inline=76 steals=0 deals=0 failed=0 retries=0 overflows=0 stack=617 qdepth=124",
    "4x2 flat ws/random/one: cycles=14754 instr=33906 spawns=255 exec=255 inline=0 steals=33 deals=0 failed=350 retries=43 overflows=0 stack=99 qdepth=7",
    "4x2 flat ws/random/half: cycles=14909 instr=34131 spawns=255 exec=255 inline=0 steals=41 deals=0 failed=328 retries=70 overflows=0 stack=129 qdepth=8",
    "4x2 flat ws/round-robin/one: cycles=13857 instr=32723 spawns=255 exec=255 inline=0 steals=25 deals=0 failed=296 retries=38 overflows=0 stack=107 qdepth=6",
    "4x2 flat ws/round-robin/half: cycles=15052 instr=35358 spawns=255 exec=255 inline=0 steals=64 deals=0 failed=350 retries=167 overflows=0 stack=107 qdepth=8",
    "4x2 flat ws/nearest/one: cycles=13718 instr=32354 spawns=255 exec=255 inline=0 steals=32 deals=0 failed=277 retries=28 overflows=0 stack=135 qdepth=7",
    "4x2 flat ws/nearest/half: cycles=14860 instr=34644 spawns=255 exec=255 inline=0 steals=55 deals=0 failed=332 retries=101 overflows=0 stack=112 qdepth=9",
    "4x2 flat dealing: cycles=21510 instr=53169 spawns=255 exec=255 inline=0 steals=0 deals=71 failed=0 retries=2 overflows=0 stack=217 qdepth=0",
    "4x2 flat static: cycles=8080 instr=5429 spawns=0 exec=0 inline=0 steals=0 deals=0 failed=0 retries=0 overflows=0 stack=7 qdepth=0",
    "8x4 recursive ws/random/one: cycles=50569 instr=514394 spawns=4200 exec=4200 inline=20 steals=1242 deals=0 failed=4952 retries=4545 overflows=0 stack=689 qdepth=124",
    "8x4 recursive ws/random/half: cycles=25713 instr=426702 spawns=4200 exec=4200 inline=0 steals=493 deals=0 failed=905 retries=2375 overflows=0 stack=717 qdepth=56",
    "8x4 recursive ws/round-robin/one: cycles=53059 instr=513890 spawns=4200 exec=4200 inline=19 steals=1010 deals=0 failed=5084 retries=4478 overflows=0 stack=689 qdepth=124",
    "8x4 recursive ws/round-robin/half: cycles=29271 instr=442243 spawns=4200 exec=4200 inline=0 steals=626 deals=0 failed=1361 retries=3771 overflows=0 stack=710 qdepth=58",
    "8x4 recursive ws/nearest/one: cycles=49136 instr=514872 spawns=4200 exec=4200 inline=13 steals=1278 deals=0 failed=4902 retries=4777 overflows=0 stack=689 qdepth=124",
    "8x4 recursive ws/nearest/half: cycles=28178 instr=435744 spawns=4200 exec=4200 inline=0 steals=561 deals=0 failed=1257 retries=2768 overflows=0 stack=801 qdepth=72",
    "8x4 recursive dealing: cycles=99722 instr=956916 spawns=4200 exec=4200 inline=0 steals=0 deals=1570 failed=0 retries=120 overflows=865 stack=2796 qdepth=0",
    "8x4 recursive static: cycles=137783 instr=244540 spawns=200 exec=200 inline=76 steals=0 deals=0 failed=0 retries=0 overflows=0 stack=617 qdepth=124",
    "8x4 flat ws/random/one: cycles=12542 instr=55542 spawns=255 exec=255 inline=0 steals=70 deals=0 failed=1381 retries=144 overflows=0 stack=73 qdepth=8",
    "8x4 flat ws/random/half: cycles=15806 instr=68920 spawns=255 exec=255 inline=0 steals=114 deals=0 failed=1901 retries=517 overflows=0 stack=110 qdepth=8",
    "8x4 flat ws/round-robin/one: cycles=12739 instr=56581 spawns=255 exec=255 inline=0 steals=74 deals=0 failed=1418 retries=199 overflows=0 stack=79 qdepth=6",
    "8x4 flat ws/round-robin/half: cycles=13784 instr=60086 spawns=255 exec=255 inline=0 steals=88 deals=0 failed=1499 retries=468 overflows=0 stack=87 qdepth=6",
    "8x4 flat ws/nearest/one: cycles=14231 instr=62802 spawns=255 exec=255 inline=0 steals=98 deals=0 failed=1704 retries=260 overflows=0 stack=83 qdepth=7",
    "8x4 flat ws/nearest/half: cycles=13829 instr=61806 spawns=255 exec=255 inline=0 steals=102 deals=0 failed=1584 retries=409 overflows=0 stack=97 qdepth=7",
    "8x4 flat dealing: cycles=22251 instr=177339 spawns=255 exec=255 inline=0 steals=0 deals=84 failed=0 retries=4 overflows=0 stack=203 qdepth=0",
    "8x4 flat static: cycles=8689 instr=11775 spawns=0 exec=0 inline=0 steals=0 deals=0 failed=0 retries=0 overflows=0 stack=7 qdepth=0",
];

#[test]
fn worker_stats_pinned_across_the_policy_matrix() {
    let got = current_pins();
    if got != PINNED {
        let table: String = got.iter().map(|l| format!("    \"{l}\",\n")).collect();
        panic!("scheduler stats moved; the current code produces:\n{table}");
    }
}
