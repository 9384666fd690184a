//! Integration tests for the work-stealing runtime's observable
//! behaviour: stealing direction, result plumbing, stats, and stress
//! patterns.

use mosaic_runtime::{Mosaic, RuntimeConfig};
use mosaic_sim::MachineConfig;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn stolen_tasks_execute_on_other_cores() {
    // Spawn long tasks from core 0; record executing cores.
    let cores_seen: Arc<Vec<AtomicUsize>> = Arc::new((0..8).map(|_| AtomicUsize::new(0)).collect());
    let cs = cores_seen.clone();
    let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
    let report = sys.run(move |ctx| {
        for _ in 0..32 {
            let cs = cs.clone();
            ctx.spawn(move |ctx| {
                cs[ctx.core_id()].fetch_add(1, Ordering::Relaxed);
                ctx.compute(100, 400);
            });
        }
        ctx.wait();
    });
    let active = cores_seen
        .iter()
        .filter(|a| a.load(Ordering::Relaxed) > 0)
        .count();
    assert!(
        active >= 4,
        "expected work to spread, only {active} cores ran tasks"
    );
    assert!(report.totals().steals > 0);
}

#[test]
fn thief_steals_oldest_task_first() {
    // FIFO stealing: the first-spawned (largest in real trees) task is
    // taken first by thieves. We observe that the first-spawned task
    // frequently runs on a non-spawning core while the last-spawned
    // (LIFO pop) runs on core 0.
    let first_core = Arc::new(AtomicUsize::new(usize::MAX));
    let last_core = Arc::new(AtomicUsize::new(usize::MAX));
    let (f, l) = (first_core.clone(), last_core.clone());
    let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
    sys.run(move |ctx| {
        let f = f.clone();
        ctx.spawn(move |ctx| {
            f.store(ctx.core_id(), Ordering::Relaxed);
            ctx.compute(10, 50);
        });
        for _ in 0..6 {
            ctx.spawn(|ctx| ctx.compute(10, 50));
        }
        let l = l.clone();
        ctx.spawn(move |ctx| {
            l.store(ctx.core_id(), Ordering::Relaxed);
            ctx.compute(10, 50);
        });
        // Give thieves a head start before popping locally.
        ctx.compute(10, 2000);
        ctx.wait();
    });
    let first = first_core.load(Ordering::Relaxed);
    let last = last_core.load(Ordering::Relaxed);
    assert_ne!(first, usize::MAX);
    assert_ne!(last, usize::MAX);
    // With a long pause, the oldest task is all but guaranteed stolen.
    assert_ne!(first, 0, "oldest task should be stolen away from core 0");
}

#[test]
fn invoke_returns_both_results_through_steals() {
    let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
    let out = Arc::new(AtomicU64::new(0));
    let o = out.clone();
    sys.run(move |ctx| {
        let (a, b) = ctx.parallel_invoke(
            |ctx| {
                ctx.compute(50, 500);
                7u64
            },
            |ctx| {
                ctx.compute(50, 500);
                35u64
            },
        );
        o.store(a + b, Ordering::Relaxed);
    });
    assert_eq!(out.load(Ordering::Relaxed), 42);
}

#[test]
fn deeply_nested_reduce_stress() {
    // A reduce of reduces of reduces — exercises nested wait frames
    // and record lifetimes under stealing.
    let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
    let out = Arc::new(AtomicU64::new(0));
    let o = out.clone();
    sys.run(move |ctx| {
        let total = ctx.parallel_reduce(
            0,
            8,
            1,
            2,
            0u64,
            |ctx, i| {
                ctx.parallel_reduce(
                    0,
                    8,
                    1,
                    2,
                    0u64,
                    move |ctx, j| {
                        ctx.parallel_reduce(
                            0,
                            4,
                            1,
                            2,
                            0u64,
                            move |ctx, k| {
                                ctx.compute(2, 2);
                                (i as u64) * 32 + (j as u64) * 4 + k as u64
                            },
                            |a, b| a + b,
                        )
                    },
                    |a, b| a + b,
                )
            },
            |a, b| a + b,
        );
        o.store(total, Ordering::Relaxed);
    });
    assert_eq!(out.load(Ordering::Relaxed), (0..256u64).sum());
}

#[test]
fn worker_stats_are_consistent() {
    let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
    let report = sys.run(move |ctx| {
        ctx.parallel_for(0, 200, 4, 2, |ctx, _| ctx.compute(10, 10));
    });
    let t = report.totals();
    // Every spawned task is executed exactly once (registry drained is
    // asserted inside run()); executed = spawned when nothing inlined.
    assert_eq!(t.tasks_executed, t.spawns + t.inline_executions);
    assert!(t.steals <= t.tasks_executed);
    assert_eq!(report.worker_stats.len(), 8);
}

#[test]
fn single_core_work_stealing_degenerates_gracefully() {
    let sys = Mosaic::new(MachineConfig::small(1, 1), RuntimeConfig::work_stealing());
    let out = Arc::new(AtomicU64::new(0));
    let o = out.clone();
    let report = sys.run(move |ctx| {
        let s = ctx.parallel_reduce(0, 50, 4, 2, 0u64, |_ctx, i| i as u64, |a, b| a + b);
        o.store(s, Ordering::Relaxed);
    });
    assert_eq!(out.load(Ordering::Relaxed), 1225);
    assert_eq!(report.totals().steals, 0, "nobody to steal from");
}

#[test]
fn spawn_heavy_fanout_bounded_queue() {
    // 500 children from one task exceed the 124-entry SPM queue: the
    // excess must inline, and all children must run.
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    let sys = Mosaic::new(MachineConfig::small(2, 2), RuntimeConfig::work_stealing());
    let report = sys.run(move |ctx| {
        for _ in 0..500 {
            let h = h.clone();
            ctx.spawn(move |_ctx| {
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        ctx.wait();
    });
    assert_eq!(hits.load(Ordering::Relaxed), 500);
    assert!(report.totals().inline_executions > 0);
}

#[test]
fn steal_half_policy_is_correct_and_steals_less_often() {
    use mosaic_runtime::StealAmount;
    let run = |amount: StealAmount| {
        let cfg = RuntimeConfig {
            steal_amount: amount,
            ..RuntimeConfig::work_stealing()
        };
        let hits = Arc::new(AtomicU64::new(0));
        let h = hits.clone();
        let sys = Mosaic::new(MachineConfig::small(4, 2), cfg);
        let report = sys.run(move |ctx| {
            for _ in 0..100 {
                let h = h.clone();
                ctx.spawn(move |ctx| {
                    ctx.compute(20, 200);
                    h.fetch_add(1, Ordering::Relaxed);
                });
            }
            ctx.wait();
        });
        (hits.load(Ordering::Relaxed), report.totals().steals)
    };
    let (done_one, _steals_one) = run(StealAmount::One);
    let (done_half, steals_half) = run(StealAmount::Half);
    assert_eq!(done_one, 100);
    assert_eq!(done_half, 100);
    assert!(steals_half > 0);
}

#[test]
fn nearest_victim_policy_is_correct() {
    use mosaic_runtime::VictimPolicy;
    let cfg = RuntimeConfig {
        victim: VictimPolicy::Nearest,
        ..RuntimeConfig::work_stealing()
    };
    let hits = Arc::new(AtomicU64::new(0));
    let h = hits.clone();
    let sys = Mosaic::new(MachineConfig::small(4, 2), cfg);
    let report = sys.run(move |ctx| {
        for _ in 0..64 {
            let h = h.clone();
            ctx.spawn(move |ctx| {
                ctx.compute(20, 300);
                h.fetch_add(1, Ordering::Relaxed);
            });
        }
        ctx.wait();
    });
    assert_eq!(hits.load(Ordering::Relaxed), 64);
    assert!(report.totals().steals > 0, "nearest policy must find work");
}

#[test]
fn utilization_reporting_is_sane() {
    let sys = Mosaic::new(MachineConfig::small(2, 2), RuntimeConfig::work_stealing());
    let report = sys.run(|ctx| {
        ctx.parallel_for(0, 64, 4, 2, |ctx, _| ctx.compute(50, 50));
    });
    let u = report.utilization();
    assert_eq!(u.len(), 4);
    assert!(u.iter().all(|&x| (0.0..=1.0).contains(&x)));
    let m = report.mean_utilization();
    assert!(m > 0.0 && m <= 1.0, "mean utilization {m}");
}

#[test]
fn tracing_records_tasks_and_steals() {
    let cfg = RuntimeConfig {
        trace: true,
        ..RuntimeConfig::work_stealing()
    };
    let sys = Mosaic::new(MachineConfig::small(4, 2), cfg);
    let report = sys.run(|ctx| {
        ctx.mark("begin");
        ctx.parallel_for(0, 64, 4, 2, |ctx, _| ctx.compute(30, 120));
    });
    use mosaic_runtime::TraceEvent;
    let tasks = report
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Task { .. }))
        .count() as u64;
    let steals = report
        .trace
        .iter()
        .filter(|e| matches!(e, TraceEvent::Steal { .. }))
        .count() as u64;
    let t = report.totals();
    assert_eq!(tasks, t.tasks_executed);
    assert_eq!(steals, t.steals);
    assert!(report
        .trace
        .iter()
        .any(|e| matches!(e, TraceEvent::Mark { label, .. } if label == "begin")));
    // Spans are well-formed and within the run.
    for e in &report.trace {
        if let TraceEvent::Task { start, end, .. } = e {
            assert!(start <= end && *end <= report.cycles);
        }
    }
    // And the export is non-trivial.
    let json = mosaic_runtime::trace::to_chrome_json(&report.trace);
    assert!(json.len() > 100);
}

#[test]
fn tracing_off_by_default_records_nothing() {
    let sys = Mosaic::new(MachineConfig::small(2, 2), RuntimeConfig::work_stealing());
    let report = sys.run(|ctx| {
        ctx.parallel_for(0, 16, 2, 2, |ctx, _| ctx.compute(5, 5));
    });
    assert!(report.trace.is_empty());
}

#[test]
fn task_bodies_may_capture_thread_local_host_state() {
    // Every core is a coroutine on the caller's thread, so `main`, a
    // spawned task, a loop body and a reduce map can all share one
    // `Rc<RefCell<_>>` — no `Send`, no lock — even when stolen.
    use std::cell::RefCell;
    use std::rc::Rc;
    let log: Rc<RefCell<Vec<u32>>> = Rc::default();
    let (in_main, in_task, in_loop, in_map) = (log.clone(), log.clone(), log.clone(), log.clone());
    let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
    sys.run(move |ctx| {
        in_main.borrow_mut().push(1);
        ctx.spawn(move |ctx| {
            ctx.compute(10, 40);
            in_task.borrow_mut().push(2);
        });
        ctx.wait();
        ctx.parallel_for(0, 16, 1, 0, move |ctx, i| {
            ctx.compute(10, 40);
            in_loop.borrow_mut().push(100 + i);
        });
        let sum = ctx.parallel_reduce(
            0,
            16,
            1,
            0,
            0u32,
            move |ctx, i| {
                ctx.compute(10, 40);
                in_map.borrow_mut().push(200 + i);
                i
            },
            |a, b| a + b,
        );
        assert_eq!(sum, 120);
    });
    let mut seen = log.borrow().clone();
    seen.sort_unstable();
    let expect: Vec<u32> = [1, 2].into_iter().chain(100..116).chain(200..216).collect();
    assert_eq!(seen, expect);
}
