//! Integration tests for the static-loop baseline scheduler.

use mosaic_runtime::{Mosaic, Placement, RuntimeConfig};
use mosaic_sim::MachineConfig;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

fn static_cfg() -> RuntimeConfig {
    RuntimeConfig::static_loops(Placement::Spm)
}

#[test]
fn static_parallel_for_covers_range_across_cores() {
    let mut sys = Mosaic::new(MachineConfig::small(4, 2), static_cfg());
    let d = sys.machine_mut().dram_alloc_words(100);
    let report = sys.run(move |ctx| {
        ctx.parallel_for(0, 100, 4, 2, move |ctx, i| {
            ctx.store(d.offset_words(i as u64), i + 1);
        });
    });
    for i in 0..100u64 {
        assert_eq!(report.machine.peek(d.offset_words(i)), i as u32 + 1);
    }
}

#[test]
fn static_work_actually_distributes() {
    // Count which cores touched indices (host-side observation).
    let cores_hit = Arc::new(per_core_flags());
    let c2 = cores_hit.clone();
    let sys = Mosaic::new(MachineConfig::small(4, 2), static_cfg());
    sys.run(move |ctx| {
        ctx.parallel_for(0, 256, 8, 2, move |ctx, _i| {
            c2[ctx.core_id()].store(1, Ordering::Relaxed);
            ctx.compute(4, 4);
        });
    });
    let active: usize = cores_hit
        .iter()
        .map(|a| a.load(Ordering::Relaxed) as usize)
        .sum();
    assert_eq!(active, 8, "all 8 cores must execute a chunk");
}

fn per_core_flags() -> Vec<AtomicU32> {
    (0..8).map(|_| AtomicU32::new(0)).collect()
}

#[test]
fn static_nested_loops_run_inline() {
    // The inner loop inside a kernel must execute inline on the same
    // core (no dynamic scheduling available).
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let sys = Mosaic::new(MachineConfig::small(4, 2), static_cfg());
    sys.run(move |ctx| {
        ctx.parallel_for(0, 16, 2, 2, move |ctx, i| {
            let s3 = s2.clone();
            ctx.parallel_for(0, 10, 2, 2, move |ctx, j| {
                s3.fetch_add((i * 10 + j) as u64, Ordering::Relaxed);
                ctx.compute(1, 1);
            });
        });
    });
    assert_eq!(sum.load(Ordering::Relaxed), (0..160u64).sum());
}

#[test]
fn static_reduce_matches_fold() {
    let sys = Mosaic::new(MachineConfig::small(4, 2), static_cfg());
    let out = Arc::new(AtomicU64::new(0));
    let o = out.clone();
    sys.run(move |ctx| {
        let s = ctx.parallel_reduce(
            0,
            1000,
            8,
            2,
            0u64,
            |ctx, i| {
                ctx.compute(1, 1);
                i as u64
            },
            |a, b| a + b,
        );
        o.store(s, Ordering::Relaxed);
    });
    assert_eq!(out.load(Ordering::Relaxed), 499_500);
}

#[test]
fn static_invoke_serializes_but_computes() {
    let sys = Mosaic::new(MachineConfig::small(2, 2), static_cfg());
    let out = Arc::new(AtomicU32::new(0));
    let o = out.clone();
    sys.run(move |ctx| {
        let (a, b) = ctx.parallel_invoke(
            |ctx| {
                ctx.compute(10, 10);
                21u32
            },
            |ctx| {
                ctx.compute(10, 10);
                21u32
            },
        );
        o.store(a + b, Ordering::Relaxed);
    });
    assert_eq!(out.load(Ordering::Relaxed), 42);
}

#[test]
fn consecutive_kernels_reuse_the_mailboxes() {
    // Generation counters must keep kernels apart.
    let mut sys = Mosaic::new(MachineConfig::small(4, 2), static_cfg());
    let d = sys.machine_mut().dram_alloc_words(64);
    let report = sys.run(move |ctx| {
        for round in 0..5u32 {
            ctx.parallel_for(0, 64, 4, 2, move |ctx, i| {
                let a = d.offset_words(i as u64);
                let v = ctx.load(a);
                ctx.store(a, v + round + 1);
            });
        }
    });
    // Each index accumulated 1+2+3+4+5 = 15.
    for i in 0..64u64 {
        assert_eq!(report.machine.peek(d.offset_words(i)), 15);
    }
}

#[test]
fn static_runs_on_both_stack_placements() {
    for placement in [Placement::Dram, Placement::Spm] {
        let sys = Mosaic::new(
            MachineConfig::small(2, 2),
            RuntimeConfig::static_loops(placement),
        );
        let out = Arc::new(AtomicU64::new(0));
        let o = out.clone();
        sys.run(move |ctx| {
            let s = ctx.parallel_reduce(0, 100, 4, 2, 0u64, |_ctx, i| i as u64, |a, b| a + b);
            o.store(s, Ordering::Relaxed);
        });
        assert_eq!(out.load(Ordering::Relaxed), 4950, "{placement:?}");
    }
}
