//! The engine runs every simulated core as a coroutine on the calling
//! thread. These tests fail when that substrate is broken — a switch
//! that loses a register, a stack smaller than promised, a teardown
//! that skips destructors — rather than when a cycle count is wrong.
//! (`one_thread.rs` holds the OS-thread count check: it needs a
//! process to itself.)

use mosaic_mem::AmoOp;
use mosaic_sim::{Addr, CoreApi, Engine, Machine, MachineConfig, SimError};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

/// Non-tail recursion with a padded frame and a blocking load (two
/// switches) at every level.
fn sum_down(api: &mut CoreApi, table: Addr, depth: u64) -> u64 {
    let mut pad = [0u8; 512];
    black_box(&mut pad);
    if depth == 0 {
        return 0;
    }
    let here = api.load(table.offset_words(depth % 64)) as u64;
    let below = sum_down(api, table, depth - 1);
    black_box(&pad);
    here + below
}

#[test]
fn twenty_thousand_frames_survive_a_switch_at_every_level() {
    // 20,000 frames of more than half a KiB each is over 10 MiB of
    // stack: beyond a test thread's 2 MiB and the main thread's 8 MiB,
    // inside a core's 32 MiB.
    const DEPTH: u64 = 20_000;
    let mut machine = Machine::new(MachineConfig::small(2, 1));
    let words: Vec<u32> = (0..64).map(|i| 3 * i + 1).collect();
    let table = machine.dram_alloc_init(&words);
    let expect: u64 = (1..=DEPTH).map(|d| words[(d % 64) as usize] as u64).sum();
    let got = Arc::new(AtomicU64::new(0));
    let out = got.clone();
    Engine::run(machine, move |core| {
        let out = out.clone();
        Box::new(move |api| {
            if core == 1 {
                out.store(sum_down(api, table, DEPTH), Ordering::Relaxed);
            }
        })
    });
    assert_eq!(got.load(Ordering::Relaxed), expect);
}

/// Counts its drops in a per-core slot.
struct Guard(Arc<Vec<AtomicUsize>>, usize);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0[self.1].fetch_add(1, Ordering::Relaxed);
    }
}

fn slots(n: usize) -> Arc<Vec<AtomicUsize>> {
    Arc::new((0..n).map(|_| AtomicUsize::new(0)).collect())
}

fn counts(slots: &[AtomicUsize]) -> Vec<usize> {
    slots.iter().map(|s| s.load(Ordering::Relaxed)).collect()
}

#[test]
fn a_panic_unwinds_every_suspended_core_exactly_once() {
    let mut machine = Machine::new(MachineConfig::small(4, 2));
    let word = machine.dram_alloc_words(1);
    let drops = slots(8);
    let started = slots(8);
    let result = Engine::try_run(machine, |core| {
        let (drops, started) = (drops.clone(), started.clone());
        Box::new(move |api| {
            if core == 0 {
                for _ in 0..5 {
                    api.load(word);
                }
                panic!("core 0 gives up");
            }
            // Held on this core's stack across every blocking load
            // until the engine tears the run down.
            let _held = Guard(drops, core);
            started[core].fetch_add(1, Ordering::Relaxed);
            loop {
                api.load(word);
            }
        })
    });
    match result {
        Err(SimError::CorePanicked { core: 0, message }) => {
            assert_eq!(message, "core 0 gives up")
        }
        other => panic!("expected core 0's panic, got {other:?}"),
    }
    assert_eq!(counts(&started), [0, 1, 1, 1, 1, 1, 1, 1]);
    assert_eq!(counts(&drops), [0, 1, 1, 1, 1, 1, 1, 1]);
}

#[test]
fn a_panic_before_any_other_core_starts_drops_their_closures_unrun() {
    // Core 0's first wake is the first event of the run, so its panic
    // lands before any other coroutine has been entered.
    let machine = Machine::new(MachineConfig::small(4, 2));
    let drops = slots(8);
    let ran = Arc::new(AtomicBool::new(false));
    let result = Engine::try_run(machine, |core| {
        let captured = Guard(drops.clone(), core);
        let ran = ran.clone();
        Box::new(move |_api| {
            let _captured = captured;
            if core == 0 {
                panic!("first instruction");
            }
            ran.store(true, Ordering::Relaxed);
        })
    });
    assert!(
        matches!(result, Err(SimError::CorePanicked { core: 0, .. })),
        "got {result:?}"
    );
    assert!(!ran.load(Ordering::Relaxed), "a never-woken core ran");
    assert_eq!(counts(&drops), [1; 8]);
}

/// A contended mixed workload; everything observable about the run.
fn busy_run() -> (u64, String, Vec<u32>) {
    let mut machine = Machine::new(MachineConfig::small(4, 2));
    let a = machine.dram_alloc_words(8);
    let r = Engine::run(machine, move |core| {
        Box::new(move |api| {
            for i in 0..200u64 {
                api.amo(a.offset_words(i % 8), AmoOp::Add, core as u32 + 1);
                api.store(a.offset_words((i + core as u64) % 8), 7);
                api.load(a.offset_words((i + 3) % 8));
                api.charge(3, 3);
            }
            api.fence();
        })
    });
    (
        r.cycles,
        format!("{:?}", r.counters),
        r.machine.peek_slice(a, 8),
    )
}

#[test]
fn engines_on_two_threads_at_once_match_one_alone() {
    let alone = busy_run();
    let gate = Arc::new(Barrier::new(2));
    let threads: Vec<_> = (0..2)
        .map(|_| {
            let gate = gate.clone();
            std::thread::spawn(move || {
                gate.wait();
                busy_run()
            })
        })
        .collect();
    for t in threads {
        assert_eq!(t.join().expect("engine thread"), alone);
    }
}

/// A recurrence whose every step rounds: any lost or stale
/// floating-point state shows up in the low bits.
fn float_step(x: f64, i: u32) -> f64 {
    x * 1.000_000_119 + (i as f64).sqrt() / 3.0
}

#[test]
fn floating_point_state_survives_a_thousand_switches() {
    let host = (0..1000).fold(0.5f64, float_step);
    let mut machine = Machine::new(MachineConfig::small(2, 1));
    let word = machine.dram_alloc_words(1);
    let bits = Arc::new(AtomicU64::new(0));
    let out = bits.clone();
    Engine::run(machine, move |core| {
        let out = out.clone();
        Box::new(move |api| {
            // Both cores compute, so each one's value is live in
            // registers while the other runs.
            let mut x = 0.5f64;
            for i in 0..1000 {
                x = float_step(x, i);
                api.load(word);
            }
            if core == 1 {
                out.store(x.to_bits(), Ordering::Relaxed);
            }
        })
    });
    assert_eq!(bits.load(Ordering::Relaxed), host.to_bits());
}

#[test]
fn a_backtrace_taken_inside_a_core_ends_at_the_bottom_of_its_stack() {
    // The frame chain of a coroutine stack ends in the trampoline, not
    // in `main`; a walker has to stop there rather than run off it.
    let machine = Machine::new(MachineConfig::small(2, 1));
    let frames = Arc::new(AtomicUsize::new(0));
    let out = frames.clone();
    Engine::run(machine, move |_core| {
        let out = out.clone();
        Box::new(move |api| {
            api.charge(1, 1);
            let trace = std::backtrace::Backtrace::force_capture();
            out.fetch_max(trace.to_string().lines().count(), Ordering::Relaxed);
        })
    });
    assert!(frames.load(Ordering::Relaxed) > 0);
}
