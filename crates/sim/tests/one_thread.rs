//! One simulation is one OS thread, whatever its core count. Alone in
//! its test binary: the check counts the process's threads, which only
//! holds still when no other test is starting or finishing one.

use mosaic_mem::AmoOp;
use mosaic_sim::{Engine, Machine, MachineConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Threads in this process (`None` where there is no `/proc`).
fn os_threads() -> Option<usize> {
    Some(std::fs::read_dir("/proc/self/task").ok()?.count())
}

#[test]
fn a_thousand_cores_run_on_the_callers_thread() {
    let mut machine = Machine::new(MachineConfig::small(32, 32));
    let counter = machine.dram_alloc_words(1);
    let before = os_threads();
    let during = Arc::new(AtomicUsize::new(0));
    let seen = during.clone();
    let report = Engine::run(machine, move |core| {
        let seen = seen.clone();
        Box::new(move |api| {
            for _ in 0..100 {
                api.amo(counter, AmoOp::Add, 1);
            }
            if core == 1023 {
                seen.store(os_threads().unwrap_or(0), Ordering::Relaxed);
            }
        })
    });
    assert_eq!(report.machine.peek(counter), 1024 * 100);
    assert_eq!(report.counters.core(1023).amos, 100);
    if let Some(before) = before {
        assert_eq!(during.load(Ordering::Relaxed), before);
    }
}
