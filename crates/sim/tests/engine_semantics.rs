//! Deeper engine semantics: fences, store ordering, timing sanity,
//! and counter accounting.

use mosaic_mem::AmoOp;
use mosaic_sim::{Engine, Machine, MachineConfig};

#[test]
fn fence_orders_store_before_flag() {
    // Release pattern across cores, many rounds: consumer must never
    // observe the flag without the data.
    let mut machine = Machine::new(MachineConfig::small(2, 1));
    let data = machine.dram_alloc_words(64);
    let flags = machine.dram_alloc_words(64);
    let report = Engine::run(machine, move |core| {
        Box::new(move |api| {
            if core == 0 {
                for i in 0..64u64 {
                    api.store(data.offset_words(i), 1000 + i as u32);
                    api.fence();
                    api.store(flags.offset_words(i), 1);
                    api.charge(2, 7);
                }
            } else {
                for i in 0..64u64 {
                    while api.load(flags.offset_words(i)) == 0 {
                        api.charge(1, 5);
                    }
                    let v = api.load(data.offset_words(i));
                    assert_eq!(v, 1000 + i as u32, "round {i}: flag seen before data");
                }
            }
        })
    });
    assert!(report.cycles > 0);
}

#[test]
fn charge_advances_local_time() {
    let machine = Machine::new(MachineConfig::small(2, 1));
    let report = Engine::run(machine, |core| {
        Box::new(move |api| {
            let t0 = api.now();
            api.charge(10, 123);
            assert_eq!(api.now() - t0, 123);
            if core == 0 {
                api.sync();
            }
        })
    });
    assert_eq!(report.cycles, 123);
}

#[test]
fn halt_cycles_and_counters_account() {
    let mut machine = Machine::new(MachineConfig::small(2, 1));
    let a = machine.dram_alloc_words(4);
    let report = Engine::run(machine, move |core| {
        Box::new(move |api| {
            if core == 0 {
                api.load(a);
                api.store(a, 1);
                api.amo(a, AmoOp::Add, 1);
                api.fence();
                api.charge(5, 5);
            }
        })
    });
    let c = report.counters.core(0);
    assert_eq!(c.loads, 1);
    assert_eq!(c.stores, 1);
    assert_eq!(c.amos, 1);
    assert_eq!(c.fences, 1);
    // 3 memory instrs + 1 fence instr + 5 compute
    assert_eq!(c.instructions, 9);
    assert_eq!(c.halt_cycle, report.cycles);
    assert_eq!(report.counters.core(1).instructions, 0);
}

#[test]
fn amo_fetch_order_is_cycle_order() {
    // Two cores alternate AMO fetch-add with staggered timing; the set
    // of returned tickets must be exactly 0..N with no duplicates.
    let mut machine = Machine::new(MachineConfig::small(2, 1));
    let ctr = machine.dram_alloc_words(1);
    let tickets = machine.dram_alloc_words(64);
    let report = Engine::run(machine, move |core| {
        Box::new(move |api| {
            for i in 0..16u64 {
                api.charge(1, (core as u64 * 13 + i * 7) % 29);
                let t = api.amo(ctr, AmoOp::Add, 1);
                api.store(tickets.offset_words(t as u64), core as u32 + 1);
            }
        })
    });
    let got = report.machine.peek_slice(tickets, 32);
    assert!(
        got.iter().all(|&v| v == 1 || v == 2),
        "tickets 0..32 must all be claimed: {got:?}"
    );
    assert_eq!(report.machine.peek(ctr), 32);
}

#[test]
fn remote_spm_latency_exceeds_local_under_engine() {
    let machine = Machine::new(MachineConfig::small(4, 2));
    let map = machine.addr_map().clone();
    let out = machine.addr_map().spm_addr(0, 100 & !3);
    let report = Engine::run(machine, move |core| {
        let map = map.clone();
        Box::new(move |api| {
            if core == 0 {
                let t0 = api.now();
                api.load(map.spm_addr(0, 0));
                let local = api.now() - t0;
                let t1 = api.now();
                api.load(map.spm_addr(7, 0));
                let remote = api.now() - t1;
                assert!(remote > local, "remote {remote} <= local {local}");
                api.store(out, remote as u32);
            }
        })
    });
    assert!(report.machine.peek(out) > 2);
}

#[test]
fn single_core_machine_works() {
    let machine = Machine::new(MachineConfig::small(1, 1));
    let report = Engine::run(machine, |_| Box::new(|api| api.charge(7, 7)));
    assert_eq!(report.cycles, 7);
}

#[test]
fn behaviours_may_capture_thread_local_host_state() {
    // Every core is a coroutine on the caller's thread, so a behaviour
    // needs no `Send`: cores interleave at every AMO and still share a
    // plain `Rc<Cell<_>>`.
    use std::cell::Cell;
    use std::rc::Rc;
    let mut machine = Machine::new(MachineConfig::small(2, 2));
    let counter = machine.dram_alloc_words(1);
    let host = Rc::new(Cell::new(0u32));
    let seen = host.clone();
    let report = Engine::run(machine, move |core| {
        let seen = seen.clone();
        Box::new(move |api| {
            for _ in 0..10 {
                api.amo(counter, AmoOp::Add, 1);
                seen.set(seen.get() + core as u32);
            }
        })
    });
    assert_eq!(report.machine.peek(counter), 40);
    assert_eq!(host.get(), 10 * (1 + 2 + 3));
}

#[test]
fn a_borrow_held_across_a_core_api_call_fails_the_run_not_the_process() {
    // The one rule shared host state has to follow: a `CoreApi`
    // operation switches to other cores, so a `RefCell` borrow held
    // across one collides with theirs. That is a typed error naming the
    // second borrower, where a lock would have deadlocked the thread.
    use mosaic_sim::SimError;
    use std::cell::RefCell;
    use std::rc::Rc;
    let mut machine = Machine::new(MachineConfig::small(2, 1));
    let word = machine.dram_alloc_words(1);
    let shared = Rc::new(RefCell::new(0u32));
    let err = Engine::try_run(machine, move |core| {
        let shared = shared.clone();
        Box::new(move |api| {
            if core == 0 {
                let mut held = shared.borrow_mut();
                *held += api.load(word);
            } else {
                api.charge(1, 1);
                api.sync();
                *shared.borrow_mut() += 1;
            }
        })
    })
    .unwrap_err();
    match err {
        SimError::CorePanicked { core, message } => {
            assert_eq!(core, 1);
            assert!(message.contains("borrowed"), "{message}");
        }
        other => panic!("expected CorePanicked, got {other}"),
    }
}
