//! The per-core task queue (deque) protocol over simulated memory.
//!
//! Block layout (words from the block base):
//!
//! ```text
//! [0] lock   [1] head   [2] tail   [3] capacity   [4..4+cap] entries
//! ```
//!
//! `head` and `tail` are monotonically increasing 32-bit counters;
//! entry `i` lives at slot `i % capacity`. The owning core pushes and
//! pops at the *tail* (LIFO); thieves steal from the *head* (FIFO), so
//! a thief takes the task highest in the task graph (paper §2.2).
//!
//! All operations assume the block's lock (word 0) is already held by
//! the caller and issue real timed loads/stores, so the latency
//! difference between SPM- and DRAM-placed queues emerges naturally.

use crate::costs::CostModel;
use crate::layout::QUEUE_HDR_WORDS;
use mosaic_mem::Addr;
use mosaic_sim::{CoreApi, Phase};

/// Word offsets inside the queue block.
const LOCK: u64 = 0;
const HEAD: u64 = 1;
const TAIL: u64 = 2;
const CAP: u64 = 3;

/// Address of the queue block's lock word.
pub fn lock_addr(block: Addr) -> Addr {
    block.offset_words(LOCK)
}

/// Push `task` (a simulated task-record address, truncated to a word)
/// at the tail. Returns `false` when the queue is full; the caller
/// must then execute the task inline.
pub fn enqueue(api: &mut CoreApi, block: Addr, task: u32, costs: &CostModel) -> bool {
    let prev = api.phase_begin(Phase::QueueLock);
    api.charge(costs.enqueue_overhead, costs.enqueue_overhead);
    let head = api.load(block.offset_words(HEAD));
    let tail = api.load(block.offset_words(TAIL));
    let cap = api.load(block.offset_words(CAP));
    let ok = if tail.wrapping_sub(head) >= cap {
        false
    } else {
        let slot = QUEUE_HDR_WORDS as u64 + (tail % cap) as u64;
        api.store(block.offset_words(slot), task);
        api.store(block.offset_words(TAIL), tail.wrapping_add(1));
        true
    };
    api.phase_restore(prev);
    ok
}

/// Pop from the tail (LIFO) — the owning core's fast path.
pub fn dequeue(api: &mut CoreApi, block: Addr, costs: &CostModel) -> Option<u32> {
    let prev = api.phase_begin(Phase::QueueLock);
    api.charge(costs.dequeue_overhead, costs.dequeue_overhead);
    let head = api.load(block.offset_words(HEAD));
    let tail = api.load(block.offset_words(TAIL));
    let task = if tail == head {
        None
    } else {
        let cap = api.load(block.offset_words(CAP));
        let t = tail.wrapping_sub(1);
        let slot = QUEUE_HDR_WORDS as u64 + (t % cap) as u64;
        let task = api.load(block.offset_words(slot));
        api.store(block.offset_words(TAIL), t);
        Some(task)
    };
    api.phase_restore(prev);
    task
}

/// Steal from the head (FIFO) — the thief's path.
pub fn steal(api: &mut CoreApi, block: Addr, costs: &CostModel) -> Option<u32> {
    let prev = api.phase_begin(Phase::QueueLock);
    api.charge(costs.dequeue_overhead, costs.dequeue_overhead);
    let head = api.load(block.offset_words(HEAD));
    let tail = api.load(block.offset_words(TAIL));
    let task = if tail == head {
        None
    } else {
        let cap = api.load(block.offset_words(CAP));
        let slot = QUEUE_HDR_WORDS as u64 + (head % cap) as u64;
        let task = api.load(block.offset_words(slot));
        api.store(block.offset_words(HEAD), head.wrapping_add(1));
        Some(task)
    };
    api.phase_restore(prev);
    task
}

/// Steal up to `max` tasks from the head (lock must be held). Returns
/// the stolen records, oldest first.
pub fn steal_up_to(api: &mut CoreApi, block: Addr, max: u32, costs: &CostModel) -> Vec<u32> {
    let prev = api.phase_begin(Phase::QueueLock);
    api.charge(costs.dequeue_overhead, costs.dequeue_overhead);
    let head = api.load(block.offset_words(HEAD));
    let tail = api.load(block.offset_words(TAIL));
    let avail = tail.wrapping_sub(head);
    let take = avail.min(max);
    let mut out = Vec::with_capacity(take as usize);
    if take > 0 {
        let cap = api.load(block.offset_words(CAP));
        for k in 0..take {
            let idx = head.wrapping_add(k);
            let slot = QUEUE_HDR_WORDS as u64 + (idx % cap) as u64;
            out.push(api.load(block.offset_words(slot)));
            api.charge(1, 1);
        }
        api.store(block.offset_words(HEAD), head.wrapping_add(take));
    }
    api.phase_restore(prev);
    out
}

/// Number of queued tasks (lock must be held).
pub fn len(api: &mut CoreApi, block: Addr) -> u32 {
    let prev = api.phase_begin(Phase::QueueLock);
    let head = api.load(block.offset_words(HEAD));
    let tail = api.load(block.offset_words(TAIL));
    api.phase_restore(prev);
    tail.wrapping_sub(head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim::{Engine, Machine, MachineConfig};

    /// Run a single-core scenario against a DRAM-allocated queue block
    /// of the given capacity.
    fn with_queue<F>(cap: u32, f: F) -> mosaic_sim::Report
    where
        F: Fn(&mut CoreApi, Addr) + 'static,
    {
        let mut machine = Machine::new(MachineConfig::small(1, 1));
        let block = machine.dram_alloc_words((QUEUE_HDR_WORDS + cap) as u64);
        machine.poke(block.offset_words(CAP), cap);
        let f = std::rc::Rc::new(f);
        Engine::run(machine, move |_| {
            let f = f.clone();
            Box::new(move |api| f(api, block))
        })
    }

    #[test]
    fn lifo_pop_order() {
        with_queue(8, |api, q| {
            let c = CostModel::default();
            for t in [11, 22, 33] {
                assert!(enqueue(api, q, t, &c));
            }
            assert_eq!(dequeue(api, q, &c), Some(33));
            assert_eq!(dequeue(api, q, &c), Some(22));
            assert_eq!(dequeue(api, q, &c), Some(11));
            assert_eq!(dequeue(api, q, &c), None);
        });
    }

    #[test]
    fn fifo_steal_order() {
        with_queue(8, |api, q| {
            let c = CostModel::default();
            for t in [11, 22, 33] {
                assert!(enqueue(api, q, t, &c));
            }
            assert_eq!(steal(api, q, &c), Some(11));
            assert_eq!(steal(api, q, &c), Some(22));
            assert_eq!(steal(api, q, &c), Some(33));
            assert_eq!(steal(api, q, &c), None);
        });
    }

    #[test]
    fn mixed_pop_and_steal() {
        with_queue(8, |api, q| {
            let c = CostModel::default();
            for t in 1..=4 {
                assert!(enqueue(api, q, t, &c));
            }
            assert_eq!(steal(api, q, &c), Some(1), "thief takes oldest");
            assert_eq!(dequeue(api, q, &c), Some(4), "owner takes newest");
            assert_eq!(len(api, q), 2);
        });
    }

    #[test]
    fn full_queue_rejects() {
        with_queue(2, |api, q| {
            let c = CostModel::default();
            assert!(enqueue(api, q, 1, &c));
            assert!(enqueue(api, q, 2, &c));
            assert!(!enqueue(api, q, 3, &c), "capacity 2 exceeded");
            assert_eq!(dequeue(api, q, &c), Some(2));
            assert!(enqueue(api, q, 3, &c), "room again after pop");
        });
    }

    #[test]
    fn steal_up_to_takes_oldest_first() {
        with_queue(8, |api, q| {
            let c = CostModel::default();
            for t in [1, 2, 3, 4, 5] {
                assert!(enqueue(api, q, t, &c));
            }
            let got = steal_up_to(api, q, 3, &c);
            assert_eq!(got, vec![1, 2, 3]);
            assert_eq!(dequeue(api, q, &c), Some(5));
            assert_eq!(steal(api, q, &c), Some(4));
            assert!(steal_up_to(api, q, 4, &c).is_empty());
        });
    }

    #[test]
    fn wraparound_preserves_order() {
        with_queue(3, |api, q| {
            let c = CostModel::default();
            // Cycle the ring several times.
            for round in 0u32..5 {
                for k in 0..3 {
                    assert!(enqueue(api, q, round * 10 + k, &c));
                }
                assert_eq!(steal(api, q, &c), Some(round * 10));
                assert_eq!(steal(api, q, &c), Some(round * 10 + 1));
                assert_eq!(dequeue(api, q, &c), Some(round * 10 + 2));
            }
        });
    }
}
