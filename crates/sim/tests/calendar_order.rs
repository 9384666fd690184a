//! Black-box tests pinning the event queue's ordering contract: under
//! any insert/pop interleaving it pops events ascending by
//! `(cycle, seq)` — deterministic FIFO tie-breaking within a cycle —
//! exactly like the reference model, a `BinaryHeap<Reverse<(Cycle, u64,
//! CoreId)>>`. Goldens being byte-identical across any change of queue
//! implementation rests on this.

use mosaic_sim::calendar::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Regression script from the bucket-ring queue this type once was,
/// kept because it is a good adversarial schedule for any
/// implementation: keys 64 and 128 apart (the ring's old horizon and
/// wraparound), three events tied on cycle 130 that were pushed at
/// different distances from the then-current cycle, and a lone far
/// event into an otherwise empty queue. `pop` must yield strict
/// `(cycle, seq)` order throughout.
#[test]
fn overflow_migration_at_ring_wraparound_keeps_fifo_ties() {
    let mut q = CalendarQueue::with_width(1);
    q.push(60, 0, 0);
    q.push(130, 1, 1); // far ahead
    assert_eq!(q.pop(), Some((60, 0, 0)));
    q.push(130, 2, 2); // tied with seq 1, still far ahead
    q.push(70, 3, 3);
    assert_eq!(q.pop(), Some((70, 3, 3)));
    q.push(130, 4, 4); // third tie, pushed from close by
    q.push(127, 5, 5);
    q.push(128, 6, 6);
    assert_eq!(q.len(), 5);
    assert_eq!(
        q.pop(),
        Some((127, 5, 5)),
        "earliest cycle first, though pushed after the 130s"
    );
    assert_eq!(q.pop(), Some((128, 6, 6)), "then the next cycle");
    assert_eq!(q.pop(), Some((130, 1, 1)), "tie: earliest seq");
    assert_eq!(q.pop(), Some((130, 2, 2)), "tie: second seq");
    assert_eq!(q.pop(), Some((130, 4, 4)), "tie: freshest seq");
    // Empty queue, then one far event.
    q.push(500, 7, 7);
    assert_eq!(q.pop(), Some((500, 7, 7)));
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replay a random schedule against the reference heap. `ops`
    /// drives the interleaving: each entry pushes a batch of events a
    /// random distance into the future (near, far and tied) and then
    /// pops a few.
    #[test]
    fn pops_match_binary_heap_order(
        width in 1u64..100,
        ops in prop::collection::vec(
            (prop::collection::vec((0u64..10_000, 0usize..8), 0..6), 0usize..8),
            1..40,
        ),
    ) {
        let mut queue = CalendarQueue::with_width(width);
        let mut heap: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // The engine only schedules at or after the last popped cycle;
        // the queue's contract assumes the same.
        let mut now = 0u64;
        for (pushes, pops) in ops {
            for (ahead, core) in pushes {
                queue.push(now + ahead, seq, core);
                heap.push(Reverse((now + ahead, seq, core)));
                seq += 1;
            }
            prop_assert_eq!(queue.len(), heap.len());
            for _ in 0..pops {
                let expect = heap.pop().map(|Reverse(e)| e);
                let got = queue.pop();
                prop_assert_eq!(got, expect);
                if let Some((cycle, _, _)) = got {
                    now = cycle;
                }
            }
        }
        // Drain: the tails must agree too.
        while let Some(Reverse(expect)) = heap.pop() {
            prop_assert_eq!(queue.pop(), Some(expect));
        }
        prop_assert!(queue.is_empty());
    }
}
