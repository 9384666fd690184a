//! Property test pinning the calendar queue's ordering contract: under
//! random insert/pop interleavings it must pop events in exactly the
//! order of the engine's previous `BinaryHeap<Reverse<(Cycle, u64,
//! CoreId)>>` — ascending `(cycle, seq)` with deterministic FIFO
//! tie-breaking. Goldens being byte-identical across the engine-queue
//! swap rests on this.

use mosaic_sim::calendar::CalendarQueue;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Regression: overflow-bucket migration at day-ring wraparound, with
/// same-cycle FIFO ties whose events arrive by different paths.
///
/// With `width = 1` the ring spans 64 days (one per bucket), so day
/// `d` lives in bucket `d % 64`. The script below steers three events
/// onto the tied cycle 130 — two via the overflow (migrated into the
/// ring when the cursor's day advances past 66, landing in *wrapped*
/// bucket `130 % 64 = 2`, an index far below the cursor's own bucket)
/// and one pushed directly once the horizon covers it. `pop` must
/// still yield strict `(cycle, seq)` order: the wrap-straddling pair
/// 127 (bucket 63) / 128 (bucket 0) comes out cycle-ordered even
/// though their bucket indices invert, the cycle-130 ties come out in
/// insertion-seq order even though `swap_remove` scrambled their
/// bucket positions, and the final far event exercises the
/// ring-exhausted cursor jump.
#[test]
fn overflow_migration_at_ring_wraparound_keeps_fifo_ties() {
    let mut q = CalendarQueue::with_width(1);
    q.push(60, 0, 0); // ring, bucket 60
    q.push(130, 1, 1); // beyond day 0..=63 horizon: overflow
    assert_eq!(q.pop(), Some((60, 0, 0))); // cursor -> 60; 130 still out of reach
    q.push(130, 2, 2); // still beyond the day 60..=123 horizon: overflow
    q.push(70, 3, 3); // ring, bucket 6
                      // Popping 70 advances the cursor's day past 66, so both cycle-130
                      // overflow events migrate into wrapped bucket 2.
    assert_eq!(q.pop(), Some((70, 3, 3)));
    q.push(130, 4, 4); // now inside the horizon: straight to bucket 2
    q.push(127, 5, 5); // bucket 63 — the last slot before the wrap
    q.push(128, 6, 6); // bucket 0 — first slot after the wrap
    assert_eq!(q.len(), 5);
    assert_eq!(
        q.pop(),
        Some((127, 5, 5)),
        "must scan bucket 63 before the wrap"
    );
    assert_eq!(q.pop(), Some((128, 6, 6)), "wrapped bucket 0 comes after");
    assert_eq!(
        q.pop(),
        Some((130, 1, 1)),
        "tie: earliest seq, arrived via migration"
    );
    assert_eq!(
        q.pop(),
        Some((130, 2, 2)),
        "tie: second seq, arrived via migration"
    );
    assert_eq!(
        q.pop(),
        Some((130, 4, 4)),
        "tie: freshest seq, pushed directly"
    );
    // Ring now empty with one far event: pop must take the
    // ring-exhausted path (cursor jumps to the overflow minimum).
    q.push(500, 7, 7);
    assert_eq!(q.pop(), Some((500, 7, 7)));
    assert_eq!(q.pop(), None);
    assert!(q.is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Replay a random schedule against the reference heap. `ops`
    /// drives the interleaving: each entry pushes a batch of events a
    /// random distance into the future (including far past the ring
    /// horizon, to force the overflow path) and then pops a few.
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
