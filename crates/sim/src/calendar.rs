//! The engine's event queue, keyed by cycle.
//!
//! The queue holds at most one event per simulated core, so it is a
//! plain `BinaryHeap` — a few dozen to a thousand 24-byte entries whose
//! storage is allocated once and reused for the whole run.
//!
//! ## Ordering contract
//!
//! [`CalendarQueue::pop`] yields events ascending by `(cycle, seq)`,
//! where `seq` is the engine's monotone insertion sequence — i.e.
//! deterministic FIFO tie-breaking within a cycle. `seq` is unique, so
//! the `core` component never decides. This contract is what keeps
//! goldens byte-identical and is pinned by a property test
//! (`crates/sim/tests/calendar_order.rs`) that replays random
//! insert/pop interleavings against a reference model.
//!
//! ## Why a heap
//!
//! Until PR 19 this was a 64-bucket calendar ring with an overflow
//! list, sized from the machine's lookahead. Counters on that ring
//! showed the overflow path took under 0.1 % of pushes while a pop
//! linearly scanned 8.6 entries on average at 8×4 and 19 at 16×8,
//! because a machine in near lock-step keeps most cores inside the
//! same day. The heap measured 11–22 % more simulated ops per host
//! second end to end (the `cycle_*` workloads of `benchmark/`; numbers
//! in `docs/determinism.md`) with half the code, so the ring went. The
//! type keeps its name because `benchmark/` calls it.

use crate::{CoreId, Cycle};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One scheduled engine event: `(cycle, seq, core)`.
pub type Event = (Cycle, u64, CoreId);

/// A min-priority queue over [`Event`]s. See the module docs.
#[derive(Debug, Default)]
pub struct CalendarQueue {
    heap: BinaryHeap<Reverse<Event>>,
    /// Cycle of the most recently popped event: a lower bound on every
    /// event the engine may still schedule.
    cursor: Cycle,
}

impl CalendarQueue {
    /// An empty queue.
    pub fn new() -> CalendarQueue {
        CalendarQueue::default()
    }

    /// An empty queue; `_width` is ignored. The ring this replaced was
    /// sized by it, and `benchmark/src/probes.rs` — which only a
    /// `benchmark`-archetype PR may edit — still calls this constructor;
    /// that PR drops it in favour of [`CalendarQueue::new`].
    pub fn with_width(_width: Cycle) -> CalendarQueue {
        CalendarQueue::new()
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `(cycle, seq, core)`.
    ///
    /// `cycle` must be at or after the most recently popped event's
    /// cycle (the engine only ever schedules into the future), and
    /// `seq` must be unique among queued events.
    pub fn push(&mut self, cycle: Cycle, seq: u64, core: CoreId) {
        debug_assert!(cycle >= self.cursor, "event scheduled into the past");
        self.heap.push(Reverse((cycle, seq, core)));
    }

    /// Remove and return the minimum event by `(cycle, seq)`.
    pub fn pop(&mut self) -> Option<Event> {
        let Reverse(ev) = self.heap.pop()?;
        self.cursor = ev.0;
        Some(ev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A distance well beyond any single memory-system latency, so the
    /// tests mix near and far keys.
    const FAR: u64 = 64;

    #[test]
    fn pops_in_cycle_then_seq_order() {
        let mut q = CalendarQueue::with_width(4);
        q.push(10, 0, 0);
        q.push(5, 1, 1);
        q.push(10, 2, 2);
        q.push(5, 3, 3);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((5, 1, 1)));
        assert_eq!(q.pop(), Some((5, 3, 3)));
        assert_eq!(q.pop(), Some((10, 0, 0)));
        assert_eq!(q.pop(), Some((10, 2, 2)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_round_trip_through_overflow() {
        let mut q = CalendarQueue::with_width(2);
        let horizon = 2 * FAR;
        q.push(0, 0, 0);
        q.push(10 * horizon, 1, 1); // far beyond everything else
        q.push(1, 2, 2);
        assert_eq!(q.pop(), Some((0, 0, 0)));
        assert_eq!(q.pop(), Some((1, 2, 2)));
        assert_eq!(q.pop(), Some((10 * horizon, 1, 1)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = CalendarQueue::with_width(8);
        q.push(3, 0, 0);
        assert_eq!(q.pop(), Some((3, 0, 0)));
        // Same-cycle push after a pop is still in order.
        q.push(3, 1, 1);
        q.push(4, 2, 2);
        assert_eq!(q.pop(), Some((3, 1, 1)));
        q.push(700, 3, 3);
        assert_eq!(q.pop(), Some((4, 2, 2)));
        assert_eq!(q.pop(), Some((700, 3, 3)));
    }

    #[test]
    fn overflow_migrates_as_cursor_advances() {
        let mut q = CalendarQueue::with_width(1);
        // One far event queued ahead of a steady near-future stream.
        let far = 100 + FAR;
        q.push(0, 0, 0);
        q.push(far, 1, 1);
        for c in 1..=100u64 {
            q.push(c, c + 1, 2); // steady near-future stream
        }
        let mut last = (0, 0);
        let mut n = 0;
        while let Some((cy, seq, _)) = q.pop() {
            assert!((cy, seq) > last || n == 0, "out of order at {cy},{seq}");
            last = (cy, seq);
            n += 1;
        }
        assert_eq!(n, 102);
    }
}
