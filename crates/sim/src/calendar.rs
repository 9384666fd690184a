//! A calendar (bucket) event queue keyed by cycle.
//!
//! The engine's ready queue holds at most one event per simulated core
//! (plus nothing else), so asymptotic complexity is not the point —
//! constant factors and allocation behaviour are. A [`CalendarQueue`]
//! keeps near-future events in a ring of per-"day" buckets (one day =
//! `width` cycles), so a push is an append into a recycled `Vec` and a
//! pop is a short scan of the current day. Bucket storage is reused
//! across the whole run (arena-style): after warm-up the queue performs
//! no per-event heap allocation, unlike a `BinaryHeap` whose sift
//! operations it replaces.
//!
//! ## Ordering contract
//!
//! [`CalendarQueue::pop`] yields events in exactly the order the
//! engine's previous `BinaryHeap<Reverse<(Cycle, u64, CoreId)>>`
//! popped them: ascending by `(cycle, seq)`, where `seq` is the
//! engine's monotone insertion sequence — i.e. deterministic FIFO
//! tie-breaking within a cycle. This contract is what keeps goldens
//! byte-identical and is pinned by a property test
//! (`crates/sim/tests/calendar_order.rs`) that replays random
//! insert/pop interleavings against a reference `BinaryHeap`.

use crate::{CoreId, Cycle};

/// One scheduled engine event: `(cycle, seq, core)`.
pub type Event = (Cycle, u64, CoreId);

/// Number of ring buckets (power of two so the day→bucket map is a
/// mask). With the default width this covers a few thousand cycles of
/// lookahead — far beyond any single memory-system latency — before
/// the overflow path is touched.
const BUCKETS: usize = 64;

/// Default bucket width in cycles when none is configured.
const DEFAULT_WIDTH: Cycle = 64;

/// A bucket-ring priority queue over [`Event`]s. See the module docs.
#[derive(Debug)]
pub struct CalendarQueue {
    /// Ring of buckets; bucket `d % BUCKETS` holds day `d` only
    /// (events further out live in `overflow`).
    buckets: Vec<Vec<Event>>,
    /// Bucket width in cycles.
    width: Cycle,
    /// Lower bound on every queued event's cycle; advanced by `pop`.
    cursor: Cycle,
    /// Events at or beyond the ring horizon, unsorted; migrated back
    /// into the ring as the cursor advances.
    overflow: Vec<Event>,
    /// Total queued events.
    len: usize,
}

impl CalendarQueue {
    /// An empty queue with the default bucket width.
    pub fn new() -> CalendarQueue {
        CalendarQueue::with_width(DEFAULT_WIDTH)
    }

    /// An empty queue whose buckets are `width` cycles wide. The engine
    /// sizes this as a multiple of the machine's conservative lookahead
    /// (the minimum cross-component latency), which keeps a window's
    /// events in one or two adjacent buckets.
    pub fn with_width(width: Cycle) -> CalendarQueue {
        CalendarQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            width: width.max(1),
            cursor: 0,
            overflow: Vec::new(),
            len: 0,
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn day(&self, cycle: Cycle) -> u64 {
        cycle / self.width
    }

    /// Schedule `(cycle, seq, core)`.
    ///
    /// `cycle` must be at or after the most recently popped event's
    /// cycle (the engine only ever schedules into the future), and
    /// `seq` must be fresher than any already-queued seq — both are
    /// what the engine's previous `BinaryHeap` relied on implicitly.
    pub fn push(&mut self, cycle: Cycle, seq: u64, core: CoreId) {
        debug_assert!(cycle >= self.cursor, "event scheduled into the past");
        let day = self.day(cycle);
        let cursor_day = self.day(self.cursor);
        if day >= cursor_day + BUCKETS as u64 {
            self.overflow.push((cycle, seq, core));
        } else {
            self.buckets[(day % BUCKETS as u64) as usize].push((cycle, seq, core));
        }
        self.len += 1;
    }

    /// Remove and return the minimum event by `(cycle, seq)`.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        loop {
            let cursor_day = self.day(self.cursor);
            for d in 0..BUCKETS as u64 {
                let day = cursor_day + d;
                let bucket = &mut self.buckets[(day % BUCKETS as u64) as usize];
                if bucket.is_empty() {
                    continue;
                }
                // All events in this bucket belong to `day` (the ring
                // spans exactly one horizon), so the bucket minimum is
                // the global minimum. Position within the bucket is
                // irrelevant: the full (cycle, seq) key decides.
                let mut best = 0;
                for i in 1..bucket.len() {
                    if (bucket[i].0, bucket[i].1) < (bucket[best].0, bucket[best].1) {
                        best = i;
                    }
                }
                let ev = bucket.swap_remove(best);
                self.len -= 1;
                self.cursor = ev.0;
                // Advancing into a new day may bring overflow events
                // inside the horizon; migrate so future pops see them.
                if self.day(self.cursor) != cursor_day && !self.overflow.is_empty() {
                    self.migrate_overflow();
                }
                return Some(ev);
            }
            // Ring exhausted: everything left lives in the overflow.
            debug_assert!(!self.overflow.is_empty(), "len > 0 with nothing queued");
            let min = self
                .overflow
                .iter()
                .map(|e| e.0)
                .min()
                .unwrap_or(self.cursor);
            self.cursor = min;
            self.migrate_overflow();
        }
    }

    /// Re-push every overflow event that now fits in the ring.
    fn migrate_overflow(&mut self) {
        let cursor_day = self.day(self.cursor);
        let mut i = 0;
        while i < self.overflow.len() {
            let day = self.day(self.overflow[i].0);
            if day < cursor_day + BUCKETS as u64 {
                let ev = self.overflow.swap_remove(i);
                self.buckets[(day % BUCKETS as u64) as usize].push(ev);
            } else {
                i += 1;
            }
        }
    }
}

impl Default for CalendarQueue {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let horizon = 2 * BUCKETS as u64;
        q.push(0, 0, 0);
        q.push(10 * horizon, 1, 1); // far beyond the ring
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
        // Same-cycle push after a pop lands in the current day.
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
        // Horizon is BUCKETS cycles; 100+BUCKETS starts in overflow.
        let far = 100 + BUCKETS as u64;
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
