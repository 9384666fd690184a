//! A core-local software-managed scratchpad.
//!
//! Each HammerBlade core owns 4 KB of SPM with single-cycle-class
//! access: we model a single port that services one word per cycle and
//! a 2-cycle load-to-use latency for local accesses (paper §4.2: "The
//! local scratchpad has a 2-cycle access latency"). Remote accesses pay
//! the same port service time at this end plus network transport, which
//! `mosaic-sim` adds.

use crate::snap::{put_u32, put_u64};
use crate::{Addr, Cycle};

/// One core's scratchpad: functional word storage plus a single-port
/// timing model.
#[derive(Debug, Clone)]
pub struct Scratchpad {
    words: Vec<u32>,
    port_next_free: Cycle,
    /// Cycles from port service to data available for a local access.
    local_latency: Cycle,
    accesses: u64,
}

impl Scratchpad {
    /// A zero-initialized scratchpad of `size` bytes.
    ///
    /// # Panics
    ///
    /// Panics unless `size` is a nonzero multiple of 4.
    pub fn new(size: u32) -> Self {
        assert!(
            size > 0 && size.is_multiple_of(4),
            "SPM size must be word-aligned"
        );
        Scratchpad {
            words: vec![0; size as usize / 4],
            port_next_free: 0,
            local_latency: 2,
            accesses: 0,
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> u32 {
        (self.words.len() * 4) as u32
    }

    /// The load-to-use latency for a core accessing its own SPM.
    pub fn local_latency(&self) -> Cycle {
        self.local_latency
    }

    /// Total accesses serviced (loads + stores + AMOs).
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Functional read of the word at byte `offset` (no timing).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of bounds.
    pub fn peek(&self, offset: u32) -> u32 {
        assert!(
            offset.is_multiple_of(4),
            "unaligned SPM access at {offset:#x}"
        );
        self.words[offset as usize / 4]
    }

    /// Functional write of the word at byte `offset` (no timing).
    ///
    /// # Panics
    ///
    /// Panics if `offset` is unaligned or out of bounds.
    pub fn poke(&mut self, offset: u32, value: u32) {
        assert!(
            offset.is_multiple_of(4),
            "unaligned SPM access at {offset:#x}"
        );
        self.words[offset as usize / 4] = value;
    }

    /// Reserve the SPM port for one access arriving at `cycle`; returns
    /// the cycle at which the data is available (local-latency included).
    pub fn service(&mut self, cycle: Cycle) -> Cycle {
        let start = cycle.max(self.port_next_free);
        self.port_next_free = start + 1;
        self.accesses += 1;
        start + self.local_latency
    }

    /// Convert a byte offset into this SPM to the word it names, for
    /// diagnostics.
    pub fn word_index(offset: u32) -> usize {
        offset as usize / 4
    }

    /// Reset timing state (functional contents are preserved).
    pub fn reset_timing(&mut self) {
        self.port_next_free = 0;
        self.accesses = 0;
    }

    /// Address-free bulk view of the contents, for tests.
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Serialize functional contents and timing state to canonical
    /// little-endian bytes: word count, words, `port_next_free`,
    /// `accesses`. `local_latency` is a construction-time constant, not
    /// state, so it is not captured.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 4 + 24);
        put_u64(&mut out, self.words.len() as u64);
        for &w in &self.words {
            put_u32(&mut out, w);
        }
        put_u64(&mut out, self.port_next_free);
        put_u64(&mut out, self.accesses);
        out
    }
}

/// Helper: byte offset of `addr` within an SPM whose base is `base`.
pub fn spm_offset(addr: Addr, base: Addr) -> u32 {
    (addr.raw() - base.raw()) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_poke() {
        let mut s = Scratchpad::new(64);
        s.poke(0, 0xdead_beef);
        s.poke(60, 42);
        assert_eq!(s.peek(0), 0xdead_beef);
        assert_eq!(s.peek(60), 42);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_panics() {
        Scratchpad::new(64).peek(3);
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_panics() {
        Scratchpad::new(64).peek(64);
    }

    #[test]
    fn port_serializes_same_cycle_accesses() {
        let mut s = Scratchpad::new(64);
        let t1 = s.service(10);
        let t2 = s.service(10);
        assert_eq!(t1, 12); // 2-cycle local latency
        assert_eq!(t2, 13); // queued one cycle behind
        assert_eq!(s.accesses(), 2);
    }

    #[test]
    fn idle_port_services_immediately() {
        let mut s = Scratchpad::new(64);
        s.service(10);
        // Long after the port frees up:
        assert_eq!(s.service(100), 102);
    }

    #[test]
    fn snapshot_is_canonical_and_covers_contents_and_timing() {
        let warm = || {
            let mut s = Scratchpad::new(64);
            s.poke(0, 0xdead_beef);
            s.poke(12, 7);
            s.service(10);
            s.service(10);
            s
        };
        // Identical states must serialize identically (byte-compared
        // by the checkpoint verifier in mosaic-sim).
        assert_eq!(warm().snapshot(), warm().snapshot());
        assert_ne!(warm().snapshot(), Scratchpad::new(64).snapshot());
        // Timing state alone is visible in the bytes too.
        let mut busy = Scratchpad::new(64);
        busy.service(10);
        assert_ne!(busy.snapshot(), Scratchpad::new(64).snapshot());
    }

    #[test]
    fn reset_timing_keeps_data() {
        let mut s = Scratchpad::new(64);
        s.poke(8, 7);
        s.service(5);
        s.reset_timing();
        assert_eq!(s.peek(8), 7);
        assert_eq!(s.accesses(), 0);
        assert_eq!(s.service(0), 2);
    }
}
