//! DRAM: functional backing store plus an HBM2-channel timing model.
//!
//! The paper models "a single 1.0 GHz HBM2 channel with a bus width of
//! 64 and a burst length of 4, yielding a theoretical peak bandwidth of
//! 16 GB/s" with DRAMSim3. We reproduce the two properties that matter
//! to the runtime study:
//!
//! 1. **latency structure** — row-buffer hit vs. miss vs. conflict
//!    (tCAS / tRCD+tCAS / tRP+tRCD+tCAS), queueing at busy banks;
//! 2. **a hard bandwidth ceiling** — every data burst crosses one
//!    shared data bus, so total throughput saturates exactly like one
//!    channel does.
//!
//! Timing parameters are expressed in core cycles (1.5 GHz), already
//! scaled from the 1.0 GHz DRAM clock.

use crate::snap::{put_u32, put_u64, put_u8};
use crate::Cycle;
use std::collections::HashMap;

/// Timing and geometry parameters of the modeled channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DramConfig {
    /// Number of banks in the channel.
    pub banks: u32,
    /// Bytes per row (row-buffer reach).
    pub row_bytes: u64,
    /// Activate-to-read delay (row miss adds this), core cycles.
    pub t_rcd: Cycle,
    /// Read latency after the row is open, core cycles.
    pub t_cas: Cycle,
    /// Precharge delay (row conflict adds this), core cycles.
    pub t_rp: Cycle,
    /// Data-bus occupancy per access (burst length), core cycles.
    pub t_bl: Cycle,
    /// Cache-line bytes transferred per access (LLC line size).
    pub line_bytes: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        // 1.0 GHz HBM2 timings (~14ns CAS class) expressed in 1.5 GHz
        // core cycles; tBL covers a 64-byte line over a 64-bit bus with
        // burst length 4 x 2 (pseudo-channel) => 6 core cycles/line.
        DramConfig {
            banks: 16,
            row_bytes: 2048,
            t_rcd: 21,
            t_cas: 21,
            t_rp: 21,
            t_bl: 6,
            line_bytes: 64,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Bank {
    open_row: Option<u64>,
    next_free: Cycle,
}

/// Functional + timing model of the DRAM channel.
///
/// The functional store is a sparse map of words so a 2 GiB address
/// space costs only what is touched.
#[derive(Debug, Clone)]
pub struct DramModel {
    config: DramConfig,
    words: HashMap<u64, u32>,
    banks: Vec<Bank>,
    bus_next_free: Cycle,
    reads: u64,
    writes: u64,
    row_hits: u64,
    row_misses: u64,
    /// Injected channel-wide latency-spike windows, `(start, end,
    /// extra)` half-open: accesses starting inside a window pay
    /// `extra` more cycles. Empty in normal operation — fault
    /// injection only.
    spikes: Vec<(Cycle, Cycle, Cycle)>,
}

impl DramModel {
    /// A model with the given channel parameters.
    pub fn new(config: DramConfig) -> Self {
        let banks = vec![Bank::default(); config.banks as usize];
        DramModel {
            config,
            words: HashMap::new(),
            banks,
            bus_next_free: 0,
            reads: 0,
            writes: 0,
            row_hits: 0,
            row_misses: 0,
            spikes: Vec::new(),
        }
    }

    /// Inject a fault window: accesses starting inside `[start, end)`
    /// pay `extra` additional cycles (channel-wide — a refresh storm
    /// or thermal throttle, not a per-bank event). Used by the chaos
    /// subsystem; windows survive [`DramModel::reset_timing`].
    pub fn inject_spike(&mut self, start: Cycle, end: Cycle, extra: Cycle) {
        self.spikes.push((start, end, extra));
    }

    /// The channel parameters.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Functional read of the word at byte `offset` (unwritten words
    /// read as zero, like zeroed pages).
    pub fn peek(&self, offset: u64) -> u32 {
        assert!(
            offset.is_multiple_of(4),
            "unaligned DRAM access at {offset:#x}"
        );
        *self.words.get(&(offset / 4)).unwrap_or(&0)
    }

    /// Functional write of the word at byte `offset`.
    pub fn poke(&mut self, offset: u64, value: u32) {
        assert!(
            offset.is_multiple_of(4),
            "unaligned DRAM access at {offset:#x}"
        );
        self.words.insert(offset / 4, value);
    }

    /// Time one line-sized access to byte `offset` arriving at the
    /// channel at `cycle`; returns the cycle the data burst completes.
    ///
    /// Line-interleaved bank mapping spreads consecutive lines across
    /// banks, which is DRAMSim3's default address map for streams.
    pub fn access(&mut self, offset: u64, cycle: Cycle, is_write: bool) -> Cycle {
        let line = offset / self.config.line_bytes;
        let bank_idx = (line % self.config.banks as u64) as usize;
        let row = offset / self.config.row_bytes;

        let bank = &mut self.banks[bank_idx];
        let mut start = cycle.max(bank.next_free);
        if !self.spikes.is_empty() {
            // Overlapping injected windows stack.
            start += self
                .spikes
                .iter()
                .filter(|&&(s, e, _)| s <= start && start < e)
                .map(|&(_, _, extra)| extra)
                .sum::<Cycle>();
        }
        let access_latency = match bank.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                self.config.t_cas
            }
            Some(_) => {
                self.row_misses += 1;
                self.config.t_rp + self.config.t_rcd + self.config.t_cas
            }
            None => {
                self.row_misses += 1;
                self.config.t_rcd + self.config.t_cas
            }
        };
        bank.open_row = Some(row);

        // The data burst must win the shared bus after the bank is ready.
        let bus_start = (start + access_latency).max(self.bus_next_free);
        let done = bus_start + self.config.t_bl;
        self.bus_next_free = done;
        bank.next_free = done;

        if is_write {
            self.writes += 1;
        } else {
            self.reads += 1;
        }
        done
    }

    /// (reads, writes) serviced so far.
    pub fn traffic(&self) -> (u64, u64) {
        (self.reads, self.writes)
    }

    /// (row-buffer hits, misses) observed so far.
    pub fn row_stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }

    /// Serialize functional contents, bank/bus timing state, and
    /// counters to canonical little-endian bytes. The sparse word map
    /// is emitted **sorted by word index** so equal states always
    /// produce identical bytes regardless of `HashMap` iteration
    /// order. Injected spike windows are *not* captured: they are
    /// scheduled faults reinstalled from the fault plan at machine
    /// construction, not accumulated state.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.words.len() * 12 + self.banks.len() * 17 + 48);
        let mut sorted: Vec<(u64, u32)> = self.words.iter().map(|(&k, &v)| (k, v)).collect();
        sorted.sort_unstable_by_key(|&(k, _)| k);
        put_u64(&mut out, sorted.len() as u64);
        for (k, v) in sorted {
            put_u64(&mut out, k);
            put_u32(&mut out, v);
        }
        put_u64(&mut out, self.banks.len() as u64);
        for b in &self.banks {
            match b.open_row {
                Some(row) => {
                    put_u8(&mut out, 1);
                    put_u64(&mut out, row);
                }
                None => {
                    put_u8(&mut out, 0);
                    put_u64(&mut out, 0);
                }
            }
            put_u64(&mut out, b.next_free);
        }
        put_u64(&mut out, self.bus_next_free);
        put_u64(&mut out, self.reads);
        put_u64(&mut out, self.writes);
        put_u64(&mut out, self.row_hits);
        put_u64(&mut out, self.row_misses);
        out
    }

    /// Reset timing and counters, preserving contents.
    pub fn reset_timing(&mut self) {
        for b in &mut self.banks {
            *b = Bank::default();
        }
        self.bus_next_free = 0;
        self.reads = 0;
        self.writes = 0;
        self.row_hits = 0;
        self.row_misses = 0;
    }
}

impl Default for DramModel {
    fn default() -> Self {
        DramModel::new(DramConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peek_defaults_to_zero() {
        let d = DramModel::default();
        assert_eq!(d.peek(0x1000), 0);
    }

    #[test]
    fn poke_peek_roundtrip() {
        let mut d = DramModel::default();
        d.poke(0x20, 99);
        assert_eq!(d.peek(0x20), 99);
        assert_eq!(d.peek(0x24), 0);
    }

    #[test]
    fn first_access_is_row_miss() {
        let mut d = DramModel::default();
        let cfg = d.config().clone();
        let done = d.access(0, 0, false);
        assert_eq!(done, cfg.t_rcd + cfg.t_cas + cfg.t_bl);
        assert_eq!(d.row_stats(), (0, 1));
    }

    #[test]
    fn row_hit_is_faster() {
        let mut d = DramModel::default();
        let cfg = d.config().clone();
        let t1 = d.access(0, 0, false);
        // Same row (same bank) later on:
        let t2 = d.access(4, t1 + 100, false);
        assert_eq!(t2 - (t1 + 100), cfg.t_cas + cfg.t_bl);
        assert_eq!(d.row_stats(), (1, 1));
    }

    #[test]
    fn row_conflict_pays_precharge() {
        let mut d = DramModel::default();
        let cfg = d.config().clone();
        let t1 = d.access(0, 0, false);
        // row_bytes * banks lands on bank 0 again (line-interleaved map,
        // row_bytes divisible by line_bytes) but in a different row.
        let same_bank_other_row = cfg.row_bytes * cfg.banks as u64;
        let line = same_bank_other_row / cfg.line_bytes;
        assert_eq!(
            line % cfg.banks as u64,
            0,
            "test address must map to bank 0"
        );
        let t2 = d.access(same_bank_other_row, t1 + 100, false);
        assert_eq!(t2 - (t1 + 100), cfg.t_rp + cfg.t_rcd + cfg.t_cas + cfg.t_bl);
    }

    #[test]
    fn bus_caps_bandwidth() {
        let mut d = DramModel::default();
        let cfg = d.config().clone();
        // Saturate: many accesses to different banks, all at cycle 0.
        let n = 32u64;
        let mut last = 0;
        for i in 0..n {
            last = d.access(i * cfg.line_bytes, 0, false);
        }
        // Throughput cannot exceed one burst per t_bl on the shared bus.
        assert!(last >= n * cfg.t_bl);
    }

    #[test]
    fn injected_spike_slows_accesses_inside_the_window() {
        let mut d = DramModel::default();
        let cfg = d.config().clone();
        let miss_latency = cfg.t_rcd + cfg.t_cas + cfg.t_bl;
        // Baseline cold miss.
        assert_eq!(d.access(0, 0, false), miss_latency);
        d.reset_timing();
        // Spiked cold miss: starts 40 cycles later.
        d.inject_spike(0, 100, 40);
        assert_eq!(d.access(0, 0, false), 40 + miss_latency);
        d.reset_timing();
        // Outside the window (spikes survive reset_timing, but this
        // access starts at 200 > end): normal latency again.
        assert_eq!(d.access(0, 200, false), 200 + miss_latency);
    }

    #[test]
    fn snapshot_is_canonical_and_covers_contents_and_timing() {
        let mut d = DramModel::default();
        // Insert in two different orders; snapshots must still match
        // byte-for-byte (sorted emission hides HashMap iteration order).
        for off in [0x100u64, 0x4, 0x2000, 0x40] {
            d.poke(off, off as u32 + 1);
        }
        d.access(0, 0, false);
        d.access(64, 10, true);
        let mut d2 = DramModel::default();
        for off in [0x2000u64, 0x40, 0x100, 0x4] {
            d2.poke(off, off as u32 + 1);
        }
        d2.access(0, 0, false);
        d2.access(64, 10, true);
        assert_eq!(d.snapshot(), d2.snapshot());
        assert_ne!(d.snapshot(), DramModel::default().snapshot());
        // Timing state alone is visible in the bytes too.
        let mut timed = DramModel::default();
        timed.access(0, 0, false);
        assert_ne!(timed.snapshot(), DramModel::default().snapshot());
    }

    #[test]
    fn reset_timing_preserves_data() {
        let mut d = DramModel::default();
        d.poke(8, 5);
        d.access(0, 0, true);
        d.reset_timing();
        assert_eq!(d.peek(8), 5);
        assert_eq!(d.traffic(), (0, 0));
    }
}
