//! The banked last-level cache.
//!
//! HammerBlade backs its DRAM address space with a banked LLC (32 banks
//! on the 128-core part, paper Figure 2). Each bank is set-associative
//! with LRU replacement and write-back/write-allocate policy. The LLC
//! is the *only* cache in the system and is shared, so there is no
//! coherence problem; functional data always lives in the DRAM backing
//! store and the LLC tracks tags and dirtiness for timing.
//!
//! AMOs to DRAM addresses execute at the owning LLC bank, which is what
//! makes them atomic system-wide.

use crate::dram::DramModel;
use crate::snap::{put_u64, put_u8};
use crate::Cycle;

/// Geometry and latency of the LLC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LlcConfig {
    /// Number of banks (each mapped to a mesh node by `mosaic-sim`).
    pub banks: u32,
    /// Sets per bank.
    pub sets: u32,
    /// Ways per set.
    pub ways: u32,
    /// Bytes per line.
    pub line_bytes: u64,
    /// Tag + data access latency on a hit, in cycles.
    pub hit_latency: Cycle,
}

impl LlcConfig {
    /// Total capacity in bytes across all banks.
    pub fn capacity(&self) -> u64 {
        self.banks as u64 * self.sets as u64 * self.ways as u64 * self.line_bytes
    }
}

impl Default for LlcConfig {
    fn default() -> Self {
        // 32 banks x 64 sets x 8 ways x 64 B = 1 MiB, HammerBlade-class.
        LlcConfig {
            banks: 32,
            sets: 64,
            ways: 8,
            line_bytes: 64,
            hit_latency: 6,
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Way {
    valid: bool,
    dirty: bool,
    tag: u64,
    /// Monotonic LRU stamp; larger = more recently used.
    lru: u64,
}

#[derive(Debug, Clone)]
struct LlcBank {
    ways: Vec<Way>, // sets * ways
    next_free: Cycle,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

/// The banked LLC plus its miss path into a [`DramModel`].
#[derive(Debug, Clone)]
pub struct Llc {
    config: LlcConfig,
    banks: Vec<LlcBank>,
    lru_clock: u64,
    /// Injected latency-spike windows, `(bank, start, end, extra)`
    /// half-open: accesses starting inside a window pay `extra` more
    /// cycles. Empty in normal operation — fault injection only.
    spikes: Vec<(u32, Cycle, Cycle, Cycle)>,
}

/// Result of timing one LLC access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcAccess {
    /// Cycle at which the requested word is available at the bank.
    pub done: Cycle,
    /// Whether the access hit in the cache.
    pub hit: bool,
}

impl Llc {
    /// A cold cache with the given geometry.
    pub fn new(config: LlcConfig) -> Self {
        let bank = LlcBank {
            ways: vec![Way::default(); (config.sets * config.ways) as usize],
            next_free: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        };
        let banks = vec![bank; config.banks as usize];
        Llc {
            config,
            banks,
            lru_clock: 0,
            spikes: Vec::new(),
        }
    }

    /// Inject a fault window: accesses to bank `bank` starting inside
    /// `[start, end)` pay `extra` additional cycles. Used by the chaos
    /// subsystem; windows survive [`Llc::reset`].
    pub fn inject_bank_spike(&mut self, bank: u32, start: Cycle, end: Cycle, extra: Cycle) {
        debug_assert!(bank < self.config.banks, "spike on unknown bank");
        self.spikes.push((bank, start, end, extra));
    }

    /// Total extra latency injected windows charge an access to
    /// `bank` starting at cycle `t` (overlapping windows stack).
    #[inline]
    fn spike_extra(&self, bank: usize, t: Cycle) -> Cycle {
        self.spikes
            .iter()
            .filter(|&&(b, start, end, _)| b as usize == bank && start <= t && t < end)
            .map(|&(_, _, _, extra)| extra)
            .sum()
    }

    /// The cache geometry.
    pub fn config(&self) -> &LlcConfig {
        &self.config
    }

    /// Which bank serves the DRAM byte `offset` (line-interleaved).
    pub fn bank_of(&self, offset: u64) -> u32 {
        ((offset / self.config.line_bytes) % self.config.banks as u64) as u32
    }

    /// Time one word access to DRAM byte `offset` arriving at its bank
    /// at `cycle`. Misses (and dirty evictions) recurse into `dram`.
    pub fn access(
        &mut self,
        offset: u64,
        cycle: Cycle,
        is_write: bool,
        dram: &mut DramModel,
    ) -> LlcAccess {
        let line = offset / self.config.line_bytes;
        let bank_idx = (line % self.config.banks as u64) as usize;
        let line_in_bank = line / self.config.banks as u64;
        let set = (line_in_bank % self.config.sets as u64) as usize;
        let tag = line_in_bank / self.config.sets as u64;

        self.lru_clock += 1;
        let stamp = self.lru_clock;
        let ways = self.config.ways as usize;
        // Injected fault windows slow the whole access down; computed
        // before borrowing the bank mutably, and zero when no faults
        // are scheduled.
        let arrive = cycle.max(self.banks[bank_idx].next_free);
        let extra = if self.spikes.is_empty() {
            0
        } else {
            self.spike_extra(bank_idx, arrive)
        };
        let bank = &mut self.banks[bank_idx];

        let start = arrive + extra;
        let slot = &mut bank.ways[set * ways..(set + 1) * ways];

        // Hit?
        if let Some(w) = slot.iter_mut().find(|w| w.valid && w.tag == tag) {
            w.lru = stamp;
            w.dirty |= is_write;
            bank.hits += 1;
            let done = start + self.config.hit_latency;
            bank.next_free = start + 1; // pipelined bank: 1 access/cycle
            return LlcAccess { done, hit: true };
        }

        // Miss: pick the LRU way (preferring invalid ways).
        bank.misses += 1;
        let victim = slot
            .iter_mut()
            .min_by_key(|w| if w.valid { w.lru + 1 } else { 0 })
            .expect("set has at least one way");

        let mut t = start + self.config.hit_latency; // tag check first
        if victim.valid && victim.dirty {
            // Write back the victim line before the fill.
            bank.writebacks += 1;
            let victim_line = (victim.tag * self.config.sets as u64 + set as u64)
                * self.config.banks as u64
                + bank_idx as u64;
            let victim_offset = victim_line * self.config.line_bytes;
            t = dram.access(victim_offset, t, true);
        }
        // Fill from DRAM.
        let fill_done = dram.access(line * self.config.line_bytes, t, false);
        victim.valid = true;
        victim.dirty = is_write;
        victim.tag = tag;
        victim.lru = stamp;

        bank.next_free = start + 1;
        LlcAccess {
            done: fill_done,
            hit: false,
        }
    }

    /// Per-bank `(hits, misses)`, in bank order. The profiler's LLC
    /// heatmap is built from these; bank skew here means the line
    /// interleave is not spreading the working set.
    pub fn bank_stats(&self) -> Vec<(u64, u64)> {
        self.banks.iter().map(|b| (b.hits, b.misses)).collect()
    }

    /// (hits, misses, writebacks) across all banks.
    pub fn stats(&self) -> (u64, u64, u64) {
        let mut h = 0;
        let mut m = 0;
        let mut w = 0;
        for b in &self.banks {
            h += b.hits;
            m += b.misses;
            w += b.writebacks;
        }
        (h, m, w)
    }

    /// Serialize tag/LRU/dirtiness state, per-bank timing, counters,
    /// and the LRU clock to canonical little-endian bytes. Injected
    /// spike windows are *not* captured — they are scheduled faults
    /// reinstalled from the fault plan at machine construction.
    pub fn snapshot(&self) -> Vec<u8> {
        let ways_per_bank = (self.config.sets * self.config.ways) as usize;
        let mut out = Vec::with_capacity(self.banks.len() * (ways_per_bank * 18 + 40) + 16);
        put_u64(&mut out, self.banks.len() as u64);
        for b in &self.banks {
            put_u64(&mut out, b.ways.len() as u64);
            for w in &b.ways {
                put_u8(&mut out, w.valid as u8);
                put_u8(&mut out, w.dirty as u8);
                put_u64(&mut out, w.tag);
                put_u64(&mut out, w.lru);
            }
            put_u64(&mut out, b.next_free);
            put_u64(&mut out, b.hits);
            put_u64(&mut out, b.misses);
            put_u64(&mut out, b.writebacks);
        }
        put_u64(&mut out, self.lru_clock);
        out
    }

    /// Drop all cached lines and timing state.
    pub fn reset(&mut self) {
        for b in &mut self.banks {
            b.ways.fill(Way::default());
            b.next_free = 0;
            b.hits = 0;
            b.misses = 0;
            b.writebacks = 0;
        }
        self.lru_clock = 0;
    }
}

impl Default for Llc {
    fn default() -> Self {
        Llc::new(LlcConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> (Llc, DramModel) {
        let cfg = LlcConfig {
            banks: 2,
            sets: 2,
            ways: 2,
            line_bytes: 64,
            hit_latency: 4,
        };
        (Llc::new(cfg), DramModel::default())
    }

    #[test]
    fn cold_miss_then_hit() {
        let (mut llc, mut dram) = tiny();
        let a = llc.access(0, 0, false, &mut dram);
        assert!(!a.hit);
        let b = llc.access(4, a.done, false, &mut dram);
        assert!(b.hit, "same line must hit");
        assert_eq!(b.done - a.done, llc.config().hit_latency);
    }

    #[test]
    fn different_lines_map_to_different_banks() {
        let (llc, _) = tiny();
        assert_ne!(llc.bank_of(0), llc.bank_of(64));
        assert_eq!(llc.bank_of(0), llc.bank_of(128));
    }

    #[test]
    fn lru_evicts_oldest() {
        let (mut llc, mut dram) = tiny();
        // Bank 0, set 0 holds lines whose (line/banks) % sets == 0:
        // lines 0, 4, 8 (line = offset/64, bank = line%2, set = (line/2)%2).
        let line_offsets = [0u64, 4 * 64, 8 * 64];
        let mut t = 0;
        for &o in &line_offsets[..2] {
            t = llc.access(o, t, false, &mut dram).done;
        }
        // Touch line 0 so line 4*64 becomes LRU.
        t = llc.access(0, t, false, &mut dram).done;
        assert!(llc.access(0, t, false, &mut dram).hit);
        // Insert third line: evicts 4*64, keeps 0.
        t = llc.access(line_offsets[2], t, false, &mut dram).done;
        assert!(llc.access(0, t, false, &mut dram).hit, "MRU line survives");
        assert!(
            !llc.access(line_offsets[1], t + 100, false, &mut dram).hit,
            "LRU line was evicted"
        );
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (mut llc, mut dram) = tiny();
        // Fill set 0 of bank 0 with dirty lines, then force evictions.
        let offs = [0u64, 4 * 64, 8 * 64, 12 * 64];
        let mut t = 0;
        for &o in &offs {
            t = llc.access(o, t, true, &mut dram).done;
        }
        let (_, _, wb) = llc.stats();
        assert!(wb >= 2, "expected dirty writebacks, saw {wb}");
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let (mut llc, mut dram) = tiny();
        llc.access(0, 0, false, &mut dram);
        llc.access(0, 100, false, &mut dram);
        llc.access(0, 200, false, &mut dram);
        assert_eq!(llc.stats(), (2, 1, 0));
    }

    #[test]
    fn bank_stats_split_by_bank() {
        let (mut llc, mut dram) = tiny();
        llc.access(0, 0, false, &mut dram); // bank 0 miss
        llc.access(4, 100, false, &mut dram); // bank 0 hit
        llc.access(64, 200, false, &mut dram); // bank 1 miss
        assert_eq!(llc.bank_stats(), vec![(1, 1), (0, 1)]);
    }

    #[test]
    fn reset_makes_cache_cold() {
        let (mut llc, mut dram) = tiny();
        llc.access(0, 0, false, &mut dram);
        llc.reset();
        assert!(!llc.access(0, 0, false, &mut dram).hit);
    }

    #[test]
    fn injected_bank_spike_slows_accesses_inside_the_window() {
        let (mut llc, mut dram) = tiny();
        // Warm the line so both probes are hits with known latency.
        let warm = llc.access(0, 0, false, &mut dram).done;
        let baseline = llc.access(0, warm, false, &mut dram);
        assert!(baseline.hit);
        let hit_latency = llc.config().hit_latency;
        assert_eq!(baseline.done, warm + hit_latency);
        // Spike bank 0 around a later window and access inside it.
        let t0 = baseline.done + 100;
        llc.inject_bank_spike(0, t0, t0 + 50, 25);
        let spiked = llc.access(0, t0, false, &mut dram);
        assert!(spiked.hit);
        assert_eq!(spiked.done, t0 + 25 + hit_latency);
        // Outside the window, latency is back to normal.
        let after = llc.access(0, t0 + 1000, false, &mut dram);
        assert_eq!(after.done, t0 + 1000 + hit_latency);
        // Windows survive reset (scheduled faults, not cache state).
        llc.reset();
        let cold = llc.access(0, t0, false, &mut dram);
        assert!(!cold.hit);
    }

    #[test]
    fn snapshot_is_canonical_and_covers_warm_state() {
        let warm = || {
            let (mut llc, mut dram) = tiny();
            let mut t = 0;
            for &o in &[0u64, 4 * 64, 64, 8 * 64] {
                t = llc.access(o, t, true, &mut dram).done;
            }
            llc
        };
        assert_eq!(warm().snapshot(), warm().snapshot());
        assert_ne!(warm().snapshot(), tiny().0.snapshot());
    }

    #[test]
    fn default_capacity_is_1mib() {
        assert_eq!(LlcConfig::default().capacity(), 1 << 20);
    }
}
