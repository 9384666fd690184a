//! Flat shadow memory: one slot per simulated word, paged on first
//! touch, plus the arena of per-word access records.
//!
//! A word's slot number is dense: SPM words come first
//! (`core * spm_words + offset / 4`), then DRAM words by word index.
//! A slot holds flag bits and two ids (0 meaning "none"): its access
//! record in [`Records`] and its published clock in the sanitizer's
//! [`ClockArena`](crate::clock::ClockArena).

use mosaic_mem::{Addr, AddrMap, Region};

/// Inside a sync range the layout spec declares (DRAM words only).
pub(crate) const DECLARED_SYNC: u8 = 1 << 0;
/// Classified as synchronization by an AMO; cleared when its frame pops.
pub(crate) const STICKY_SYNC: u8 = 1 << 1;
/// Inside a frozen captured environment; cleared when its frame pops.
pub(crate) const FROZEN: u8 = 1 << 2;
/// A lock word the layout spec declares.
pub(crate) const LOCK: u8 = 1 << 3;

/// Slots per shadow page.
const PAGE_SLOTS: usize = 1024;

/// The shadow state of one word.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) flags: u8,
    /// Id of the word's access record (data words only), or 0.
    pub(crate) record: u32,
    /// Id of the word's published clock (sync and SPM words), or 0.
    pub(crate) clock: u32,
}

impl Slot {
    /// `true` for a declared or AMO-classified sync word.
    pub(crate) fn is_sync(self) -> bool {
        self.flags & (DECLARED_SYNC | STICKY_SYNC) != 0
    }
}

type Page = [Slot; PAGE_SLOTS];

/// The slot table.
#[derive(Debug)]
pub(crate) struct Shadow {
    map: AddrMap,
    spm_words: usize,
    /// First DRAM slot (every SPM word comes before it).
    dram_slot: usize,
    /// Page `p` holds slots `p * PAGE_SLOTS ..`; `None` is all-default.
    pages: Vec<Option<Box<Page>>>,
    /// Spec-derived flags as `[lo, hi)` slot ranges; a page is created
    /// with the flags of every range it overlaps.
    spec_flags: Vec<(usize, usize, u8)>,
}

impl Shadow {
    /// An empty table for the machine `map` addresses.
    pub(crate) fn new(map: AddrMap) -> Self {
        let spm_words = map.spm_size() as usize / 4;
        Shadow {
            dram_slot: map.cores() as usize * spm_words,
            spm_words,
            map,
            pages: Vec::new(),
            spec_flags: Vec::new(),
        }
    }

    /// Decode a hook's (word-aligned) address into its region and slot.
    pub(crate) fn decode(&self, addr: Addr) -> (Region, usize) {
        let region = self.map.decode(addr);
        (region, self.slot(region))
    }

    /// The slot of a raw word address taken from a note or the spec;
    /// `None` when no aligned access can reach it.
    pub(crate) fn slot_of_raw(&self, raw: u64) -> Option<usize> {
        let addr = Addr(raw);
        if !addr.is_word_aligned() {
            return None;
        }
        self.map.try_decode(addr).map(|r| self.slot(r))
    }

    fn slot(&self, region: Region) -> usize {
        match region {
            Region::Spm { core, offset } => core as usize * self.spm_words + offset as usize / 4,
            Region::Dram { offset } => self.dram_slot + (offset / 4) as usize,
        }
    }

    /// Slot `s`, creating its page on first touch.
    pub(crate) fn get_mut(&mut self, s: usize) -> &mut Slot {
        let p = s / PAGE_SLOTS;
        if !matches!(self.pages.get(p), Some(Some(_))) {
            self.add_page(p);
        }
        let page = self.pages[p].as_mut().expect("page exists");
        &mut page[s % PAGE_SLOTS]
    }

    #[cold]
    fn add_page(&mut self, p: usize) {
        if p >= self.pages.len() {
            self.pages.resize_with(p + 1, || None);
        }
        let mut page = Box::new([Slot::default(); PAGE_SLOTS]);
        apply_flags(&mut page, p, &self.spec_flags);
        self.pages[p] = Some(page);
    }

    /// Replace the spec-derived flags: declared sync ranges (raw
    /// `[lo, hi)`, of which only the DRAM part matters — SPM words are
    /// never data-race-checked) and lock words.
    pub(crate) fn set_spec_flags(&mut self, sync_ranges: &[(u64, u64)], lock_words: &[u64]) {
        let dram_lo = AddrMap::DRAM_BASE;
        let dram_hi = dram_lo + self.map.dram_size();
        let word = |raw: u64| self.dram_slot + ((raw - dram_lo).div_ceil(4)) as usize;
        let mut flags = Vec::new();
        for &(lo, hi) in sync_ranges {
            let (lo, hi) = (lo.max(dram_lo), hi.min(dram_hi));
            if lo < hi {
                flags.push((word(lo), word(hi), DECLARED_SYNC));
            }
        }
        for &raw in lock_words {
            if let Some(s) = self.slot_of_raw(raw) {
                flags.push((s, s + 1, LOCK));
            }
        }
        self.spec_flags = flags;
        for (p, page) in self.pages.iter_mut().enumerate() {
            if let Some(page) = page {
                for slot in page.iter_mut() {
                    slot.flags &= !(DECLARED_SYNC | LOCK);
                }
                apply_flags(page, p, &self.spec_flags);
            }
        }
    }
}

fn apply_flags(page: &mut Page, p: usize, spec_flags: &[(usize, usize, u8)]) {
    let (base, end) = (p * PAGE_SLOTS, (p + 1) * PAGE_SLOTS);
    for &(lo, hi, flag) in spec_flags {
        let (lo, hi) = (lo.clamp(base, end) - base, hi.clamp(base, end) - base);
        for slot in &mut page[lo..hi] {
            slot.flags |= flag;
        }
    }
}

/// One recorded access to a data word.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Access {
    pub(crate) core: usize,
    pub(crate) epoch: u32,
    pub(crate) cycle: u64,
    /// Issued through the relaxed-atomic API: unordered pairs where
    /// both sides are relaxed are not races (C++ `memory_order_relaxed`
    /// semantics); relaxed vs. plain still is.
    pub(crate) relaxed: bool,
}

/// The access history of an ordinary DRAM data word.
#[derive(Debug, Default)]
pub(crate) struct Record {
    pub(crate) write: Option<Access>,
    /// Most recent read per core, in first-read order (race details
    /// are reported in this order).
    pub(crate) reads: Vec<Access>,
}

/// Access records, recycled through a free list. Ids are nonzero.
#[derive(Debug, Default)]
pub(crate) struct Records {
    records: Vec<Record>,
    free: Vec<u32>,
}

impl Records {
    /// An empty record; returns its id.
    pub(crate) fn alloc(&mut self) -> u32 {
        if let Some(id) = self.free.pop() {
            return id;
        }
        self.records.push(Record::default());
        u32::try_from(self.records.len()).expect("fewer than 2^32 live records")
    }

    /// The record named `id`.
    pub(crate) fn get(&self, id: u32) -> &Record {
        &self.records[id as usize - 1]
    }

    /// The record named `id`, mutably.
    pub(crate) fn get_mut(&mut self, id: u32) -> &mut Record {
        &mut self.records[id as usize - 1]
    }

    /// Clear record `id` and return it to the free list (its reader
    /// list keeps its capacity).
    pub(crate) fn free(&mut self, id: u32) {
        let r = self.get_mut(id);
        r.write = None;
        r.reads.clear();
        self.free.push(id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_are_dense_per_region() {
        let map = AddrMap::new(4, 4096);
        let sh = Shadow::new(map.clone());
        assert_eq!(sh.decode(map.spm_addr(0, 0)).1, 0);
        assert_eq!(sh.decode(map.spm_addr(1, 8)).1, 1024 + 2);
        assert_eq!(sh.decode(map.spm_addr(3, 4092)).1, 4 * 1024 - 1);
        assert_eq!(sh.decode(map.dram_addr(0)).1, 4 * 1024);
        assert_eq!(sh.decode(map.dram_addr(40)).1, 4 * 1024 + 10);
        assert_eq!(sh.slot_of_raw(map.dram_addr(40).raw()), Some(4 * 1024 + 10));
        assert_eq!(sh.slot_of_raw(map.dram_addr(42).raw()), None, "unaligned");
        assert_eq!(
            sh.slot_of_raw(AddrMap::SPM_BASE + 4096),
            None,
            "past core 0's SPM"
        );
    }

    #[test]
    fn spec_flags_reach_new_and_existing_pages() {
        let map = AddrMap::new(2, 4096);
        let mut sh = Shadow::new(map.clone());
        let dram = |off: u64| map.dram_addr(off);
        let early = sh.decode(dram(8)).1;
        sh.get_mut(early);
        let lock = map.spm_addr(1, 64).raw();
        // A range with unaligned ends covers the words whose address
        // falls inside it: 8 and 12 here, not 4 or 16.
        sh.set_spec_flags(&[(dram(5).raw(), dram(13).raw())], &[lock]);
        assert_eq!(sh.get_mut(early).flags, DECLARED_SYNC);
        assert_eq!(sh.get_mut(sh.decode(dram(12)).1).flags, DECLARED_SYNC);
        assert_eq!(sh.get_mut(sh.decode(dram(4)).1).flags, 0);
        assert_eq!(sh.get_mut(sh.decode(dram(16)).1).flags, 0);
        assert_eq!(sh.get_mut(sh.decode(Addr(lock)).1).flags, LOCK);
        // A later spec replaces the earlier one's flags.
        sh.set_spec_flags(&[], &[]);
        assert_eq!(sh.get_mut(early).flags, 0);
    }

    #[test]
    fn freed_records_come_back_empty() {
        let mut recs = Records::default();
        let a = recs.alloc();
        recs.get_mut(a).reads.push(Access {
            core: 1,
            epoch: 1,
            cycle: 5,
            relaxed: false,
        });
        recs.free(a);
        assert_eq!(recs.alloc(), a);
        assert!(recs.get(a).reads.is_empty() && recs.get(a).write.is_none());
    }
}
