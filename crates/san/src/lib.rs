#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-san
//!
//! A TSan/ASan-style memory-model sanitizer for the simulated machine:
//! a host-side checking layer over every timed load, store, and AMO
//! that validates the delicate invariants the SPM optimizations rely
//! on, without charging a single simulated cycle (golden numbers are
//! byte-identical with the sanitizer on or off).
//!
//! ## Checks
//!
//! - **Happens-before race detection** (vector clocks, FastTrack
//!   style): a `fence` snapshots the core's clock as its *release*
//!   clock and advances its epoch; stores and AMOs publish the release
//!   clock on synchronization words; loads and AMOs of such words
//!   acquire-join it (loads act as acquires because the modeled cores
//!   issue blocking in-order loads). Unordered write/write, read/write,
//!   or write/read pairs on ordinary DRAM data words are reported with
//!   both cores, cycles, and the address.
//! - **Synchronization classification**: DRAM words become
//!   synchronization words the first time they are targeted by an AMO
//!   (ready counters, the barrier) — the transition itself is
//!   race-checked — and the runtime declares always-sync regions
//!   (queue blocks, the queue directory, the hunger board) where
//!   intentional benign races such as unlocked emptiness peeks live.
//!   SPM words are never data-race-checked (each SPM has a single
//!   owner for private data; shared SPM words — mailboxes, queue
//!   blocks — are protocol state) but they do transfer clocks, so
//!   release edges through SPM mailboxes order subsequent DRAM reads.
//!   Workloads annotate intentional benign races (e.g. pull-direction
//!   BFS peeking at the level array while claimers update it) with the
//!   relaxed-atomic accessors ([`Sanitizer::load_relaxed`],
//!   [`Sanitizer::store_relaxed`]): relaxed↔relaxed pairs never race,
//!   relaxed↔plain pairs still do, and relaxed accesses carry no
//!   ordering — exactly C++ `memory_order_relaxed`.
//! - **SPM layout discipline**: remote accesses into another core's
//!   private `spm_reserve` region; shadow-stack tracking of frame
//!   pushes/pops that catches SPM stack growth crossing the
//!   DRAM-overflow threshold, frames pushed out of placement order,
//!   DRAM stack exhaustion, and pops of an empty stack.
//! - **Read-only captured environments**: the runtime freezes each
//!   environment block after materializing it; any later store into a
//!   frozen word is reported. Freezes expire when the owning frame
//!   pops.
//! - **Lock discipline** on the queue locks: release without a
//!   matching acquire (double release), release by a non-owner,
//!   release stores issued with the store queue non-empty (a missing
//!   release fence), and locks still held at exit.
//!
//! The checker deliberately treats a plain store as publishing the
//! core's *release* (post-fence) clock rather than its full clock:
//! that is exactly the ordering the hardware guarantees (stores drain
//! in order after a fence), so a reader polling an unfenced mailbox
//! store never gains spurious edges from it.
//!
//! ## Shadow layout and cost
//!
//! Every simulated word has a slot in one flat shadow table, paged on
//! first touch (FastTrack-style shadow memory, Flanagan & Freund, PLDI
//! 2009). Slots are dense: SPM words first (`core × spm_words +
//! offset/4`), then DRAM words by word index, so a hook finds its slot
//! with the address decode it does anyway. A slot holds four flag bits
//! (declared sync range, AMO-sticky sync, frozen, lock word) and two
//! ids: the word's access record (last write, then its readers in
//! first-read order, the order race details are reported in) and its
//! published clock, in an arena of vector clocks stored back to back.
//! Records and clocks are recycled through free lists. A frame pop
//! frees the records and clocks of the frame's slots and clears their
//! sticky and frozen bits; the declared bits come from the
//! [`LayoutSpec`] and stay. Epochs are `u32`: a core's epoch advances
//! once per fence, so four billion fences per core fit, halving the
//! clocks against `u64`, and an overflow panics rather than wraps.

mod clock;
mod notes;
mod report;
mod shadow;
mod spec;

pub use notes::{Note, NoteSink};
pub use report::{DiagKind, Diagnostic, SanReport, MAX_DETAILED};
pub use spec::LayoutSpec;

use clock::{ClockArena, VectorClock};
use mosaic_mem::{Addr, AddrMap, AmoOp, Region};
use shadow::{Access, Records, Shadow, Slot, FROZEN, LOCK, STICKY_SYNC};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

/// Host-side mirror of one core's stack engine.
#[derive(Debug, Default)]
struct ShadowStack {
    frames: Vec<(u64, u32, bool)>,
    spm_words: u32,
    dram_words: u32,
}

/// The sanitizer. Owned by the `Machine` when enabled; see the crate
/// docs for the checks it performs.
#[derive(Debug)]
pub struct Sanitizer {
    spec: Option<LayoutSpec>,
    /// Per-core happens-before clock.
    clocks: Vec<VectorClock>,
    /// Per-core release clock: snapshot of `clocks[c]` at its last
    /// fence (what that core's drained stores are ordered after).
    release: Vec<VectorClock>,
    /// Stores issued since the core's last fence (for the unfenced
    /// lock-release check).
    stores_since_fence: Vec<u64>,
    /// Per-word flags and record/clock ids.
    shadow: Shadow,
    /// Access records of ordinary DRAM data words.
    records: Records,
    /// Published clocks of sync and SPM words.
    published: ClockArena,
    /// Current holder of each declared lock word.
    lock_owner: BTreeMap<u64, Option<usize>>,
    stacks: Vec<ShadowStack>,
    notes: NoteSink,
    /// The buffer the note queue is swapped with when it drains, so
    /// neither side reallocates.
    note_batch: Vec<Note>,
    /// Cycle of the most recent hook (used for note-derived findings).
    now: u64,
    diagnostics: Vec<Diagnostic>,
    dedup: BTreeSet<(DiagKind, u64)>,
    counts: BTreeMap<DiagKind, u64>,
    total: u64,
    ops: u64,
}

impl Sanitizer {
    /// A fresh sanitizer for a `cores`-core machine addressed by `map`.
    ///
    /// Cores start at epoch 1 so that an access by core `c` is *not*
    /// considered ordered before other cores until they actually join
    /// `c`'s clock.
    pub fn new(map: AddrMap, cores: usize) -> Self {
        let mut clocks = Vec::with_capacity(cores);
        for c in 0..cores {
            let mut vc = VectorClock::new(cores);
            vc.set(c, 1);
            clocks.push(vc);
        }
        Sanitizer {
            spec: None,
            clocks,
            release: vec![VectorClock::new(cores); cores],
            stores_since_fence: vec![0; cores],
            shadow: Shadow::new(map),
            records: Records::default(),
            published: ClockArena::new(cores),
            lock_owner: BTreeMap::new(),
            stacks: (0..cores).map(|_| ShadowStack::default()).collect(),
            notes: Rc::new(RefCell::new(Vec::new())),
            note_batch: Vec::new(),
            now: 0,
            diagnostics: Vec::new(),
            dedup: BTreeSet::new(),
            counts: BTreeMap::new(),
            total: 0,
            ops: 0,
        }
    }

    /// Install the runtime's layout description (enables the SPM, lock,
    /// and stack checks).
    pub fn set_spec(&mut self, spec: LayoutSpec) {
        for &lk in &spec.lock_words {
            self.lock_owner.insert(lk, None);
        }
        self.shadow
            .set_spec_flags(&spec.sync_ranges, &spec.lock_words);
        self.spec = Some(spec);
    }

    /// The shared note queue the runtime should push annotations into.
    pub fn note_sink(&self) -> NoteSink {
        self.notes.clone()
    }

    // ------------------------------------------------------------------
    // Hooks (called by the Machine on every timed access)
    // ------------------------------------------------------------------

    /// Observe a timed load.
    pub fn load(&mut self, core: usize, addr: Addr, cycle: u64) {
        let (region, s, slot) = self.begin(addr, cycle);
        let raw = addr.raw();
        match region {
            Region::Spm {
                core: owner,
                offset,
            } => {
                self.check_remote_spm(core, owner as usize, offset, raw, cycle);
                self.join(core, slot.clock);
            }
            Region::Dram { .. } => {
                if slot.is_sync() {
                    self.join(core, slot.clock);
                } else {
                    self.check_data_read(core, s, raw, cycle, false);
                }
            }
        }
    }

    /// Observe a timed relaxed-atomic load: no acquire edge, and not a
    /// race against other relaxed accesses (the annotation for
    /// intentional benign races, e.g. Ligra-style pull BFS peeking at
    /// the level array while claimers update it).
    pub fn load_relaxed(&mut self, core: usize, addr: Addr, cycle: u64) {
        let (region, s, slot) = self.begin(addr, cycle);
        let raw = addr.raw();
        match region {
            Region::Spm {
                core: owner,
                offset,
            } => {
                self.check_remote_spm(core, owner as usize, offset, raw, cycle);
            }
            Region::Dram { .. } => {
                if !slot.is_sync() {
                    self.check_data_read(core, s, raw, cycle, true);
                }
            }
        }
    }

    /// Observe a timed store.
    pub fn store(&mut self, core: usize, addr: Addr, value: u32, cycle: u64) {
        let (region, s, slot) = self.begin(addr, cycle);
        let raw = addr.raw();
        if slot.flags & FROZEN != 0 {
            self.diag_frozen(core, raw, cycle, "store into");
        }
        if slot.flags & LOCK != 0 {
            self.check_lock_store(core, raw, value, cycle);
        }
        match region {
            Region::Spm {
                core: owner,
                offset,
            } => {
                self.check_remote_spm(core, owner as usize, offset, raw, cycle);
                self.publish(core, s);
            }
            Region::Dram { .. } => {
                if slot.is_sync() {
                    self.publish(core, s);
                } else {
                    self.check_data_write(core, s, raw, cycle, false);
                }
            }
        }
        self.stores_since_fence[core] += 1;
    }

    /// Observe a timed relaxed-atomic store: no release edge, and not a
    /// race against other relaxed accesses. Frozen-environment and lock
    /// checks still apply — relaxing the ordering does not make those
    /// writes legal.
    pub fn store_relaxed(&mut self, core: usize, addr: Addr, value: u32, cycle: u64) {
        let (region, s, slot) = self.begin(addr, cycle);
        let raw = addr.raw();
        if slot.flags & FROZEN != 0 {
            self.diag_frozen(core, raw, cycle, "relaxed store into");
        }
        if slot.flags & LOCK != 0 {
            self.check_lock_store(core, raw, value, cycle);
        }
        match region {
            Region::Spm {
                core: owner,
                offset,
            } => {
                self.check_remote_spm(core, owner as usize, offset, raw, cycle);
            }
            Region::Dram { .. } => {
                if !slot.is_sync() {
                    self.check_data_write(core, s, raw, cycle, true);
                }
            }
        }
        // The store still occupies the store queue, so it counts
        // against the unfenced-lock-release check.
        self.stores_since_fence[core] += 1;
    }

    /// Observe a timed AMO (`old` is the value it read).
    pub fn amo(&mut self, core: usize, addr: Addr, op: AmoOp, operand: u32, old: u32, cycle: u64) {
        let (region, s, slot) = self.begin(addr, cycle);
        let raw = addr.raw();
        if slot.flags & FROZEN != 0 {
            self.diag_frozen(core, raw, cycle, "AMO on");
        }
        // Lock acquire: a successful amoswap of nonzero over zero.
        if op == AmoOp::Swap && operand != 0 && old == 0 && slot.flags & LOCK != 0 {
            self.lock_owner.insert(raw, Some(core));
        }
        match region {
            Region::Spm {
                core: owner,
                offset,
            } => {
                self.check_remote_spm(core, owner as usize, offset, raw, cycle);
            }
            Region::Dram { .. } => {
                if !slot.is_sync() {
                    // Sticky classification: the first AMO turns a data
                    // word into a synchronization word. The transition is
                    // checked against earlier *writes* only — earlier plain
                    // loads of a soon-to-be-sync word are the intended
                    // acquire-side spin pattern (readers acquire on every
                    // load in this memory model), not a race.
                    self.check_sync_transition(core, s, raw, cycle);
                    let word = self.shadow.get_mut(s);
                    word.flags |= STICKY_SYNC;
                    if word.record != 0 {
                        self.records.free(word.record);
                        word.record = 0;
                    }
                }
            }
        }
        self.join(core, slot.clock);
        self.publish(core, s);
    }

    /// Observe a fence (store-queue drain): snapshot the release clock
    /// and start a new epoch.
    pub fn fence(&mut self, core: usize, cycle: u64) {
        self.enter(cycle);
        self.release[core].copy_from(&self.clocks[core]);
        self.clocks[core].tick(core);
        self.stores_since_fence[core] = 0;
    }

    /// End-of-run checks (locks still held).
    pub fn finish(&mut self) {
        self.drain_notes();
        let held: Vec<(u64, usize)> = self
            .lock_owner
            .iter()
            .filter_map(|(&a, &o)| o.map(|c| (a, c)))
            .collect();
        for (addr, core) in held {
            let now = self.now;
            self.diag(
                DiagKind::LockHeldAtExit,
                addr,
                core,
                now,
                None,
                None,
                "lock never released before shutdown".into(),
            );
        }
    }

    /// The aggregated report.
    pub fn report(&self) -> SanReport {
        SanReport {
            diagnostics: self.diagnostics.clone(),
            total: self.total,
            counts: self.counts.clone(),
            ops: self.ops,
        }
    }

    // ------------------------------------------------------------------
    // Internals
    // ------------------------------------------------------------------

    fn enter(&mut self, cycle: u64) {
        self.now = self.now.max(cycle);
        if !self.notes.borrow().is_empty() {
            self.drain_notes();
        }
    }

    /// The common prologue of a memory-op hook: count the op and
    /// locate `addr`'s region, slot number, and slot.
    fn begin(&mut self, addr: Addr, cycle: u64) -> (Region, usize, Slot) {
        self.enter(cycle);
        self.ops += 1;
        let (region, s) = self.shadow.decode(addr);
        (region, s, *self.shadow.get_mut(s))
    }

    /// Acquire-join published clock `id` (0: none) of a sync/SPM word.
    fn join(&mut self, core: usize, id: u32) {
        if id != 0 {
            self.clocks[core].join(self.published.get(id));
        }
    }

    /// Publish the core's release clock on the sync/SPM word in slot `s`.
    fn publish(&mut self, core: usize, s: usize) {
        let slot = self.shadow.get_mut(s);
        slot.clock = self.published.publish(slot.clock, &self.release[core]);
    }

    fn diag_frozen(&mut self, core: usize, raw: u64, cycle: u64, what: &str) {
        self.diag(
            DiagKind::ReadOnlyWrite,
            raw,
            core,
            cycle,
            None,
            None,
            format!("{what} a frozen captured environment"),
        );
    }

    fn check_remote_spm(&mut self, core: usize, owner: usize, offset: u32, raw: u64, cycle: u64) {
        if owner == core {
            return;
        }
        if self.spec.as_ref().is_some_and(|s| s.in_user_region(offset)) {
            self.diag(
                DiagKind::RemoteUserSpm,
                raw,
                core,
                cycle,
                Some(owner),
                None,
                format!("remote access into core {owner}'s spm_reserve region"),
            );
        }
    }

    /// The access record of data-word slot `s`, created on first use.
    fn record_id(&mut self, s: usize) -> u32 {
        let slot = self.shadow.get_mut(s);
        if slot.record == 0 {
            slot.record = self.records.alloc();
        }
        slot.record
    }

    fn check_data_read(&mut self, core: usize, s: usize, raw: u64, cycle: u64, relaxed: bool) {
        let id = self.record_id(s);
        let clock = &self.clocks[core];
        let rec = self.records.get_mut(id);
        let race = rec.write.filter(|w| {
            w.core != core && !(relaxed && w.relaxed) && !clock.covers(w.core, w.epoch)
        });
        let me = Access {
            core,
            epoch: clock.get(core),
            cycle,
            relaxed,
        };
        match rec.reads.iter_mut().find(|r| r.core == core) {
            Some(r) => *r = me,
            None => rec.reads.push(me),
        }
        if let Some(w) = race {
            self.diag(
                DiagKind::RaceWriteRead,
                raw,
                core,
                cycle,
                Some(w.core),
                Some(w.cycle),
                "read unordered with earlier write".into(),
            );
        }
    }

    /// Write-style race check; records the write and clears reads.
    fn check_data_write(&mut self, core: usize, s: usize, raw: u64, cycle: u64, relaxed: bool) {
        let id = self.record_id(s);
        let clock = &self.clocks[core];
        let rec = self.records.get_mut(id);
        let unordered = |a: &Access| {
            a.core != core && !(relaxed && a.relaxed) && !clock.covers(a.core, a.epoch)
        };
        let mut races: Vec<(DiagKind, Access)> = Vec::new();
        if let Some(w) = rec.write.filter(unordered) {
            races.push((DiagKind::RaceWriteWrite, w));
        }
        for r in rec.reads.iter().filter(|r| unordered(r)) {
            races.push((DiagKind::RaceReadWrite, *r));
        }
        rec.write = Some(Access {
            core,
            epoch: clock.get(core),
            cycle,
            relaxed,
        });
        rec.reads.clear();
        for (kind, other) in races {
            self.diag(
                kind,
                raw,
                core,
                cycle,
                Some(other.core),
                Some(other.cycle),
                "write unordered with earlier access".into(),
            );
        }
    }

    /// Race check applied when the first AMO converts a data word into a
    /// sync word: the initializing plain store must be ordered before the
    /// AMO (a release edge must have published it). Prior plain *loads*
    /// are deliberately not checked — spinning on a word before its first
    /// AMO is the acquire-side handshake pattern.
    fn check_sync_transition(&mut self, core: usize, s: usize, raw: u64, cycle: u64) {
        let id = self.shadow.get_mut(s).record;
        if id == 0 {
            return;
        }
        let Some(w) = self.records.get(id).write else {
            return;
        };
        if w.core != core && !self.clocks[core].covers(w.core, w.epoch) {
            self.diag(
                DiagKind::RaceWriteWrite,
                raw,
                core,
                cycle,
                Some(w.core),
                Some(w.cycle),
                "first AMO on this word unordered with its initializing store".into(),
            );
        }
    }

    /// Lock-discipline checks on plain stores to declared lock words.
    fn check_lock_store(&mut self, core: usize, raw: u64, value: u32, cycle: u64) {
        if value != 0 {
            // The runtime only ever releases locks with plain stores;
            // acquires go through amoswap.
            self.diag(
                DiagKind::LockReleaseWithoutAcquire,
                raw,
                core,
                cycle,
                None,
                None,
                format!("plain store of {value} to a lock word"),
            );
            return;
        }
        let owner = self.lock_owner.get(&raw).copied().flatten();
        match owner {
            None => self.diag(
                DiagKind::LockReleaseWithoutAcquire,
                raw,
                core,
                cycle,
                None,
                None,
                "release of an unheld lock (double release?)".into(),
            ),
            Some(o) if o != core => self.diag(
                DiagKind::LockReleaseByNonOwner,
                raw,
                core,
                cycle,
                Some(o),
                None,
                format!("lock is held by core {o}"),
            ),
            Some(_) => {
                let outstanding = self.stores_since_fence[core];
                if outstanding > 0 {
                    self.diag(
                        DiagKind::UnfencedLockRelease,
                        raw,
                        core,
                        cycle,
                        None,
                        None,
                        format!("{outstanding} store(s) issued since the last fence"),
                    );
                }
            }
        }
        self.lock_owner.insert(raw, None);
    }

    fn drain_notes(&mut self) {
        // The runtime only borrows the queue for one `push`, so nothing
        // holds it while a hook runs.
        let mut batch = std::mem::take(&mut self.note_batch);
        std::mem::swap(&mut batch, &mut *self.notes.borrow_mut());
        for note in batch.drain(..) {
            self.apply_note(note);
        }
        self.note_batch = batch;
    }

    fn apply_note(&mut self, note: Note) {
        match note {
            Note::StackPush {
                core,
                base,
                words,
                in_dram,
            } => self.stack_push(core, base, words, in_dram),
            Note::StackPop {
                core,
                base,
                words,
                in_dram,
            } => self.stack_pop(core, base, words, in_dram),
            Note::FreezeEnv {
                core: _,
                base,
                words,
            } => {
                for i in 0..words as u64 {
                    if let Some(s) = self.shadow.slot_of_raw(base + i * 4) {
                        self.shadow.get_mut(s).flags |= FROZEN;
                    }
                }
            }
        }
    }

    fn stack_push(&mut self, core: usize, base: u64, words: u32, in_dram: bool) {
        let now = self.now;
        let stack = &mut self.stacks[core];
        stack.frames.push((base, words, in_dram));
        if in_dram {
            stack.dram_words += words;
            let cap = self.spec.as_ref().map(|s| s.dram_stack_words);
            let depth = stack.dram_words;
            if let Some(cap) = cap {
                if depth > cap {
                    self.diag(
                        DiagKind::DramStackExhausted,
                        base,
                        core,
                        now,
                        None,
                        None,
                        format!("DRAM stack depth {depth} words exceeds buffer of {cap}"),
                    );
                }
            }
        } else {
            let overflowed = stack.dram_words > 0;
            stack.spm_words += words;
            let depth = stack.spm_words;
            if overflowed {
                self.diag(
                    DiagKind::SpmFrameWhileOverflowed,
                    base,
                    core,
                    now,
                    None,
                    None,
                    "SPM frame pushed while DRAM overflow frames are live".into(),
                );
            }
            let cap = self.spec.as_ref().map(|s| s.spm_stack_words);
            if let Some(cap) = cap {
                if depth > cap {
                    self.diag(
                        DiagKind::SpmStackOverflow,
                        base,
                        core,
                        now,
                        None,
                        None,
                        format!(
                            "SPM stack depth {depth} words crossed the overflow \
                             threshold ({cap} words) without redirecting to DRAM"
                        ),
                    );
                }
            }
        }
    }

    fn stack_pop(&mut self, core: usize, base: u64, words: u32, in_dram: bool) {
        let now = self.now;
        let stack = &mut self.stacks[core];
        if stack.frames.pop().is_none() {
            self.diag(
                DiagKind::StackUnderflow,
                base,
                core,
                now,
                None,
                None,
                "pop of an empty stack".into(),
            );
            return;
        }
        if in_dram {
            stack.dram_words = stack.dram_words.saturating_sub(words);
        } else {
            stack.spm_words = stack.spm_words.saturating_sub(words);
        }
        // The frame's words are dead: clear their records, published
        // clocks, sticky sync classification and freezes so reuse by a
        // later (unordered but well-nested) frame does not report stale
        // races, and sticky sync classification does not leak onto
        // unrelated data. Declared flags come from the spec and stay.
        for i in 0..words as u64 {
            let Some(s) = self.shadow.slot_of_raw(base + i * 4) else {
                continue;
            };
            let slot = self.shadow.get_mut(s);
            slot.flags &= !(STICKY_SYNC | FROZEN);
            if slot.record != 0 {
                self.records.free(slot.record);
                slot.record = 0;
            }
            if slot.clock != 0 {
                self.published.free(slot.clock);
                slot.clock = 0;
            }
        }
    }

    #[allow(clippy::too_many_arguments, reason = "one flat record per diagnostic")]
    fn diag(
        &mut self,
        kind: DiagKind,
        addr: u64,
        core: usize,
        cycle: u64,
        other_core: Option<usize>,
        other_cycle: Option<u64>,
        detail: String,
    ) {
        self.total += 1;
        *self.counts.entry(kind).or_insert(0) += 1;
        if self.dedup.insert((kind, addr)) && self.diagnostics.len() < MAX_DETAILED {
            self.diagnostics.push(Diagnostic {
                kind,
                addr,
                core,
                cycle,
                other_core,
                other_cycle,
                detail,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn san(cores: usize) -> Sanitizer {
        Sanitizer::new(AddrMap::new(cores as u32, 4096), cores)
    }

    fn dram(off: u64) -> Addr {
        Addr(AddrMap::DRAM_BASE + off)
    }

    #[test]
    fn unordered_writes_race() {
        let mut s = san(2);
        s.store(0, dram(0), 1, 10);
        s.store(1, dram(0), 2, 20);
        let r = s.report();
        assert_eq!(r.total, 1);
        assert_eq!(r.diagnostics[0].kind, DiagKind::RaceWriteWrite);
        assert_eq!(r.diagnostics[0].core, 1);
        assert_eq!(r.diagnostics[0].other_core, Some(0));
        assert_eq!(r.diagnostics[0].cycle, 20);
        assert_eq!(r.diagnostics[0].other_cycle, Some(10));
    }

    #[test]
    fn unordered_read_after_write_races() {
        let mut s = san(2);
        s.store(0, dram(4), 1, 10);
        s.load(1, dram(4), 20);
        assert_eq!(s.report().diagnostics[0].kind, DiagKind::RaceWriteRead);
    }

    #[test]
    fn write_after_unordered_read_races() {
        let mut s = san(2);
        s.load(0, dram(8), 10);
        s.store(1, dram(8), 1, 20);
        assert_eq!(s.report().diagnostics[0].kind, DiagKind::RaceReadWrite);
    }

    #[test]
    fn release_acquire_handshake_is_clean() {
        // Core 0: store data; fence; amo flag. Core 1: amo flag
        // (acquire-join), then read data. This is the runtime's
        // ready-counter protocol and must not be reported.
        let mut s = san(2);
        let data = dram(0);
        let flag = dram(64);
        s.store(0, data, 99, 10);
        s.fence(0, 11);
        s.amo(0, flag, AmoOp::Swap, 1, 0, 12);
        s.amo(1, flag, AmoOp::Swap, 0, 1, 20);
        s.load(1, data, 21);
        assert!(s.report().is_clean(), "{}", s.report());
    }

    #[test]
    fn spin_load_on_amoed_word_acquires() {
        // The wait() pattern: the flag became a sync word via the AMO;
        // a plain spin-load must still acquire-join the release clock.
        let mut s = san(2);
        let data = dram(0);
        let flag = dram(64);
        s.amo(0, flag, AmoOp::Add, 1, 0, 5); // classify as sync
        s.store(0, data, 7, 10);
        s.fence(0, 11);
        s.amo(0, flag, AmoOp::Sub, 1, 1, 12); // release-decrement
        s.load(1, flag, 20); // spin read
        s.load(1, data, 21);
        assert!(s.report().is_clean(), "{}", s.report());
    }

    #[test]
    fn unfenced_publication_still_races() {
        // Missing fence before the flag AMO: the data store is not
        // covered by the published clock, so the remote read races.
        let mut s = san(2);
        let data = dram(0);
        let flag = dram(64);
        s.store(0, data, 99, 10);
        s.amo(0, flag, AmoOp::Swap, 1, 0, 12); // no fence!
        s.amo(1, flag, AmoOp::Swap, 0, 1, 20);
        s.load(1, data, 21);
        let r = s.report();
        assert_eq!(r.total, 1);
        assert_eq!(r.diagnostics[0].kind, DiagKind::RaceWriteRead);
    }

    #[test]
    fn declared_sync_ranges_suppress_data_checks() {
        let mut s = san(2);
        s.set_spec(LayoutSpec {
            sync_ranges: vec![(dram(0).raw(), dram(64).raw())],
            ..LayoutSpec::default()
        });
        // Unordered plain accesses inside the declared range: the
        // unlocked queue-length peek pattern. No findings.
        s.store(0, dram(4), 1, 10);
        s.load(1, dram(4), 20);
        s.store(1, dram(4), 2, 30);
        assert!(s.report().is_clean());
    }

    #[test]
    fn frozen_env_write_is_reported_once_per_word() {
        let mut s = san(1);
        let base = dram(128).raw();
        s.note_sink().borrow_mut().push(Note::FreezeEnv {
            core: 0,
            base,
            words: 2,
        });
        s.store(0, Addr(base), 1, 10);
        s.store(0, Addr(base), 2, 11); // same word: deduplicated detail
        s.store(0, Addr(base + 4), 3, 12);
        let r = s.report();
        assert_eq!(r.counts[&DiagKind::ReadOnlyWrite], 3);
        assert_eq!(r.diagnostics.len(), 2, "one detailed entry per word");
    }

    #[test]
    fn freeze_expires_when_frame_pops() {
        let mut s = san(1);
        s.set_spec(LayoutSpec {
            spm_stack_words: 64,
            dram_stack_words: 64,
            ..LayoutSpec::default()
        });
        let base = dram(128).raw();
        let sink = s.note_sink();
        sink.borrow_mut().push(Note::StackPush {
            core: 0,
            base,
            words: 2,
            in_dram: true,
        });
        sink.borrow_mut().push(Note::FreezeEnv {
            core: 0,
            base,
            words: 2,
        });
        sink.borrow_mut().push(Note::StackPop {
            core: 0,
            base,
            words: 2,
            in_dram: true,
        });
        s.store(0, Addr(base), 1, 10);
        assert!(s.report().is_clean(), "pop must unfreeze the words");
    }

    #[test]
    fn lock_discipline_catches_double_release_and_non_owner() {
        let mut s = san(2);
        let lk = dram(256).raw();
        s.set_spec(LayoutSpec {
            lock_words: vec![lk],
            sync_ranges: vec![(lk, lk + 4)],
            ..LayoutSpec::default()
        });
        s.amo(0, Addr(lk), AmoOp::Swap, 1, 0, 10); // core 0 acquires
        s.fence(1, 19);
        s.store(1, Addr(lk), 0, 20); // non-owner release
        s.fence(0, 29);
        s.store(0, Addr(lk), 0, 30); // double release (lock now free)
        let r = s.report();
        assert_eq!(r.counts[&DiagKind::LockReleaseByNonOwner], 1);
        assert_eq!(r.counts[&DiagKind::LockReleaseWithoutAcquire], 1);
    }

    #[test]
    fn unfenced_lock_release_is_reported() {
        let mut s = san(1);
        let lk = dram(256).raw();
        s.set_spec(LayoutSpec {
            lock_words: vec![lk],
            sync_ranges: vec![(lk, lk + 4)],
            ..LayoutSpec::default()
        });
        s.amo(0, Addr(lk), AmoOp::Swap, 1, 0, 10);
        s.store(0, dram(0), 7, 11); // critical-section store
        s.store(0, Addr(lk), 0, 12); // release WITHOUT fence
        let r = s.report();
        assert_eq!(r.counts[&DiagKind::UnfencedLockRelease], 1);
    }

    #[test]
    fn lock_held_at_exit_is_reported() {
        let mut s = san(1);
        let lk = dram(256).raw();
        s.set_spec(LayoutSpec {
            lock_words: vec![lk],
            sync_ranges: vec![(lk, lk + 4)],
            ..LayoutSpec::default()
        });
        s.amo(0, Addr(lk), AmoOp::Swap, 1, 0, 10);
        s.finish();
        assert_eq!(s.report().counts[&DiagKind::LockHeldAtExit], 1);
    }

    #[test]
    fn shadow_stack_catches_overflow_threshold_crossing() {
        // The injected stack-overflow negative test: a 20-word SPM
        // frame on a 16-word SPM stack must produce exactly one
        // SpmStackOverflow finding.
        let mut s = san(1);
        s.set_spec(LayoutSpec {
            spm_stack_words: 16,
            dram_stack_words: 1024,
            ..LayoutSpec::default()
        });
        s.note_sink().borrow_mut().push(Note::StackPush {
            core: 0,
            base: AddrMap::SPM_BASE,
            words: 20,
            in_dram: false,
        });
        s.finish();
        let r = s.report();
        assert_eq!(r.total, 1, "{r}");
        assert_eq!(r.diagnostics[0].kind, DiagKind::SpmStackOverflow);
    }

    #[test]
    fn shadow_stack_catches_underflow_and_dram_exhaustion() {
        let mut s = san(1);
        s.set_spec(LayoutSpec {
            spm_stack_words: 16,
            dram_stack_words: 8,
            ..LayoutSpec::default()
        });
        let sink = s.note_sink();
        sink.borrow_mut().push(Note::StackPush {
            core: 0,
            base: AddrMap::DRAM_BASE,
            words: 9,
            in_dram: true,
        });
        sink.borrow_mut().push(Note::StackPop {
            core: 0,
            base: AddrMap::DRAM_BASE,
            words: 9,
            in_dram: true,
        });
        sink.borrow_mut().push(Note::StackPop {
            core: 0,
            base: AddrMap::DRAM_BASE,
            words: 9,
            in_dram: true,
        });
        s.finish();
        let r = s.report();
        assert_eq!(r.counts[&DiagKind::DramStackExhausted], 1);
        assert_eq!(r.counts[&DiagKind::StackUnderflow], 1);
    }

    #[test]
    fn remote_user_spm_access_is_reported() {
        let mut s = san(2);
        s.set_spec(LayoutSpec {
            user_off: 3072,
            spm_size: 4096,
            ..LayoutSpec::default()
        });
        let map = AddrMap::new(2, 4096);
        s.load(0, map.spm_addr(1, 3072), 10); // remote, in user region
        s.load(0, map.spm_addr(1, 0), 11); // remote, stack region: fine
        s.load(1, map.spm_addr(1, 3072), 12); // local user region: fine
        let r = s.report();
        assert_eq!(r.total, 1);
        assert_eq!(r.diagnostics[0].kind, DiagKind::RemoteUserSpm);
    }

    #[test]
    fn relaxed_pair_is_not_a_race() {
        // The pull-BFS pattern: one core relaxed-stores the level word
        // while another relaxed-loads it, unordered. Annotated benign.
        let mut s = san(2);
        s.store_relaxed(0, dram(0), 3, 10);
        s.load_relaxed(1, dram(0), 11);
        s.store_relaxed(1, dram(4), 3, 12);
        s.store_relaxed(0, dram(4), 4, 13);
        assert!(s.report().is_clean(), "{}", s.report());
    }

    #[test]
    fn relaxed_vs_plain_still_races() {
        // Relaxing only one side does not make the pair ordered: a
        // plain access unordered with a relaxed one is still a race.
        let mut s = san(2);
        s.store_relaxed(0, dram(0), 3, 10);
        s.load(1, dram(0), 11); // plain read vs relaxed write
        s.load_relaxed(0, dram(4), 10);
        s.store(1, dram(4), 9, 11); // plain write vs relaxed read
        let r = s.report();
        assert_eq!(r.counts[&DiagKind::RaceWriteRead], 1);
        assert_eq!(r.counts[&DiagKind::RaceReadWrite], 1);
    }

    #[test]
    fn relaxed_store_carries_no_release_edge() {
        // A reader that sees a relaxed flag store gains no ordering on
        // the data word behind it — the plain data read still races.
        let mut s = san(2);
        let data = dram(0);
        let flag = dram(64);
        s.store(0, data, 99, 10);
        s.fence(0, 11);
        s.store_relaxed(0, flag, 1, 12);
        s.load_relaxed(1, flag, 20);
        s.load(1, data, 21);
        let r = s.report();
        assert_eq!(r.counts[&DiagKind::RaceWriteRead], 1);
    }

    #[test]
    fn relaxed_store_into_frozen_env_is_still_reported() {
        let mut s = san(1);
        let base = dram(128).raw();
        s.note_sink().borrow_mut().push(Note::FreezeEnv {
            core: 0,
            base,
            words: 1,
        });
        s.store_relaxed(0, Addr(base), 1, 10);
        assert_eq!(s.report().counts[&DiagKind::ReadOnlyWrite], 1);
    }

    #[test]
    fn same_core_reuse_never_races() {
        let mut s = san(2);
        for cyc in 0..10 {
            s.store(0, dram(0), cyc as u32, cyc);
            s.load(0, dram(0), cyc);
        }
        assert!(s.report().is_clean());
    }

    #[test]
    fn spm_mailbox_store_transfers_release_clock() {
        // The static-scheduler handshake: core 0 stores DRAM env,
        // fences, stores an SPM mailbox word; core 1 polls the mailbox
        // then reads the DRAM env. Must be clean.
        let map = AddrMap::new(2, 4096);
        let mut s = san(2);
        let env = dram(0);
        let cmd = map.spm_addr(1, 2048);
        s.store(0, env, 5, 10);
        s.fence(0, 11);
        s.store(0, cmd, 1, 12);
        s.load(1, cmd, 20);
        s.load(1, env, 21);
        assert!(s.report().is_clean(), "{}", s.report());
    }
}
