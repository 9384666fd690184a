//! The shared attribution sink.
//!
//! One [`ProfSink`] is created per profiled run and cloned into three
//! places: the [`Machine`](../../mosaic_sim) (which also hands it to
//! the engine's event loop), each core's `CoreApi`, and — implicitly —
//! the runtime's phase hooks, which reach it through `CoreApi`. One
//! OS thread — the one running the engine and, as coroutines, every
//! core — does all the writing, so the counters are plain `Cell`s
//! behind an `Rc`; no method holds a borrow across a call out of this
//! module. The totals are only *read* after the run has returned.

use crate::{Bucket, MemClass, Phase, BUCKET_COUNT};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Cap on the windowed time series; when a run outgrows it, adjacent
/// windows are merged pairwise and the window width doubles, so the
/// series stays bounded and deterministic for any run length.
const SERIES_MAX_WINDOWS: usize = 512;

/// Initial window width as a power of two (1024 cycles).
const SERIES_INITIAL_SHIFT: u32 = 10;

/// Machine-wide bucket-cycles time series with deterministic
/// power-of-two decimation (no wall clock anywhere — windows are in
/// simulated cycles).
#[derive(Debug)]
pub(crate) struct Series {
    shift: u32,
    windows: Vec<[u64; BUCKET_COUNT]>,
}

impl Series {
    fn new() -> Series {
        Series {
            shift: SERIES_INITIAL_SHIFT,
            windows: Vec::new(),
        }
    }

    fn add(&mut self, at: u64, bucket: Bucket, cycles: u64) {
        let mut idx = (at >> self.shift) as usize;
        while idx >= SERIES_MAX_WINDOWS {
            // Merge adjacent windows; the window width doubles.
            let merged: Vec<[u64; BUCKET_COUNT]> = self
                .windows
                .chunks(2)
                .map(|pair| {
                    let mut m = pair[0];
                    if let Some(second) = pair.get(1) {
                        for (acc, v) in m.iter_mut().zip(second.iter()) {
                            *acc += v;
                        }
                    }
                    m
                })
                .collect();
            self.windows = merged;
            self.shift += 1;
            idx = (at >> self.shift) as usize;
        }
        if idx >= self.windows.len() {
            self.windows.resize(idx + 1, [0; BUCKET_COUNT]);
        }
        self.windows[idx][bucket.index()] += cycles;
    }

    fn window_cycles(&self) -> u64 {
        1u64 << self.shift
    }
}

struct SinkInner {
    /// Per-core current phase.
    phases: Vec<Cell<Phase>>,
    /// Per-core, per-bucket attributed cycles.
    buckets: Vec<[Cell<u64>; BUCKET_COUNT]>,
    /// Per-core halt cycle (== total elapsed cycles for that core).
    elapsed: Vec<Cell<u64>>,
    /// Per-core class of the most recent timed access.
    last_class: Vec<Cell<MemClass>>,
    /// Per-LLC-bank access counts (hits + misses).
    llc_banks: Vec<Cell<u64>>,
    /// Per-core count of remote-SPM accesses *served by* that core's
    /// scratchpad — the Fig. 5 hot-spot signal.
    spm_served: Vec<Cell<u64>>,
    /// Machine-wide windowed bucket series for Perfetto counter tracks.
    series: RefCell<Series>,
}

/// Shared cycle-attribution sink; cheap to clone (an `Rc`), and like
/// the engine it serves, confined to one thread.
///
/// All methods are host-side only and charge **zero simulated
/// cycles** — the sink never feeds anything back into the timing
/// model.
#[derive(Clone)]
pub struct ProfSink {
    inner: Rc<SinkInner>,
}

impl std::fmt::Debug for ProfSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProfSink")
            .field("cores", &self.inner.phases.len())
            .finish()
    }
}

fn zeros(n: usize) -> Vec<Cell<u64>> {
    (0..n).map(|_| Cell::new(0)).collect()
}

fn bump(counter: &Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}

fn values(counters: &[Cell<u64>]) -> Vec<u64> {
    counters.iter().map(Cell::get).collect()
}

impl ProfSink {
    /// A fresh sink for `cores` cores and `llc_banks` LLC banks.
    pub fn new(cores: usize, llc_banks: usize) -> ProfSink {
        ProfSink {
            inner: Rc::new(SinkInner {
                phases: (0..cores).map(|_| Cell::new(Phase::Task)).collect(),
                buckets: (0..cores)
                    .map(|_| std::array::from_fn(|_| Cell::new(0)))
                    .collect(),
                elapsed: zeros(cores),
                last_class: (0..cores).map(|_| Cell::new(MemClass::SpmLocal)).collect(),
                llc_banks: zeros(llc_banks),
                spm_served: zeros(cores),
                series: RefCell::new(Series::new()),
            }),
        }
    }

    /// Number of cores this sink tracks.
    pub fn cores(&self) -> usize {
        self.inner.phases.len()
    }

    fn add(&self, core: usize, at: u64, bucket: Bucket, cycles: u64) {
        if cycles == 0 {
            return;
        }
        bump(&self.inner.buckets[core][bucket.index()], cycles);
        self.inner.series.borrow_mut().add(at, bucket, cycles);
    }

    /// Swap the core's phase, returning the previous one (for nested
    /// begin/end hooks that restore on exit).
    pub fn phase_swap(&self, core: usize, phase: Phase) -> Phase {
        self.inner.phases[core].replace(phase)
    }

    /// The core's current phase.
    pub fn phase(&self, core: usize) -> Phase {
        self.inner.phases[core].get()
    }

    /// Attribute `cycles` of compute charged at simulated cycle `at` to
    /// the core's current phase. Called core-side at `charge` time, so
    /// the attribution is exact even when several phases elapse between
    /// two synchronizing operations.
    pub fn charge(&self, core: usize, at: u64, cycles: u64) {
        let bucket = self.phase(core).bucket();
        self.add(core, at, bucket, cycles);
    }

    /// Attribute a blocking stall on the core's most recent timed
    /// access (set via [`ProfSink::note_class`]) — loads and
    /// store-queue backpressure.
    pub fn mem_stall(&self, core: usize, at: u64, cycles: u64) {
        let class = self.inner.last_class[core].get();
        self.add(core, at, class.stall_bucket(), cycles);
    }

    /// Attribute an ordering wait: AMO round trips and fence drains.
    pub fn fence_wait(&self, core: usize, at: u64, cycles: u64) {
        self.add(core, at, Bucket::FenceAmo, cycles);
    }

    /// Attribute idle time the runtime never sees: fault-injected
    /// freeze windows and delayed initial wakes.
    pub fn idle_wait(&self, core: usize, at: u64, cycles: u64) {
        self.add(core, at, Bucket::Idle, cycles);
    }

    /// Record the core's halt cycle (== its elapsed cycles).
    pub fn halt(&self, core: usize, at: u64) {
        self.inner.elapsed[core].set(at);
    }

    /// Record the destination class of a timed access the machine just
    /// serviced for `core`.
    pub fn note_class(&self, core: usize, class: MemClass) {
        self.inner.last_class[core].set(class);
    }

    /// Count one access serviced by LLC bank `bank`.
    pub fn note_llc_bank(&self, bank: usize) {
        bump(&self.inner.llc_banks[bank], 1);
    }

    /// Count one remote-SPM access served by `owner`'s scratchpad.
    pub fn note_spm_served(&self, owner: usize) {
        bump(&self.inner.spm_served[owner], 1);
    }

    /// Per-core bucket rows (read after the run).
    pub fn bucket_rows(&self) -> Vec<[u64; BUCKET_COUNT]> {
        self.inner
            .buckets
            .iter()
            .map(|row| std::array::from_fn(|i| row[i].get()))
            .collect()
    }

    /// Per-core elapsed (halt) cycles.
    pub fn elapsed(&self) -> Vec<u64> {
        values(&self.inner.elapsed)
    }

    /// Per-LLC-bank access counts.
    pub fn llc_bank_accesses(&self) -> Vec<u64> {
        values(&self.inner.llc_banks)
    }

    /// Per-core remote-SPM-served counts.
    pub fn spm_served(&self) -> Vec<u64> {
        values(&self.inner.spm_served)
    }

    /// Drain the windowed series: `(window_cycles, windows)`.
    pub fn series(&self) -> (u64, Vec<[u64; BUCKET_COUNT]>) {
        let series = self.inner.series.borrow();
        (series.window_cycles(), series.windows.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_follows_the_current_phase() {
        let sink = ProfSink::new(2, 1);
        sink.charge(0, 0, 10);
        let prev = sink.phase_swap(0, Phase::StealSearch);
        assert_eq!(prev, Phase::Task);
        sink.charge(0, 10, 5);
        sink.phase_swap(0, prev);
        sink.charge(0, 15, 3);
        let rows = sink.bucket_rows();
        assert_eq!(rows[0][Bucket::Compute.index()], 13);
        assert_eq!(rows[0][Bucket::StealSearch.index()], 5);
        assert_eq!(rows[1].iter().sum::<u64>(), 0);
    }

    #[test]
    fn stall_attribution_uses_the_last_access_class() {
        let sink = ProfSink::new(1, 1);
        sink.note_class(0, MemClass::Dram);
        sink.mem_stall(0, 0, 40);
        sink.note_class(0, MemClass::LlcHit);
        sink.mem_stall(0, 40, 8);
        sink.note_class(0, MemClass::SpmRemote);
        sink.mem_stall(0, 48, 6);
        sink.fence_wait(0, 54, 2);
        sink.idle_wait(0, 56, 9);
        let row = sink.bucket_rows()[0];
        assert_eq!(row[Bucket::DramStall.index()], 40);
        assert_eq!(row[Bucket::LlcStall.index()], 8);
        assert_eq!(row[Bucket::SpmStall.index()], 6);
        assert_eq!(row[Bucket::FenceAmo.index()], 2);
        assert_eq!(row[Bucket::Idle.index()], 9);
    }

    #[test]
    fn series_decimates_deterministically() {
        let mut s = Series::new();
        // Fill far past the cap; the shift must grow and totals hold.
        let mut total = 0u64;
        for i in 0..(SERIES_MAX_WINDOWS as u64 * 4) {
            s.add(i << SERIES_INITIAL_SHIFT, Bucket::Compute, 2);
            total += 2;
        }
        assert!(s.windows.len() <= SERIES_MAX_WINDOWS);
        assert!(s.window_cycles() > 1 << SERIES_INITIAL_SHIFT);
        let sum: u64 = s.windows.iter().map(|w| w[Bucket::Compute.index()]).sum();
        assert_eq!(sum, total, "decimation must preserve totals");
    }

    #[test]
    fn traffic_counters_accumulate() {
        let sink = ProfSink::new(4, 2);
        sink.note_llc_bank(1);
        sink.note_llc_bank(1);
        sink.note_spm_served(0);
        sink.halt(3, 1234);
        assert_eq!(sink.llc_bank_accesses(), vec![0, 2]);
        assert_eq!(sink.spm_served()[0], 1);
        assert_eq!(sink.elapsed()[3], 1234);
    }
}
