//! The composed machine: cores' memory view = mesh + SPMs + LLC + DRAM.
//!
//! [`Machine`] owns all functional and timing state of the modeled
//! chip and provides the two interfaces the engine needs:
//!
//! - **timed accesses** ([`Machine::read`], [`Machine::write`],
//!   [`Machine::amo`]): decode the PGAS address, traverse the mesh,
//!   get serviced at the endpoint (SPM port or LLC bank → DRAM), and
//!   traverse back, returning the completion cycle;
//! - **functional accesses** ([`Machine::peek`], [`Machine::poke`]):
//!   zero-time reads/writes for pre-run input loading and post-run
//!   result checking.
//!
//! It also provides a bump allocator over DRAM and over each SPM so
//! layers above can place data without tracking raw offsets.

use crate::{CoreId, Cycle, MachineConfig};
use mosaic_chaos::{FaultGeometry, FaultSchedule, FlipTarget};
use mosaic_mem::{Addr, AddrMap, AmoOp, DramModel, Llc, Region, Scratchpad};
use mosaic_mesh::{Mesh, NodeId, TrafficMatrix};
use mosaic_prof::{MachineProfile, MemClass, ProfSink};
use mosaic_san::{SanReport, Sanitizer};

/// Kinds of timed memory access, for counter attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AccessKind {
    Read,
    Write,
    Amo,
}

/// Materialized fault-injection state. The mesh/LLC/DRAM windows are
/// installed into those components at construction; this struct keeps
/// what the machine itself must act on: core freezes (consulted by
/// the engine when scheduling wakeups) and bit flips (applied to
/// functional state at their scheduled cycle).
#[derive(Debug)]
struct FaultState {
    schedule: FaultSchedule,
    /// Index of the next timed flip not yet applied (timed flips sort
    /// before at-end flips in the schedule).
    next_flip: usize,
    /// Flips applied so far, including at-end flips.
    flips_applied: u64,
}

/// A host callback producing extra diagnostics for watchdog/deadlock
/// dumps (the runtime installs one that reads per-core task-queue
/// depths out of simulated memory). Wrapped so [`Machine`] can keep
/// deriving `Debug`.
pub struct WatchdogProbe(Box<dyn Fn(&Machine) -> String>);

impl std::fmt::Debug for WatchdogProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("WatchdogProbe(..)")
    }
}

/// The full machine model. See the module docs.
#[derive(Debug)]
pub struct Machine {
    config: MachineConfig,
    map: AddrMap,
    mesh: Mesh,
    spms: Vec<Scratchpad>,
    llc: Llc,
    dram: DramModel,
    /// Mesh node of each core, cached.
    core_nodes: Vec<NodeId>,
    /// Mesh node of each LLC bank, cached.
    llc_nodes: Vec<NodeId>,
    /// Bump pointer for DRAM heap allocation (bytes from DRAM base).
    dram_brk: u64,
    /// Optional latency sampling matrix for heatmap experiments.
    latency_probe: Option<TrafficMatrix>,
    /// Optional memory-model sanitizer observing every timed access
    /// (host-side only; never charges simulated cycles).
    sanitizer: Option<Box<Sanitizer>>,
    /// Optional cycle-attribution profiler sink (`config.profile`);
    /// host-side only, like the sanitizer — no timing feedback.
    profiler: Option<ProfSink>,
    /// Materialized fault-injection state (`config.faults`).
    faults: Option<FaultState>,
    /// Optional extra-diagnostics callback for watchdog dumps.
    watchdog_probe: Option<WatchdogProbe>,
}

impl Machine {
    /// Instantiate a cold machine.
    ///
    /// # Panics
    ///
    /// Panics with the [`MachineConfig::validate`] error on an
    /// inconsistent configuration.
    pub fn new(config: MachineConfig) -> Self {
        if let Err(e) = config.validate() {
            panic!("{e}");
        }
        let mesh_cfg = config.mesh_config();
        let cores = config.core_count();
        let map = AddrMap::new(cores as u32, config.spm_size);
        let core_nodes = (0..cores).map(|c| mesh_cfg.core_node(c)).collect();
        let llc_nodes = (0..mesh_cfg.llc_count())
            .map(|b| mesh_cfg.llc_node(b))
            .collect();
        let spms = (0..cores)
            .map(|_| Scratchpad::new(config.spm_size))
            .collect();
        let mut llc = Llc::new(config.llc.clone());
        let mut dram = DramModel::new(config.dram.clone());
        let mut mesh = Mesh::new(mesh_cfg);
        let sanitizer = config
            .sanitize
            .then(|| Box::new(Sanitizer::new(map.clone(), cores)));
        let profiler = config
            .profile
            .then(|| ProfSink::new(cores, config.llc.banks as usize));
        // Materialize the fault plan (if any) against this machine's
        // geometry and install the component-level windows up front;
        // freezes and flips stay with the machine.
        let faults = config.faults.as_ref().map(|plan| {
            let schedule = plan.materialize(&FaultGeometry {
                cores: cores as u32,
                links: mesh.link_count() as u32,
                llc_banks: config.llc.banks,
                dram_words: map.dram_size() / 4,
                spm_words: config.spm_size / 4,
            });
            for w in &schedule.link_stalls {
                mesh.inject_link_stall(w.idx as usize, w.start, w.end);
            }
            for w in &schedule.bank_spikes {
                llc.inject_bank_spike(w.idx, w.start, w.end, w.extra);
            }
            for w in &schedule.dram_spikes {
                dram.inject_spike(w.start, w.end, w.extra);
            }
            FaultState {
                schedule,
                next_flip: 0,
                flips_applied: 0,
            }
        });
        Machine {
            map,
            mesh,
            spms,
            llc,
            dram,
            core_nodes,
            llc_nodes,
            dram_brk: 0,
            latency_probe: None,
            sanitizer,
            profiler,
            faults,
            watchdog_probe: None,
            config,
        }
    }

    /// The attached sanitizer, when `config.sanitize` is set (for the
    /// runtime to install its layout spec and note sink).
    pub fn sanitizer_mut(&mut self) -> Option<&mut Sanitizer> {
        self.sanitizer.as_deref_mut()
    }

    /// Run end-of-simulation checks and detach the sanitizer's report.
    /// Returns `None` when the sanitizer was never attached.
    pub fn take_sanitizer_report(&mut self) -> Option<SanReport> {
        self.sanitizer.take().map(|mut s| {
            s.finish();
            s.report()
        })
    }

    /// Sanitizer fence hook (called by the engine when a core's store
    /// queue drains).
    pub(crate) fn sanitizer_fence(&mut self, core: CoreId, cycle: Cycle) {
        if let Some(s) = &mut self.sanitizer {
            s.fence(core, cycle);
        }
    }

    /// The attached profiler sink, when `config.profile` is set. The
    /// engine clones this into every core's `CoreApi` and into its own
    /// event loop; cheap (an `Rc` clone).
    pub fn prof_sink(&self) -> Option<ProfSink> {
        self.profiler.clone()
    }

    /// Assemble the run's [`MachineProfile`] from the profiler sink and
    /// the machine's traffic counters. Returns `None` when
    /// `config.profile` was never set. Call after the engine returns;
    /// the profile is a consistent end-of-run snapshot.
    pub fn take_profile(&mut self) -> Option<MachineProfile> {
        let sink = self.profiler.take()?;
        let link_stats = self.mesh.link_stats();
        let mesh_cfg = self.mesh.config();
        let (window_cycles, windows) = sink.series();
        Some(MachineProfile {
            cols: self.config.cols,
            rows: self.config.rows,
            buckets: sink.bucket_rows(),
            elapsed: sink.elapsed(),
            llc_bank_accesses: sink.llc_bank_accesses(),
            spm_served: sink.spm_served(),
            core_inbound_flits: link_stats.core_inbound(mesh_cfg),
            core_outbound_flits: link_stats.core_outbound(mesh_cfg),
            total_link_flits: link_stats.total_flits(),
            window_cycles,
            windows,
        })
    }

    // ------------------------------------------------------------------
    // Fault injection (mosaic-chaos)
    // ------------------------------------------------------------------

    /// Whether a fault plan is installed (the engine consults this
    /// once and skips all per-event fault work when `false`).
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Earliest cycle at or after `t` at which `core` is not inside an
    /// injected freeze window. Identity when no plan is installed.
    pub(crate) fn freeze_adjust(&self, core: CoreId, mut t: Cycle) -> Cycle {
        let Some(fs) = &self.faults else { return t };
        // Windows may overlap or abut; rescan until `t` is clear.
        loop {
            let mut moved = false;
            for w in &fs.schedule.core_freezes {
                if w.idx as usize == core && w.contains(t) {
                    t = w.end;
                    moved = true;
                }
            }
            if !moved {
                return t;
            }
        }
    }

    /// Apply all timed bit flips scheduled at or before `now`. Called
    /// by the engine as simulated time advances.
    pub(crate) fn apply_flips_due(&mut self, now: Cycle) {
        loop {
            let flip = match &self.faults {
                Some(fs) => match fs.schedule.flips.get(fs.next_flip) {
                    Some(f) if f.cycle.is_some_and(|c| c <= now) => *f,
                    _ => return,
                },
                None => return,
            };
            self.apply_flip(flip.target, flip.bit);
            if let Some(fs) = &mut self.faults {
                fs.next_flip += 1;
                fs.flips_applied += 1;
            }
        }
    }

    /// Apply the remaining flips scheduled "at end" (and any timed
    /// flips whose cycle was never reached). Called by the engine once
    /// all cores have halted, so these land in the final payload.
    pub(crate) fn apply_end_flips(&mut self) {
        loop {
            let flip = match &self.faults {
                Some(fs) => match fs.schedule.flips.get(fs.next_flip) {
                    Some(f) => *f,
                    None => return,
                },
                None => return,
            };
            self.apply_flip(flip.target, flip.bit);
            if let Some(fs) = &mut self.faults {
                fs.next_flip += 1;
                fs.flips_applied += 1;
            }
        }
    }

    /// XOR one bit of the targeted word in functional state.
    fn apply_flip(&mut self, target: FlipTarget, bit: u8) {
        let addr = match target {
            FlipTarget::Dram { word } => self.map.dram_addr(word * 4),
            FlipTarget::Spm { core, word } => self.map.spm_addr(core, word * 4),
        };
        let old = self.peek(addr);
        self.poke(addr, old ^ (1u32 << (bit % 32)));
    }

    /// Number of bit flips applied so far.
    pub fn fault_flips_applied(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.flips_applied)
    }

    /// Human-readable description of fault windows active at `cycle`
    /// (empty when no plan is installed or nothing is active).
    pub fn active_fault_windows(&self, cycle: Cycle) -> String {
        self.faults
            .as_ref()
            .map_or_else(String::new, |f| f.schedule.active_at(cycle))
    }

    /// Install a diagnostics callback consulted by watchdog/deadlock
    /// dumps (e.g. the runtime's task-queue-depth reader).
    pub fn set_watchdog_probe(&mut self, probe: Box<dyn Fn(&Machine) -> String>) {
        self.watchdog_probe = Some(WatchdogProbe(probe));
    }

    /// Diagnostics appended to watchdog/deadlock errors: active fault
    /// windows plus whatever the installed probe reports.
    pub(crate) fn watchdog_dump(&self, cycle: Cycle) -> String {
        let mut out = String::new();
        let windows = self.active_fault_windows(cycle);
        if !windows.is_empty() {
            out.push_str("\n  active fault windows: ");
            out.push_str(&windows);
        }
        if let Some(WatchdogProbe(probe)) = &self.watchdog_probe {
            let extra = probe(self);
            if !extra.is_empty() {
                out.push('\n');
                out.push_str(&extra);
            }
        }
        out
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// The PGAS address map.
    pub fn addr_map(&self) -> &AddrMap {
        &self.map
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.spms.len()
    }

    /// The network model (e.g. for link statistics).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// The machine's conservative lookahead: the minimum latency of
    /// any cross-component interaction a core can trigger. Once a core
    /// is woken, nothing it does can affect another component sooner
    /// than this many cycles later. The engine itself does not need it;
    /// `benchmark/src/probes.rs` shapes its synthetic event stream
    /// with it.
    pub fn lookahead(&self) -> Cycle {
        self.mesh
            .hop_latency()
            .min(self.spms[0].local_latency())
            .min(self.config.llc.hit_latency)
            .max(1)
    }

    /// LLC statistics: (hits, misses, writebacks).
    pub fn llc_stats(&self) -> (u64, u64, u64) {
        self.llc.stats()
    }

    /// DRAM statistics: (reads, writes).
    pub fn dram_traffic(&self) -> (u64, u64) {
        self.dram.traffic()
    }

    /// Enable per-(src,dst-core) remote-SPM latency sampling (used to
    /// regenerate the paper's Figure 5 heatmap).
    pub fn enable_latency_probe(&mut self) {
        self.latency_probe = Some(TrafficMatrix::new(self.core_count()));
    }

    /// The latency samples recorded so far, if probing was enabled.
    pub fn latency_probe(&self) -> Option<&TrafficMatrix> {
        self.latency_probe.as_ref()
    }

    // ------------------------------------------------------------------
    // Allocation
    // ------------------------------------------------------------------

    /// Allocate `bytes` of DRAM (16-byte aligned), returning its address.
    ///
    /// # Panics
    ///
    /// Panics if DRAM is exhausted.
    pub fn dram_alloc(&mut self, bytes: u64) -> Addr {
        let aligned = (self.dram_brk + 15) & !15;
        assert!(
            aligned + bytes <= self.map.dram_size(),
            "simulated DRAM exhausted"
        );
        self.dram_brk = aligned + bytes;
        self.map.dram_addr(aligned)
    }

    /// Allocate `words` 4-byte words of DRAM.
    pub fn dram_alloc_words(&mut self, words: u64) -> Addr {
        self.dram_alloc(words * 4)
    }

    /// Copy `data` into freshly allocated DRAM, returning its address.
    pub fn dram_alloc_init(&mut self, data: &[u32]) -> Addr {
        let base = self.dram_alloc_words(data.len() as u64);
        for (i, &w) in data.iter().enumerate() {
            self.poke(base.offset_words(i as u64), w);
        }
        base
    }

    // ------------------------------------------------------------------
    // Functional (zero-time) access
    // ------------------------------------------------------------------

    /// Functional read of the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unmapped or unaligned addresses.
    pub fn peek(&self, addr: Addr) -> u32 {
        assert!(addr.is_word_aligned(), "unaligned access at {addr}");
        match self.map.decode(addr) {
            Region::Spm { core, offset } => self.spms[core as usize].peek(offset),
            Region::Dram { offset } => self.dram.peek(offset),
        }
    }

    /// Functional write of the word at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on unmapped or unaligned addresses.
    pub fn poke(&mut self, addr: Addr, value: u32) {
        assert!(addr.is_word_aligned(), "unaligned access at {addr}");
        match self.map.decode(addr) {
            Region::Spm { core, offset } => self.spms[core as usize].poke(offset, value),
            Region::Dram { offset } => self.dram.poke(offset, value),
        }
    }

    /// Functional read of `len` consecutive words starting at `addr`.
    pub fn peek_slice(&self, addr: Addr, len: usize) -> Vec<u32> {
        (0..len)
            .map(|i| self.peek(addr.offset_words(i as u64)))
            .collect()
    }

    // ------------------------------------------------------------------
    // Timed access
    // ------------------------------------------------------------------

    /// Timed load by `core` at `cycle`; returns `(value, done_cycle)`.
    /// `relaxed` marks an annotated relaxed-atomic access for the
    /// sanitizer; the timing is identical either way.
    pub fn read(&mut self, core: CoreId, addr: Addr, cycle: Cycle, relaxed: bool) -> (u32, Cycle) {
        let value = self.peek(addr);
        if let Some(s) = &mut self.sanitizer {
            if relaxed {
                s.load_relaxed(core, addr, cycle);
            } else {
                s.load(core, addr, cycle);
            }
        }
        let done = self.timed_access(core, addr, cycle, AccessKind::Read);
        (value, done)
    }

    /// Timed store by `core` at `cycle`; returns the cycle the store is
    /// globally visible (for fence tracking). The core itself does not
    /// block on this. `relaxed` as in [`Machine::read`].
    pub fn write(
        &mut self,
        core: CoreId,
        addr: Addr,
        value: u32,
        cycle: Cycle,
        relaxed: bool,
    ) -> Cycle {
        self.poke(addr, value);
        if let Some(s) = &mut self.sanitizer {
            if relaxed {
                s.store_relaxed(core, addr, value, cycle);
            } else {
                s.store(core, addr, value, cycle);
            }
        }
        self.timed_access(core, addr, cycle, AccessKind::Write)
    }

    /// Timed AMO by `core` at `cycle`: atomically applies `op` with
    /// `operand` at the endpoint and returns `(old_value, done_cycle)`.
    ///
    /// AMOs with release semantics are modeled by the runtime issuing a
    /// fence first; the AMO itself is a single endpoint transaction.
    pub fn amo(
        &mut self,
        core: CoreId,
        addr: Addr,
        op: AmoOp,
        operand: u32,
        cycle: Cycle,
    ) -> (u32, Cycle) {
        let old = self.peek(addr);
        self.poke(addr, op.apply(old, operand));
        if let Some(s) = &mut self.sanitizer {
            s.amo(core, addr, op, operand, old, cycle);
        }
        let done = self.timed_access(core, addr, cycle, AccessKind::Amo);
        (old, done)
    }

    /// Route + endpoint timing shared by all access kinds.
    fn timed_access(&mut self, core: CoreId, addr: Addr, cycle: Cycle, kind: AccessKind) -> Cycle {
        let src = self.core_nodes[core];
        match self.map.decode(addr) {
            Region::Spm {
                core: owner,
                offset: _,
            } => {
                let owner = owner as usize;
                if owner == core {
                    // Local SPM: no network, just the port.
                    if let Some(p) = &self.profiler {
                        p.note_class(core, MemClass::SpmLocal);
                    }
                    self.spms[owner].service(cycle)
                } else {
                    if let Some(p) = &self.profiler {
                        p.note_class(core, MemClass::SpmRemote);
                        p.note_spm_served(owner);
                    }
                    let dst = self.core_nodes[owner];
                    let (mesh, spms) = (&mut self.mesh, &mut self.spms);
                    let done = mesh.traverse_roundtrip(src, dst, cycle, 1, |arrive| {
                        spms[owner].service(arrive)
                    });
                    if let Some(probe) = &mut self.latency_probe {
                        if kind == AccessKind::Read {
                            probe.record(core, owner, (done - cycle) as f64);
                        }
                    }
                    done
                }
            }
            Region::Dram { offset } => {
                let bank = self.llc.bank_of(offset) as usize;
                let dst = self.llc_nodes[bank];
                let (mesh, llc, dram) = (&mut self.mesh, &mut self.llc, &mut self.dram);
                let mut hit = false;
                let done = mesh.traverse_roundtrip(src, dst, cycle, 1, |arrive| {
                    let access = llc.access(offset, arrive, kind == AccessKind::Write, dram);
                    hit = access.hit;
                    access.done
                });
                if let Some(p) = &self.profiler {
                    p.note_llc_bank(bank);
                    p.note_class(
                        core,
                        if hit {
                            MemClass::LlcHit
                        } else {
                            MemClass::Dram
                        },
                    );
                }
                done
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint (see crate::checkpoint)
    // ------------------------------------------------------------------

    /// Serialize the machine at canonical event boundary `(cycle, seq)`
    /// into a complete checkpoint file image (header line + body). The
    /// bytes are canonical: two machines with identical simulated state
    /// produce identical images regardless of host insertion order.
    pub fn checkpoint(&self, cycle: Cycle, seq: u64) -> Vec<u8> {
        let header = crate::checkpoint::CheckpointHeader {
            version: crate::checkpoint::CHECKPOINT_VERSION,
            cycle,
            seq,
            cols: self.config.cols as u64,
            rows: self.config.rows as u64,
            seed: self.config.seed,
            body_len: 0, // recomputed by encode
            body_crc: 0, // recomputed by encode
        };
        crate::checkpoint::encode(header, &self.checkpoint_body())
    }

    /// The canonical machine-state body: every stateful component in
    /// fixed section order. The section tags name exactly the machine
    /// fields a checkpoint carries. Every field is bound below, so a
    /// new one does not compile until it is either serialized or
    /// bound `_` with the reason replay cannot depend on it.
    pub(crate) fn checkpoint_body(&self) -> Vec<u8> {
        use crate::checkpoint::{put_section, put_u64};
        let Machine {
            mesh,
            spms,
            llc,
            dram,
            dram_brk,
            faults,
            // Immutable for the machine's lifetime; the header line
            // names its cols/rows/seed. No image is read back, so no
            // config is ever compared against one.
            config: _,
            // A pure function of the (checked) config, rebuilt
            // identically by `Machine::new`.
            map: _,
            // Cached pure functions of the mesh geometry, rebuilt
            // identically by `Machine::new`.
            core_nodes: _,
            llc_nodes: _,
            // Host-side observers: they charge no simulated cycle and
            // never feed timing back, so the image is byte-identical
            // with or without them (the profiler's zero cost is pinned
            // by crates/bench/tests/prof.rs).
            latency_probe: _,
            sanitizer: _,
            profiler: _,
            // Host-side diagnostics for watchdog dumps: fires only on
            // aborted runs and never touches state.
            watchdog_probe: _,
        } = self;
        let mut out = Vec::new();
        put_section(&mut out, "mesh", &mesh.snapshot());
        let mut spm_bytes = Vec::new();
        put_u64(&mut spm_bytes, spms.len() as u64);
        for spm in spms {
            let snap = spm.snapshot();
            put_u64(&mut spm_bytes, snap.len() as u64);
            spm_bytes.extend_from_slice(&snap);
        }
        put_section(&mut out, "spms", &spm_bytes);
        put_section(&mut out, "llc", &llc.snapshot());
        put_section(&mut out, "dram", &dram.snapshot());
        put_section(&mut out, "dram_brk", &dram_brk.to_le_bytes());
        let mut fault_bytes = Vec::new();
        match faults {
            Some(fs) => {
                fault_bytes.push(1);
                put_u64(&mut fault_bytes, fs.next_flip as u64);
                put_u64(&mut fault_bytes, fs.flips_applied);
            }
            None => fault_bytes.push(0),
        }
        put_section(&mut out, "faults", &fault_bytes);
        out
    }

    /// Uncontended round-trip latency probe from `core` to `addr`
    /// (does not reserve bandwidth or mutate functional state).
    pub fn probe_latency(&self, core: CoreId, addr: Addr, cycle: Cycle) -> Cycle {
        let src = self.core_nodes[core];
        match self.map.decode(addr) {
            Region::Spm { core: owner, .. } => {
                let owner = owner as usize;
                if owner == core {
                    self.spms[owner].local_latency()
                } else {
                    let dst = self.core_nodes[owner];
                    let there = self.mesh.probe(src, dst, cycle, 1);
                    let serviced = there + self.spms[owner].local_latency();
                    self.mesh.probe(dst, src, serviced, 1) - cycle
                }
            }
            Region::Dram { offset } => {
                let bank = self.llc.bank_of(offset) as usize;
                let dst = self.llc_nodes[bank];
                let there = self.mesh.probe(src, dst, cycle, 1);
                self.mesh
                    .probe(dst, src, there + self.config.llc.hit_latency, 1)
                    - cycle
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small(4, 2))
    }

    #[test]
    fn dram_alloc_is_disjoint_and_aligned() {
        let mut m = machine();
        let a = m.dram_alloc(10);
        let b = m.dram_alloc(10);
        assert!(b.raw() >= a.raw() + 10);
        assert_eq!(a.raw() % 16, 0);
        assert_eq!(b.raw() % 16, 0);
    }

    #[test]
    fn peek_poke_spm_and_dram() {
        let mut m = machine();
        let spm = m.addr_map().spm_addr(3, 64);
        let dram = m.dram_alloc_words(1);
        m.poke(spm, 7);
        m.poke(dram, 9);
        assert_eq!(m.peek(spm), 7);
        assert_eq!(m.peek(dram), 9);
    }

    #[test]
    fn local_spm_read_is_fast() {
        let mut m = machine();
        let a = m.addr_map().spm_addr(0, 0);
        let (_, done) = m.read(0, a, 100, false);
        assert_eq!(done - 100, 2);
    }

    #[test]
    fn remote_spm_read_pays_network() {
        let mut m = machine();
        let a = m.addr_map().spm_addr(3, 0); // (3, 1) vs core 0 at (0, 1)
        let (_, done) = m.read(0, a, 100, false);
        assert!(done - 100 > 2, "remote access must be slower than local");
    }

    #[test]
    fn dram_read_is_much_slower_than_spm() {
        let mut m = machine();
        let spm = m.addr_map().spm_addr(0, 0);
        let dram = m.dram_alloc_words(1);
        let (_, t_spm) = m.read(0, spm, 0, false);
        let (_, t_dram) = m.read(0, dram, 0, false);
        assert!(t_dram > 5 * t_spm, "DRAM {t_dram} vs SPM {t_spm}");
    }

    #[test]
    fn llc_caches_repeated_dram_reads() {
        let mut m = machine();
        let dram = m.dram_alloc_words(1);
        let (_, t1) = m.read(0, dram, 0, false);
        let (_, t2) = m.read(0, dram, t1, false);
        assert!(t2 - t1 < t1, "second access should hit LLC");
        let (hits, misses, _) = m.llc_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn amo_returns_old_applies_new() {
        let mut m = machine();
        let a = m.dram_alloc_words(1);
        m.poke(a, 10);
        let (old, _) = m.amo(1, a, AmoOp::Sub, 1, 0);
        assert_eq!(old, 10);
        assert_eq!(m.peek(a), 9);
    }

    #[test]
    fn writes_are_functionally_visible_immediately() {
        let mut m = machine();
        let a = m.addr_map().spm_addr(2, 8);
        m.write(0, a, 5, 0, false);
        assert_eq!(m.peek(a), 5);
    }

    #[test]
    fn probe_latency_grows_with_distance() {
        let m = Machine::new(MachineConfig::small(8, 4));
        let near = m.addr_map().spm_addr(1, 0);
        let far = m.addr_map().spm_addr(31, 0);
        assert!(m.probe_latency(0, far, 0) > m.probe_latency(0, near, 0));
    }

    #[test]
    fn dram_alloc_init_copies_data() {
        let mut m = machine();
        let a = m.dram_alloc_init(&[1, 2, 3]);
        assert_eq!(m.peek_slice(a, 3), vec![1, 2, 3]);
    }

    #[test]
    fn lookahead_is_one_mesh_hop() {
        // All endpoint latencies exceed the router hop, so the
        // conservative window quantum is the hop latency.
        let m = machine();
        assert_eq!(m.lookahead(), m.mesh().hop_latency());
        assert!(m.lookahead() >= 1);
    }

    #[test]
    fn no_fault_plan_means_no_fault_state() {
        let m = machine();
        assert!(!m.faults_active());
        assert_eq!(m.freeze_adjust(0, 123), 123);
        assert_eq!(m.fault_flips_applied(), 0);
        assert!(m.active_fault_windows(0).is_empty());
    }

    #[test]
    fn timed_flip_applies_exactly_once() {
        use mosaic_chaos::FaultPlan;
        let mut cfg = MachineConfig::small(4, 2);
        cfg.faults = Some(FaultPlan::parse("flip=dram:2:5@100").unwrap());
        let mut m = Machine::new(cfg);
        let addr = m.addr_map().dram_addr(8);
        m.poke(addr, 0);
        m.apply_flips_due(50);
        assert_eq!(m.peek(addr), 0, "flip must not fire early");
        m.apply_flips_due(100);
        assert_eq!(m.peek(addr), 1 << 5);
        m.apply_flips_due(200);
        assert_eq!(m.peek(addr), 1 << 5, "flip must not re-fire");
        assert_eq!(m.fault_flips_applied(), 1);
    }

    #[test]
    fn end_flip_applies_at_termination() {
        use mosaic_chaos::FaultPlan;
        let mut cfg = MachineConfig::small(4, 2);
        cfg.faults = Some(FaultPlan::parse("flip=spm:1:4:0@end").unwrap());
        let mut m = Machine::new(cfg);
        let addr = m.addr_map().spm_addr(1, 16);
        m.poke(addr, 8);
        m.apply_flips_due(u64::MAX);
        assert_eq!(m.peek(addr), 8, "end flips wait for termination");
        m.apply_end_flips();
        assert_eq!(m.peek(addr), 9);
        assert_eq!(m.fault_flips_applied(), 1);
    }

    #[test]
    fn freeze_adjust_skips_windows_for_the_frozen_core_only() {
        use mosaic_chaos::FaultPlan;
        let mut cfg = MachineConfig::small(4, 2);
        // One freeze window; seed chosen arbitrarily, then we read the
        // materialized window back through the diagnostics string to
        // find the victim core.
        cfg.faults = Some(FaultPlan::parse("seed=11,freeze=1x500").unwrap());
        let m = Machine::new(cfg);
        assert!(m.faults_active());
        // Find the victim by probing all cores at all plausible starts.
        let mut found = false;
        for core in 0..m.core_count() {
            for t in 0..100_000u64 {
                let adj = m.freeze_adjust(core, t);
                if adj != t {
                    // The first frozen cycle jumps straight to window
                    // end, at most the window length away.
                    assert!(adj > t && adj - t <= 500, "adj {adj} from {t}");
                    // Other cores are unaffected at the same cycle.
                    let other = (core + 1) % m.core_count();
                    assert_eq!(m.freeze_adjust(other, t), t);
                    found = true;
                    break;
                }
            }
            if found {
                break;
            }
        }
        assert!(found, "materialized freeze window not observed");
    }

    /// Warm a machine with a mix of SPM/DRAM traffic so every
    /// component holds non-default state.
    fn warmed() -> Machine {
        let mut m = machine();
        let dram = m.dram_alloc_init(&[5, 6, 7, 8]);
        let spm = m.addr_map().spm_addr(3, 0);
        let mut t = 0;
        for i in 0..16u64 {
            let (_, d1) = m.read(0, dram.offset_words(i % 4), t, false);
            let d2 = m.write(1, spm, i as u32, d1, false);
            let (_, d3) = m.amo(2, dram, AmoOp::Add, 1, d2);
            t = d3;
        }
        m
    }

    #[test]
    fn checkpoint_is_canonical_and_covers_every_component() {
        let warm = warmed();
        assert_eq!(warm.checkpoint(1234, 99), warmed().checkpoint(1234, 99));
        assert_ne!(
            warm.checkpoint_body(),
            machine().checkpoint_body(),
            "warm state must differ from a cold machine"
        );
        // The header names the boundary and the machine; the body is
        // what `checkpoint_body` wrote.
        let image = warm.checkpoint(1234, 99);
        let body = warm.checkpoint_body();
        let (line, rest) = image.split_at(image.len() - body.len());
        assert_eq!(rest, &body[..]);
        let line = std::str::from_utf8(line).unwrap();
        assert_eq!(line.find('\n'), Some(line.len() - 1), "{line}");
        for key in [
            r#""cycle":1234"#,
            r#""seq":99"#,
            r#""cols":4"#,
            r#""rows":2"#,
        ] {
            assert!(line.contains(key), "{line}");
        }
        // The DRAM bump pointer is machine state too.
        let mut bumped = machine();
        bumped.dram_alloc(4);
        assert_ne!(bumped.checkpoint_body(), machine().checkpoint_body());
    }

    #[test]
    fn checkpoint_carries_fault_cursor() {
        use mosaic_chaos::FaultPlan;
        let mut cfg = MachineConfig::small(4, 2);
        cfg.faults = Some(FaultPlan::parse("flip=dram:2:5@100").unwrap());
        let flipped = || {
            let mut m = Machine::new(cfg.clone());
            m.apply_flips_due(100);
            assert_eq!(m.fault_flips_applied(), 1);
            m
        };
        assert_eq!(flipped().checkpoint_body(), flipped().checkpoint_body());
        // Write the flipped word into a fresh machine by hand: memory is
        // now equal, so the images differ only by the cursor.
        let addr = flipped().addr_map().dram_addr(8);
        let mut fresh = Machine::new(cfg.clone());
        fresh.poke(addr, flipped().peek(addr));
        assert_ne!(flipped().checkpoint_body(), fresh.checkpoint_body());
        // A fault-free machine's image differs from a faulted one's
        // even before any flip fires.
        assert_ne!(
            Machine::new(cfg.clone()).checkpoint_body(),
            machine().checkpoint_body()
        );
    }

    #[test]
    fn watchdog_dump_reports_probe_and_windows() {
        use mosaic_chaos::FaultPlan;
        let mut cfg = MachineConfig::small(4, 2);
        cfg.faults = Some(FaultPlan::parse("seed=2,freeze=1x1000000000").unwrap());
        let mut m = Machine::new(cfg);
        m.set_watchdog_probe(Box::new(|m: &Machine| {
            format!("probe: {} cores", m.core_count())
        }));
        // The freeze window starts somewhere in 0..100_000 and lasts
        // 1e9 cycles, so cycle 200_000 is inside it.
        let dump = m.watchdog_dump(200_000);
        assert!(dump.contains("active fault windows"), "dump: {dump}");
        assert!(dump.contains("frozen"), "dump: {dump}");
        assert!(dump.contains("probe: 8 cores"), "dump: {dump}");
    }
}
