#![deny(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-prof
//!
//! Cycle-attribution profiler for the Mosaic simulator. When
//! `MachineConfig::profile` is set, every simulated cycle of every core
//! is classified into exactly one [`Bucket`] — compute, queue-lock
//! wait, steal search, SPM/LLC/DRAM stall, fence/AMO wait,
//! stack-overflow handling, or idle — and per-NoC-link / per-LLC-bank
//! traffic counters are accumulated into an exportable heatmap
//! ([`MachineProfile`]).
//!
//! ## The accounting contract
//!
//! Two invariants, both enforced by tests in `mosaic-sim` and the
//! workspace integration suite:
//!
//! 1. **Zero cost when off (and on)**: the profiler is a host-side
//!    observer. It charges no simulated cycles, so golden numbers are
//!    byte-identical with profiling on or off.
//! 2. **Exact attribution**: for every core, the bucket cycles sum to
//!    exactly that core's elapsed cycles (its halt cycle). Nothing is
//!    double-counted and nothing is dropped.
//!
//! Exactness falls out of the split recorded here:
//!
//! - *Compute delays* (`CoreApi::charge`) are attributed **core-side at
//!   charge time**, against the core's current [`Phase`], so a single
//!   flushed delay that spans several runtime phases (e.g. steal search
//!   followed by task compute) still lands in the right buckets.
//! - *Engine-side spans* — memory stalls, fence drains, store-queue
//!   backpressure, fault-injected freeze windows — are attributed by
//!   the event loop as it computes them, using the same arithmetic that
//!   produces the simulated timing.
//!
//! The [`ProfSink`] is the channel between the two sides, an `Rc` of
//! plain `Cell` counters: cores (coroutines on the engine's thread)
//! bump their own per-core rows, the event loop bumps stall counters.
//! Nobody reads until the run is over.
//!
//! This crate is dependency-free and sits below `mosaic-sim` in the
//! workspace graph; the simulator wires it into the machine and
//! `mosaic-runtime` marks phases around its scheduler sections.

pub mod report;
pub mod sink;

pub use report::MachineProfile;
pub use sink::ProfSink;

/// Number of attribution buckets (the arity of [`Bucket`]).
pub const BUCKET_COUNT: usize = 9;

/// Where a simulated cycle went. Every elapsed cycle of every core is
/// attributed to exactly one bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Bucket {
    /// Useful work: modeled compute charged while in [`Phase::Task`],
    /// plus store issue cycles.
    Compute = 0,
    /// Acquiring, holding, and releasing a task-queue lock (spin
    /// retries included), and the queue operations under it.
    QueueLockWait = 1,
    /// A thief searching for work: victim selection, directory
    /// resolution, and remote queue probes.
    StealSearch = 2,
    /// Blocked on a scratchpad access (local port service or a remote
    /// SPM round trip over the mesh).
    SpmStall = 3,
    /// Blocked on an LLC hit (mesh traversal + bank service).
    LlcStall = 4,
    /// Blocked on an LLC miss serviced by DRAM.
    DramStall = 5,
    /// Waiting on memory ordering: fence drains, AMO round trips, and
    /// store-queue backpressure is *not* here (it keeps its
    /// destination's stall bucket).
    FenceAmo = 6,
    /// Saving/restoring stack frames that overflowed to DRAM.
    StackOverflow = 7,
    /// Nothing to do: failed-steal backoff waits and fault-injected
    /// freeze windows.
    Idle = 8,
}

impl Bucket {
    /// All buckets, in fixed report order.
    pub const ALL: [Bucket; BUCKET_COUNT] = [
        Bucket::Compute,
        Bucket::QueueLockWait,
        Bucket::StealSearch,
        Bucket::SpmStall,
        Bucket::LlcStall,
        Bucket::DramStall,
        Bucket::FenceAmo,
        Bucket::StackOverflow,
        Bucket::Idle,
    ];

    /// Stable snake_case name (JSON keys, Perfetto counter tracks).
    pub fn name(self) -> &'static str {
        match self {
            Bucket::Compute => "compute",
            Bucket::QueueLockWait => "queue_lock",
            Bucket::StealSearch => "steal_search",
            Bucket::SpmStall => "spm_stall",
            Bucket::LlcStall => "llc_stall",
            Bucket::DramStall => "dram_stall",
            Bucket::FenceAmo => "fence_amo",
            Bucket::StackOverflow => "stack_overflow",
            Bucket::Idle => "idle",
        }
    }

    /// Index into a `[u64; BUCKET_COUNT]` row.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What a core is doing from the runtime's point of view. The runtime
/// marks phase transitions around its scheduler sections; compute
/// charged while a phase is active is attributed to that phase's
/// bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Running task code (the default; attributes to [`Bucket::Compute`]).
    Task,
    /// Inside a queue-lock critical section or spinning to enter one.
    QueueLock,
    /// Searching for a victim / probing remote queues.
    StealSearch,
    /// Handling a stack frame that lives in the DRAM overflow region.
    StackOverflow,
    /// Backing off with nothing to run.
    Idle,
}

impl Phase {
    /// The bucket compute cycles charged in this phase belong to.
    pub fn bucket(self) -> Bucket {
        match self {
            Phase::Task => Bucket::Compute,
            Phase::QueueLock => Bucket::QueueLockWait,
            Phase::StealSearch => Bucket::StealSearch,
            Phase::StackOverflow => Bucket::StackOverflow,
            Phase::Idle => Bucket::Idle,
        }
    }
}

/// Destination class of a timed memory access, recorded by the machine
/// model as it services the access; a blocking stall on the access is
/// attributed to the class's bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemClass {
    /// The issuing core's own scratchpad.
    SpmLocal,
    /// Another core's scratchpad (a mesh round trip).
    SpmRemote,
    /// DRAM-region access that hit in the LLC.
    LlcHit,
    /// DRAM-region access that missed the LLC and went to DRAM.
    Dram,
}

impl MemClass {
    /// The stall bucket for a blocking access of this class.
    pub fn stall_bucket(self) -> Bucket {
        match self {
            MemClass::SpmLocal | MemClass::SpmRemote => Bucket::SpmStall,
            MemClass::LlcHit => Bucket::LlcStall,
            MemClass::Dram => Bucket::DramStall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_order_and_names_are_stable() {
        assert_eq!(Bucket::ALL.len(), BUCKET_COUNT);
        for (i, b) in Bucket::ALL.iter().enumerate() {
            assert_eq!(b.index(), i);
        }
        assert_eq!(Bucket::Compute.name(), "compute");
        assert_eq!(Bucket::Idle.name(), "idle");
        let names: std::collections::BTreeSet<_> = Bucket::ALL.iter().map(|b| b.name()).collect();
        assert_eq!(names.len(), BUCKET_COUNT, "names must be distinct");
    }

    #[test]
    fn mem_class_maps_to_stall_buckets() {
        assert_eq!(MemClass::SpmLocal.stall_bucket(), Bucket::SpmStall);
        assert_eq!(MemClass::SpmRemote.stall_bucket(), Bucket::SpmStall);
        assert_eq!(MemClass::LlcHit.stall_bucket(), Bucket::LlcStall);
        assert_eq!(MemClass::Dram.stall_bucket(), Bucket::DramStall);
    }
}
