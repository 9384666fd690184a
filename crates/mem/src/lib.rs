#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(clippy::float_arithmetic)]
//! # mosaic-mem
//!
//! Memory-system *endpoint* models for the Mosaic manycore simulator:
//!
//! - a partitioned-global-address-space (PGAS) [`AddrMap`] matching the
//!   HammerBlade layout (core-local SPM, remote SPMs, and DRAM mapped to
//!   non-intersecting regions of every core's address space);
//! - [`Scratchpad`]: a 4 KB-class software-managed memory with a single
//!   access port;
//! - [`Llc`]: a banked, set-associative, write-back last-level cache;
//! - [`DramModel`]: a bank/row-buffer/shared-bus timing model in the
//!   spirit of DRAMSim3 (the paper models one HBM2 channel);
//! - [`AmoOp`]: the atomic memory operations (the RISC-V "A" extension
//!   subset the runtime needs).
//!
//! These models own both *functional* state (the actual words stored)
//! and *timing* state (port/bank/bus reservations). Transport between a
//! core and an endpoint is the job of `mosaic-mesh`; composition is the
//! job of `mosaic-sim`.
//!
//! ## Example
//!
//! ```
//! use mosaic_mem::{AddrMap, Region};
//!
//! let map = AddrMap::new(128, 4096);
//! let a = map.spm_addr(7, 0x10);
//! assert_eq!(map.decode(a), Region::Spm { core: 7, offset: 0x10 });
//! let d = map.dram_addr(0x4000);
//! assert_eq!(map.decode(d), Region::Dram { offset: 0x4000 });
//! ```

pub mod addr;
pub mod amo;
pub mod dram;
pub mod llc;
pub(crate) mod snap;
pub mod spm;

pub use addr::{Addr, AddrMap, Region};
pub use amo::AmoOp;
pub use dram::{DramConfig, DramModel};
pub use llc::{Llc, LlcConfig};
pub use spm::Scratchpad;

/// One cycle of simulated time (alias kept local to avoid a dependency
/// on `mosaic-mesh` for a single type).
pub type Cycle = u64;
