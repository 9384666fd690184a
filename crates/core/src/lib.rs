#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
//! # mosaic-runtime
//!
//! A dynamic task parallel programming framework — a Cilk/TBB-like
//! **work-stealing runtime** — for manycore architectures with
//! software-managed scratchpad memories, reproducing the ASPLOS '23
//! paper *"Beyond Static Parallel Loops: Supporting Dynamic Task
//! Parallelism on Manycore Architectures with Software-Managed
//! Scratchpad Memories"* (Cheng, Ruttenberg, et al.).
//!
//! The runtime executes on the simulated HammerBlade-class machine
//! provided by [`mosaic-sim`](mosaic_sim): every load, store, AMO,
//! lock acquisition, queue operation, and stack-frame save is a timed
//! event in the machine model, so the performance effects the paper
//! measures — SPM vs. DRAM placement of the stack and task queues,
//! read-only data duplication, steal traffic, stack overflow to DRAM —
//! emerge from the same mechanisms.
//!
//! ## What's here
//!
//! - the work-stealing protocol ([`TaskCtx::spawn`] / [`TaskCtx::wait`],
//!   per-core lock-protected deques, random victim selection,
//!   release-semantics ready counters) — paper §3;
//! - the three SPM optimizations — §4: SPM-allocated stacks with
//!   hardware (or 2-instruction software, "Fib-S") overflow to DRAM,
//!   SPM-allocated task queues at a fixed offset, and read-only data
//!   duplication for loop environments;
//! - the high-level patterns [`TaskCtx::parallel_invoke`],
//!   [`TaskCtx::parallel_for`], [`TaskCtx::parallel_reduce`] — Fig. 3;
//! - the traditional **static-loop scheduler** baseline — §5.2;
//! - `spm_reserve`/`spm_malloc` for user scratchpad data — §4.
//!
//! ## Quick start
//!
//! ```
//! use mosaic_runtime::{Mosaic, RuntimeConfig};
//! use mosaic_sim::MachineConfig;
//!
//! // fib(10) with parallel_invoke on an 8-core machine.
//! fn fib(ctx: &mut mosaic_runtime::TaskCtx<'_>, n: u32) -> u32 {
//!     if n < 2 {
//!         return n;
//!     }
//!     let (x, y) = ctx.parallel_invoke(
//!         move |ctx| fib(ctx, n - 1),
//!         move |ctx| fib(ctx, n - 2),
//!     );
//!     ctx.compute(1, 1);
//!     x + y
//! }
//!
//! let sys = Mosaic::new(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
//! // Every core runs on this thread, so host-side captures need no
//! // `Send`: an `Rc<Cell<_>>` carries the result out.
//! let out = std::rc::Rc::new(std::cell::Cell::new(0));
//! let out2 = out.clone();
//! let report = sys.run(move |ctx| out2.set(fib(ctx, 10)));
//! assert_eq!(out.get(), 55);
//! assert!(report.totals().tasks_executed > 0);
//! ```

pub mod config;
pub mod costs;
pub mod ctx;
pub mod dealing;
pub mod layout;
pub mod lock;
pub mod patterns;
pub mod queue;
pub mod runtime;
pub mod stack;
pub mod static_sched;
pub mod stats;
pub mod task;
pub mod trace;
pub mod worker;

pub use config::{Placement, RuntimeConfig, SchedulerKind, StealAmount, VictimPolicy};
pub use costs::CostModel;
pub use ctx::{EnvHandle, TaskCtx};
pub use runtime::Mosaic;
pub use static_sched::LoopBody;
pub use stats::{RunReport, WorkerStats};
pub use trace::TraceEvent;

pub use mosaic_mem::{Addr, AmoOp};
pub use mosaic_sim::{Cycle, FaultPlan, MachineConfig, SimError};
