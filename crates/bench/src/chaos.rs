//! Chaos workloads: tiny runs whose outputs live in simulated memory.
//!
//! The `chaos_sweep` harness and the fault-injection tests need
//! workloads with two properties the regular benchmark catalog does
//! not guarantee together: they finish in well under a second at tiny
//! scale (a divergence check runs everything twice), and their entire
//! result lives at *known DRAM word offsets* — user allocations happen
//! before the runtime lays itself out, so the output words sit at the
//! very bottom of DRAM where a `flip=dram:WORD:BIT@end` plan can
//! target them and a [`RunDigest`] can summarize them.
//!
//! Two workloads cover the two scheduling shapes: `fib` (deeply
//! recursive `parallel_invoke`, output = one word at DRAM word 0) and
//! `scan` (a flat `parallel_for` map over `len` words, output = words
//! `len..2*len`).

use crate::sanitize::SanCell;
use mosaic_chaos::{payload_digest, RunDigest, SplitMix64};
use mosaic_runtime::{Mosaic, RunReport, RuntimeConfig, TaskCtx};
use mosaic_sim::{MachineConfig, MachineProfile, SimError};
use mosaic_workloads::Scale;

/// The chaos workload names, in canonical order.
pub const WORKLOADS: &[&str] = &["fib", "scan"];

/// One chaos workload run: the divergence-checkable digest plus the
/// extra counters the golden file wants.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Payload digest, cycle count, and verification flag.
    pub digest: RunDigest,
    /// Dynamic instruction count (0 when the run crashed).
    pub instructions: u64,
    /// The simulation error, if the run did not terminate cleanly
    /// (possible under bit-flip plans that corrupt runtime state).
    pub error: Option<String>,
    /// Sanitizer outcome (default/empty when the sanitizer was off or
    /// the run crashed).
    pub sanitizer: SanCell,
    /// Cycle-attribution profile (`None` unless the profiler ran).
    pub profile: Option<MachineProfile>,
}

impl ChaosRun {
    /// A run that died with `err`: unverified, zero digest — always
    /// reported as a divergence against a clean run.
    fn crashed(err: SimError) -> ChaosRun {
        ChaosRun {
            digest: RunDigest {
                payload: 0,
                cycles: 0,
                verified: false,
            },
            instructions: 0,
            error: Some(err.to_string()),
            sanitizer: SanCell::default(),
            profile: None,
        }
    }

    /// A run that terminated: `verified` says whether its output words
    /// (digested as `payload`) match the host reference.
    fn completed(report: RunReport, payload: u64, verified: bool) -> ChaosRun {
        ChaosRun {
            digest: RunDigest {
                payload,
                cycles: report.cycles,
                verified,
            },
            instructions: report.instructions(),
            error: None,
            sanitizer: SanCell::from_report(report.sanitizer.as_ref()),
            profile: report.profile,
        }
    }
}

/// Workload parameters at `scale`: (fib argument, scan length).
pub fn params(scale: Scale) -> (u32, u64) {
    match scale {
        Scale::Tiny => (10, 64),
        Scale::Small => (12, 512),
        Scale::Full => (14, 4096),
    }
}

/// Run workload `name` (one of [`WORKLOADS`]) on `machine` at `scale`.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub fn run(name: &str, machine: MachineConfig, scale: Scale) -> ChaosRun {
    let (fib_n, scan_len) = params(scale);
    match name {
        "fib" => run_fib(machine, fib_n),
        "scan" => run_scan(machine, scan_len),
        other => panic!(
            "unknown chaos workload {other:?} (known: {})",
            WORKLOADS.join(", ")
        ),
    }
}

fn fib_task(ctx: &mut TaskCtx<'_>, n: u32) -> u32 {
    if n < 2 {
        ctx.compute(1, 1);
        return n;
    }
    let (x, y) = ctx.parallel_invoke(
        move |ctx| fib_task(ctx, n - 1),
        move |ctx| fib_task(ctx, n - 2),
    );
    ctx.compute(1, 1);
    x + y
}

/// `fib(n)` by parallel recursion; the result is stored to DRAM word 0.
pub fn run_fib(machine: MachineConfig, n: u32) -> ChaosRun {
    let mut sys = Mosaic::new(machine, RuntimeConfig::work_stealing());
    let out = sys.machine_mut().dram_alloc_words(1);
    let report = match sys.try_run(move |ctx| {
        let f = fib_task(ctx, n);
        ctx.store(out, f);
    }) {
        Ok(r) => r,
        Err(e) => return ChaosRun::crashed(e),
    };
    let word = report.machine.peek(out);
    ChaosRun::completed(
        report,
        payload_digest(&[word]),
        word == mosaic_workloads::fib::reference(n),
    )
}

/// A flat `parallel_for` map: `out[i] = in[i] * 3 + 1` over `len`
/// seeded words. Input occupies DRAM words `0..len`, output
/// `len..2*len`.
pub fn run_scan(machine: MachineConfig, len: u64) -> ChaosRun {
    let mut rng = SplitMix64::new(0x00C0_FFEE);
    let input: Vec<u32> = (0..len).map(|_| rng.next_u64() as u32).collect();
    let expect: Vec<u32> = input
        .iter()
        .map(|&v| v.wrapping_mul(3).wrapping_add(1))
        .collect();

    let mut sys = Mosaic::new(machine, RuntimeConfig::work_stealing());
    let inp = sys.machine_mut().dram_alloc_init(&input);
    let out = sys.machine_mut().dram_alloc_words(len);
    let hi = len as u32;
    let report = match sys.try_run(move |ctx| {
        ctx.parallel_for(0, hi, 8, 0, move |ctx, i| {
            let v = ctx.load(inp.offset_words(i as u64));
            ctx.compute(2, 2);
            ctx.store(
                out.offset_words(i as u64),
                v.wrapping_mul(3).wrapping_add(1),
            );
        });
    }) {
        Ok(r) => r,
        Err(e) => return ChaosRun::crashed(e),
    };
    let words = report.machine.peek_slice(out, len as usize);
    ChaosRun::completed(report, payload_digest(&words), words == expect)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_workloads_verify_fault_free() {
        for wl in WORKLOADS {
            let r = run(wl, MachineConfig::small(4, 2), Scale::Tiny);
            assert!(r.digest.verified, "{wl} failed verification");
            assert!(r.error.is_none());
            assert!(r.digest.cycles > 0 && r.instructions > 0);
        }
    }

    #[test]
    fn digests_are_reproducible() {
        let a = run_scan(MachineConfig::small(4, 2), 64);
        let b = run_scan(MachineConfig::small(4, 2), 64);
        assert_eq!(a.digest.payload, b.digest.payload);
        assert_eq!(a.digest.cycles, b.digest.cycles);
    }
}
