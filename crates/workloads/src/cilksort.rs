//! CilkSort: parallel mergesort with parallel merge
//! (dynamic-unbalanced; recursive spawn-and-sync, no static baseline).
//!
//! The classic Cilk benchmark: recursively sort halves with
//! `parallel_invoke`, then merge with the recursive parallel merge
//! (binary-search split of the larger run). Leaves sort in place with
//! a sequential sort whose loads/stores are timed.

use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Addr, Mosaic, RuntimeConfig, TaskCtx};
use mosaic_sim::MachineConfig;

/// Elements per sequential leaf.
pub const SORT_GRAIN: u32 = 32;
/// Elements per sequential merge leaf.
pub const MERGE_GRAIN: u32 = 64;

/// A CilkSort instance over `n` u32 keys.
#[derive(Debug, Clone, Copy)]
pub struct CilkSort {
    /// Number of keys.
    pub n: u32,
    /// Input seed.
    pub seed: u64,
}

/// Sequential timed leaf sort: read the run, sort host-side (charging
/// comparison work), write it back.
fn leaf_sort(ctx: &mut TaskCtx<'_>, data: Addr, lo: u32, hi: u32) {
    let n = (hi - lo) as usize;
    let mut v = Vec::with_capacity(n);
    for i in lo..hi {
        v.push(ctx.load(data.offset_words(i as u64)));
    }
    v.sort_unstable();
    // ~n log n compares + swaps.
    let work = (n.max(2) as u64) * (usize::BITS - n.leading_zeros()) as u64;
    ctx.compute(3 * work, 2 * work);
    for (k, val) in v.into_iter().enumerate() {
        ctx.store(data.offset_words(lo as u64 + k as u64), val);
    }
}

/// Timed binary search for the first index in `[lo, hi)` where
/// `data[idx] >= key`.
fn lower_bound(ctx: &mut TaskCtx<'_>, data: Addr, mut lo: u32, mut hi: u32, key: u32) -> u32 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let v = ctx.load(data.offset_words(mid as u64));
        ctx.compute(3, 3);
        if v < key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Merge sorted `src[a0,a1)` and `src[b0,b1)` into `dst[out..]`.
#[allow(
    clippy::too_many_arguments,
    reason = "two ranges + two buffers: the merge's natural arity"
)]
fn merge_rec(
    ctx: &mut TaskCtx<'_>,
    src: Addr,
    dst: Addr,
    a0: u32,
    a1: u32,
    b0: u32,
    b1: u32,
    out: u32,
) {
    let total = (a1 - a0) + (b1 - b0);
    if total <= MERGE_GRAIN {
        let (mut i, mut j, mut o) = (a0, b0, out);
        while i < a1 && j < b1 {
            let x = ctx.load(src.offset_words(i as u64));
            let y = ctx.load(src.offset_words(j as u64));
            ctx.compute(3, 3);
            if x <= y {
                ctx.store(dst.offset_words(o as u64), x);
                i += 1;
            } else {
                ctx.store(dst.offset_words(o as u64), y);
                j += 1;
            }
            o += 1;
        }
        while i < a1 {
            let x = ctx.load(src.offset_words(i as u64));
            ctx.store(dst.offset_words(o as u64), x);
            i += 1;
            o += 1;
        }
        while j < b1 {
            let y = ctx.load(src.offset_words(j as u64));
            ctx.store(dst.offset_words(o as u64), y);
            j += 1;
            o += 1;
        }
        return;
    }
    // Split the larger run at its median; binary-search the other.
    if a1 - a0 >= b1 - b0 {
        let am = a0 + (a1 - a0) / 2;
        let pivot = ctx.load(src.offset_words(am as u64));
        let bm = lower_bound(ctx, src, b0, b1, pivot);
        let out2 = out + (am - a0) + (bm - b0);
        ctx.parallel_invoke(
            move |ctx| merge_rec(ctx, src, dst, a0, am, b0, bm, out),
            move |ctx| merge_rec(ctx, src, dst, am, a1, bm, b1, out2),
        );
    } else {
        let bm = b0 + (b1 - b0) / 2;
        let pivot = ctx.load(src.offset_words(bm as u64));
        let am = lower_bound(ctx, src, a0, a1, pivot);
        let out2 = out + (am - a0) + (bm - b0);
        ctx.parallel_invoke(
            move |ctx| merge_rec(ctx, src, dst, a0, am, b0, bm, out),
            move |ctx| merge_rec(ctx, src, dst, am, a1, bm, b1, out2),
        );
    }
}

/// Copy `tmp[lo,hi)` back into `data[lo,hi)` in parallel.
fn copy_back(ctx: &mut TaskCtx<'_>, tmp: Addr, data: Addr, lo: u32, hi: u32) {
    ctx.parallel_for(lo, hi, MERGE_GRAIN, 3, move |ctx, i| {
        let v = ctx.load(tmp.offset_words(i as u64));
        ctx.store(data.offset_words(i as u64), v);
    });
}

/// Recursive sort of `data[lo,hi)` using `tmp` as merge space.
fn sort_rec(ctx: &mut TaskCtx<'_>, data: Addr, tmp: Addr, lo: u32, hi: u32) {
    if hi - lo <= SORT_GRAIN {
        leaf_sort(ctx, data, lo, hi);
        return;
    }
    let mid = lo + (hi - lo) / 2;
    ctx.parallel_invoke(
        move |ctx| sort_rec(ctx, data, tmp, lo, mid),
        move |ctx| sort_rec(ctx, data, tmp, mid, hi),
    );
    merge_rec(ctx, data, tmp, lo, mid, mid, hi, lo);
    copy_back(ctx, tmp, data, lo, hi);
}

impl CilkSort {
    /// Deterministic input keys.
    pub fn input(&self) -> Vec<u32> {
        (0..self.n as u64)
            .map(|i| (crate::gen::mix64(self.seed ^ i) & 0xffff_ffff) as u32)
            .collect()
    }
}

impl Benchmark for CilkSort {
    fn name(&self) -> String {
        format!("CilkSort-{}", self.n)
    }

    fn category(&self) -> Category {
        Category::DynamicUnbalanced
    }

    fn has_static_baseline(&self) -> bool {
        false
    }

    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let mut sys = Mosaic::new(machine, runtime);
        let input = self.input();
        let data = sys.machine_mut().dram_alloc_init(&input);
        let tmp = sys.machine_mut().dram_alloc_words(self.n as u64);
        let n = self.n;
        let report = sys.run(move |ctx| sort_rec(ctx, data, tmp, 0, n));
        let got = report.machine.peek_slice(data, n as usize);
        let mut want = input;
        want.sort_unstable();
        RunOutcome {
            verified: got == want,
            report,
        }
    }
}

/// Fig. 10 instances (paper: 16384 and 131072).
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let sizes: &[u32] = match scale {
        Scale::Tiny => &[256],
        Scale::Small => &[2048, 8192],
        Scale::Full => &[8192, 32768],
    };
    sizes
        .iter()
        .map(|&n| Box::new(CilkSort { n, seed: 0xC5 }) as Box<dyn Benchmark>)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_sort_verifies() {
        let c = CilkSort { n: 300, seed: 8 };
        let out = c.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        assert!(out.report.totals().spawns > 0);
    }

    #[test]
    fn sorts_with_duplicates_and_odd_sizes() {
        let c = CilkSort { n: 97, seed: 0 };
        let out = c.run(
            MachineConfig::small(2, 2),
            RuntimeConfig::work_stealing_naive(),
        );
        out.assert_verified();
    }
}
