//! The exportable profile report: per-core bucket totals, traffic
//! heatmaps, and the windowed counter series, with ASCII renderers for
//! the harness binaries. Serialization lives with the consumers
//! (`mosaic-bench` writes it through `jsonlite`); this type is plain
//! data.

use crate::{Bucket, BUCKET_COUNT};
use std::fmt::Write as _;

/// Everything the profiler measured in one run. Deterministic: the
/// same simulation produces the same profile, bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineProfile {
    /// Mesh columns of the profiled machine.
    pub cols: u16,
    /// Mesh core rows of the profiled machine.
    pub rows: u16,
    /// Per-core attributed cycles, indexed `[core][Bucket::index()]`.
    pub buckets: Vec<[u64; BUCKET_COUNT]>,
    /// Per-core elapsed cycles (each core's halt cycle). The accounting
    /// invariant: `buckets[c]` sums to exactly `elapsed[c]`.
    pub elapsed: Vec<u64>,
    /// Per-LLC-bank access counts (hits + misses).
    pub llc_bank_accesses: Vec<u64>,
    /// Per-core remote-SPM accesses served by that core's scratchpad.
    pub spm_served: Vec<u64>,
    /// Per-core NoC flits delivered *to* the core's mesh node.
    pub core_inbound_flits: Vec<u64>,
    /// Per-core NoC flits injected *by* the core's mesh node.
    pub core_outbound_flits: Vec<u64>,
    /// Total flits carried across all mesh links.
    pub total_link_flits: u64,
    /// Width of one series window, in simulated cycles (a power of
    /// two; grows by deterministic pairwise decimation on long runs).
    pub window_cycles: u64,
    /// Machine-wide bucket cycles per window, oldest first.
    pub windows: Vec<[u64; BUCKET_COUNT]>,
}

impl MachineProfile {
    /// Core count.
    pub fn cores(&self) -> usize {
        self.buckets.len()
    }

    /// Machine-wide total per bucket.
    pub fn totals(&self) -> [u64; BUCKET_COUNT] {
        let mut out = [0u64; BUCKET_COUNT];
        for row in &self.buckets {
            for (acc, v) in out.iter_mut().zip(row.iter()) {
                *acc += v;
            }
        }
        out
    }

    /// One core's attributed total (must equal `elapsed[core]`).
    pub fn core_total(&self, core: usize) -> u64 {
        self.buckets[core].iter().sum()
    }

    /// Machine-wide cycles in `bucket`.
    pub fn bucket_total(&self, bucket: Bucket) -> u64 {
        self.buckets.iter().map(|row| row[bucket.index()]).sum()
    }

    /// Check the accounting invariant on every core; returns the first
    /// violating `(core, attributed, elapsed)` if any.
    pub fn accounting_error(&self) -> Option<(usize, u64, u64)> {
        (0..self.cores()).find_map(|c| {
            let sum = self.core_total(c);
            (sum != self.elapsed[c]).then_some((c, sum, self.elapsed[c]))
        })
    }

    /// Render the machine-wide bucket table: cycles and share of total
    /// attributed cycles, one bucket per line.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: one display percentage per bucket, no accumulation"
    )]
    pub fn render_totals(&self) -> String {
        let totals = self.totals();
        let all: u64 = totals.iter().sum::<u64>().max(1);
        let mut s = String::new();
        let _ = writeln!(s, "  {:<15} {:>12} {:>7}", "bucket", "cycles", "share");
        for b in Bucket::ALL {
            let v = totals[b.index()];
            let _ = writeln!(
                s,
                "  {:<15} {:>12} {:>6.1}%",
                b.name(),
                v,
                100.0 * v as f64 / all as f64
            );
        }
        s
    }

    /// Render per-core values as a `rows × cols` heatmap grid,
    /// normalized to the hottest core (1.00). Core `c` sits at column
    /// `c % cols`, row `c / cols` — the same layout the paper's Fig. 5
    /// uses, with core 0 top-left.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: one display ratio per core, no accumulation"
    )]
    pub fn render_heatmap(values: &[u64], cols: u16, rows: u16) -> String {
        let max = values.iter().copied().max().unwrap_or(0).max(1) as f64;
        let mut s = String::new();
        for r in 0..rows as usize {
            s.push_str("  ");
            for c in 0..cols as usize {
                let v = values.get(r * cols as usize + c).copied().unwrap_or(0);
                let _ = write!(s, "{:5.2} ", v as f64 / max);
            }
            s.push('\n');
        }
        s
    }

    /// Render the per-core inbound-flit heatmap (the NoC hot-spot
    /// view: with read-only duplication off, the spawning core's cell
    /// dominates).
    pub fn render_inbound_heatmap(&self) -> String {
        Self::render_heatmap(&self.core_inbound_flits, self.cols, self.rows)
    }

    /// Render the per-LLC-bank access table.
    pub fn render_llc_banks(&self) -> String {
        let mut s = String::from("  bank accesses: ");
        for (i, v) in self.llc_bank_accesses.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{i}:{v}");
        }
        s.push('\n');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MachineProfile {
        let mut buckets = vec![[0u64; BUCKET_COUNT]; 4];
        buckets[0][Bucket::Compute.index()] = 80;
        buckets[0][Bucket::DramStall.index()] = 20;
        buckets[1][Bucket::StealSearch.index()] = 100;
        buckets[2][Bucket::Idle.index()] = 100;
        buckets[3][Bucket::Compute.index()] = 100;
        MachineProfile {
            cols: 2,
            rows: 2,
            buckets,
            elapsed: vec![100; 4],
            llc_bank_accesses: vec![3, 9],
            spm_served: vec![12, 0, 0, 0],
            core_inbound_flits: vec![40, 10, 10, 10],
            core_outbound_flits: vec![5, 20, 20, 25],
            total_link_flits: 70,
            window_cycles: 1024,
            windows: vec![[1; BUCKET_COUNT]],
        }
    }

    #[test]
    fn totals_and_invariant_hold_on_sample() {
        let p = sample();
        assert_eq!(p.totals().iter().sum::<u64>(), 400);
        assert_eq!(p.bucket_total(Bucket::Compute), 180);
        assert_eq!(p.accounting_error(), None);
    }

    #[test]
    fn accounting_error_pinpoints_the_core() {
        let mut p = sample();
        p.elapsed[2] = 99;
        assert_eq!(p.accounting_error(), Some((2, 100, 99)));
    }

    #[test]
    fn heatmap_normalizes_to_hottest_core() {
        let p = sample();
        let grid = p.render_inbound_heatmap();
        let lines: Vec<&str> = grid.lines().collect();
        assert_eq!(lines.len(), 2, "rows x cols grid");
        assert!(lines[0].trim_start().starts_with("1.00"), "{grid}");
        assert!(grid.contains("0.25"), "{grid}");
    }

    #[test]
    fn renderers_mention_every_bucket() {
        let table = sample().render_totals();
        for b in Bucket::ALL {
            assert!(table.contains(b.name()), "missing {} in\n{table}", b.name());
        }
        assert!(sample().render_llc_banks().contains("1:9"));
    }
}
