//! Network statistics: per-link utilization and core-to-core traffic
//! summaries, used to regenerate the paper's Figure 5 latency heatmap.

use crate::topology::{MeshConfig, NodeKind};

/// Snapshot of cumulative flits carried per unidirectional link.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStats {
    flits: Vec<u64>,
}

impl LinkStats {
    pub(crate) fn new(flits: Vec<u64>) -> Self {
        LinkStats { flits }
    }

    /// Flits carried by link `idx` since the last reset.
    pub fn flits_on(&self, idx: usize) -> u64 {
        self.flits[idx]
    }

    /// Total flits carried across all links.
    pub fn total_flits(&self) -> u64 {
        self.flits.iter().sum()
    }

    /// The most-loaded link and its flit count, if any traffic flowed.
    pub fn hottest_link(&self) -> Option<(usize, u64)> {
        self.flits
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, f)| f)
            .filter(|&(_, f)| f > 0)
    }

    /// Per-core flits carried by links *arriving at* each core's router
    /// node — the profiler's NoC hot-spot heatmap. Counts both traffic
    /// delivered to the node and traffic routed through it; either way
    /// those flits occupy the router's input ports, which is the
    /// congestion that makes a hot node hot (paper Figure 5).
    pub fn core_inbound(&self, cfg: &MeshConfig) -> Vec<u64> {
        self.core_endpoint_flits(cfg, false)
    }

    /// Per-core flits carried by links *leaving* each core's router
    /// node (injected plus routed-through).
    pub fn core_outbound(&self, cfg: &MeshConfig) -> Vec<u64> {
        self.core_endpoint_flits(cfg, true)
    }

    fn core_endpoint_flits(&self, cfg: &MeshConfig, outbound: bool) -> Vec<u64> {
        let mut out = vec![0u64; cfg.core_count()];
        for (idx, &(from, to)) in cfg.link_table().iter().enumerate() {
            let node = if outbound { from } else { to };
            if let NodeKind::Core(c) = cfg.node_kind(node) {
                out[c as usize] += self.flits[idx];
            }
        }
        out
    }
}

/// A dense core-by-core matrix of observed average latencies (or any
/// other per-ordered-pair scalar), used for heatmap outputs.
#[derive(Debug, Clone)]
pub struct TrafficMatrix {
    cores: usize,
    sum: Vec<f64>,
    count: Vec<u64>,
}

impl TrafficMatrix {
    /// An empty matrix over `cores` cores.
    pub fn new(cores: usize) -> Self {
        TrafficMatrix {
            cores,
            sum: vec![0.0; cores * cores],
            count: vec![0; cores * cores],
        }
    }

    /// Record one sample (e.g. one load's round-trip latency) from
    /// `src` to `dst`.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: samples arrive in canonical engine order, one accumulation stream per (src, dst) cell"
    )]
    pub fn record(&mut self, src: usize, dst: usize, value: f64) {
        let i = src * self.cores + dst;
        self.sum[i] += value;
        self.count[i] += 1;
    }

    /// Mean recorded value from `src` to `dst`, or `None` if no samples.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: one division per cell, no accumulation"
    )]
    pub fn mean(&self, src: usize, dst: usize) -> Option<f64> {
        let i = src * self.cores + dst;
        (self.count[i] > 0).then(|| self.sum[i] / self.count[i] as f64)
    }

    /// Per-source mean toward a single destination, normalized so the
    /// maximum is 1.0 — the exact quantity plotted in the paper's
    /// Figure 5 (each core's remote-SPM load latency toward core 0,
    /// normalized to the slowest core).
    #[expect(
        clippy::float_arithmetic,
        reason = "order: one division per core, no accumulation"
    )]
    pub fn normalized_column(&self, dst: usize) -> Vec<f64> {
        let means: Vec<f64> = (0..self.cores)
            .map(|src| self.mean(src, dst).unwrap_or(0.0))
            .collect();
        let max = means.iter().cloned().fold(0.0_f64, f64::max);
        if max == 0.0 {
            return means;
        }
        means.iter().map(|m| m / max).collect()
    }

    /// Render `values` (one per core) as a `core_rows x cols` text grid
    /// matching the paper's heatmap orientation.
    pub fn render_grid(values: &[f64], cfg: &MeshConfig) -> String {
        let mut out = String::new();
        for y in 0..cfg.core_rows() as usize {
            for x in 0..cfg.cols() as usize {
                let v = values[y * cfg.cols() as usize + x];
                out.push_str(&format!("{v:4.1} "));
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_matrix_has_no_means() {
        let m = TrafficMatrix::new(4);
        assert_eq!(m.mean(0, 1), None);
    }

    #[test]
    fn mean_accumulates() {
        let mut m = TrafficMatrix::new(4);
        m.record(1, 0, 10.0);
        m.record(1, 0, 20.0);
        assert_eq!(m.mean(1, 0), Some(15.0));
    }

    #[test]
    fn normalized_column_peaks_at_one() {
        let mut m = TrafficMatrix::new(3);
        m.record(0, 0, 1.0);
        m.record(1, 0, 2.0);
        m.record(2, 0, 4.0);
        let col = m.normalized_column(0);
        assert_eq!(col, vec![0.25, 0.5, 1.0]);
    }

    #[test]
    fn endpoint_flits_follow_the_link_table() {
        let cfg = MeshConfig::new(2, 2, 0);
        // Put one flit on every link ending at core 0's node and two on
        // every link leaving core 3's node; everything else idle.
        let n0 = cfg.core_node(0);
        let n3 = cfg.core_node(3);
        let flits: Vec<u64> = cfg
            .link_table()
            .iter()
            .map(|&(from, to)| {
                if to == n0 {
                    1
                } else if from == n3 {
                    2
                } else {
                    0
                }
            })
            .collect();
        let stats = LinkStats::new(flits);
        let inbound = stats.core_inbound(&cfg);
        let outbound = stats.core_outbound(&cfg);
        assert!(inbound[0] >= 3, "core 0 has >= 3 incident links");
        assert_eq!(inbound[3], 0);
        assert!(outbound[3] >= 6);
        assert_eq!(outbound[0], 0);
    }

    #[test]
    fn hottest_link_none_when_idle() {
        let s = LinkStats::new(vec![0, 0, 0]);
        assert_eq!(s.hottest_link(), None);
        let s = LinkStats::new(vec![0, 7, 3]);
        assert_eq!(s.hottest_link(), Some((1, 7)));
        assert_eq!(s.total_flits(), 10);
    }

    #[test]
    fn render_grid_shape() {
        let cfg = MeshConfig::new(4, 2, 0);
        let vals = vec![0.5; 8];
        let grid = TrafficMatrix::render_grid(&vals, &cfg);
        assert_eq!(grid.lines().count(), 2);
        assert_eq!(grid.lines().next().unwrap().split_whitespace().count(), 4);
    }
}
