//! Consistent-hash ring over worker addresses.
//!
//! Each worker contributes `replicas` virtual points,
//! `fnv1a64("{addr}#{i}")`, on a `u64` ring; a job's digest hashes to
//! a point and is owned by the first virtual point at or clockwise
//! after it. Two properties the fleet leans on:
//!
//! - **Cache sharding for free.** The job id is the spec's content
//!   digest, so "which node owns this digest" is also "which node's
//!   cache has (or will have) this payload". Any gateway instance
//!   computes the same owner with no coordination.
//! - **Deterministic fallback order.** [`HashRing::route`] walks the
//!   ring clockwise from the digest's point and returns every distinct
//!   node in encounter order. That order is a pure function of the
//!   digest and the member list — it is the re-route order after a
//!   node death, "seeded by digest" in the sense that different
//!   digests spread their fallback load across different survivors.
//!
//! Virtual points keep the shards balanced: with one point per node, a
//! 2-node ring can degenerate to a 90/10 split; with the default 64,
//! imbalance stays within a few percent.

use crate::job::fnv1a64;
use std::collections::BTreeMap;

/// Default virtual points per node.
pub const DEFAULT_REPLICAS: usize = 64;

/// Ring point for a byte string: FNV-1a, then a 64-bit avalanche
/// finalizer (the `splitmix64` mixing function). FNV alone clusters
/// badly on near-identical inputs — `"127.0.0.1:9201#0"` and
/// `"127.0.0.1:9202#0"` differ in two characters and land close
/// together, which skews a 2-node ring as far as 85/15. The finalizer
/// flips about half the output bits per input bit, restoring the
/// uniformity consistent hashing's balance argument needs.
fn ring_point(bytes: &[u8]) -> u64 {
    let mut z = fnv1a64(bytes);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A consistent-hash ring over worker addresses.
#[derive(Debug, Clone)]
pub struct HashRing {
    /// Virtual point → index into `nodes`.
    points: BTreeMap<u64, usize>,
    nodes: Vec<String>,
}

impl HashRing {
    /// Build a ring with `replicas` virtual points per node. Node
    /// order in `nodes` does not affect ownership (only the hashed
    /// addresses do), but duplicates are rejected: a node listed twice
    /// would silently double its shard weight.
    pub fn new(nodes: &[String], replicas: usize) -> Result<HashRing, String> {
        if nodes.is_empty() {
            return Err("a hash ring needs at least one node".to_string());
        }
        let mut ring = HashRing {
            points: BTreeMap::new(),
            nodes: nodes.to_vec(),
        };
        for (idx, node) in nodes.iter().enumerate() {
            if nodes[..idx].contains(node) {
                return Err(format!("duplicate fleet node {node:?}"));
            }
            for i in 0..replicas.max(1) {
                let point = ring_point(format!("{node}#{i}").as_bytes());
                // A 64-bit collision between virtual points is
                // vanishingly unlikely; first writer wins keeps the
                // ring deterministic regardless.
                ring.points.entry(point).or_insert(idx);
            }
        }
        Ok(ring)
    }

    /// The member list, in construction order.
    pub fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The node owning `digest`: the first virtual point clockwise
    /// from the digest's hash point.
    pub fn owner(&self, digest: &str) -> &str {
        let point = ring_point(digest.as_bytes());
        let idx = self
            .points
            .range(point..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, idx)| *idx)
            .unwrap_or(0);
        &self.nodes[idx]
    }

    /// Every node in clockwise ring order starting at `digest`'s
    /// owner: `route(d)[0] == owner(d)`, and the tail is the
    /// deterministic fallback order for re-routing when the owner is
    /// down.
    pub fn route(&self, digest: &str) -> Vec<&str> {
        let point = ring_point(digest.as_bytes());
        let mut out: Vec<&str> = Vec::with_capacity(self.nodes.len());
        let walk = self.points.range(point..).chain(self.points.range(..point));
        for (_, idx) in walk {
            let node = self.nodes[*idx].as_str();
            if !out.contains(&node) {
                out.push(node);
                if out.len() == self.nodes.len() {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(nodes: &[&str]) -> HashRing {
        let nodes: Vec<String> = nodes.iter().map(|s| s.to_string()).collect();
        HashRing::new(&nodes, DEFAULT_REPLICAS).unwrap()
    }

    fn digests() -> Vec<String> {
        (0..200)
            .map(|i| format!("{:016x}", fnv1a64(format!("job-{i}").as_bytes())))
            .collect()
    }

    #[test]
    fn ownership_is_deterministic_and_order_independent() {
        let a = ring(&["127.0.0.1:9201", "127.0.0.1:9202", "127.0.0.1:9203"]);
        let b = ring(&["127.0.0.1:9203", "127.0.0.1:9201", "127.0.0.1:9202"]);
        for d in digests() {
            assert_eq!(a.owner(&d), b.owner(&d));
            assert_eq!(a.route(&d), b.route(&d));
        }
    }

    #[test]
    fn route_starts_at_the_owner_and_covers_every_node_once() {
        let r = ring(&["n1", "n2", "n3", "n4"]);
        for d in digests() {
            let route = r.route(&d);
            assert_eq!(route[0], r.owner(&d));
            assert_eq!(route.len(), 4);
            let mut sorted = route.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "route {route:?} repeats a node");
        }
    }

    #[test]
    fn virtual_points_spread_load_across_both_nodes() {
        let r = ring(&["127.0.0.1:9201", "127.0.0.1:9202"]);
        let mut counts = std::collections::HashMap::new();
        for d in digests() {
            *counts.entry(r.owner(&d).to_string()).or_insert(0u32) += 1;
        }
        assert_eq!(counts.len(), 2, "one node owns everything: {counts:?}");
        for (node, n) in &counts {
            assert!(*n >= 40, "{node} owns only {n}/200 digests");
        }
    }

    #[test]
    fn removing_a_node_only_moves_its_own_keys() {
        let full = ring(&["n1", "n2", "n3"]);
        let without_n3 = ring(&["n1", "n2"]);
        for d in digests() {
            let before = full.owner(&d);
            let after = without_n3.owner(&d);
            if before != "n3" {
                assert_eq!(
                    before, after,
                    "digest {d} moved although its owner survived"
                );
            }
        }
    }

    #[test]
    fn fallback_order_is_the_ring_walk() {
        // The second route entry is where a re-route lands: it must be
        // the owner the 2-node ring picks once the first is gone.
        let full = ring(&["n1", "n2", "n3"]);
        for d in digests() {
            let route = full.route(&d);
            let survivors: Vec<String> = ["n1", "n2", "n3"]
                .iter()
                .filter(|n| **n != route[0])
                .map(|n| n.to_string())
                .collect();
            let reduced = HashRing::new(&survivors, DEFAULT_REPLICAS).unwrap();
            assert_eq!(reduced.owner(&d), route[1]);
        }
    }

    #[test]
    fn empty_and_duplicate_member_lists_are_rejected() {
        assert!(HashRing::new(&[], 8).is_err());
        assert!(HashRing::new(&["a".to_string(), "a".to_string()], 8).is_err());
    }
}
