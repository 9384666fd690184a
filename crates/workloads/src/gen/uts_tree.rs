//! The Unbalanced Tree Search input model (Olivier et al., LCPC '06).
//!
//! UTS enumerates an implicitly defined random tree: each node's child
//! count is drawn from a distribution seeded by the node's id, so the
//! tree is reproducible without being materialized. Following the UTS
//! geometric variant, the **root** has a fixed number of children
//! (`root_children`) and every interior node's child count is
//! geometric with mean `m < 1` (subcritical), truncated at
//! `max_children` and cut off at `max_depth`. Subtree sizes then have
//! a heavy-tailed distribution — a few root children own most of the
//! tree — which is exactly the imbalance the benchmark exists to
//! create.

use super::mix64;

/// Parameters of a geometric UTS tree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtsParams {
    /// Children of the root (initial parallelism).
    pub root_children: u32,
    /// Mean children of interior nodes (subcritical: `< 1`).
    pub m: f64,
    /// Maximum tree depth.
    pub max_depth: u32,
    /// Hard cap on children per interior node.
    pub max_children: u32,
    /// Root seed.
    pub seed: u64,
}

impl UtsParams {
    /// A `small-t1`-like instance: moderate size and depth.
    pub fn t1(seed: u64) -> Self {
        UtsParams {
            root_children: 32,
            m: 0.97,
            max_depth: 20,
            max_children: 8,
            seed,
        }
    }

    /// A `small-t3`-like instance: deeper and markedly more
    /// imbalanced (heavier subtree tail).
    pub fn t3(seed: u64) -> Self {
        UtsParams {
            root_children: 64,
            m: 0.99,
            max_depth: 48,
            max_children: 8,
            seed,
        }
    }

    /// Child id of `node`'s `i`-th child (deterministic hash chain,
    /// like UTS's SHA-1 descriptor chain).
    pub fn child_id(&self, node: u64, i: u32) -> u64 {
        mix64(node ^ mix64(self.seed ^ (i as u64 + 1)))
    }

    /// Number of children of `node` at `depth`.
    #[expect(
        clippy::float_arithmetic,
        reason = "order: per-node arithmetic on the fixed `m` and hashed trials, no accumulation"
    )]
    pub fn num_children(&self, node: u64, depth: u32) -> u32 {
        if depth == 0 {
            return self.root_children;
        }
        if depth >= self.max_depth {
            return 0;
        }
        // Geometric with mean m: success probability m / (1 + m).
        let p = self.m / (1.0 + self.m);
        let mut h = mix64(node ^ self.seed);
        let mut k = 0;
        while k < self.max_children {
            let trial = (h & 0xffff) as f64 / 65536.0;
            h = mix64(h);
            if trial < p {
                k += 1;
            } else {
                break;
            }
        }
        k
    }

    /// Host-side reference: total node count of the tree (iterative to
    /// avoid host stack limits on deep trees).
    pub fn count_nodes(&self) -> u64 {
        let mut stack = vec![(self.root_id(), 0u32)];
        let mut count = 0u64;
        while let Some((node, depth)) = stack.pop() {
            count += 1;
            let nc = self.num_children(node, depth);
            for i in 0..nc {
                stack.push((self.child_id(node, i), depth + 1));
            }
        }
        count
    }

    /// Sizes of the root's immediate subtrees (imbalance profile).
    pub fn subtree_sizes(&self) -> Vec<u64> {
        let root = self.root_id();
        (0..self.num_children(root, 0))
            .map(|i| {
                let mut stack = vec![(self.child_id(root, i), 1u32)];
                let mut c = 0u64;
                while let Some((n, d)) = stack.pop() {
                    c += 1;
                    for j in 0..self.num_children(n, d) {
                        stack.push((self.child_id(n, j), d + 1));
                    }
                }
                c
            })
            .collect()
    }

    /// The root node's id.
    pub fn root_id(&self) -> u64 {
        mix64(self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_is_deterministic() {
        let p = UtsParams::t1(3);
        assert_eq!(p.count_nodes(), p.count_nodes());
        assert_ne!(
            UtsParams::t1(3).count_nodes(),
            UtsParams::t1(4).count_nodes()
        );
    }

    #[test]
    fn t1_tree_is_nontrivial() {
        let n = UtsParams::t1(1).count_nodes();
        assert!(n > 100, "t1 tree too small: {n}");
        assert!(n < 1_000_000, "t1 tree too large: {n}");
    }

    #[test]
    fn t3_is_larger_and_deeper_than_t1() {
        let t1 = UtsParams::t1(1);
        let t3 = UtsParams::t3(1);
        assert!(t3.count_nodes() > t1.count_nodes());
    }

    #[test]
    fn depth_limit_holds() {
        let p = UtsParams {
            max_depth: 2,
            ..UtsParams::t1(1)
        };
        assert_eq!(p.num_children(12345, 2), 0);
        assert_eq!(p.num_children(12345, 99), 0);
    }

    #[test]
    fn root_branching_is_fixed() {
        let p = UtsParams::t1(9);
        assert_eq!(p.num_children(p.root_id(), 0), p.root_children);
    }

    #[test]
    fn children_capped() {
        let p = UtsParams {
            m: 100.0,
            max_children: 5,
            ..UtsParams::t1(1)
        };
        for node in 0..50u64 {
            assert!(p.num_children(mix64(node), 1) <= 5);
        }
    }

    #[test]
    fn tree_is_unbalanced() {
        let sizes = UtsParams::t3(2).subtree_sizes();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(
            max >= 10 * min.max(1),
            "subtrees suspiciously balanced: min {min} max {max}"
        );
    }
}
