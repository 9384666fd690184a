//! UTS: Unbalanced Tree Search (dynamic-unbalanced; Olivier et al.).
//!
//! Enumerates an implicit geometric random tree and counts its nodes.
//! Each node's work is a hash evaluation (UTS uses SHA-1; we charge an
//! equivalent compute budget), and children are explored with a
//! recursive `parallel_for`-style reduce. There is essentially no
//! memory traffic — UTS isolates pure scheduling/load-balancing
//! behaviour, which is why the paper sees its largest speedups here
//! (static schedules are catastrophically imbalanced).

use crate::gen::uts_tree::UtsParams;
use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Mosaic, RuntimeConfig, TaskCtx};
use mosaic_sim::MachineConfig;

/// Instruction charge per node descriptor evaluation (stands in for
/// UTS's SHA-1 of the node descriptor).
pub const HASH_COST: u64 = 120;

/// A UTS instance.
#[derive(Debug, Clone, Copy)]
pub struct Uts {
    /// Tree parameters.
    pub params: UtsParams,
    /// Instance label (`t1`/`t3`).
    pub label: &'static str,
}

fn count_subtree(ctx: &mut TaskCtx<'_>, p: UtsParams, node: u64, depth: u32) -> u64 {
    ctx.compute(HASH_COST, HASH_COST);
    let nc = p.num_children(node, depth);
    if nc == 0 {
        return 1;
    }
    1 + ctx.parallel_reduce(
        0,
        nc,
        1,
        2,
        0u64,
        move |ctx, i| {
            let child = p.child_id(node, i);
            count_subtree(ctx, p, child, depth + 1)
        },
        |a, b| a + b,
    )
}

impl Benchmark for Uts {
    fn name(&self) -> String {
        format!("UTS-{}", self.label)
    }

    fn category(&self) -> Category {
        Category::DynamicUnbalanced
    }

    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let sys = Mosaic::new(machine, runtime);
        let p = self.params;
        let result = std::rc::Rc::new(std::cell::Cell::new(0u64));
        let out = result.clone();
        let report = sys.run(move |ctx| {
            let count = count_subtree(ctx, p, p.root_id(), 0);
            out.set(count);
        });
        RunOutcome {
            verified: result.get() == self.params.count_nodes(),
            report,
        }
    }
}

/// Table-1 instances (paper: small-t1, small-t3), scaled by capping
/// tree depth so runs stay software-simulation-sized.
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let (r1, d1, r3, d3) = match scale {
        Scale::Tiny => (8, 8, 16, 24),
        Scale::Small => (32, 12, 64, 48),
        Scale::Full => (64, 14, 96, 64),
    };
    let t1 = UtsParams {
        root_children: r1,
        max_depth: d1,
        ..UtsParams::t1(0x07)
    };
    let t3 = UtsParams {
        root_children: r3,
        max_depth: d3,
        ..UtsParams::t3(0x07)
    };
    vec![
        Box::new(Uts {
            params: t1,
            label: "t1",
        }),
        Box::new(Uts {
            params: t3,
            label: "t3",
        }),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulated_count_matches_reference() {
        let p = UtsParams {
            root_children: 8,
            max_depth: 5,
            ..UtsParams::t1(1)
        };
        let u = Uts {
            params: p,
            label: "t1",
        };
        let out = u.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        assert!(out.report.totals().spawns > 0);
    }
}
