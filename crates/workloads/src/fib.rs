//! Fib: the work-stealing micro-benchmark (paper §4.4, Fig. 7).
//!
//! `fib(n)` by naive parallel recursion generates a huge number of
//! tasks that each do almost no compute, maximizing the rate of stack
//! and task-queue operations — the paper uses it to isolate the
//! benefit of SPM-allocating each, and to estimate the overhead of the
//! software stack-overflow scheme ("Fib-S": set
//! `MachineConfig::sw_overflow_penalty = 2`).

use crate::{Benchmark, Category, RunOutcome, Scale};
use mosaic_runtime::{Mosaic, RuntimeConfig, TaskCtx};
use mosaic_sim::MachineConfig;

/// A Fib instance.
#[derive(Debug, Clone, Copy)]
pub struct Fib {
    /// Argument.
    pub n: u32,
}

fn fib(ctx: &mut TaskCtx<'_>, n: u32) -> u32 {
    if n < 2 {
        ctx.compute(2, 2);
        return n;
    }
    // A couple of words of live state per activation.
    let frame = ctx.stack_alloc(2);
    ctx.store(frame, n);
    let (x, y) = ctx.parallel_invoke(move |ctx| fib(ctx, n - 1), move |ctx| fib(ctx, n - 2));
    let _ = ctx.load(frame);
    ctx.stack_free();
    ctx.compute(2, 2);
    x + y
}

/// Host reference.
pub fn reference(n: u32) -> u32 {
    let (mut a, mut b) = (0u32, 1u32);
    for _ in 0..n {
        let c = a + b;
        a = b;
        b = c;
    }
    a
}

impl Benchmark for Fib {
    fn name(&self) -> String {
        format!("Fib-{}", self.n)
    }

    fn category(&self) -> Category {
        Category::DynamicUnbalanced
    }

    fn has_static_baseline(&self) -> bool {
        false
    }

    fn run(&self, machine: MachineConfig, runtime: RuntimeConfig) -> RunOutcome {
        let sys = Mosaic::new(machine, runtime);
        let n = self.n;
        let result = std::rc::Rc::new(std::cell::Cell::new(u32::MAX));
        let out = result.clone();
        let report = sys.run(move |ctx| {
            let f = fib(ctx, n);
            out.set(f);
        });
        RunOutcome {
            verified: result.get() == reference(n),
            report,
        }
    }
}

/// Micro-benchmark instances.
pub fn instances(scale: Scale) -> Vec<Box<dyn Benchmark>> {
    let n = match scale {
        Scale::Tiny => 10,
        Scale::Small => 14,
        Scale::Full => 17,
    };
    vec![Box::new(Fib { n })]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_fib() {
        assert_eq!(reference(0), 0);
        assert_eq!(reference(10), 55);
        assert_eq!(reference(20), 6765);
    }

    #[test]
    fn simulated_fib_verifies() {
        let out = Fib { n: 9 }.run(MachineConfig::small(4, 2), RuntimeConfig::work_stealing());
        out.assert_verified();
        assert!(out.report.totals().spawns > 10);
    }
}
