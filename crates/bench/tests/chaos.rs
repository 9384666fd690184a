//! Fault-injection properties over the chaos workloads.
//!
//! The contract under test (see DESIGN.md §12):
//!
//! 1. **Zero cost when off**: `faults: None` and the empty
//!    `FaultPlan::default()` produce byte-identical runs.
//! 2. **Timing-only plans are result-transparent**: for *any* seeded
//!    timing plan, payloads match the fault-free run bit for bit and
//!    the simulation still terminates (a hang would trip the sim
//!    watchdog and fail the run).
//! 3. **Data faults are never silently absorbed**: a bit flip landing
//!    in an output word is reported as a divergence.
//! 4. **Plan parsing is total**: no spec string panics a parser, and
//!    every plan one accepts round-trips and materializes.

use mosaic_bench::chaos;
use mosaic_chaos::{DivergenceChecker, FaultBurst, FaultGeometry, FaultPlan, SpikeBurst};
use mosaic_serve::HostFaultPlan;
use mosaic_sim::MachineConfig;
use mosaic_workloads::Scale;
use proptest::prelude::*;

fn machine_with(plan: Option<FaultPlan>) -> MachineConfig {
    let mut m = MachineConfig::small(4, 2);
    m.faults = plan;
    m
}

#[test]
fn empty_plan_is_byte_identical_to_no_plan() {
    for wl in chaos::WORKLOADS {
        let off = chaos::run(wl, machine_with(None), Scale::Tiny);
        let empty = chaos::run(wl, machine_with(Some(FaultPlan::default())), Scale::Tiny);
        assert_eq!(off.digest.payload, empty.digest.payload, "{wl} payload");
        assert_eq!(off.digest.cycles, empty.digest.cycles, "{wl} cycles");
        assert_eq!(off.instructions, empty.instructions, "{wl} instructions");
    }
}

#[test]
fn output_word_flips_are_detected_as_divergence() {
    // fib stores its result at DRAM word 0; scan's outputs start at
    // word `len`. An at-end flip in either region must be caught.
    let (_, scan_len) = chaos::params(Scale::Tiny);
    let cases = [
        ("fib", "seed=1,horizon=1000,flip=dram:0:7@end"),
        (
            "scan",
            &format!("seed=1,horizon=1000,flip=dram:{}:3@end", scan_len + 5),
        ),
    ];
    for (wl, spec) in cases {
        let plan = FaultPlan::parse(spec).expect("valid plan");
        let report = DivergenceChecker::check(&plan, |p| {
            chaos::run(wl, machine_with(p.cloned()), Scale::Tiny).digest
        });
        assert!(report.diverged(), "{wl}: flip {spec} was silently absorbed");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any seeded timing-only plan leaves both workloads' payloads
    /// bit-identical to the fault-free run, still verified against the
    /// host reference, and terminating (`run` would return a crashed
    /// ChaosRun on a watchdog trip or deadlock).
    #[test]
    fn timing_only_plans_preserve_results(
        seed in 1u64..1_000_000,
        horizon in 500u64..4_000,
        links in 0u32..6, link_len in 50u64..400,
        banks in 0u32..4, bank_extra in 1u64..40,
        freeze in 0u32..4, freeze_len in 50u64..500,
    ) {
        let plan = FaultPlan {
            seed,
            horizon,
            links: FaultBurst { count: links, len: link_len },
            banks: SpikeBurst { count: banks, len: 200, extra: bank_extra },
            dram: SpikeBurst { count: 1, len: 300, extra: 15 },
            freeze: FaultBurst { count: freeze, len: freeze_len },
            flips: Vec::new(),
        };
        prop_assert!(plan.is_timing_only());
        for wl in chaos::WORKLOADS {
            let clean = chaos::run(wl, machine_with(None), Scale::Tiny);
            let faulted = chaos::run(wl, machine_with(Some(plan.clone())), Scale::Tiny);
            prop_assert!(faulted.error.is_none(),
                "{wl} did not terminate cleanly under {}: {:?}", plan.to_spec(), faulted.error);
            prop_assert!(faulted.digest.verified, "{wl} failed verification");
            prop_assert_eq!(faulted.digest.payload, clean.digest.payload,
                "{} payload changed under timing-only plan {}", wl, plan.to_spec());
        }
    }

    /// Plan materialization is deterministic: the same spec string
    /// yields the same cycle counts run over run.
    #[test]
    fn faulted_runs_are_reproducible(seed in 1u64..100_000) {
        let mut plan = FaultPlan::timing(seed);
        plan.horizon = 2_000;
        let a = chaos::run("scan", machine_with(Some(plan.clone())), Scale::Tiny);
        let b = chaos::run("scan", machine_with(Some(plan)), Scale::Tiny);
        prop_assert_eq!(a.digest.cycles, b.digest.cycles);
        prop_assert_eq!(a.digest.payload, b.digest.payload);
    }
}

/// An 8-core machine's fault geometry.
const GEOMETRY: FaultGeometry = FaultGeometry {
    cores: 8,
    links: 40,
    llc_banks: 8,
    dram_words: 1 << 20,
    spm_words: 1024,
};

/// Spec fragments for the totality property: every key and
/// separator, and numbers either side of each type's edge. Counts
/// that parse stay below 1000, so every plan materializes quickly.
#[rustfmt::skip]
const PIECES: &[&str] = &[
    "seed=", "horizon=", "links=", "banks=", "dram=", "freeze=", "flip=", "panics=",
    "slow=", "kill=", "dram:", "spm:", ",", "x", "+", ":", "@", "end", "=", "0", "1",
    "255", "256", "4294967296", "18446744073709551615", "18446744073709551616", "-1",
    " ", "é",
];

/// A count as spec text: small, or past `u32::MAX`.
fn count_text(r: u64) -> String {
    if r.is_multiple_of(2) {
        (r % 8).to_string()
    } else {
        (u64::from(u32::MAX) + 1 + (r >> 40)).to_string()
    }
}

/// Any other number as spec text, biased to the `u8`, `u32` and
/// `u64` edges.
fn num_text(r: u64) -> String {
    match r % 5 {
        0 => r >> 58,
        1 => 254 + (r >> 62),
        2 => u64::from(u32::MAX) - 1 + (r >> 62),
        3 => u64::MAX - (r >> 58),
        _ => r,
    }
    .to_string()
}

/// A well-formed-looking token for family `f` built from `a`..`c`.
fn token(f: usize, a: u64, b: u64, c: u64) -> String {
    let at = if c.is_multiple_of(3) {
        "end".to_string()
    } else {
        num_text(c)
    };
    match f {
        0 => format!("seed={}", num_text(a)),
        1 => format!("horizon={}", num_text(a)),
        2 => format!("links={}x{}", count_text(a), num_text(b)),
        3 => format!("freeze={}x{}", count_text(a), num_text(b)),
        4 => format!("banks={}x{}+{}", count_text(a), num_text(b), num_text(c)),
        5 => format!("dram={}x{}+{}", count_text(a), num_text(b), num_text(c)),
        6 => format!("flip=dram:{}:{}@{at}", num_text(a), num_text(b)),
        _ => format!(
            "flip=spm:{}:{}:{}@{at}",
            num_text(a),
            num_text(b),
            num_text(c)
        ),
    }
}

/// Parsing never panics, and every plan it accepts round-trips
/// through both serializations and materializes.
fn check_spec(spec: &str) {
    if let Ok(plan) = FaultPlan::parse(spec) {
        assert_eq!(
            FaultPlan::parse(&plan.to_spec()),
            Ok(plan.clone()),
            "{spec:?}"
        );
        assert_eq!(
            FaultPlan::from_json(&plan.to_json()),
            Ok(plan.clone()),
            "{spec:?}"
        );
        plan.materialize(&GEOMETRY);
    }
    if let Ok(host) = HostFaultPlan::parse(spec) {
        assert_eq!(HostFaultPlan::parse(&host.to_spec()), Ok(host), "{spec:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn arbitrary_specs_parse_totally(
        picks in prop::collection::vec((0..PIECES.len() + 2, any::<u64>()), 0..16)
    ) {
        let spec: String = picks
            .iter()
            .map(|&(i, r)| match PIECES.get(i) {
                Some(piece) => piece.to_string(),
                None if i == PIECES.len() => (r % 1000).to_string(),
                None => r.to_string(),
            })
            .collect();
        check_spec(&spec);
    }

    #[test]
    fn token_specs_parse_totally(
        tokens in prop::collection::vec((0usize..8, any::<u64>(), any::<u64>(), any::<u64>()), 0..6)
    ) {
        let spec: Vec<String> = tokens.iter().map(|&(f, a, b, c)| token(f, a, b, c)).collect();
        check_spec(&spec.join(","));
    }
}
