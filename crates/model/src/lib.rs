#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(clippy::float_arithmetic)]
//! # mosaic-model
//!
//! A deterministic **analytic performance model** of the Mosaic
//! manycore, behind the harness flag `--fidelity analytic` of the
//! Table-1 sweeps. Where the cycle-accurate engine simulates
//! every flit, bank conflict, and steal probe, this crate answers the
//! same "how many cycles would this run take?" question from closed
//! formulas in microseconds:
//!
//! * **per-component service rates** taken from the machine shape
//!   ([`MachineParams`]: mesh hop latency, LLC bank count/latency,
//!   DRAM channel occupancy),
//! * **M/D/1-style contention terms** fed by a workload's *measured*
//!   traffic demands ([`WorkloadDemand`], collected once per workload
//!   family by a profiled cycle-accurate run), and
//! * a **work/span-with-steal-overhead term** for the dynamic-task
//!   runtime, with steal cost taken from the profiler's
//!   `steal_search`/`queue_lock` buckets.
//!
//! The model is *calibrated*, not trusted: the `calibrate` harness in
//! `mosaic-bench` runs both fidelities over a sweep grid, fits one
//! correction factor per workload family ([`CalibrationTable`]), and
//! records the residual relative error. A sweep cell gets its analytic
//! answer from one call, [`CalibrationTable::answer`], which refuses
//! families the table does not cover or whose residual is past the
//! table's bound.
//!
//! ## Determinism
//!
//! Everything here is integer arithmetic (u64/u128 with parts-per-
//! million fixed point, [`PPM`]): same inputs, same estimate, on every
//! host. The contention fixed point is solved by integer bisection —
//! no floats, no iteration-count sensitivity, no platform-dependent
//! rounding. This keeps the crate inside the repo's determinism rules
//! for golden-affecting code with no `clippy::float_arithmetic`
//! expectation at all, and makes the emitted `calibration.json`
//! byte-reproducible.

pub mod calibrate;
pub mod demand;
pub mod estimate;
pub mod fidelity;
pub mod params;

pub use calibrate::{CalFamily, CalPoint, CalibrationTable, ExperimentBound};
pub use demand::WorkloadDemand;
pub use estimate::{AnalyticModel, Estimate};
pub use fidelity::Fidelity;
pub use params::MachineParams;

/// Fixed-point scale used throughout: one part per million.
pub const PPM: u64 = 1_000_000;

/// Multiply `value` by a [`PPM`]-scaled factor without overflow.
pub fn scale_ppm(value: u64, factor_ppm: u64) -> u64 {
    ((value as u128 * factor_ppm as u128) / PPM as u128).min(u64::MAX as u128) as u64
}

/// `ratio^(half_exp / 2)` for a [`PPM`]-scaled ratio, in [`PPM`] —
/// integer power with half-step exponents, used for the fitted
/// distance weighting of critical-path spans (`half_exp` 2 is linear,
/// 4 quadratic, 3 the geometric midpoint). `half_exp` 0 yields 1.0x.
pub fn pow_half_ppm(ratio_ppm: u64, half_exp: u64) -> u64 {
    // Newton's method floor square root on the u128 widening, so the
    // result stays in PPM: sqrt(r/PPM) * PPM = sqrt(r * PPM).
    let n = ratio_ppm as u128 * PPM as u128;
    let sqrt = if n < 2 {
        n
    } else {
        let mut x = 1u128 << ((128 - n.leading_zeros()).div_ceil(2));
        loop {
            let y = (x + n / x) / 2;
            if y >= x {
                break x;
            }
            x = y;
        }
    };
    let mut out = PPM as u128;
    for _ in 0..half_exp {
        out = out * sqrt / PPM as u128;
        if out > u64::MAX as u128 {
            return u64::MAX;
        }
    }
    out as u64
}

/// The relative difference `|a - b| / b` in parts per million
/// (saturating; 0 when `b` is 0 and `a` is 0, `u64::MAX` when only
/// `b` is 0).
pub fn rel_err_ppm(a: u64, b: u64) -> u64 {
    if b == 0 {
        return if a == 0 { 0 } else { u64::MAX };
    }
    let diff = a.abs_diff(b);
    ((diff as u128 * PPM as u128) / b as u128).min(u64::MAX as u128) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_ppm_is_exact_for_small_values() {
        assert_eq!(scale_ppm(100, PPM), 100);
        assert_eq!(scale_ppm(100, PPM / 2), 50);
        assert_eq!(scale_ppm(1_000_000, 1_250_000), 1_250_000);
        assert_eq!(scale_ppm(0, 3 * PPM), 0);
    }

    #[test]
    fn scale_ppm_survives_large_values() {
        // u64::MAX * 1.0 would overflow u64 multiplication; the u128
        // intermediate keeps it exact.
        assert_eq!(scale_ppm(u64::MAX, PPM), u64::MAX);
    }

    #[test]
    fn pow_half_ppm_matches_exact_powers() {
        // 4.0 ^ {0, 0.5, 1, 1.5, 2} = 1, 2, 4, 8, 16.
        assert_eq!(pow_half_ppm(4 * PPM, 0), PPM);
        assert_eq!(pow_half_ppm(4 * PPM, 1), 2 * PPM);
        assert_eq!(pow_half_ppm(4 * PPM, 2), 4 * PPM);
        assert_eq!(pow_half_ppm(4 * PPM, 3), 8 * PPM);
        assert_eq!(pow_half_ppm(4 * PPM, 4), 16 * PPM);
        // Non-square ratios stay within integer-rounding slack.
        let half = pow_half_ppm(2 * PPM, 1); // sqrt(2) = 1.414213...
        assert!(half.abs_diff(1_414_213) <= 1, "{half}");
        assert_eq!(pow_half_ppm(PPM, 7), PPM);
        assert_eq!(pow_half_ppm(0, 2), 0);
    }

    #[test]
    fn rel_err_ppm_is_symmetric_in_magnitude() {
        assert_eq!(rel_err_ppm(110, 100), 100_000); // +10%
        assert_eq!(rel_err_ppm(90, 100), 100_000); // -10%
        assert_eq!(rel_err_ppm(100, 100), 0);
        assert_eq!(rel_err_ppm(0, 0), 0);
        assert_eq!(rel_err_ppm(1, 0), u64::MAX);
    }
}
