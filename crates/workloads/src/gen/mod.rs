//! Input generators standing in for the paper's datasets.

pub mod device;
pub mod graph;
pub mod uts_tree;

pub use device::{upload_csr, upload_f32, DevCsr};
pub use graph::Csr;
pub use uts_tree::UtsParams;

/// Deterministic 64-bit mixer (SplitMix64 finalizer); the basis of all
/// data-dependent pseudo-randomness in generated inputs so results are
/// reproducible across platforms.
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A deterministic f32 in `[0, 1)` derived from a seed and index.
#[expect(
    clippy::float_arithmetic,
    reason = "order: one division of two exactly representable integers, no accumulation"
)]
pub fn hash_f32(seed: u64, i: u64) -> f32 {
    (mix64(seed ^ mix64(i)) >> 40) as f32 / (1u64 << 24) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix64_is_deterministic_and_spread() {
        assert_eq!(mix64(1), mix64(1));
        assert_ne!(mix64(1), mix64(2));
        // Low bits should differ for consecutive inputs.
        assert_ne!(mix64(100) & 0xff, mix64(101) & 0xff);
    }

    #[test]
    fn hash_f32_in_unit_interval() {
        for i in 0..1000 {
            let v = hash_f32(42, i);
            assert!((0.0..1.0).contains(&v));
        }
    }
}
