//! Order statistics over timing samples.

/// The percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 3] = [50.0, 90.0, 99.0];

/// Sort a sample in place (timings are never NaN).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
}

/// Percentile `p` (0..=100) of an ascending-sorted, non-empty sample,
/// linearly interpolated between the two nearest ranks.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted, non-empty sample.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    percentile(&v, 50.0)
}

/// The highest percentile of the ladder (p50, p90, p99) that still has
/// at least ten of `n` samples beyond it — the tail a sample of that
/// size can honestly support. Small samples support only the median.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(LADDER[0])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // Fewer than 20 samples: not even p50 has ten beyond it, so
        // the median is all there is.
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        // p90 needs 100 samples, p99 needs 1000.
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(150_000), 99.0);
    }
}
