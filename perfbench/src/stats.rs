//! Summary statistics over latency samples.
//!
//! Percentiles are nearest-rank and expressed in per-mille (500 = p50,
//! 900 = p90, 990 = p99) so rank arithmetic stays exact in integers. A
//! percentile is only *supported* by a sample when at least
//! [`MIN_BEYOND`] samples lie beyond it; the benchmark reports the highest
//! supported one and never extrapolates a tail from a handful of points.

/// Samples that must lie beyond a percentile before the sample supports it.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `per_mille` percentile in `n` samples:
/// the smallest rank `r` with `r / n >= per_mille / 1000`.
pub fn nearest_rank(n: usize, per_mille: u32) -> usize {
    assert!(n > 0, "a percentile of no samples is undefined");
    assert!(per_mille <= 1000, "per-mille out of range: {per_mille}");
    (n * per_mille as usize).div_ceil(1000).clamp(1, n)
}

/// Nearest-rank percentile of ascending-sorted samples.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    sorted[nearest_rank(sorted.len(), per_mille) - 1]
}

/// How many samples lie strictly after the percentile's rank.
pub fn samples_beyond(n: usize, per_mille: u32) -> usize {
    n - nearest_rank(n, per_mille)
}

/// Whether `n` samples support the percentile (≥ [`MIN_BEYOND`] beyond it).
pub fn supports(n: usize, per_mille: u32) -> bool {
    n > 0 && samples_beyond(n, per_mille) >= MIN_BEYOND
}

/// The highest of `candidates` (per-mille) that `n` samples support.
pub fn highest_supported(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates.iter().copied().filter(|&q| supports(n, q)).max()
}

/// Sorts a copy of the samples ascending.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Arithmetic mean (0 for no samples).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median (mean of the two middle samples for an even count; 0 for none).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(1, 500), 1);
        assert_eq!(nearest_rank(10, 500), 5);
        assert_eq!(nearest_rank(11, 500), 6);
        assert_eq!(nearest_rank(100, 900), 90);
        assert_eq!(nearest_rank(101, 900), 91);
        assert_eq!(nearest_rank(1000, 990), 990);
        assert_eq!(nearest_rank(7, 0), 1);
        assert_eq!(nearest_rank(7, 1000), 7);
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 500), 50.0);
        assert_eq!(percentile(&values, 900), 90.0);
        assert_eq!(percentile(&values, 990), 99.0);
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p90 of 100 samples has exactly 10 beyond it; of 99 only 9.
        assert_eq!(samples_beyond(100, 900), 10);
        assert!(supports(100, 900));
        assert_eq!(samples_beyond(99, 900), 9);
        assert!(!supports(99, 900));
        // p99 needs a thousand samples.
        assert!(!supports(999, 990));
        assert!(supports(1000, 990));
        assert!(!supports(0, 500));
        assert_eq!(highest_supported(150, &[500, 900, 990]), Some(900));
        assert_eq!(highest_supported(5000, &[500, 900, 990]), Some(990));
        assert_eq!(highest_supported(15, &[500, 900, 990]), None);
        assert_eq!(highest_supported(20, &[500, 900, 990]), Some(500));
    }

    #[test]
    fn mean_and_median() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
