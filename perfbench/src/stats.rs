//! Percentiles over wall-time samples.
//!
//! A timing is reported as its median plus the highest percentile that
//! still has at least [`MIN_BEYOND`] samples beyond it: a p90 read from 30
//! samples rests on three values and moves with every scheduler hiccup.

use dice_bench::min_median_max;

/// Samples that must lie beyond a tail percentile for it to be reported.
const MIN_BEYOND: usize = 10;

/// Candidate tail percentiles in per-mille, highest first.
const LADDER: [u32; 4] = [999, 990, 900, 500];

/// 1-based nearest rank of percentile `per_mille` among `n` samples:
/// the smallest rank with at least that share of samples at or below it.
fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).clamp(1, n.max(1))
}

/// Samples strictly beyond the nearest-rank percentile `per_mille`.
fn beyond(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// The highest percentile of [`LADDER`] (in per-mille) that leaves at
/// least [`MIN_BEYOND`] samples beyond it, or `None` when even the median
/// does not.
pub fn tail_per_mille(n: usize) -> Option<u32> {
    LADDER.into_iter().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile `per_mille` of `samples`. Panics on an empty
/// slice.
pub fn percentile(samples: &[f64], per_mille: u32) -> f64 {
    assert!(!samples.is_empty(), "no samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s[rank(s.len(), per_mille) - 1]
}

/// The median of `samples` (mean of the middle two for an even count).
pub fn median(samples: &[f64]) -> f64 {
    min_median_max(samples).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_per_mille(19), None, "19 samples: 9 beyond the median");
        assert_eq!(tail_per_mille(20), Some(500));
        assert_eq!(tail_per_mille(99), Some(500), "p90 of 99 leaves only 9");
        assert_eq!(tail_per_mille(100), Some(900));
        assert_eq!(tail_per_mille(999), Some(900), "p99 of 999 leaves only 9");
        assert_eq!(tail_per_mille(1000), Some(990));
        assert_eq!(tail_per_mille(10_000), Some(999));
    }

    #[test]
    fn beyond_counts_samples_above_the_rank() {
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(beyond(101, 900), 10, "rank 91 of 101");
        assert_eq!(beyond(110, 900), 11);
        assert_eq!(beyond(1, 500), 0);
        assert_eq!(beyond(0, 500), 0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 900), 90.0);
        assert_eq!(percentile(&samples, 500), 50.0);
        assert_eq!(percentile(&samples, 999), 100.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 500), 2.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }
}
