//! Order statistics for the reported metrics.
//!
//! Every timing is summarised as a median plus the highest percentile that
//! still has at least ten samples beyond it, both by the nearest-rank rule,
//! so a reported tail is never an extrapolation from a handful of samples.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `pct`% of the sample at or below it.
///
/// # Panics
///
/// Panics on an empty sample.
pub fn percentile<T: Copy>(sorted: &[T], pct: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), pct).clamp(1, sorted.len()) - 1]
}

/// The 1-based nearest rank of percentile `pct` in a sample of `n`. The
/// small epsilon keeps `99.9% of 10 000` at rank 9 990 despite binary
/// floating point.
fn rank(n: usize, pct: f64) -> usize {
    (pct / 100.0 * n as f64 - 1e-9).ceil().max(0.0) as usize
}

/// The tail percentiles the benchmark may report, highest first.
pub const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// The highest of `candidates` whose nearest-rank value leaves at least
/// `min_beyond` samples strictly above its rank, or `None` when even the
/// lowest candidate does not.
pub fn highest_supported(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates.iter().copied().find(|&pct| {
        let r = rank(n, pct);
        r >= 1 && n.saturating_sub(r) >= min_beyond
    })
}

/// Median of an ascending-sorted sample (nearest rank).
pub fn median<T: Copy>(sorted: &[T]) -> T {
    percentile(sorted, 50.0)
}

/// Sorts `values` and returns their nearest-rank median.
pub fn median_of(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    median(&values)
}

/// Interquartile mean: the mean of the middle half of `values` (all of
/// them when fewer than four). Unlike the median it moves smoothly when a
/// run mixes windows from a fast and a slow phase of the machine, and
/// unlike the mean it ignores the stalled or lucky quarter at each end.
pub fn interquartile_mean(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    let cut = if values.len() < 4 {
        0
    } else {
        values.len() / 4
    };
    let middle = &values[cut..values.len() - cut];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// A sorted latency sample in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Sample {
    sorted: Vec<u64>,
}

impl Sample {
    /// Takes ownership of raw values and sorts them.
    pub fn new(mut values: Vec<u64>) -> Sample {
        values.sort_unstable();
        Sample { sorted: values }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Nearest-rank percentile; 0 for an empty sample.
    pub fn pct(&self, pct: f64) -> u64 {
        if self.sorted.is_empty() {
            0
        } else {
            percentile(&self.sorted, pct)
        }
    }
}

/// A duration in whole nanoseconds, saturating.
pub fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The residual a staged replay leaves unexplained: the end-to-end value
/// minus the sum of the stage values. Negative when the stages, measured
/// in isolation, cost more than the whole did.
pub fn residual(total: f64, stages: &[f64]) -> f64 {
    total - stages.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentile() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 90.0), 90);
        assert_eq!(percentile(&s, 99.0), 99);
        assert_eq!(percentile(&s, 100.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7u64], 99.0), 7);
        // Odd-sized sample: rank ceil(0.5 * 5) = 3.
        assert_eq!(percentile(&[1u64, 2, 3, 4, 5], 50.0), 3);
        // Even-sized: the lower middle, never an interpolation.
        assert_eq!(percentile(&[1u64, 2, 3, 4], 50.0), 2);
        assert_eq!(Sample::new(vec![]).pct(50.0), 0);
        assert_eq!(Sample::new(vec![3, 1, 2]).pct(50.0), 2);
    }

    #[test]
    fn highest_percentile_with_ten_beyond() {
        // p99 of 1000 sits at rank 990: exactly ten beyond.
        assert_eq!(highest_supported(1000, &TAIL_PERCENTILES, 10), Some(99.0));
        // 999 samples: p99 rank 990 leaves nine, so fall back to p95.
        assert_eq!(highest_supported(999, &TAIL_PERCENTILES, 10), Some(95.0));
        // p99.9 needs 10 000 samples.
        assert_eq!(highest_supported(10_000, &TAIL_PERCENTILES, 10), Some(99.9));
        assert_eq!(highest_supported(9_999, &TAIL_PERCENTILES, 10), Some(99.0));
        // 100 samples support p90 (rank 90, ten beyond) but not p95.
        assert_eq!(highest_supported(100, &TAIL_PERCENTILES, 10), Some(90.0));
        assert_eq!(highest_supported(20, &TAIL_PERCENTILES, 10), None);
        assert_eq!(highest_supported(0, &TAIL_PERCENTILES, 10), None);
    }

    #[test]
    fn staged_sum_residual() {
        assert_eq!(residual(100.0, &[30.0, 20.0, 10.0]), 40.0);
        assert_eq!(residual(50.0, &[]), 50.0);
        // Over-attribution shows as a negative residual, not a clamp.
        assert_eq!(residual(10.0, &[8.0, 4.0]), -2.0);
        // Stages plus residual always reconstruct the total.
        let stages = [1.5, 2.25, 3.0];
        assert_eq!(residual(9.0, &stages) + stages.iter().sum::<f64>(), 9.0);
    }

    #[test]
    fn interquartile_mean_drops_each_outer_quarter() {
        // 8 values: drop 2 at each end, average the middle 4.
        let v = vec![100.0, 1.0, 4.0, 3.0, 5.0, 6.0, 2.0, -50.0];
        assert_eq!(interquartile_mean(v), (2.0 + 3.0 + 4.0 + 5.0) / 4.0);
        assert_eq!(interquartile_mean(vec![1.0, 2.0, 6.0]), 3.0);
        // A run split between two phases lands between them.
        let mixed = vec![10.0, 10.0, 10.0, 10.0, 20.0, 20.0, 20.0, 20.0];
        assert_eq!(interquartile_mean(mixed), 15.0);
    }

    #[test]
    fn median_of_unsorted_floats() {
        assert_eq!(median_of(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_of(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
