//! Order statistics on small samples: trial medians, latency percentiles
//! and the spread rule `agree` uses.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN — both are bugs in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// (max − min) ÷ median: the trial-to-trial spread of one metric.
pub fn spread(values: &[f64]) -> f64 {
    let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (hi - lo) / m.abs()
    }
}

/// Samples needed before percentile `q` is reported: at least ten samples
/// must lie beyond it (choosing-metrics §1), so p99 needs 1 000.
pub fn samples_needed(q: f64) -> usize {
    (10.0 / (1.0 - q)).ceil() as usize
}

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `q` of the sample at or below it. Exact (no
/// bucketing), so a deterministic simulation reports the same nanosecond
/// on every run.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn spread_is_range_over_median() {
        assert!((spread(&[9.0, 10.0, 11.0]) - 0.2).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 500);
        assert_eq!(percentile_sorted(&v, 0.99), 990);
        assert_eq!(percentile_sorted(&v, 1.0), 1000);
        assert_eq!(percentile_sorted(&[42], 0.99), 42);
    }

    #[test]
    fn p99_needs_a_thousand_samples_so_ten_lie_beyond_it() {
        assert_eq!(samples_needed(0.99), 1000);
        assert_eq!(samples_needed(0.50), 20);
        let v: Vec<u64> = (1..=1000).collect();
        let p99 = percentile_sorted(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 10);
    }
}
