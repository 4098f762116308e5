//! Property tests on the measurement plumbing: quantile error bounds and
//! accumulator correctness, checked against exact computations.

use ebs_stats::{Ecdf, Histogram};
use proptest::prelude::*;

proptest! {
    /// Histogram quantiles stay within the documented ~2% relative error
    /// of the exact quantile, for arbitrary data.
    #[test]
    fn histogram_quantile_error_bound(
        mut values in proptest::collection::vec(1u64..1_000_000_000, 10..500),
        q in 0.01f64..0.99,
    ) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        values.sort();
        let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
        let exact = values[rank - 1] as f64;
        let got = h.quantile(q) as f64;
        // Bucketing error ~1.6% plus one-rank slack at small n.
        let lo = values[(rank - 1).saturating_sub(1)] as f64 * 0.97;
        let hi = values[(rank).min(values.len() - 1)] as f64 * 1.03;
        prop_assert!(got >= lo && got <= hi, "q={q} got={got} exact={exact} [{lo},{hi}]");
    }

    /// Histogram min/max/mean/count are exact.
    #[test]
    fn histogram_moments_exact(values in proptest::collection::vec(0u64..1_000_000, 1..300)) {
        let mut h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        prop_assert_eq!(h.count(), values.len() as u64);
        prop_assert_eq!(h.min(), *values.iter().min().unwrap());
        prop_assert_eq!(h.max(), *values.iter().max().unwrap());
        let mean = values.iter().sum::<u64>() as f64 / values.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6);
    }

    /// Merging histograms equals recording the union.
    #[test]
    fn histogram_merge_is_union(
        a in proptest::collection::vec(0u64..1_000_000, 1..100),
        b in proptest::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hu = Histogram::new();
        for &v in &a { ha.record(v); hu.record(v); }
        for &v in &b { hb.record(v); hu.record(v); }
        ha.merge(&hb);
        prop_assert_eq!(ha.count(), hu.count());
        for q in [0.1, 0.5, 0.9] {
            prop_assert_eq!(ha.quantile(q), hu.quantile(q));
        }
    }

    /// ECDF is a valid CDF: monotone, 0-to-1, and exact at sample points.
    #[test]
    fn ecdf_is_a_cdf(values in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let mut e = Ecdf::new();
        for &v in &values {
            e.add(v);
        }
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.fraction_le(max), 1.0);
        prop_assert_eq!(e.fraction_le(-1.0), 0.0);
        let mut prev = 0.0;
        for x in [1.0, 10.0, 100.0, 1e3, 1e5, 1e6] {
            let f = e.fraction_le(x);
            prop_assert!(f >= prev);
            prev = f;
        }
    }
}
