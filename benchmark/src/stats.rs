//! Exact order statistics over raw samples.
//!
//! Every timing this benchmark reports comes from a sorted `Vec` of the
//! samples themselves — never from the 48 power-of-two histogram buckets
//! of `resildb-telemetry`, whose ±2× resolution cannot see a 10 % change.

/// The `q`-quantile (`0.0..=1.0`) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
///
/// # Panics
///
/// On an empty slice: a percentile of nothing is a harness bug.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `q` is a percentile the sample supports: at least ten samples
/// lie strictly beyond its rank (choosing-metrics §1). A p99 needs 1 000
/// samples; below that the tail value is one or two outliers, not a
/// percentile.
pub fn percentile_supported(samples: usize, q: f64) -> bool {
    let rank = (q * samples as f64).ceil() as usize;
    samples >= rank + 10
}

/// The median of `values` (mean of the two middle values for an even
/// count); `NaN` for an empty slice so a missing sample can never pass
/// for a measurement.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default *exclusive* method)
/// computes them — the acceptance driver measures spread with that
/// function, so `compare` must agree with it to the last digit.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the acceptance driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_on_exact_samples() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&s, 0.50), 50);
        assert_eq!(percentile(&s, 0.99), 99);
        assert_eq!(percentile(&s, 1.0), 100);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        // Not a bucket boundary: the value reported is a sample.
        assert_eq!(percentile(&[3, 5_000, 5_001], 0.5), 5_000);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert!(percentile_supported(1_000, 0.99)); // rank 990, 10 beyond
        assert!(!percentile_supported(999, 0.99)); // rank 990, 9 beyond
        assert!(percentile_supported(20, 0.50)); // rank 10, 10 beyond
        assert!(!percentile_supported(19, 0.50));
        assert!(!percentile_supported(0, 0.5));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }
}
