//! Order statistics for latency samples and for the spread of a metric
//! across repeated runs.

/// The nearest-rank `p`-th percentile (`0 < p <= 1`) of `sorted`.
/// `None` for an empty input, and for a percentile above the median
/// with fewer than ten samples beyond its rank: one resting on fewer is
/// an outlier, not a distribution.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "input sorted");
    debug_assert!(p > 0.0 && p <= 1.0);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((n as f64 * p).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < 10 {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Sorts `samples` and returns `(p50, p95)`. `p95` is `None` below 200
/// samples, where fewer than ten lie beyond it; every workload is sized
/// to give at least 240.
pub fn p50_p95(samples: &mut [f64]) -> (Option<f64>, Option<f64>) {
    samples.sort_by(f64::total_cmp);
    (percentile(samples, 0.5), percentile(samples, 0.95))
}

/// Median by the usual convention (mean of the middle two for an even
/// count). Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the default "exclusive" method), so that
/// `--repeat` prints the same spread the acceptance rule computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two values");
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, linearly interpolated.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Distance between the quartiles as a share of the median.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_is_refused_below_200_samples() {
        let mut few: Vec<f64> = (0..199).map(f64::from).collect();
        let (p50, p95) = p50_p95(&mut few);
        assert_eq!(p50, Some(99.0));
        assert_eq!(p95, None, "rank 190 of 199 leaves only 9 samples beyond it");
        let mut enough: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(p50_p95(&mut enough), (Some(99.0), Some(189.0)));
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(120.0));
        assert_eq!(percentile(&v, 0.95), Some(228.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.5), Some(7.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((median(&v) - 5.5).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }
}
