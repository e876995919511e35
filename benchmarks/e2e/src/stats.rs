//! Percentiles with a sample-support rule, and medians over time
//! windows.

/// A percentile is reported only with at least this many samples
/// beyond it; with fewer, the "p99" of a run is just its maximum.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of quantile `q` in `[0, 1]` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `q` of ascending `sorted`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let r = rank(sorted.len(), q);
    (sorted.len() >= r + MIN_BEYOND).then(|| sorted[r - 1])
}

/// Nearest-rank quantile `q` of unsorted values without the support
/// rule (diagnostics that print their sample count); 0 when empty.
pub fn quantile(values: Vec<f64>, q: f64) -> f64 {
    let v = sorted(values);
    v.get(rank(v.len(), q) - 1).copied().unwrap_or(0.0)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Sort ascending (f64 has no `Ord`).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Equal spans of time a run's latencies are summarised over.
pub const WINDOWS: usize = 5;

/// Split `(at, value)` samples into [`WINDOWS`] equal spans of `at`,
/// first sample to last, apply `f` to each non-empty span's ascending
/// values, and return the median over spans. A few seconds of host
/// contention move one or two spans, not the result.
pub fn windowed_median(samples: &[(f64, f64)], f: impl Fn(&[f64]) -> f64) -> f64 {
    let lo = samples.iter().map(|s| s.0).fold(f64::INFINITY, f64::min);
    let hi = samples
        .iter()
        .map(|s| s.0)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut spans = vec![Vec::new(); WINDOWS];
    for &(at, v) in samples {
        let k = ((at - lo) / (hi - lo) * WINDOWS as f64) as usize;
        spans[k.min(WINDOWS - 1)].push(v);
    }
    let per_span: Vec<f64> = spans
        .into_iter()
        .filter(|s| !s.is_empty())
        .map(|s| f(&sorted(s)))
        .collect();
    median(&per_span)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_need_ten_samples_beyond_them() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(500.0));
        assert_eq!(percentile(&v, 0.99), Some(990.0), "10 samples beyond");
        assert_eq!(percentile(&v, 0.995), None, "5 samples beyond");
        assert_eq!(percentile(&v[..999], 0.99), None, "9 samples beyond");
        assert_eq!(percentile(&v[..100], 0.90), Some(90.0));
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(quantile(vec![3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(quantile(Vec::new(), 0.5), 0.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn windowed_median_ignores_a_slow_span() {
        // 100 samples of 1.0 over 10 s, except that the last second reads 50.
        let mut samples: Vec<(f64, f64)> = (0..100)
            .map(|i| (f64::from(i) / 10.0, if i >= 90 { 50.0 } else { 1.0 }))
            .collect();
        let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
        assert_eq!(windowed_median(&samples, mean), 1.0);
        // A window may be empty; the median is over those that are not.
        samples.retain(|s| !(2.0..3.0).contains(&s.0));
        assert_eq!(windowed_median(&samples, |s| s[s.len() - 1]), 1.0);
        assert_eq!(windowed_median(&[(0.0, 4.0)], mean), 4.0);
        assert!(windowed_median(&[], mean).is_nan());
    }
}
