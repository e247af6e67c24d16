//! Order statistics for the benchmark's timing samples.

/// Samples that must lie beyond a percentile before it is reported
/// (choosing-metrics §1: "the highest percentile that has at least ten
/// samples beyond it").
pub const MIN_BEYOND: usize = 10;

/// The `p`-th percentile (0 < p ≤ 100) of `sorted` by the nearest-rank
/// rule: the smallest sample with at least `p` % of the samples at or
/// below it. `None` on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// How many samples lie strictly beyond the nearest-rank `p`-th
/// percentile of `n` samples.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(n.min(1), n)
}

/// Whether `n` samples support reporting the `p`-th percentile.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= MIN_BEYOND
}

/// The smallest value. `None` on an empty slice.
pub fn min(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// The largest value. `None` on an empty slice.
pub fn max(values: &[f64]) -> Option<f64> {
    values.iter().copied().max_by(f64::total_cmp)
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them — the rule the driver
/// applies to ten runs. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |i: usize| {
        // Python: j = i*(n+1)//4 clamped to 1..n-1; delta = i*(n+1) - j*4.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 95.0), Some(95.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 50.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Three samples: p50 is the second, p99 the last.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 99.0), Some(3.0));
    }

    #[test]
    fn ten_samples_beyond_rule() {
        // p99 needs 1000 samples, p95 needs 200, p90 needs 100.
        assert!(!supports(999, 99.0));
        assert!(supports(1000, 99.0));
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert!(!supports(199, 95.0));
        assert!(supports(200, 95.0));
        assert!(supports(100, 90.0));
        assert!(!supports(99, 90.0));
        assert_eq!(samples_beyond(0, 95.0), 0);
        assert_eq!(samples_beyond(24, 95.0), 1);
    }

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(min(&[3.0, 1.0, 2.0]), Some(1.0));
        assert_eq!(max(&[3.0, 1.0, 2.0]), Some(3.0));
        assert_eq!(min(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v).unwrap();
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]).unwrap();
        assert!((q1 - 1.0).abs() < 1e-12 && (q3 - 4.0).abs() < 1e-12);
        assert!((spread(&v).unwrap() - 1.0).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }
}
