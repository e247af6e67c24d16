//! The metrics overhead gate's decision, apart from the runs it judges.
//!
//! Host drift between a block of metrics-off runs and a block of
//! metrics-on runs swamps a 5 % effect, so the gate compares runs in
//! pairs, one of each run back to back on the same input, and judges the
//! median of the per-pair ratios: one disturbed pair moves the median
//! little, a cost every pair pays moves it fully.

use std::time::Duration;

/// What [`overhead_verdict`] found.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Overhead {
    /// The median over the pairs of `on / off − 1`, in percent.
    pub median_pct: f64,
    /// The spread of the per-pair figures between their quartiles, in
    /// percentage points: how far pairs disagree with no cost to find.
    pub noise_pct: f64,
    /// The median over the pairs of `on − off`.
    pub median_delta: Duration,
    /// Whether the overhead is within the limit, or within the absolute
    /// floor below which a difference is timer noise.
    pub pass: bool,
}

/// Judges `(off, on)` wall times of paired runs: the overhead fails when
/// its median exceeds `limit_pct` percent and the median extra time
/// exceeds `floor`.
///
/// # Panics
/// Panics on no pairs.
pub fn overhead_verdict(
    pairs: &[(Duration, Duration)],
    limit_pct: f64,
    floor: Duration,
) -> Overhead {
    assert!(!pairs.is_empty(), "the overhead gate needs runs");
    let mut pct: Vec<f64> = pairs
        .iter()
        .map(|(off, on)| (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0)
        .collect();
    pct.sort_by(f64::total_cmp);
    let mut deltas: Vec<Duration> = pairs
        .iter()
        .map(|(off, on)| on.saturating_sub(*off))
        .collect();
    deltas.sort();
    let at = |q: usize| pct[(pct.len() - 1) * q / 4];
    let median_pct = at(2);
    let median_delta = deltas[(deltas.len() - 1) / 2];
    Overhead {
        median_pct,
        noise_pct: at(3) - at(1),
        median_delta,
        pass: median_pct <= limit_pct || median_delta <= floor,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLOOR: Duration = Duration::from_millis(20);

    /// Pairs of a one-second run, its metrics-on twin `on_ms` long.
    fn pairs(on_ms: &[u64]) -> Vec<(Duration, Duration)> {
        on_ms
            .iter()
            .map(|&on| (Duration::from_secs(1), Duration::from_millis(on)))
            .collect()
    }

    #[test]
    fn a_ten_percent_overhead_fails() {
        let verdict = overhead_verdict(&pairs(&[1_070, 1_130, 1_100, 1_080, 1_120]), 5.0, FLOOR);
        assert!(!verdict.pass, "{verdict:?}");
        assert!((verdict.median_pct - 10.0).abs() < 1e-9);
    }

    /// Host noise as the block gate saw it: one pair 41 % apart, others
    /// either way, no cost in common.
    #[test]
    fn noise_alone_passes() {
        let verdict = overhead_verdict(&pairs(&[1_409, 850, 1_020, 980, 1_169]), 5.0, FLOOR);
        assert!(verdict.pass, "{verdict:?}");
        assert!(verdict.noise_pct > 10.0, "{verdict:?}");
    }

    #[test]
    fn a_difference_under_the_floor_passes() {
        let short = [(Duration::from_millis(100), Duration::from_millis(115)); 5];
        assert!(overhead_verdict(&short, 5.0, FLOOR).pass);
    }
}
