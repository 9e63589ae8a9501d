//! Sample statistics and the regression rule the benchmark reports by.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better (throughput).
    Higher,
    /// Smaller values are better (time, memory).
    Lower,
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles, computed exactly like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method), so
/// spreads printed here match ones computed in Python from the same
/// values. A single sample is its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(!xs.is_empty(), "quartiles of an empty sample");
    let v = sorted(xs);
    if v.len() == 1 {
        return (v[0], v[0]);
    }
    let m = v.len() + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The highest percentile of a sample that still has at least ten
/// samples beyond it, as `(percentile in %, value)`; `None` below 11
/// samples. The tail is the large end, so pass times (not rates).
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let v = sorted(xs);
    let rank = n - 10; // 1-based order statistic with 10 samples above it
    Some((100.0 * rank as f64 / n as f64, v[rank - 1]))
}

/// Is `new` no worse than `base` by more than `bound` (a share of
/// `base`), in the direction `better`?
pub fn within_bound(base: f64, new: f64, bound: f64, better: Better) -> bool {
    match better {
        Better::Higher => new >= base * (1.0 - bound),
        Better::Lower => new <= base * (1.0 + bound),
    }
}

/// How a change compares with its parent on one metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The new median is worse than the base median by more than the
    /// metric's bound.
    Regression,
    /// The new side won at least nine tenths of the pairs and the
    /// medians differ by more than the base runs' quartile spread.
    Gain,
    /// Neither.
    NoChange,
}

/// Judges paired runs (`base[i]` against `new[i]`) of one metric;
/// returns the verdict and the pairs the new side won. Metrics without
/// a bound (per-layer ones) never regress.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: Option<f64>) -> (Verdict, usize) {
    let (mb, mn) = (median(base), median(new));
    let beats = |n: f64, b: f64| match better {
        Better::Higher => n > b,
        Better::Lower => n < b,
    };
    let wins = base
        .iter()
        .zip(new)
        .filter(|(b, n)| beats(**n, **b))
        .count();
    let pairs = base.len().min(new.len());
    let (q1, q3) = quartiles(base);
    let verdict = if bound.is_some_and(|bound| !within_bound(mb, mn, bound, better)) {
        Verdict::Regression
    } else if beats(mn, mb) && wins * 10 >= pairs * 9 && (mn - mb).abs() > q3 - q1 {
        Verdict::Gain
    } else {
        Verdict::NoChange
    };
    (verdict, wins)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(&[1.0; 10]), None);
        // 20 samples: the 10th order statistic, the median's rank.
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50.0, 10.0)));
        // 100 samples: the 90th percentile.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90.0, 90.0)));
        // 11 samples: the smallest, with all ten others above it.
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let (pct, value) = tail_percentile(&xs).unwrap();
        assert!((pct - 100.0 / 11.0).abs() < 1e-12);
        assert_eq!(value, 1.0);
    }

    #[test]
    fn within_bound_respects_direction() {
        // Throughput: 10% bound around 100.
        assert!(within_bound(100.0, 95.0, 0.10, Better::Higher));
        assert!(within_bound(100.0, 90.0, 0.10, Better::Higher));
        assert!(!within_bound(100.0, 89.0, 0.10, Better::Higher));
        assert!(within_bound(100.0, 250.0, 0.10, Better::Higher));
        // Time or memory: 25% bound around 2.0.
        assert!(within_bound(2.0, 2.5, 0.25, Better::Lower));
        assert!(!within_bound(2.0, 2.51, 0.25, Better::Lower));
        assert!(within_bound(2.0, 0.1, 0.25, Better::Lower));
        // A zero bound means no worsening at all.
        assert!(within_bound(0.0, 0.0, 0.0, Better::Lower));
        assert!(!within_bound(0.0, 1e-9, 0.0, Better::Lower));
    }

    #[test]
    fn verdict_follows_bound_wins_and_spread() {
        let base = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1];
        // 30% slower throughput: a regression under a 25% bound.
        let slow: Vec<f64> = base.iter().map(|v| v * 0.7).collect();
        assert_eq!(
            verdict(&base, &slow, Better::Higher, Some(0.25)),
            (Verdict::Regression, 0)
        );
        // Without a bound the same drop is only "no change".
        assert_eq!(
            verdict(&base, &slow, Better::Higher, None).0,
            Verdict::NoChange
        );
        // 10% faster in every pair, beyond the base spread: a gain.
        let fast: Vec<f64> = base.iter().map(|v| v * 1.1).collect();
        assert_eq!(
            verdict(&base, &fast, Better::Higher, Some(0.25)),
            (Verdict::Gain, 10)
        );
        // The same values read as times are worse, but within 25%.
        assert_eq!(
            verdict(&base, &fast, Better::Lower, Some(0.25)),
            (Verdict::NoChange, 0)
        );
        // Winning 8 of 10 pairs is not enough for a gain.
        let mut mixed = fast.clone();
        mixed[0] = 9.0;
        mixed[1] = 9.0;
        assert_eq!(
            verdict(&base, &mixed, Better::Higher, Some(0.25)),
            (Verdict::NoChange, 8)
        );
        // A shift inside the base quartile spread is not a gain.
        let nudged: Vec<f64> = base.iter().map(|v| v + 0.01).collect();
        assert_eq!(
            verdict(&base, &nudged, Better::Higher, None),
            (Verdict::NoChange, 10)
        );
    }
}
