//! Order statistics and fairness helpers shared by the runner and `compare`.

/// Sorts a sample in place (NaN-free by construction: every sample here is
/// a measured duration or a ratio of positive counts).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
}

/// Nearest-rank quantile of a **sorted** sample: the smallest value with at
/// least `q` of the sample at or below it.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (sorted.len() as f64 * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Arithmetic mean; 0 for an empty sample (only a run that failed before
/// its first iteration has one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Mean of the fastest quarter of an unsorted sample (at least one value);
/// 0 when empty. The wall-clock estimator: interference only ever adds
/// time, so the fast end of a sample is what the program costs, and a mean
/// over several values does not hinge on one lucky iteration.
pub fn fast_quarter_mean(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    sort(&mut v);
    mean(&v[..(v.len() / 4).max(1).min(v.len())])
}

/// Median of an unsorted sample (mean of the two middle values when
/// even); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Jain's fairness index: 1.0 = perfectly even, 1/n = fully concentrated.
pub fn jain(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "Jain index of an empty sample");
    let sum: f64 = xs.iter().sum();
    let sum_sq: f64 = xs.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    sum * sum / (xs.len() as f64 * sum_sq)
}

/// Quartiles `(q1, q2, q3)` by the exclusive method — the same numbers
/// Python's `statistics.quantiles(xs, n=4)` returns, so a spread computed
/// here matches the one the acceptance driver computes.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need at least two samples");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |i: usize| {
        let pos = i as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median (0 for a constant
/// sample or fewer than two values).
pub fn quartile_spread(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn mean_and_fast_quarter_mean() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(fast_quarter_mean(&[8.0, 2.0, 6.0]), 2.0);
        assert_eq!(fast_quarter_mean(&[8.0, 2.0, 6.0, 4.0]), 2.0);
        assert_eq!(
            fast_quarter_mean(&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 7.0, 8.0]),
            1.5
        );
        // An empty sample reads 0 everywhere instead of panicking mid-report.
        assert_eq!(
            (mean(&[]), median(&[]), fast_quarter_mean(&[])),
            (0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.50), 50.0);
        assert_eq!(quantile_sorted(&v, 0.99), 99.0);
        assert_eq!(quantile_sorted(&v, 1.0), 100.0);
        assert_eq!(quantile_sorted(&v, 0.0), 1.0);
        assert_eq!(quantile_sorted(&[5.0], 0.99), 5.0);
    }

    #[test]
    fn jain_extremes() {
        assert!((jain(&[2.0, 2.0, 2.0, 2.0]) - 1.0).abs() < 1e-12);
        assert!((jain(&[1.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Uniformly spread completions (FIFO serialization) tend to 0.75.
        let fifo: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert!((jain(&fifo) - 0.75).abs() < 1e-3);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, _, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
        assert_eq!(quartile_spread(&[3.0]), 0.0);
    }
}
