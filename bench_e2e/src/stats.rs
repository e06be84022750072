//! Order statistics for reporting timings: medians, linear-interpolated
//! percentiles, the quartiles `--compare` judges spread by, and the
//! selector for the highest percentile a sample can support.

/// Sorts a copy of `xs` (total order, so NaN cannot panic the sort).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q ∈ [0, 1]` of an ascending sample.
/// Panics on an empty sample.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample. Panics on an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(&sorted(xs), 0.5)
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// so spreads printed here match an independent check. A single value is
/// its own quartiles.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let data = sorted(xs);
    let ld = data.len();
    assert!(ld > 0, "quartiles of an empty sample");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld as i64 + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the clamped ends: Python extrapolates there too.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of [`TAIL_LADDER`] that has at least ten of `n`
/// samples beyond it, or `None` when even the median has fewer. A tail
/// read from fewer samples is one unlucky sample, not a percentile.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn quantile_interpolates_between_ranks() {
        let xs = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(quantile(&xs, 0.0), 10.0);
        assert_eq!(quantile(&xs, 1.0), 40.0);
        assert_eq!(quantile(&xs, 0.5), 25.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn tail_selector_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(500), Some(98.0));
        assert_eq!(tail_percentile(499), Some(97.5));
        assert_eq!(tail_percentile(400), Some(97.5));
        assert_eq!(tail_percentile(399), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn selected_tail_has_ten_samples_beyond() {
        for n in [400, 500] {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            let p = tail_percentile(xs.len()).expect("a tail");
            let tail = quantile(&xs, p / 100.0);
            assert_eq!(xs.iter().filter(|&&x| x > tail).count(), 10, "n = {n}");
        }
    }
}
