//! Order statistics over small samples (reps, windows, runs).

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice: a metric with no samples is a bug in the
/// workload, not a value to report.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The value at quantile `q` in `[0, 1]`, interpolating linearly between
/// the two nearest order statistics.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let at = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let below = at.floor() as usize;
    let above = (below + 1).min(sorted.len() - 1);
    sorted[below] + (sorted[above] - sorted[below]) * (at - below as f64)
}

/// The rate a series of windows or reps sustained when undisturbed: the
/// upper decile of the per-window rates.
///
/// Not the median, because the noise on a shared box is one-sided: a
/// window is never faster than the machine allows, but co-tenants and
/// thread placement slow a varying share of them (30 to 60 % of the
/// one-second windows of `serve_hot_read` ran at half rate when this was
/// chosen), so the median flips between two modes from run to run while
/// the upper decile stays on the undisturbed one.
pub fn undisturbed_rate(rates: &[f64]) -> f64 {
    quantile(rates, 0.9)
}

/// First and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the rule the acceptance check applies to ten runs.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 0.5), 3.0);
        assert_eq!(quantile(&v, 0.9), 4.6);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
        // Half the windows disturbed: the upper decile stays on the rest.
        let windows = [800.0, 310.0, 820.0, 300.0, 790.0, 330.0, 810.0, 320.0];
        assert!(undisturbed_rate(&windows) > 800.0);
        assert!(median(&windows) < 600.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some((10.0, 40.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(spread(&v), Some(1.0));
    }
}
