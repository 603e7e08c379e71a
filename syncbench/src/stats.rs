//! Order statistics for the report: medians, nearest-rank percentiles, the
//! ten-samples-beyond tail rule, and the quartile spread the benchmark
//! driver gates on.

/// Sorted copy of `values` (ascending).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Arithmetic mean of `values`. Panics on an empty slice, like [`median`].
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// Median of `values` (mean of the two middle samples when the count is
/// even). Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile that still has ten samples beyond it, as
/// `(percentile, value)`. A percentile with fewer samples above it is set
/// by a handful of outliers and does not repeat. With fewer than 22 samples
/// that percentile would sit below the median, so the median is reported.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n < 22 {
        return (50.0, percentile(sorted, 50.0));
    }
    (100.0 * (n - 10) as f64 / n as f64, sorted[n - 11])
}

/// The three quartile cut points of `values`, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) does — the
/// benchmark driver's statistic. Needs at least two samples.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let n = s.len();
    assert!(n >= 2, "quartiles need two samples");
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

/// Distance between the first and third quartile as a share of the median:
/// the spread the driver holds against each metric's bound.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 90.0), 90.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.5), 1.0);
        let few = [10.0, 20.0, 30.0];
        assert_eq!(percentile(&few, 50.0), 20.0);
        assert_eq!(percentile(&few, 99.0), 30.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = tail(&s);
        assert_eq!(v, 190.0);
        assert_eq!(p, 95.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);

        let s: Vec<f64> = (1..=22).map(f64::from).collect();
        let (p, v) = tail(&s);
        assert_eq!(v, 12.0);
        assert!((p - 100.0 * 12.0 / 22.0).abs() < 1e-12);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), 10);

        // Too few samples for any percentile above the median.
        let s: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&s), (50.0, 11.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([2, 4, 4, 5, 7, 9, 11], n=4) == [4.0, 5.0, 9.0]
        assert_eq!(
            quartiles(&[9.0, 2.0, 4.0, 11.0, 4.0, 5.0, 7.0]),
            [4.0, 5.0, 9.0]
        );
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartile_spread(&v), 5.5 / 5.5);
    }
}
