//! Order statistics. Every timing the benchmark reports is a median
//! or a percentile of raw samples; nothing is averaged, trimmed or
//! corrected for host speed.

/// Sorts samples ascending (no NaN ever enters: samples are durations
/// and counts).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
}

/// Median of ascending samples: the middle one, or the mean of the
/// two middle ones.
///
/// # Panics
///
/// Panics on an empty slice: a metric without a sample is a bug in
/// the benchmark, not a number to report.
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Sorts and takes the median.
pub fn median_of(mut xs: Vec<f64>) -> f64 {
    sort(&mut xs);
    median(&xs)
}

/// Nearest-rank percentile of ascending samples: the smallest sample
/// with at least `p` percent of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The three quartiles of ascending samples by the method of Python's
/// `statistics.quantiles(values, n=4)` (exclusive), which is what the
/// acceptance check of this benchmark uses for its run-to-run spread.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    assert!(len >= 2, "quartiles need two samples");
    let m = len + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, len - 1);
        // Signed: the clamp can leave `j * 4` above `i * m`.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Interquartile range as a percentage of the median.
pub fn iqr_pct(sorted: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(sorted);
    (q3 - q1) / q2 * 100.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_takes_the_middle_or_the_mean_of_the_middles() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median_of(vec![9.0, 1.0, 4.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        // 99th of 150 samples: rank ceil(148.5) = 149.
        let ys: Vec<f64> = (1..=150).map(f64::from).collect();
        assert_eq!(percentile(&ys, 99.0), 149.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    /// Values from `statistics.quantiles(data, n=4)` in CPython 3.11.
    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), [1.5, 3.0, 4.5]);
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(
            quartiles(&[10.0, 20.0, 25.0, 40.0, 41.0, 70.0]),
            [17.5, 32.5, 48.25]
        );
    }

    #[test]
    fn iqr_is_a_share_of_the_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_pct(&ten) - 100.0).abs() < 1e-12);
    }
}
