//! Order statistics for timing samples.

/// Median of `values` (mean of the two middle values for even counts).
/// `NaN` for an empty slice, which no caller produces.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile (`p` in `0.0..=100.0`) of `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p99 / p90 that has at least ten samples beyond it,
/// with its label; falls back to the maximum (label `max`) when even
/// p90 is not supported by the sample count.
pub fn p_hi(values: &[f64]) -> (&'static str, f64) {
    let n = values.len();
    for (label, p) in [("p99", 99), ("p90", 90)] {
        // Samples strictly above the nearest-rank position.
        if n - (n * p).div_ceil(100) >= 10 {
            return (label, percentile(values, p as f64));
        }
    }
    (
        "max",
        values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    )
}

/// `(min, max)` of `values`.
pub fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0, 1.0], 50.0), 1.0);
    }

    #[test]
    fn p_hi_needs_ten_samples_beyond() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(p_hi(&thousand), ("p99", 990.0));
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(p_hi(&hundred), ("p90", 90.0));
        let few: Vec<f64> = (1..=24).map(f64::from).collect();
        assert_eq!(p_hi(&few), ("max", 24.0));
    }

    #[test]
    fn min_max_spans_the_samples() {
        assert_eq!(min_max(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}
