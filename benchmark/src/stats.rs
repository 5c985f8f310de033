//! Order statistics over timing samples.

/// Median of `samples` (mean of the two middle values for an even count);
/// 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The tail next to a median: the value at the highest percentile that
/// still has ten samples beyond it, and that percentile. With ten samples
/// or fewer no percentile qualifies and the maximum stands in (percentile
/// 100), which only short smoke runs see.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => (0.0, 0.0),
        n if n <= 10 => (v[n - 1], 100.0),
        n => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Geometric mean of the finite, positive values; 1 for none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .filter(|v| v.is_finite() && *v > 0.0)
        .fold((0.0, 0u32), |(s, n), v| (s + v.ln(), n + 1));
    if n == 0 {
        1.0
    } else {
        (sum / f64::from(n)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90.0, 90.0));
        assert_eq!(tail(&[5.0, 7.0, 6.0]), (7.0, 100.0));
    }

    #[test]
    fn geomean_skips_infinite_ratios() {
        assert!((geomean([2.0, 8.0, f64::INFINITY]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean([]), 1.0);
    }
}
