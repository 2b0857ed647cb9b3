//! Order statistics over timings.

/// Median (mean of the middle pair for even counts); `0.0` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail timing: the value at the highest percentile that still has
/// at least ten samples beyond it, with that percentile. With ten or
/// fewer samples no such percentile exists and the maximum is returned
/// (percentile 100). `(0.0, 0.0)` when empty.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => (0.0, 0.0),
        n if n <= 10 => (v[n - 1], 100.0),
        n => (v[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=30).map(f64::from).collect();
        // 20 is followed by exactly ten larger samples.
        assert_eq!(tail(&v), (20.0, 100.0 * 20.0 / 30.0));
        assert_eq!(tail(&[5.0, 1.0]), (5.0, 100.0));
    }
}
