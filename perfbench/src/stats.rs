//! Order statistics for the benchmark's reports.

/// The `p` quantile (`0 <= p < 1`) of `samples`, by the nearest-rank rule
/// on the sorted values.
///
/// Refuses a quantile that would have fewer than ten samples beyond it:
/// a p99 needs at least 1,000 samples, a p50 at least 20. A tail figure
/// read from fewer samples is one or two outliers, not a percentile.
pub fn percentile(samples: &[f64], p: f64) -> Result<f64, String> {
    if !(0.0..1.0).contains(&p) {
        return Err(format!("quantile {p} is outside [0, 1)"));
    }
    let beyond = samples.len() as f64 * (1.0 - p);
    if beyond < 10.0 - 1e-9 {
        return Err(format!(
            "p{} from {} samples leaves {beyond:.1} beyond it; at least 10 are needed",
            p * 100.0,
            samples.len()
        ));
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Ok(sorted[rank.saturating_sub(1).min(sorted.len() - 1)])
}

/// The median of a small set of repeated measurements (the mean of the
/// middle two for an even count). Unlike [`percentile`] it accepts any
/// non-empty set: a median of repeats is not a tail figure.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The arithmetic mean, 0 for no values.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let few: Vec<f64> = (0..999).map(f64::from).collect();
        assert!(percentile(&few, 0.99).is_err());
        let enough: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.99).unwrap(), 989.0);
    }

    #[test]
    fn p50_needs_twenty_samples() {
        let few: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(percentile(&few, 0.5).is_err());
        let enough: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&enough, 0.5).unwrap(), 10.0);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..2000).map(|i| f64::from((i * 7919) % 2000)).collect();
        let a = percentile(&v, 0.99).unwrap();
        v.reverse();
        assert_eq!(percentile(&v, 0.99).unwrap(), a);
        assert_eq!(a, 1979.0);
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
