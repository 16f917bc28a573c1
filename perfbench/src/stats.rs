//! Order statistics over timing samples.

/// Samples a percentile must leave beyond it before it is reported: a
/// tail read from fewer samples is one or two outliers, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when `values` is empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some(0.5 * (sorted[n / 2 - 1] + sorted[n / 2])),
    }
}

/// The `p`-th percentile (0 < p < 100) by the nearest-rank method.
///
/// Refuses (`None`) unless at least [`MIN_TAIL_SAMPLES`] samples lie
/// strictly beyond the returned rank.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} is outside (0, 100)");
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The arithmetic mean; `None` when `values` is empty.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert_eq!(percentile(&values, 90.0), Some(90.0));
        // 99 samples leave only 9 beyond the p90 rank.
        assert_eq!(percentile(&values[..99], 90.0), None);
        assert_eq!(percentile(&values, 99.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut values: Vec<f64> = (1..=40).map(f64::from).collect();
        values.reverse();
        assert_eq!(percentile(&values, 50.0), Some(20.0));
    }
}
