//! Order statistics over small samples (repetitions) and large ones
//! (per-record latencies).

/// Sort a sample in place; NaN never occurs in measured durations, and a
/// total order keeps the call panic-free if one ever did.
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// The `q`-quantile (`0.0..=1.0`) of an ascending sample by the
/// nearest-rank rule: the smallest value with at least `q` of the sample at
/// or below it. Always a value that was actually measured.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of an ascending sample; the mean of the two middle values when
/// the count is even.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median of an unsorted sample; `None` when it is empty.
pub fn median(mut values: Vec<f64>) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    sort(&mut values);
    Some(median_sorted(&values))
}

/// Minimum, median and maximum of the repetitions of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub min: f64,
    pub median: f64,
    pub max: f64,
}

impl Spread {
    pub fn of(values: &[f64]) -> Self {
        let mut v = values.to_vec();
        sort(&mut v);
        Self { min: v[0], median: median_sorted(&v), max: v[v.len() - 1] }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(vec![9.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(Vec::new()), None);
        assert_eq!(median_sorted(&[3.0]), 3.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median_sorted(&[1.0, 2.0, 4.0, 9.0]), 3.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_a_measured_value() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.99), 7.0);
        // 1000 samples: p99 leaves exactly ten beyond it.
        let w: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile_sorted(&w, 0.99), 990.0);
    }

    #[test]
    fn spread_reports_min_median_max_of_unsorted_input() {
        let s = Spread::of(&[5.0, 1.0, 3.0, 9.0, 4.0]);
        assert_eq!(s, Spread { min: 1.0, median: 4.0, max: 9.0 });
    }
}
