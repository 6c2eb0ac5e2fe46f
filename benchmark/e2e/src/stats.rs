//! Order statistics of a small sample.

use crate::json::Value;

/// What the harness prints for a metric: the median of the reps with the
/// extremes and quartiles around it. With at most a dozen reps no
/// percentile above the median has ten samples beyond it, so none is kept.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Summary {
    /// Summarises `values`; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (&min, &max) = (sorted.first()?, sorted.last()?);
        let [q1, median, q3] = quartiles(&sorted);
        Some(Summary {
            n: sorted.len(),
            min,
            q1,
            median,
            q3,
            max,
        })
    }

    /// The distance between the quartiles as a share of the median.
    pub fn iqr_over_median(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("n", Value::Int(self.n as u64)),
            ("min", self.min.into()),
            ("q1", self.q1.into()),
            ("median", self.median.into()),
            ("q3", self.q3.into()),
            ("max", self.max.into()),
        ])
    }
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// The three quartiles of a sorted, non-empty sample, by the rule of
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
/// which is what the acceptance check of the benchmark uses.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_follow_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.n, s.min, s.max), (5, 1.0, 5.0));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&ten).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.iqr_over_median(), 1.0);
        // two points: the quartiles reach past the sample, as Python's do
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
        assert_eq!(median(&[3.0, 1.0]), 2.0);
    }
}
