//! Order statistics of a sample of timings.

use hpcbd_obs::JsonValue;

use crate::json::{f64_at, num, obj};

/// `n`, minimum, quartiles and maximum of a sample. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)`, which is what the
/// driver computes over its runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

fn quantile_exclusive(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    // Position p*(n+1) in 1-based ranks, clamped to the sample.
    let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = pos.floor() as usize;
    let frac = pos - lo as f64;
    let hi = (lo + 1).min(n);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

impl Summary {
    /// Summary of a non-empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            n: v.len(),
            min: *v.first()?,
            q1: quantile_exclusive(&v, 0.25),
            median: quantile_exclusive(&v, 0.5),
            q3: quantile_exclusive(&v, 0.75),
            max: *v.last()?,
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median
    }

    pub fn to_json(self) -> JsonValue {
        obj(vec![
            ("n", JsonValue::u64(self.n as u64)),
            ("min", num(self.min)),
            ("q1", num(self.q1)),
            ("median", num(self.median)),
            ("q3", num(self.q3)),
            ("max", num(self.max)),
        ])
    }

    pub fn from_json(v: &JsonValue) -> Option<Summary> {
        Some(Summary {
            n: f64_at(v, "n")? as usize,
            min: f64_at(v, "min")?,
            q1: f64_at(v, "q1")?,
            median: f64_at(v, "median")?,
            q3: f64_at(v, "q3")?,
            max: f64_at(v, "max")?,
        })
    }
}

/// The highest of p75/p90/p95/p99 with at least ten samples beyond it,
/// as `(percentile, value)`; `None` below 40 samples.
pub fn tail_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|p| v.len() * (100 - *p as usize) >= 10 * 100)
        .map(|p| (p, quantile_exclusive(&v, p as f64 / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 1.0, 2.0, 3.0, 3.0)
        );
        assert_eq!(Summary::of(&[4.0]).expect("non-empty").spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[0.125, 0.25, 0.5, 1.0]).expect("non-empty");
        assert_eq!(Summary::from_json(&s.to_json()), Some(s));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (0..48).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).map(|t| t.0), Some(75));
        assert_eq!(tail_percentile(&v[..39]), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v).map(|t| t.0), Some(90));
    }
}
