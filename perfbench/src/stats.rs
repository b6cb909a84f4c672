//! Order statistics for the benchmark's reports: medians, percentiles
//! and quartiles over raw samples.

/// Median, quartiles and sample count of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order). An empty sample gives NaNs and
    /// `n = 0`.
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles(&sorted);
        Self {
            median,
            q1,
            q3,
            n: sorted.len(),
        }
    }

    /// A single measured value (one sample).
    pub fn single(value: f64) -> Self {
        Self::of(&[value])
    }
}

/// The `p`-th percentile (`0 ≤ p ≤ 100`) of an ascending sample by the
/// nearest-rank rule: the smallest sample with at least `p` % of the
/// samples at or below it. NaN for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Quartiles `(q1, median, q3)` of an ascending sample, computed as
/// Python's `statistics.quantiles(data, n=4)` does (the default
/// "exclusive" method) so the figures here match the ones a reader
/// recomputes from the raw values. One sample gives itself three
/// times; an empty sample gives NaNs.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    match sorted.len() {
        0 => (f64::NAN, f64::NAN, f64::NAN),
        1 => (sorted[0], sorted[0], sorted[0]),
        n => {
            // Cut point i sits at 1-based position i·(n + 1)/4, read by
            // linear interpolation between the two neighbouring
            // samples (clamped to the first and last pair).
            let cut = |i: i64| {
                let (len, m) = (n as i64, n as i64 + 1);
                let j = (i * m / 4).clamp(1, len - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        }
    }
}

/// `samples` in ascending order.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Median of an ascending sample (mean of the two middle values for an
/// even count). NaN for an empty sample.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 5], n=4) == [0.0, 3.0, 6.0]
        assert_eq!(quartiles(&[1.0, 5.0]), (0.0, 3.0, 6.0));
        // statistics.quantiles(range(1, 8), n=4) == [2.0, 4.0, 6.0]
        let v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.0, 4.0, 6.0));
        // statistics.quantiles([3, 9, 10, 20, 21], n=4) == [6.0, 10.0, 20.5]
        assert_eq!(quartiles(&[3.0, 9.0, 10.0, 20.0, 21.0]), (6.0, 10.0, 20.5));
    }

    #[test]
    fn quartiles_of_tiny_samples() {
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
        let (a, b, c) = quartiles(&[]);
        assert!(a.is_nan() && b.is_nan() && c.is_nan());
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[4.0, 8.0], 50.0), 4.0);
        assert_eq!(percentile(&[4.0, 8.0], 51.0), 8.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn summary_sorts_its_input() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(s.n, 5);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }
}
