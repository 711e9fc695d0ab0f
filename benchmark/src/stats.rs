//! Order statistics for timings: median, quartiles, and the tail percentile
//! a sample count can support.

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values` (need not be sorted).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "cannot summarize zero samples");
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let [q1, median, q3] = quartiles(&sorted);
        Summary { n: sorted.len(), min: sorted[0], q1, median, q3, max: sorted[sorted.len() - 1] }
    }

    /// Interquartile range as a share of the median (0 for a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three quartile cut points of sorted data, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so a spread
/// printed here reads the same as one computed from the driver's side.
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let m = sorted.len();
    if m == 1 {
        return [sorted[0]; 3];
    }
    let cut = |k: usize| {
        let j = (k * (m + 1) / 4).clamp(1, m - 1);
        let delta = (k * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    [cut(1), cut(2), cut(3)]
}

/// The smallest of `values`: the fastest repetition.
pub fn fastest(values: &[f64]) -> f64 {
    Summary::of(values).min
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The highest percentile that still has at least ten samples beyond it —
/// a p99 read off 60 samples is one sample's luck. Returns the percentile
/// (e.g. `99.0`) and its nearest-rank value, or `None` below 20 samples,
/// where not even the median has ten samples on its far side.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    // Per mille, so "ten samples beyond" is exact integer arithmetic.
    const CANDIDATES: [usize; 6] = [999, 990, 950, 900, 750, 500];
    let n = values.len();
    let per_mille = CANDIDATES.into_iter().find(|p| n * (1_000 - p) / 1_000 >= 10)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let rank = (n * per_mille).div_ceil(1_000).max(1);
    Some((per_mille as f64 / 10.0, sorted[rank.min(n) - 1]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.5, 5.0, 7.5));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 2.5, 3.75));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let s = Summary::of(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        assert_eq!(Summary::of(&[3.0]).spread(), 0.0);
    }

    #[test]
    fn tail_percentile_wants_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        assert_eq!(tail_percentile(&samples(19)), None);
        assert_eq!(tail_percentile(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&samples(180)), Some((90.0, 162.0)));
        assert_eq!(tail_percentile(&samples(999)).unwrap().0, 95.0);
        assert_eq!(tail_percentile(&samples(1_000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&samples(1_200)), Some((99.0, 1_188.0)));
        assert_eq!(tail_percentile(&samples(10_000)).unwrap().0, 99.9);
    }
}
