//! Experiment metric helpers: normalized comparisons and time series.

use sol_core::time::Timestamp;

/// A named time series of scalar samples, used by experiments that reproduce
/// the paper's time-series figures (Figures 5 and 8).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    name: String,
    points: Vec<(Timestamp, f64)>,
}

impl TimeSeries {
    /// Creates an empty series with a display name.
    pub fn new(name: impl Into<String>) -> Self {
        TimeSeries { name: name.into(), points: Vec::new() }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a sample.
    pub fn push(&mut self, at: Timestamp, value: f64) {
        self.points.push((at, value));
    }

    /// The recorded samples in insertion order.
    pub fn points(&self) -> &[(Timestamp, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of the sample values (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|(_, v)| v).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Mean of values whose timestamps fall in `[from, to)`.
    pub fn mean_between(&self, from: Timestamp, to: Timestamp) -> f64 {
        let vals: Vec<f64> =
            self.points.iter().filter(|(t, _)| *t >= from && *t < to).map(|(_, v)| *v).collect();
        if vals.is_empty() {
            0.0
        } else {
            vals.iter().sum::<f64>() / vals.len() as f64
        }
    }

    /// Maximum value (0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|(_, v)| *v).fold(0.0, f64::max)
    }
}

/// Normalizes `value` against `baseline`, returning 1.0 when they are equal.
/// Returns 0 when the baseline is zero.
pub fn normalize(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        value / baseline
    }
}

/// Percentage change of `value` relative to `baseline` (e.g. +268 for a 268%
/// increase). Returns 0 when the baseline is zero.
pub fn percent_change(value: f64, baseline: f64) -> f64 {
    if baseline == 0.0 {
        0.0
    } else {
        (value - baseline) / baseline * 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_basic_stats() {
        let mut ts = TimeSeries::new("power");
        ts.push(Timestamp::from_secs(1), 100.0);
        ts.push(Timestamp::from_secs(2), 200.0);
        ts.push(Timestamp::from_secs(3), 300.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mean(), 200.0);
        assert_eq!(ts.max(), 300.0);
        assert_eq!(ts.mean_between(Timestamp::from_secs(2), Timestamp::from_secs(4)), 250.0);
        assert_eq!(ts.name(), "power");
    }

    #[test]
    fn normalization_helpers() {
        assert_eq!(normalize(3.0, 2.0), 1.5);
        assert_eq!(normalize(3.0, 0.0), 0.0);
        assert!((percent_change(368.0, 100.0) - 268.0).abs() < 1e-9);
        assert_eq!(percent_change(5.0, 0.0), 0.0);
    }

    #[test]
    fn empty_series_is_safe() {
        let ts = TimeSeries::new("empty");
        assert!(ts.is_empty());
        assert_eq!(ts.mean(), 0.0);
        assert_eq!(ts.max(), 0.0);
    }
}
