//! Distributional feature extraction over telemetry windows.
//!
//! SmartHarvest computes distributional features (mean, percentiles, spread,
//! trend) over the CPU-usage samples gathered during a learning epoch and
//! feeds them to its cost-sensitive classifier (paper §5.2). This module
//! provides that feature pipeline in a reusable form.

/// A fixed-size feature vector extracted from a window of scalar samples.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureVector {
    values: Vec<f64>,
}

impl FeatureVector {
    /// Wraps a raw vector of feature values.
    pub fn new(values: Vec<f64>) -> Self {
        FeatureVector { values }
    }

    /// The feature values, in extraction order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// The feature values, in extraction order, as the vector that holds
    /// them.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Number of features.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl AsRef<[f64]> for FeatureVector {
    fn as_ref(&self) -> &[f64] {
        &self.values
    }
}

/// Extracts distributional features from windows of scalar telemetry.
///
/// The extracted features are, in order: mean, standard deviation, min, max,
/// P50, P90, P99, last value, and slope of a least-squares linear fit
/// (the short-horizon trend). The number of features is
/// [`DistributionalFeatures::LEN`].
///
/// # Examples
///
/// ```
/// use sol_ml::features::DistributionalFeatures;
///
/// let samples: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
/// let f = DistributionalFeatures::extract(&samples);
/// assert_eq!(f.len(), DistributionalFeatures::LEN);
/// // The trend of a rising ramp is positive.
/// assert!(f.values()[8] > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DistributionalFeatures;

impl DistributionalFeatures {
    /// Number of features produced by [`extract`](Self::extract).
    pub const LEN: usize = 9;

    /// Extracts the feature vector from `samples`. An empty window produces a
    /// zero vector, which downstream models treat as "no information".
    pub fn extract(samples: &[f64]) -> FeatureVector {
        if samples.is_empty() {
            return FeatureVector::new(vec![0.0; Self::LEN]);
        }
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        let std = var.sqrt();

        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
        let min = sorted[0];
        let max = *sorted.last().expect("non-empty");
        let q = |p: f64| -> f64 {
            let pos = p * (sorted.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                sorted[lo]
            } else {
                let frac = pos - lo as f64;
                sorted[lo] * (1.0 - frac) + sorted[hi] * frac
            }
        };
        let last = *samples.last().expect("non-empty");
        let slope = Self::slope(samples);

        FeatureVector::new(vec![mean, std, min, max, q(0.5), q(0.9), q(0.99), last, slope])
    }

    /// Least-squares slope of the samples against their index, normalised by
    /// window length so the feature scale does not depend on sample count.
    fn slope(samples: &[f64]) -> f64 {
        let n = samples.len() as f64;
        if samples.len() < 2 {
            return 0.0;
        }
        let x_mean = (n - 1.0) / 2.0;
        let y_mean = samples.iter().sum::<f64>() / n;
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &y) in samples.iter().enumerate() {
            let dx = i as f64 - x_mean;
            num += dx * (y - y_mean);
            den += dx * dx;
        }
        if den == 0.0 {
            0.0
        } else {
            (num / den) * n
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_window_yields_zero_vector() {
        let f = DistributionalFeatures::extract(&[]);
        assert_eq!(f.values(), vec![0.0; DistributionalFeatures::LEN].as_slice());
    }

    #[test]
    fn constant_window_has_zero_spread_and_trend() {
        let f = DistributionalFeatures::extract(&[5.0; 20]);
        let v = f.values();
        assert_eq!(v[0], 5.0); // mean
        assert_eq!(v[1], 0.0); // std
        assert_eq!(v[2], 5.0); // min
        assert_eq!(v[3], 5.0); // max
        assert_eq!(v[8], 0.0); // slope
    }

    #[test]
    fn percentiles_are_ordered() {
        let samples: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        let v = DistributionalFeatures::extract(&samples);
        let v = v.values();
        assert!(v[4] <= v[5] && v[5] <= v[6], "P50 <= P90 <= P99");
        assert!(v[2] <= v[4] && v[6] <= v[3], "min <= P50 and P99 <= max");
    }

    #[test]
    fn falling_ramp_has_negative_trend() {
        let samples: Vec<f64> = (0..50).map(|i| 100.0 - i as f64).collect();
        let v = DistributionalFeatures::extract(&samples);
        assert!(v.values()[8] < 0.0);
    }

    #[test]
    fn single_sample_window() {
        let v = DistributionalFeatures::extract(&[3.0]);
        assert_eq!(v.values()[0], 3.0);
        assert_eq!(v.values()[8], 0.0);
        assert_eq!(v.len(), DistributionalFeatures::LEN);
    }
}
