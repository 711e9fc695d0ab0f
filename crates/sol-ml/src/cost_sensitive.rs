//! Cost-sensitive multiclass classification (one-against-all reduction).
//!
//! SmartHarvest uses a cost-sensitive classifier from the VowpalWabbit
//! framework to predict the maximum number of CPU cores the primary VMs will
//! need in the next 25 ms (paper §5.2). This module provides the same
//! algorithm family built from scratch: one online least-squares regressor per
//! class predicts that class's cost, and classification picks the class with
//! the smallest predicted cost. Asymmetric costs let the agent make
//! under-prediction (starving the primary VM) far more expensive than
//! over-prediction (harvesting fewer cores).

use crate::linear::OnlineLinearRegression;

/// A labeled training example: the feature vector plus the cost of predicting
/// each class for it.
#[derive(Debug, Clone, PartialEq)]
pub struct CostSensitiveExample {
    /// Input features.
    pub features: Vec<f64>,
    /// Per-class costs; lower is better. Length must equal the classifier's
    /// class count.
    pub costs: Vec<f64>,
}

impl CostSensitiveExample {
    /// Builds an example from features and per-class costs.
    pub fn new(features: Vec<f64>, costs: Vec<f64>) -> Self {
        CostSensitiveExample { features, costs }
    }

    /// Builds the asymmetric cost vector used for "predict at least the true
    /// class" problems such as core-demand prediction: predicting class `c`
    /// when the true class is `truth` costs
    /// `under_penalty * (truth - c)` if `c < truth` (under-prediction) and
    /// `over_penalty * (c - truth)` if `c > truth` (over-prediction).
    pub fn from_ordinal_truth(
        features: Vec<f64>,
        truth: usize,
        classes: usize,
        under_penalty: f64,
        over_penalty: f64,
    ) -> Self {
        let costs = (0..classes)
            .map(|c| {
                if c < truth {
                    under_penalty * (truth - c) as f64
                } else {
                    over_penalty * (c - truth) as f64
                }
            })
            .collect();
        CostSensitiveExample { features, costs }
    }
}

/// A cost-sensitive one-against-all classifier.
///
/// # Examples
///
/// ```
/// use sol_ml::cost_sensitive::{CostSensitiveClassifier, CostSensitiveExample};
///
/// // Learn to predict class 0 for small inputs and class 2 for large ones.
/// let mut clf = CostSensitiveClassifier::new(1, 3, 0.1);
/// for _ in 0..300 {
///     clf.update(&CostSensitiveExample::from_ordinal_truth(vec![0.1], 0, 3, 5.0, 1.0));
///     clf.update(&CostSensitiveExample::from_ordinal_truth(vec![0.9], 2, 3, 5.0, 1.0));
/// }
/// assert_eq!(clf.predict(&[0.1]), 0);
/// assert_eq!(clf.predict(&[0.9]), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CostSensitiveClassifier {
    regressors: Vec<OnlineLinearRegression>,
    features: usize,
    updates: u64,
}

impl CostSensitiveClassifier {
    /// Creates a classifier over `classes` classes with `features`-dimensional
    /// inputs.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is zero, `features` is zero, or `learning_rate` is
    /// not positive.
    pub fn new(features: usize, classes: usize, learning_rate: f64) -> Self {
        assert!(classes > 0, "classifier needs at least one class");
        let regressors =
            (0..classes).map(|_| OnlineLinearRegression::new(features, learning_rate)).collect();
        CostSensitiveClassifier { regressors, features, updates: 0 }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.regressors.len()
    }

    /// Number of input features.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Number of training examples consumed.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Predicts the class with the lowest expected cost for `x` (the first
    /// such class on a tie).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict(&self, x: &[f64]) -> usize {
        self.regressors
            .iter()
            .map(|r| r.predict(x))
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("no NaN costs"))
            .map(|(i, _)| i)
            .expect("at least one class")
    }

    /// Trains on one cost-sensitive example.
    ///
    /// # Panics
    ///
    /// Panics if the example's cost vector length differs from the number of
    /// classes or its feature length differs from the model's.
    pub fn update(&mut self, example: &CostSensitiveExample) {
        assert_eq!(example.costs.len(), self.regressors.len(), "cost vector length mismatch");
        for (regressor, &cost) in self.regressors.iter_mut().zip(&example.costs) {
            regressor.update(&example.features, cost);
        }
        self.updates += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordinal_costs_penalize_under_prediction_more() {
        let e = CostSensitiveExample::from_ordinal_truth(vec![1.0], 2, 4, 10.0, 1.0);
        assert_eq!(e.costs, vec![20.0, 10.0, 0.0, 1.0]);
    }

    #[test]
    fn learns_threshold_rule() {
        let mut clf = CostSensitiveClassifier::new(1, 4, 0.05);
        for _ in 0..500 {
            for (x, truth) in [(0.0, 0), (0.3, 1), (0.6, 2), (0.95, 3)] {
                clf.update(&CostSensitiveExample::from_ordinal_truth(vec![x], truth, 4, 4.0, 1.0));
            }
        }
        // With a single scalar feature and linear per-class cost models the
        // decision boundary is approximate; check the ordering rather than
        // exact classes.
        assert!(clf.predict(&[0.0]) <= 1);
        assert!(clf.predict(&[0.95]) >= 2);
        assert!(clf.predict(&[0.95]) >= clf.predict(&[0.0]));
    }

    #[test]
    fn asymmetric_costs_bias_towards_over_prediction() {
        // Noisy truth: with symmetric costs the classifier would hover around
        // the mean; with a heavy under-prediction penalty it should predict at
        // or above the typical demand.
        let mut clf = CostSensitiveClassifier::new(1, 5, 0.05);
        let truths = [1usize, 2, 1, 2, 3, 2, 1, 2, 3, 2];
        for _ in 0..300 {
            for &t in &truths {
                clf.update(&CostSensitiveExample::from_ordinal_truth(vec![1.0], t, 5, 20.0, 1.0));
            }
        }
        assert!(clf.predict(&[1.0]) >= 3, "should over-provision under asymmetric costs");
    }

    #[test]
    fn predict_ranges_over_every_class() {
        let mut clf = CostSensitiveClassifier::new(2, 3, 0.1);
        assert_eq!(clf.predict(&[1.0, 0.0]), 0, "untrained costs tie: the first class");
        clf.update(&CostSensitiveExample::new(vec![1.0, 0.0], vec![5.0, 5.0, 0.0]));
        assert_eq!(clf.predict(&[1.0, 0.0]), 2, "the last class is a candidate too");
        assert_eq!(clf.classes(), 3);
        assert_eq!(clf.features(), 2);
    }

    #[test]
    #[should_panic(expected = "cost vector length mismatch")]
    fn rejects_wrong_cost_length() {
        let mut clf = CostSensitiveClassifier::new(1, 3, 0.1);
        clf.update(&CostSensitiveExample::new(vec![1.0], vec![0.0, 1.0]));
    }
}
