//! Online linear regression trained with stochastic gradient descent.
//!
//! This is the building block for the cost-sensitive classifier
//! ([`crate::cost_sensitive`]), mirroring the squared-loss regressors that
//! VowpalWabbit's `csoaa` reduction uses internally.

/// An online least-squares linear model `y ≈ w·x + b` trained by SGD.
///
/// # Examples
///
/// ```
/// use sol_ml::linear::OnlineLinearRegression;
///
/// let mut model = OnlineLinearRegression::new(1, 0.1);
/// for _ in 0..500 {
///     for x in [0.0, 1.0, 2.0, 3.0] {
///         model.update(&[x], 2.0 * x + 1.0);
///     }
/// }
/// assert!((model.predict(&[10.0]) - 21.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineLinearRegression {
    weights: Vec<f64>,
    bias: f64,
    learning_rate: f64,
    updates: u64,
}

impl OnlineLinearRegression {
    /// Creates a model with `features` inputs and the given learning rate.
    ///
    /// # Panics
    ///
    /// Panics if `features` is zero or `learning_rate` is not positive.
    pub fn new(features: usize, learning_rate: f64) -> Self {
        assert!(features > 0, "model needs at least one feature");
        assert!(learning_rate > 0.0, "learning rate must be positive");
        OnlineLinearRegression {
            weights: vec![0.0; features],
            bias: 0.0,
            learning_rate,
            updates: 0,
        }
    }

    /// Number of input features.
    pub fn features(&self) -> usize {
        self.weights.len()
    }

    /// Number of SGD updates applied.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Predicts the target for `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "feature dimension mismatch");
        self.bias + self.weights.iter().zip(x).map(|(w, xi)| w * xi).sum::<f64>()
    }

    /// Applies one SGD step towards `(x, y)` and returns the pre-update
    /// prediction error `y - prediction`.
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong number of features or `y` is not finite.
    pub fn update(&mut self, x: &[f64], y: f64) -> f64 {
        assert!(y.is_finite(), "target must be finite");
        let prediction = self.predict(x);
        let error = y - prediction;
        // Clip the gradient so single wild samples cannot blow up the model;
        // on-node data can be noisy even after validation.
        let step = (self.learning_rate * error).clamp(-1e3, 1e3);
        for (w, xi) in self.weights.iter_mut().zip(x) {
            *w += step * xi;
        }
        self.bias += step;
        self.updates += 1;
        error
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_noiseless_line() {
        let mut m = OnlineLinearRegression::new(2, 0.05);
        for _ in 0..2000 {
            for (a, b) in [(0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5)] {
                m.update(&[a, b], 3.0 * a - 2.0 * b + 0.5);
            }
        }
        assert!((m.predict(&[2.0, 1.0]) - 4.5).abs() < 0.1);
        assert!((m.weights()[0] - 3.0).abs() < 0.1);
        assert!((m.weights()[1] + 2.0).abs() < 0.1);
    }

    #[test]
    fn error_decreases_with_training() {
        let mut m = OnlineLinearRegression::new(1, 0.1);
        let first = m.update(&[1.0], 10.0).abs();
        for _ in 0..100 {
            m.update(&[1.0], 10.0);
        }
        let later = m.update(&[1.0], 10.0).abs();
        assert!(later < first / 10.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn rejects_wrong_dimension() {
        let m = OnlineLinearRegression::new(2, 0.1);
        let _ = m.predict(&[1.0]);
    }
}
