//! The `Model` half of the SOL agent API (paper §4.1, Listing 1).
//!
//! The Model is responsible for providing fresh and accurate predictions on a
//! best-effort basis. It encapsulates the three operations every learning
//! agent performs — collect data, update the model, predict — plus the
//! safeguards that keep a misbehaving model from ever reaching the Actuator:
//! per-sample validation, periodic accuracy assessment, and a safe default
//! prediction.

use sol_ml::exchange::{ExchangeError, LearnedState};

use crate::error::DataError;
use crate::prediction::Prediction;
use crate::time::Timestamp;

/// The outcome of a model safeguard check
/// ([`Model::assess_model`]).
///
/// While the assessment is `Failing`, the SOL runtime keeps operating the
/// Model control loop normally (so the model has a chance to recover) but
/// intercepts its predictions and forwards default predictions to the Actuator
/// instead (paper §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelAssessment {
    /// The model meets its accuracy expectations; its predictions may be used.
    Healthy,
    /// The model is not trustworthy; predictions must be intercepted. The
    /// agent stats count these
    /// ([`model_assessment_failures`](crate::stats::ModelLoopStats::model_assessment_failures)).
    Failing,
}

impl ModelAssessment {
    /// Returns `true` when the model passed its assessment.
    pub fn is_healthy(&self) -> bool {
        matches!(self, ModelAssessment::Healthy)
    }
}

/// The learning half of a SOL agent.
///
/// A single *learning epoch* consists of several [`collect_data`] calls (each
/// validated with [`validate_data`] and, if valid, stored with
/// [`commit_data`]), followed by at most one [`update_model`] and one
/// [`predict`]. If the epoch cannot gather enough valid data before the
/// schedule's maximum epoch time, the runtime short-circuits it and forwards
/// [`default_predict`] to the Actuator instead.
///
/// Implementations run inside the Model control loop and must be `Send` so
/// a fleet worker thread can advance the node that holds the agent.
///
/// [`collect_data`]: Model::collect_data
/// [`validate_data`]: Model::validate_data
/// [`commit_data`]: Model::commit_data
/// [`update_model`]: Model::update_model
/// [`predict`]: Model::predict
/// [`default_predict`]: Model::default_predict
///
/// # Examples
///
/// A minimal model that predicts the mean of the readings it has seen:
///
/// ```
/// use sol_core::error::DataError;
/// use sol_core::model::{Model, ModelAssessment};
/// use sol_core::prediction::Prediction;
/// use sol_core::time::{SimDuration, Timestamp};
///
/// struct MeanModel {
///     readings: Vec<f64>,
///     mean: f64,
/// }
///
/// impl Model for MeanModel {
///     type Data = f64;
///     type Pred = f64;
///
///     fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
///         Ok(42.0)
///     }
///     fn validate_data(&self, sample: &f64) -> bool {
///         sample.is_finite() && *sample >= 0.0
///     }
///     fn commit_data(&mut self, _now: Timestamp, sample: f64) {
///         self.readings.push(sample);
///     }
///     fn update_model(&mut self, _now: Timestamp) {
///         self.mean = self.readings.iter().sum::<f64>() / self.readings.len() as f64;
///     }
///     fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
///         Some(Prediction::model(self.mean, now, now + SimDuration::from_secs(1)))
///     }
///     fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
///         Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
///     }
///     fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
///         ModelAssessment::Healthy
///     }
/// }
/// ```
pub trait Model: Send {
    /// The type of a single telemetry sample.
    type Data;
    /// The type of the value the model predicts.
    type Pred: Send + 'static;

    /// Collects one telemetry sample.
    ///
    /// # Errors
    ///
    /// Returns a [`DataError`] when the telemetry source itself fails; such
    /// samples are counted as collection errors and never reach the model.
    fn collect_data(&mut self, now: Timestamp) -> Result<Self::Data, DataError>;

    /// Checks a freshly collected sample against the developer's data
    /// assumptions (range checks, simple distributional checks). Samples that
    /// fail validation are discarded and never committed.
    fn validate_data(&self, data: &Self::Data) -> bool;

    /// Stores a validated sample for use by the next model update.
    fn commit_data(&mut self, now: Timestamp, data: Self::Data);

    /// Updates the model with the data committed during the current epoch.
    fn update_model(&mut self, now: Timestamp);

    /// Produces a prediction from the current model, or `None` if the model
    /// cannot produce one (e.g. below a confidence threshold). Returning
    /// `None` short-circuits the epoch: the runtime forwards
    /// [`default_predict`](Model::default_predict) instead.
    fn predict(&mut self, now: Timestamp) -> Option<Prediction<Self::Pred>>;

    /// Produces the safe fallback prediction used when the model cannot be
    /// trusted or did not finish in time. Default predictions should allow the
    /// node to behave with minimal impact on the agent's safety metric, at the
    /// possible cost of lower efficiency.
    fn default_predict(&self, now: Timestamp) -> Prediction<Self::Pred>;

    /// The model safeguard: periodically checks whether model accuracy (or
    /// another relevant metric) is acceptable for the agent's prediction task.
    fn assess_model(&mut self, now: Timestamp) -> ModelAssessment;

    /// Optional developer hook allowing the epoch to be short-circuited
    /// explicitly before it completes (paper §4.1: default predictions can be
    /// sent to the Actuator at any stage of the learning epoch). The runtime
    /// checks this after every committed sample.
    fn request_default(&self) -> bool {
        false
    }

    /// Optional learning-plane hook: a snapshot of the model's learned
    /// parameters for fleet-wide exchange. Models that return `None` (the
    /// default) do not participate in learning rounds.
    fn export_learned(&self) -> Option<LearnedState> {
        None
    }

    /// Optional learning-plane hook: overwrites the model's learned
    /// parameters with a (blended) fleet aggregate. Implementations must
    /// validate kind and shape and leave the model unchanged on error; they
    /// must not touch RNG streams or counters, so local decision sequences
    /// stay deterministic modulo the imported values.
    ///
    /// # Errors
    ///
    /// Returns the [`ExchangeError`] of the underlying learner when `state`
    /// is incompatible; the default implementation accepts nothing
    /// ([`ExchangeError::Unsupported`]).
    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        let _ = state;
        Err(ExchangeError::Unsupported)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assessment_helpers() {
        assert!(ModelAssessment::Healthy.is_healthy());
        assert!(!ModelAssessment::Failing.is_healthy());
    }
}
