//! Predictions flowing from the Model control loop to the Actuator control
//! loop.
//!
//! The output of a successful learning epoch is a [`Prediction`] carrying the
//! predicted value and an explicit expiration time (paper §4.1). Expired
//! predictions are treated as absent by the Actuator so stale model output can
//! never drive an action.

use crate::time::Timestamp;

/// Where a prediction came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictionSource {
    /// Produced by the agent's learned model.
    Model,
    /// Produced by the developer-supplied safe fallback
    /// ([`Model::default_predict`](crate::model::Model::default_predict)),
    /// either because the epoch short-circuited or because the model safeguard
    /// intercepted the model's output.
    Default,
}

/// A prediction with an explicit expiration time.
///
/// # Examples
///
/// ```
/// use sol_core::prediction::{Prediction, PredictionSource};
/// use sol_core::time::{SimDuration, Timestamp};
///
/// let now = Timestamp::from_secs(10);
/// let p = Prediction::model(3usize, now, now + SimDuration::from_secs(1));
/// assert!(!p.is_expired(now));
/// assert!(p.is_expired(now + SimDuration::from_secs(2)));
/// assert_eq!(p.source(), PredictionSource::Model);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction<P> {
    value: P,
    produced_at: Timestamp,
    expires_at: Timestamp,
    source: PredictionSource,
}

impl<P> Prediction<P> {
    /// Creates a model-produced prediction.
    ///
    /// # Panics
    ///
    /// Panics if `expires_at` is earlier than `produced_at`.
    pub fn model(value: P, produced_at: Timestamp, expires_at: Timestamp) -> Self {
        Self::new(value, produced_at, expires_at, PredictionSource::Model)
    }

    /// Creates a default (fallback) prediction. Even default predictions have
    /// an expiration time: they are still reliant on fresh telemetry and can
    /// become stale (paper §4.1).
    ///
    /// # Panics
    ///
    /// Panics if `expires_at` is earlier than `produced_at`.
    pub fn fallback(value: P, produced_at: Timestamp, expires_at: Timestamp) -> Self {
        Self::new(value, produced_at, expires_at, PredictionSource::Default)
    }

    fn new(
        value: P,
        produced_at: Timestamp,
        expires_at: Timestamp,
        source: PredictionSource,
    ) -> Self {
        assert!(
            expires_at >= produced_at,
            "prediction expiration must not precede production time"
        );
        Prediction { value, produced_at, expires_at, source }
    }

    /// The predicted value.
    pub fn value(&self) -> &P {
        &self.value
    }

    /// When the prediction was produced.
    pub fn produced_at(&self) -> Timestamp {
        self.produced_at
    }

    /// When the prediction stops being valid.
    pub fn expires_at(&self) -> Timestamp {
        self.expires_at
    }

    /// The provenance of this prediction.
    pub fn source(&self) -> PredictionSource {
        self.source
    }

    /// Returns `true` if the prediction is no longer valid at `now`.
    pub fn is_expired(&self, now: Timestamp) -> bool {
        now > self.expires_at
    }

    /// Re-labels the prediction as a default prediction, preserving value and
    /// timing. Used by the runtime when the model safeguard intercepts model
    /// output but the developer asked for the same value to be forwarded.
    pub fn into_fallback(mut self) -> Self {
        self.source = PredictionSource::Default;
        self
    }

    /// Maps the predicted value, preserving timing and provenance.
    pub fn map<Q>(self, f: impl FnOnce(P) -> Q) -> Prediction<Q> {
        Prediction {
            value: f(self.value),
            produced_at: self.produced_at,
            expires_at: self.expires_at,
            source: self.source,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn expiration_is_inclusive_of_deadline() {
        let now = Timestamp::from_secs(1);
        let p = Prediction::model(1u32, now, now + SimDuration::from_secs(1));
        assert!(!p.is_expired(now + SimDuration::from_secs(1)));
        assert!(p.is_expired(now + SimDuration::from_nanos(1_000_000_001)));
    }

    #[test]
    #[should_panic(expected = "expiration")]
    fn rejects_expiry_before_production() {
        let _ = Prediction::model(1u32, Timestamp::from_secs(2), Timestamp::from_secs(1));
    }

    #[test]
    fn fallback_conversion_keeps_value_and_times() {
        let now = Timestamp::from_secs(3);
        let p = Prediction::model(7i64, now, now + SimDuration::from_secs(5));
        let f = p.clone().into_fallback();
        assert_eq!(f.value(), p.value());
        assert_eq!(f.expires_at(), p.expires_at());
        assert_eq!(f.source(), PredictionSource::Default);
    }

    #[test]
    fn map_preserves_metadata() {
        let now = Timestamp::from_secs(3);
        let p = Prediction::fallback(2u32, now, now + SimDuration::from_secs(1));
        let q = p.map(|v| v as f64 * 1.5);
        assert_eq!(*q.value(), 3.0);
        assert_eq!(q.source(), PredictionSource::Default);
        assert_eq!(q.produced_at(), now);
    }
}
