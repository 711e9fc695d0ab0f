//! Shared test fixtures for the runtime drivers: a counting environment and
//! a trivial agent, used by the `node` and `builder` test suites.

use crate::actuator::{Actuator, ActuatorAssessment};
use crate::error::DataError;
use crate::model::{Model, ModelAssessment};
use crate::prediction::Prediction;
use crate::runtime::Environment;
use crate::schedule::Schedule;
use crate::time::{SimDuration, Timestamp};

/// A counter environment recording how far it was advanced.
#[derive(Debug, Default)]
pub(crate) struct StepEnv {
    pub(crate) last: Timestamp,
    pub(crate) advances: u64,
    pub(crate) fault: bool,
}

impl Environment for StepEnv {
    fn advance_to(&mut self, now: Timestamp) {
        assert!(now >= self.last, "environment time went backwards");
        self.last = now;
        self.advances += 1;
    }
}

/// A model that always collects and predicts the same value.
pub(crate) struct ConstModel {
    pub(crate) value: f64,
}

impl Model for ConstModel {
    type Data = f64;
    type Pred = f64;
    fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
        Ok(self.value)
    }
    fn validate_data(&self, d: &f64) -> bool {
        d.is_finite()
    }
    fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
    fn update_model(&mut self, _now: Timestamp) {}
    fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
        Some(Prediction::model(self.value, now, now + SimDuration::from_secs(1)))
    }
    fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
        Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
    }
    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        ModelAssessment::Healthy
    }
}

/// An actuator counting its calls.
#[derive(Default)]
pub(crate) struct CountActuator {
    pub(crate) actions: u64,
    pub(crate) with_pred: u64,
    pub(crate) cleaned: bool,
    /// When each action was taken.
    pub(crate) acted_at: Vec<Timestamp>,
}

impl Actuator for CountActuator {
    type Pred = f64;
    fn take_action(&mut self, now: Timestamp, pred: Option<&Prediction<f64>>) {
        self.actions += 1;
        self.acted_at.push(now);
        if pred.is_some() {
            self.with_pred += 1;
        }
    }
    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }
    fn mitigate(&mut self, _now: Timestamp) {}
    fn clean_up(&mut self, _now: Timestamp) {
        self.cleaned = true;
    }
}

/// A 5-samples-per-epoch schedule collecting every `collect_ms`, with the
/// epoch timeout comfortably above 5 samples' worth so epochs never time
/// out, a 2 s actuation deadline, and a 1 s safeguard interval.
pub(crate) fn schedule(collect_ms: u64) -> Schedule {
    Schedule::builder()
        .data_per_epoch(5)
        .data_collect_interval(SimDuration::from_millis(collect_ms))
        .max_epoch_time(SimDuration::from_millis(collect_ms * 20))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_secs(2))
        .assess_actuator_interval(SimDuration::from_secs(1))
        .build()
        .unwrap()
}
