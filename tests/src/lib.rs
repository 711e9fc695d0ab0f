//! Cross-crate integration and property tests for the SOL reproduction.
//!
//! The tests live in `tests/tests/`; this library holds the fixtures several
//! of them share: a toy agent and the two-agent fleet recipe built from it,
//! the placeable co-location preset, a churny arrival trace, and the exact
//! byte rendering reports are compared by.

#![forbid(unsafe_code)]

use sol_agents::colocation::{colocated_recipe, ColocatedRecipe, ColocationConfig};
use sol_core::error::DataError;
use sol_core::prelude::*;

/// Renders a value's full Debug output as bytes for exact comparison.
pub fn debug_bytes<T: std::fmt::Debug>(value: &T) -> Vec<u8> {
    format!("{value:#?}").into_bytes()
}

/// A deterministic toy model parameterized by its sampled value.
pub struct ToyModel {
    /// What every sample and every prediction is.
    pub value: f64,
}

impl Model for ToyModel {
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

/// A toy actuator that counts its actions.
#[derive(Default)]
pub struct ToyActuator {
    /// Actions taken so far.
    pub actions: u64,
}

impl Actuator for ToyActuator {
    type Pred = f64;
    fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {
        self.actions += 1;
    }
    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }
    fn mitigate(&mut self, _now: Timestamp) {}
    fn clean_up(&mut self, _now: Timestamp) {}
}

/// Two samples per epoch every `collect_ms`, with every deadline a few
/// epochs long.
pub fn toy_schedule(collect_ms: u64) -> Schedule {
    Schedule::builder()
        .data_per_epoch(2)
        .data_collect_interval(SimDuration::from_millis(collect_ms))
        .max_epoch_time(SimDuration::from_millis(collect_ms * 8))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_millis(collect_ms * 8))
        .assess_actuator_interval(SimDuration::from_millis(collect_ms * 2))
        .build()
        .unwrap()
}

/// A two-agent toy recipe whose per-node cadence is seed-derived, so fleets
/// are heterogeneous and crash truncation is visible in the stats.
pub fn toy_recipe() -> ScenarioRecipe<NullEnvironment> {
    ScenarioRecipe::new(|seed: &NodeSeed| {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let collect_ms = 40 + seed.stream(0) % 120;
        builder.agent("alpha", ToyModel { value: 1.0 }, ToyActuator::default(), {
            toy_schedule(collect_ms)
        });
        builder.agent("beta", ToyModel { value: 2.0 }, ToyActuator::default(), {
            toy_schedule(collect_ms * 2)
        });
        builder.build()
    })
    .with_metrics(|report| vec![("ended_secs".into(), report.ended_at.as_secs_f64())])
}

/// A placeable two-agent co-location recipe (6 of 8 cores placeable).
pub fn placeable_preset() -> ColocatedRecipe {
    colocated_recipe(ColocationConfig { placeable_cores: 6.0, ..ColocationConfig::default() })
}

/// A churny arrival trace sized for short test horizons.
pub fn test_trace(arrivals: usize, horizon: SimDuration) -> ArrivalTrace {
    ArrivalTrace::generate(
        0xC0FFEE,
        &ArrivalTraceConfig {
            workloads: arrivals,
            span: horizon,
            min_cores: 0.5,
            max_cores: 2.5,
            min_lifetime: SimDuration::from_secs(3),
            max_lifetime: SimDuration::from_secs(8),
        },
    )
}
