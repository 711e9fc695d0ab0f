//! Property-based tests of the SOL framework invariants.

use proptest::prelude::*;

use sol_core::actuator::{Actuator, ActuatorAssessment};
use sol_core::error::DataError;
use sol_core::loops::{ActuatorLoop, ModelLoop};
use sol_core::model::{Model, ModelAssessment};
use sol_core::prediction::{Prediction, PredictionSource};
use sol_core::runtime::node::NodeRuntime;
use sol_core::runtime::NullEnvironment;
use sol_core::schedule::Schedule;
use sol_core::time::{SimDuration, Timestamp};

/// A configurable model used to explore the framework's state space.
struct PropModel {
    values: Vec<f64>,
    cursor: usize,
    healthy: bool,
    validity: SimDuration,
}

impl Model for PropModel {
    type Data = f64;
    type Pred = f64;

    fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
        let v = self.values[self.cursor % self.values.len()];
        self.cursor += 1;
        Ok(v)
    }
    fn validate_data(&self, d: &f64) -> bool {
        (0.0..=100.0).contains(d)
    }
    fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
    fn update_model(&mut self, _now: Timestamp) {}
    fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
        Some(Prediction::model(1.0, now, now + self.validity))
    }
    fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
        Prediction::fallback(0.0, now, now + self.validity)
    }
    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        if self.healthy {
            ModelAssessment::Healthy
        } else {
            ModelAssessment::Failing
        }
    }
}

#[derive(Default)]
struct PropActuator {
    acted_on_model: u64,
    acted_on_default: u64,
    acted_without: u64,
    acceptable: bool,
}

impl Actuator for PropActuator {
    type Pred = f64;
    fn take_action(&mut self, now: Timestamp, pred: Option<&Prediction<f64>>) {
        match pred {
            Some(p) => {
                assert!(!p.is_expired(now), "actuator must never act on an expired prediction");
                match p.source() {
                    PredictionSource::Model => self.acted_on_model += 1,
                    PredictionSource::Default => self.acted_on_default += 1,
                }
            }
            None => self.acted_without += 1,
        }
    }
    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::from_acceptable(self.acceptable)
    }
    fn mitigate(&mut self, _now: Timestamp) {}
    fn clean_up(&mut self, _now: Timestamp) {}
}

/// Logs every action's time and the expiry of the prediction it acted on.
#[derive(Default)]
struct LogActuator {
    actions: Vec<(Timestamp, Option<Timestamp>)>,
    cleaned_up: bool,
}

impl Actuator for LogActuator {
    type Pred = f64;
    fn take_action(&mut self, now: Timestamp, pred: Option<&Prediction<f64>>) {
        self.actions.push((now, pred.map(Prediction::expires_at)));
    }
    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }
    fn mitigate(&mut self, _now: Timestamp) {}
    fn clean_up(&mut self, _now: Timestamp) {
        self.cleaned_up = true;
    }
}

fn schedule(data_per_epoch: u32, collect_ms: u64) -> Schedule {
    Schedule::builder()
        .data_per_epoch(data_per_epoch)
        .data_collect_interval(SimDuration::from_millis(collect_ms))
        .max_epoch_time(SimDuration::from_millis(collect_ms * u64::from(data_per_epoch) * 4))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_millis(collect_ms * 8))
        .assess_actuator_interval(SimDuration::from_millis(collect_ms * 2))
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sample accounting is conserved: every collection is committed,
    /// discarded, or an error.
    #[test]
    fn model_loop_conserves_samples(
        values in prop::collection::vec(-50.0f64..150.0, 1..20),
        data_per_epoch in 1u32..8,
        steps in 1usize..200,
    ) {
        let model = PropModel { values, cursor: 0, healthy: true, validity: SimDuration::from_secs(1) };
        let mut loop_ = ModelLoop::new(model, schedule(data_per_epoch, 10), Timestamp::ZERO);
        for _ in 0..steps {
            let t = loop_.next_wake();
            let _ = loop_.step(t);
        }
        let stats = loop_.stats();
        prop_assert_eq!(
            stats.samples_committed + stats.samples_discarded + stats.collect_errors,
            steps as u64
        );
        // Every forwarded prediction is either from the model or a default.
        prop_assert!(stats.model_predictions + stats.default_predictions
            >= stats.epochs_completed.min(1));
    }

    /// While the model assessment is failing, no model-sourced prediction is
    /// ever emitted.
    #[test]
    fn failing_assessment_never_leaks_model_predictions(
        data_per_epoch in 1u32..6,
        steps in 10usize..150,
    ) {
        let model = PropModel {
            values: vec![1.0],
            cursor: 0,
            healthy: false,
            validity: SimDuration::from_secs(1),
        };
        let mut loop_ = ModelLoop::new(model, schedule(data_per_epoch, 5), Timestamp::ZERO);
        for _ in 0..steps {
            let t = loop_.next_wake();
            if let Some(p) = loop_.step(t) {
                prop_assert_eq!(p.source(), PredictionSource::Default);
            }
        }
        prop_assert_eq!(loop_.stats().model_predictions, 0);
    }

    /// The actuator never acts on expired predictions, regardless of delivery
    /// timing, and its action count matches its stats.
    #[test]
    fn actuator_never_uses_expired_predictions(
        deliveries in prop::collection::vec((0u64..2_000, 1u64..500), 1..40),
        step_gap_ms in 1u64..300,
    ) {
        let mut loop_ = ActuatorLoop::new(
            PropActuator { acceptable: true, ..Default::default() },
            schedule(4, 10),
            Timestamp::ZERO,
        );
        let mut now = Timestamp::ZERO;
        for (offset_ms, validity_ms) in deliveries {
            let produced = Timestamp::from_millis(offset_ms);
            loop_.deliver(Prediction::model(
                1.0,
                produced,
                produced + SimDuration::from_millis(validity_ms),
            ));
            now = now.max(produced) + SimDuration::from_millis(step_gap_ms);
            loop_.step(now);
        }
        let stats = loop_.stats();
        let total_actions = stats.actions_with_model_prediction
            + stats.actions_with_default_prediction
            + stats.actions_without_prediction;
        let a = loop_.actuator();
        prop_assert_eq!(total_actions, a.acted_on_model + a.acted_on_default + a.acted_without);
    }

    /// A halted actuator takes no actions until the safeguard clears.
    #[test]
    fn halted_actuator_takes_no_actions(steps in 5usize..80) {
        let mut loop_ = ActuatorLoop::new(
            PropActuator { acceptable: false, ..Default::default() },
            schedule(4, 10),
            Timestamp::ZERO,
        );
        // First step trips the safeguard.
        loop_.step(Timestamp::from_millis(20));
        prop_assert!(loop_.is_halted());
        for i in 0..steps {
            let now = Timestamp::from_millis(40 + i as u64 * 20);
            loop_.deliver(Prediction::model(1.0, now, now + SimDuration::from_secs(1)));
            loop_.step(now);
        }
        let a = loop_.actuator();
        prop_assert_eq!(a.acted_on_model + a.acted_on_default + a.acted_without, 0);
        prop_assert_eq!(loop_.stats().mitigations, 1);
    }

    /// Paper §4.2: the Model and Actuator loops are scheduled separately, so
    /// while the Model loop is delayed the Actuator keeps acting on its
    /// maximum-actuation-delay timeout, never on an expired prediction, and
    /// the Model resumes learning once the delay is over.
    #[test]
    fn actuator_keeps_acting_while_the_model_is_delayed(
        data_per_epoch in 1u32..8,
        collect_ms in 5u64..50,
        at_ms in 0u64..2_000,
        delay_permille in 3_000u64..=10_000,
        validity_ms in 1u64..1_000,
    ) {
        let schedule = schedule(data_per_epoch, collect_ms);
        let max_delay = schedule.max_actuation_delay();
        let delay = SimDuration::from_nanos(max_delay.as_nanos() * delay_permille / 1_000);
        let at = Timestamp::from_millis(at_ms);
        let model = PropModel {
            values: vec![1.0],
            cursor: 0,
            healthy: true,
            validity: SimDuration::from_millis(validity_ms),
        };
        let mut builder = NodeRuntime::builder(NullEnvironment).cleanup_on_finish(true);
        let agent = builder.agent("delayed", model, LogActuator::default(), schedule.clone());
        let mut runtime = builder.build();
        runtime.delay_model_at(agent, at, delay);
        runtime.run_until(at + delay);
        let epochs_after_delay = runtime.agent_stats(agent).model.epochs_completed;
        let report = runtime.run_for(schedule.max_epoch_time() * 2).unwrap().take(agent);

        let during = report.actuator.actions.iter().filter(|(t, _)| *t >= at && *t < at + delay);
        let floor = delay.as_nanos() / max_delay.as_nanos();
        prop_assert!(during.count() as u64 + 1 >= floor);
        for &(now, expiry) in &report.actuator.actions {
            prop_assert!(expiry.is_none_or(|e| e > now), "acted at {} on a stale prediction", now);
        }
        prop_assert!(report.stats.model.epochs_completed > epochs_after_delay);
        prop_assert_eq!(report.stats.actuator.cleanups, 1);
        prop_assert!(report.actuator.cleaned_up);
    }
}
