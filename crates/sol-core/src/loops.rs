//! The Model and Actuator control-loop state machines.
//!
//! These implement the runtime semantics of paper §4.2 as state machines the
//! node runtime steps in virtual time, scheduling the two loops separately so
//! a delayed Model never stalls its Actuator.

use std::collections::VecDeque;

use crate::actuator::Actuator;
use crate::model::{Model, ModelAssessment};
use crate::prediction::{Prediction, PredictionSource};
use crate::schedule::Schedule;
use crate::stats::{ActuatorLoopStats, ModelLoopStats};
use crate::time::Timestamp;

/// Drives a [`Model`] through learning epochs, producing predictions.
///
/// The loop collects data every `data_collect_interval`; each sample is
/// validated and, if valid, committed. Once `data_per_epoch` valid samples are
/// gathered the model is updated and asked to predict. If the epoch's maximum
/// time elapses first, the epoch is short-circuited with a default prediction.
/// Every `assess_model_every_epochs` completed epochs the model safeguard
/// runs; while it is failing, model predictions are intercepted and replaced
/// by default predictions.
#[derive(Debug)]
pub struct ModelLoop<M: Model> {
    model: M,
    schedule: Schedule,
    stats: ModelLoopStats,
    epoch_start: Timestamp,
    collected: u32,
    epochs_since_assessment: u32,
    assessment_failing: bool,
    next_collect: Timestamp,
    /// The loop does not run again until this time (scheduling-delay /
    /// throttling injection).
    delayed_until: Option<Timestamp>,
}

impl<M: Model> ModelLoop<M> {
    /// Creates a loop that begins its first epoch at `start`.
    pub fn new(model: M, schedule: Schedule, start: Timestamp) -> Self {
        ModelLoop {
            model,
            schedule,
            stats: ModelLoopStats::default(),
            epoch_start: start,
            collected: 0,
            epochs_since_assessment: 0,
            assessment_failing: false,
            next_collect: start,
            delayed_until: None,
        }
    }

    /// The next time this loop needs to run.
    pub fn next_wake(&self) -> Timestamp {
        match self.delayed_until {
            Some(t) if t > self.next_collect => t,
            _ => self.next_collect,
        }
    }

    /// Injects a scheduling delay: the loop will not run before `until`.
    /// Models the agent being throttled or starved by higher-priority work.
    pub fn delay_until(&mut self, until: Timestamp) {
        self.delayed_until = Some(match self.delayed_until {
            Some(cur) if cur > until => cur,
            _ => until,
        });
    }

    /// Whether the model safeguard is currently failing (predictions are being
    /// intercepted).
    pub fn assessment_failing(&self) -> bool {
        self.assessment_failing
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ModelLoopStats {
        &self.stats
    }

    /// Read access to the wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the wrapped model (used by tests and fault
    /// injection).
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the loop, returning the model and its stats.
    pub fn into_parts(self) -> (M, ModelLoopStats) {
        (self.model, self.stats)
    }

    /// Runs one step of the loop at time `now`. Returns a prediction to be
    /// forwarded to the Actuator if the step completed (or short-circuited) an
    /// epoch.
    ///
    /// Callers must only invoke this at or after [`next_wake`](Self::next_wake).
    pub fn step(&mut self, now: Timestamp) -> Option<Prediction<M::Pred>> {
        if let Some(until) = self.delayed_until {
            if now < until {
                return None;
            }
            self.delayed_until = None;
        }

        // Collect one sample.
        match self.model.collect_data(now) {
            Ok(sample) => {
                if self.model.validate_data(&sample) {
                    self.model.commit_data(now, sample);
                    self.collected += 1;
                    self.stats.samples_committed += 1;
                } else {
                    self.stats.samples_discarded += 1;
                }
            }
            Err(_) => {
                self.stats.collect_errors += 1;
            }
        }
        self.next_collect = now + self.schedule.data_collect_interval();

        // Explicit developer short-circuit.
        if self.model.request_default() {
            return Some(self.finish_epoch_short_circuit(now));
        }

        let epoch_elapsed =
            now.duration_since(self.epoch_start) + self.schedule.data_collect_interval();
        let epoch_timed_out = epoch_elapsed >= self.schedule.max_epoch_time();
        let enough_data = self.collected >= self.schedule.data_per_epoch();

        if enough_data || (epoch_timed_out && self.collected >= self.schedule.min_data_per_epoch())
        {
            Some(self.finish_epoch_complete(now))
        } else if epoch_timed_out {
            Some(self.finish_epoch_short_circuit(now))
        } else {
            None
        }
    }

    fn finish_epoch_complete(&mut self, now: Timestamp) -> Prediction<M::Pred> {
        self.stats.epochs_completed += 1;
        self.model.update_model(now);
        self.run_assessment_if_due(now);

        let pred = self.model.predict(now);
        self.reset_epoch(now);
        match pred {
            Some(p) if p.source() == PredictionSource::Model => {
                if self.assessment_failing {
                    // Model safeguard: intercept and forward the default.
                    self.stats.intercepted_predictions += 1;
                    self.stats.default_predictions += 1;
                    self.model.default_predict(now)
                } else {
                    self.stats.model_predictions += 1;
                    p
                }
            }
            Some(p) => {
                // The model itself chose to emit a default prediction.
                self.stats.default_predictions += 1;
                p
            }
            None => {
                self.stats.default_predictions += 1;
                self.model.default_predict(now)
            }
        }
    }

    fn finish_epoch_short_circuit(&mut self, now: Timestamp) -> Prediction<M::Pred> {
        self.stats.epochs_short_circuited += 1;
        self.stats.default_predictions += 1;
        self.reset_epoch(now);
        self.model.default_predict(now)
    }

    fn run_assessment_if_due(&mut self, now: Timestamp) {
        self.epochs_since_assessment += 1;
        if self.epochs_since_assessment >= self.schedule.assess_model_every_epochs() {
            self.epochs_since_assessment = 0;
            self.stats.model_assessments += 1;
            match self.model.assess_model(now) {
                ModelAssessment::Healthy => self.assessment_failing = false,
                ModelAssessment::Failing => {
                    self.stats.model_assessment_failures += 1;
                    self.assessment_failing = true;
                }
            }
        }
    }

    fn reset_epoch(&mut self, now: Timestamp) {
        self.collected = 0;
        self.epoch_start = now;
    }
}

/// Drives an [`Actuator`], consuming predictions and enforcing its safeguard.
#[derive(Debug)]
pub struct ActuatorLoop<A: Actuator> {
    actuator: A,
    schedule: Schedule,
    stats: ActuatorLoopStats,
    pending: VecDeque<Prediction<A::Pred>>,
    last_action: Timestamp,
    next_assessment: Timestamp,
    halted_since: Option<Timestamp>,
    cleaned_up: bool,
}

impl<A: Actuator> ActuatorLoop<A> {
    /// Creates a loop whose first deadline starts counting at `start`.
    pub fn new(actuator: A, schedule: Schedule, start: Timestamp) -> Self {
        let next_assessment = start + schedule.assess_actuator_interval();
        ActuatorLoop {
            actuator,
            schedule,
            stats: ActuatorLoopStats::default(),
            pending: VecDeque::new(),
            last_action: start,
            next_assessment,
            halted_since: None,
            cleaned_up: false,
        }
    }

    /// The next time this loop needs to run: when a prediction is pending,
    /// when the maximum actuation delay expires, or when the safeguard is next
    /// due — whichever comes first.
    pub fn next_wake(&self) -> Timestamp {
        let deadline = self.last_action + self.schedule.max_actuation_delay();
        let mut wake = deadline.min(self.next_assessment);
        if !self.pending.is_empty() {
            // Run as soon as possible to consume the prediction.
            wake = Timestamp::ZERO;
        }
        wake
    }

    /// Delivers a prediction from the Model loop.
    pub fn deliver(&mut self, prediction: Prediction<A::Pred>) {
        self.pending.push_back(prediction);
    }

    /// Whether the Actuator is currently halted by its safeguard.
    pub fn is_halted(&self) -> bool {
        self.halted_since.is_some()
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &ActuatorLoopStats {
        &self.stats
    }

    /// Read access to the wrapped actuator.
    pub fn actuator(&self) -> &A {
        &self.actuator
    }

    /// Consumes the loop, returning the actuator and its stats.
    pub fn into_parts(self) -> (A, ActuatorLoopStats) {
        (self.actuator, self.stats)
    }

    /// Runs one step of the loop at time `now`.
    pub fn step(&mut self, now: Timestamp) {
        self.run_safeguard_if_due(now);

        if self.halted_since.is_some() {
            // Paper §4.2: the Actuator loop is halted until the unsafe
            // behaviour is no longer detected. Predictions arriving in the
            // meantime are dropped so the agent never acts on stale output
            // when it resumes.
            let dropped = self.pending.len() as u64;
            self.stats.predictions_dropped_while_halted += dropped;
            self.pending.clear();
            self.last_action = now;
            return;
        }

        if !self.pending.is_empty() {
            // Keep only the most recent prediction; older ones are superseded.
            while self.pending.len() > 1 {
                self.pending.pop_front();
                self.stats.superseded_predictions += 1;
            }
            let pred = self.pending.pop_front().expect("non-empty queue");
            if pred.is_expired(now) {
                self.stats.expired_predictions += 1;
                self.stats.actions_without_prediction += 1;
                self.actuator.take_action(now, None);
            } else {
                match pred.source() {
                    PredictionSource::Model => self.stats.actions_with_model_prediction += 1,
                    PredictionSource::Default => self.stats.actions_with_default_prediction += 1,
                }
                self.actuator.take_action(now, Some(&pred));
            }
            self.last_action = now;
            return;
        }

        // Timeout path: uphold the upper bound on the time between control
        // actions even when no prediction is available.
        if now.duration_since(self.last_action) >= self.schedule.max_actuation_delay() {
            self.stats.actuation_timeouts += 1;
            self.stats.actions_without_prediction += 1;
            self.actuator.take_action(now, None);
            self.last_action = now;
        }
    }

    /// Invokes the idempotent `CleanUp` routine.
    pub fn clean_up(&mut self, now: Timestamp) {
        self.stats.cleanups += 1;
        self.cleaned_up = true;
        self.actuator.clean_up(now);
    }

    /// Whether `clean_up` has been invoked.
    pub fn cleaned_up(&self) -> bool {
        self.cleaned_up
    }

    fn run_safeguard_if_due(&mut self, now: Timestamp) {
        while now >= self.next_assessment {
            self.next_assessment += self.schedule.assess_actuator_interval();
            self.stats.performance_assessments += 1;
            let acceptable = self.actuator.assess_performance(now).is_acceptable();
            match (acceptable, self.halted_since) {
                (false, None) => {
                    self.stats.safeguard_triggers += 1;
                    self.stats.mitigations += 1;
                    self.actuator.mitigate(now);
                    self.halted_since = Some(now);
                }
                (true, Some(since)) => {
                    self.stats.halted_time += now.duration_since(since);
                    self.halted_since = None;
                }
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::actuator::ActuatorAssessment;
    use crate::error::DataError;
    use crate::time::SimDuration;

    /// A scripted model used to exercise every loop path.
    struct ScriptModel {
        readings: Vec<Result<f64, DataError>>,
        cursor: usize,
        committed: Vec<f64>,
        updates: u32,
        healthy: bool,
        emit_prediction: bool,
    }

    impl ScriptModel {
        fn new(readings: Vec<Result<f64, DataError>>) -> Self {
            ScriptModel {
                readings,
                cursor: 0,
                committed: Vec::new(),
                updates: 0,
                healthy: true,
                emit_prediction: true,
            }
        }
    }

    impl Model for ScriptModel {
        type Data = f64;
        type Pred = f64;

        fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
            let r = self.readings[self.cursor % self.readings.len()].clone();
            self.cursor += 1;
            r
        }
        fn validate_data(&self, d: &f64) -> bool {
            *d >= 0.0
        }
        fn commit_data(&mut self, _now: Timestamp, d: f64) {
            self.committed.push(d);
        }
        fn update_model(&mut self, _now: Timestamp) {
            self.updates += 1;
        }
        fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
            if self.emit_prediction {
                Some(Prediction::model(1.0, now, now + SimDuration::from_secs(1)))
            } else {
                None
            }
        }
        fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
            Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
        }
        fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
            if self.healthy {
                ModelAssessment::Healthy
            } else {
                ModelAssessment::Failing
            }
        }
    }

    fn schedule() -> Schedule {
        Schedule::builder()
            .data_per_epoch(2)
            .data_collect_interval(SimDuration::from_millis(10))
            .max_epoch_time(SimDuration::from_millis(100))
            .assess_model_every_epochs(1)
            .max_actuation_delay(SimDuration::from_millis(50))
            .assess_actuator_interval(SimDuration::from_millis(20))
            .build()
            .unwrap()
    }

    /// Steps the loop at each of its own wake times until it emits a
    /// prediction (or gives up).
    fn run_epoch(loop_: &mut ModelLoop<ScriptModel>) -> Option<Prediction<f64>> {
        for _ in 0..64 {
            let t = loop_.next_wake();
            if let Some(p) = loop_.step(t) {
                return Some(p);
            }
        }
        None
    }

    #[test]
    fn completes_epoch_and_emits_model_prediction() {
        let model = ScriptModel::new(vec![Ok(1.0), Ok(2.0)]);
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        let p = run_epoch(&mut ml).expect("prediction");
        assert_eq!(p.source(), PredictionSource::Model);
        assert_eq!(ml.stats().epochs_completed, 1);
        assert_eq!(ml.stats().samples_committed, 2);
        assert_eq!(ml.stats().model_predictions, 1);
    }

    #[test]
    fn invalid_samples_are_discarded_and_epoch_eventually_short_circuits() {
        let model = ScriptModel::new(vec![Ok(-1.0)]);
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        let p = run_epoch(&mut ml).expect("default prediction");
        assert_eq!(p.source(), PredictionSource::Default);
        assert_eq!(ml.stats().epochs_short_circuited, 1);
        assert!(ml.stats().samples_discarded >= 1);
        assert_eq!(ml.stats().samples_committed, 0);
        assert_eq!(ml.model().updates, 0, "model must not learn from bad data");
    }

    #[test]
    fn collect_errors_are_counted_separately() {
        let model =
            ScriptModel::new(vec![Err(DataError::SourceUnavailable("counter".into())), Ok(1.0)]);
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        let _ = run_epoch(&mut ml);
        assert!(ml.stats().collect_errors >= 1);
    }

    #[test]
    fn failing_assessment_intercepts_model_predictions() {
        let mut model = ScriptModel::new(vec![Ok(1.0)]);
        model.healthy = false;
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        let p = run_epoch(&mut ml).expect("prediction");
        assert_eq!(p.source(), PredictionSource::Default);
        assert_eq!(*p.value(), 0.0);
        assert_eq!(ml.stats().intercepted_predictions, 1);
        assert!(ml.assessment_failing());
        // The model keeps updating while intercepted, so it can recover.
        assert_eq!(ml.model().updates, 1);
    }

    #[test]
    fn model_recovers_after_assessment_passes_again() {
        let mut model = ScriptModel::new(vec![Ok(1.0)]);
        model.healthy = false;
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        let _ = run_epoch(&mut ml);
        assert!(ml.assessment_failing());
        ml.model_mut().healthy = true;
        // The long idle gap makes the next epoch time out (a short-circuit);
        // the epoch after that completes normally and passes assessment again.
        let _ = run_epoch(&mut ml);
        let p = run_epoch(&mut ml).expect("prediction");
        assert_eq!(p.source(), PredictionSource::Model);
        assert!(!ml.assessment_failing());
    }

    #[test]
    fn predict_none_falls_back_to_default() {
        let mut model = ScriptModel::new(vec![Ok(1.0)]);
        model.emit_prediction = false;
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        let p = run_epoch(&mut ml).expect("prediction");
        assert_eq!(p.source(), PredictionSource::Default);
        assert_eq!(ml.stats().default_predictions, 1);
        assert_eq!(ml.stats().intercepted_predictions, 0);
    }

    #[test]
    fn delay_postpones_next_wake() {
        let model = ScriptModel::new(vec![Ok(1.0)]);
        let mut ml = ModelLoop::new(model, schedule(), Timestamp::ZERO);
        ml.delay_until(Timestamp::from_secs(30));
        assert_eq!(ml.next_wake(), Timestamp::from_secs(30));
        // Stepping before the delay expires is a no-op.
        assert!(ml.step(Timestamp::from_secs(1)).is_none());
        assert_eq!(ml.stats().samples_committed, 0);
    }

    /// A scripted actuator recording every call.
    #[derive(Default)]
    struct RecordingActuator {
        actions: Vec<Option<f64>>,
        acceptable: bool,
        mitigations: u32,
        cleanups: u32,
    }

    impl Actuator for RecordingActuator {
        type Pred = f64;
        fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<f64>>) {
            self.actions.push(pred.map(|p| *p.value()));
        }
        fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
            ActuatorAssessment::from_acceptable(self.acceptable)
        }
        fn mitigate(&mut self, _now: Timestamp) {
            self.mitigations += 1;
        }
        fn clean_up(&mut self, _now: Timestamp) {
            self.cleanups += 1;
        }
    }

    #[test]
    fn actuator_consumes_latest_prediction_and_supersedes_older() {
        let mut al = ActuatorLoop::new(
            RecordingActuator { acceptable: true, ..Default::default() },
            schedule(),
            Timestamp::ZERO,
        );
        let now = Timestamp::from_millis(10);
        al.deliver(Prediction::model(1.0, now, now + SimDuration::from_secs(1)));
        al.deliver(Prediction::model(2.0, now, now + SimDuration::from_secs(1)));
        al.step(Timestamp::from_millis(15));
        assert_eq!(al.stats().superseded_predictions, 1);
        assert_eq!(al.actuator().actions, vec![Some(2.0)]);
    }

    #[test]
    fn expired_prediction_is_treated_as_absent() {
        let mut al = ActuatorLoop::new(
            RecordingActuator { acceptable: true, ..Default::default() },
            schedule(),
            Timestamp::ZERO,
        );
        let produced = Timestamp::from_millis(1);
        al.deliver(Prediction::model(1.0, produced, produced + SimDuration::from_millis(1)));
        al.step(Timestamp::from_millis(30));
        assert_eq!(al.stats().expired_predictions, 1);
        assert_eq!(al.actuator().actions, vec![None]);
    }

    #[test]
    fn actuation_timeout_produces_action_without_prediction() {
        let mut al = ActuatorLoop::new(
            RecordingActuator { acceptable: true, ..Default::default() },
            schedule(),
            Timestamp::ZERO,
        );
        al.step(Timestamp::from_millis(60));
        assert_eq!(al.stats().actuation_timeouts, 1);
        assert_eq!(al.actuator().actions, vec![None]);
    }

    #[test]
    fn safeguard_halts_mitigates_and_resumes() {
        let mut al = ActuatorLoop::new(
            RecordingActuator { acceptable: false, ..Default::default() },
            schedule(),
            Timestamp::ZERO,
        );
        al.step(Timestamp::from_millis(20));
        assert!(al.is_halted());
        assert_eq!(al.stats().safeguard_triggers, 1);
        assert_eq!(al.actuator().mitigations, 1);

        // Predictions delivered while halted are dropped, not acted on.
        let now = Timestamp::from_millis(25);
        al.deliver(Prediction::model(5.0, now, now + SimDuration::from_secs(1)));
        al.step(Timestamp::from_millis(30));
        assert!(al.actuator().actions.is_empty());
        assert_eq!(al.stats().predictions_dropped_while_halted, 1);

        // Condition clears: the loop resumes and acts again.
        al.actuator.acceptable = true;
        al.step(Timestamp::from_millis(40));
        assert!(!al.is_halted());
        let now = Timestamp::from_millis(45);
        al.deliver(Prediction::model(7.0, now, now + SimDuration::from_secs(1)));
        al.step(Timestamp::from_millis(46));
        assert_eq!(al.actuator().actions, vec![Some(7.0)]);
        assert!(al.stats().halted_time > SimDuration::ZERO);
    }

    #[test]
    fn safeguard_does_not_retrigger_while_already_halted() {
        let mut al = ActuatorLoop::new(
            RecordingActuator { acceptable: false, ..Default::default() },
            schedule(),
            Timestamp::ZERO,
        );
        al.step(Timestamp::from_millis(20));
        al.step(Timestamp::from_millis(40));
        al.step(Timestamp::from_millis(60));
        assert_eq!(al.stats().safeguard_triggers, 1);
        assert_eq!(al.actuator().mitigations, 1);
    }

    #[test]
    fn cleanup_is_recorded_and_idempotent() {
        let mut al = ActuatorLoop::new(
            RecordingActuator { acceptable: true, ..Default::default() },
            schedule(),
            Timestamp::ZERO,
        );
        al.clean_up(Timestamp::from_millis(5));
        al.clean_up(Timestamp::from_millis(6));
        assert!(al.cleaned_up());
        assert_eq!(al.stats().cleanups, 2);
        assert_eq!(al.actuator().cleanups, 2);
    }
}
