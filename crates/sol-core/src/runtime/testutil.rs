//! Shared test fixtures for the runtime drivers: a counting environment and
//! a trivial agent, used by the `node` and `builder` test suites — plus
//! [`ReferenceQueue`], the pre-wheel event queue kept alive as the oracle for
//! the scheduler-equivalence proptest.

use crate::actuator::{Actuator, ActuatorAssessment};
use crate::error::DataError;
use crate::model::{Model, ModelAssessment};
use crate::prediction::Prediction;
use crate::runtime::Environment;
use crate::schedule::Schedule;
use crate::time::{SimDuration, Timestamp};

/// The event queue [`NodeRuntime`](crate::runtime::node::NodeRuntime) used
/// before the time wheel: a binary heap over `(at, global_seq)`. It is the
/// reference model for the wheel's pop order — the equivalence proptest in
/// [`wheel`](crate::runtime::wheel) drives arbitrary
/// schedule/invalidate/peek/drain sequences through both and asserts
/// identical observable behaviour. (Invalidation dates from when agent wakes
/// were queued events; the runtime's interventions are never invalidated.)
pub(crate) struct ReferenceQueue<K> {
    heap: std::collections::BinaryHeap<ReferenceEntry<K>>,
    seq: u64,
}

struct ReferenceEntry<K> {
    at: u64,
    seq: u64,
    kind: K,
}

impl<K> PartialEq for ReferenceEntry<K> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<K> Eq for ReferenceEntry<K> {}

impl<K> PartialOrd for ReferenceEntry<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<K> Ord for ReferenceEntry<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: `BinaryHeap` is a max-heap, pops want earliest-first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<K> ReferenceQueue<K> {
    pub(crate) fn new() -> Self {
        ReferenceQueue { heap: std::collections::BinaryHeap::new(), seq: 0 }
    }

    pub(crate) fn schedule(&mut self, at: Timestamp, kind: K) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(ReferenceEntry { at: at.as_nanos(), seq, kind });
    }

    /// Earliest pending event time, lazily discarding invalidated heads —
    /// the old runtime's peek semantics.
    pub(crate) fn peek(&mut self, valid: impl Fn(&K) -> bool) -> Option<Timestamp> {
        while let Some(e) = self.heap.peek() {
            if valid(&e.kind) {
                return Some(Timestamp::from_nanos(e.at));
            }
            self.heap.pop();
        }
        None
    }

    /// Pops every event due at or before `next` into `out`, in `(at, seq)`
    /// order, invalidated events included — the old runtime's pop loop.
    pub(crate) fn drain_due(&mut self, next: Timestamp, out: &mut Vec<K>) {
        while self.heap.peek().is_some_and(|e| e.at <= next.as_nanos()) {
            out.push(self.heap.pop().expect("peeked").kind);
        }
    }
}

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
}

impl Actuator for CountActuator {
    type Pred = f64;
    fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<f64>>) {
        self.actions += 1;
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
