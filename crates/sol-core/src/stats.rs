//! Operational statistics kept by the SOL runtime for each agent.
//!
//! These counters give site reliability engineers visibility into how an agent
//! behaved — how often its safeguards fired, how often it fell back to default
//! predictions, how often it acted without any prediction — without requiring
//! any knowledge of the agent's implementation.

use crate::time::SimDuration;

/// Counters describing the Model control loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ModelLoopStats {
    /// Samples returned by `collect_data` that passed validation and were
    /// committed.
    pub samples_committed: u64,
    /// Samples that failed `validate_data` and were discarded.
    pub samples_discarded: u64,
    /// `collect_data` calls that returned an error.
    pub collect_errors: u64,
    /// Learning epochs that gathered enough valid data to update the model.
    pub epochs_completed: u64,
    /// Learning epochs that timed out (or were explicitly short-circuited)
    /// before gathering enough valid data.
    pub epochs_short_circuited: u64,
    /// Predictions produced by the model and forwarded to the Actuator.
    pub model_predictions: u64,
    /// Default predictions forwarded to the Actuator (short-circuited epochs,
    /// `predict` returning `None`, or interception by the model safeguard).
    pub default_predictions: u64,
    /// Model predictions intercepted because the model safeguard was failing.
    pub intercepted_predictions: u64,
    /// Number of model safeguard evaluations performed.
    pub model_assessments: u64,
    /// Number of model safeguard evaluations that reported `Failing`.
    pub model_assessment_failures: u64,
}

/// Counters describing the Actuator control loop.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActuatorLoopStats {
    /// Actions taken with a fresh model-produced prediction.
    pub actions_with_model_prediction: u64,
    /// Actions taken with a fresh default prediction.
    pub actions_with_default_prediction: u64,
    /// Actions taken with no prediction available (timeout path).
    pub actions_without_prediction: u64,
    /// Predictions that arrived but had already expired when the Actuator ran.
    pub expired_predictions: u64,
    /// Predictions superseded by a newer one before the Actuator consumed
    /// them.
    pub superseded_predictions: u64,
    /// Predictions dropped because the Actuator was halted by its safeguard.
    pub predictions_dropped_while_halted: u64,
    /// Times the Actuator acted because its maximum actuation delay elapsed.
    pub actuation_timeouts: u64,
    /// Actuator safeguard evaluations performed.
    pub performance_assessments: u64,
    /// Times the Actuator safeguard tripped (transitions into the halted
    /// state).
    pub safeguard_triggers: u64,
    /// Calls to `mitigate`.
    pub mitigations: u64,
    /// Calls to `clean_up`.
    pub cleanups: u64,
    /// Total virtual time spent with the Actuator halted by its
    /// safeguard.
    pub halted_time: SimDuration,
}

impl ModelLoopStats {
    /// Adds another loop's counters onto this one, field by field (used by
    /// fleet-level aggregation). The exhaustive destructuring (no `..`)
    /// makes adding a field without accumulating it a compile error.
    pub fn accumulate(&mut self, other: &ModelLoopStats) {
        let ModelLoopStats {
            samples_committed,
            samples_discarded,
            collect_errors,
            epochs_completed,
            epochs_short_circuited,
            model_predictions,
            default_predictions,
            intercepted_predictions,
            model_assessments,
            model_assessment_failures,
        } = other;
        self.samples_committed += samples_committed;
        self.samples_discarded += samples_discarded;
        self.collect_errors += collect_errors;
        self.epochs_completed += epochs_completed;
        self.epochs_short_circuited += epochs_short_circuited;
        self.model_predictions += model_predictions;
        self.default_predictions += default_predictions;
        self.intercepted_predictions += intercepted_predictions;
        self.model_assessments += model_assessments;
        self.model_assessment_failures += model_assessment_failures;
    }
}

impl ActuatorLoopStats {
    /// Adds another loop's counters onto this one, field by field (used by
    /// fleet-level aggregation). The exhaustive destructuring (no `..`)
    /// makes adding a field without accumulating it a compile error.
    pub fn accumulate(&mut self, other: &ActuatorLoopStats) {
        let ActuatorLoopStats {
            actions_with_model_prediction,
            actions_with_default_prediction,
            actions_without_prediction,
            expired_predictions,
            superseded_predictions,
            predictions_dropped_while_halted,
            actuation_timeouts,
            performance_assessments,
            safeguard_triggers,
            mitigations,
            cleanups,
            halted_time,
        } = other;
        self.actions_with_model_prediction += actions_with_model_prediction;
        self.actions_with_default_prediction += actions_with_default_prediction;
        self.actions_without_prediction += actions_without_prediction;
        self.expired_predictions += expired_predictions;
        self.superseded_predictions += superseded_predictions;
        self.predictions_dropped_while_halted += predictions_dropped_while_halted;
        self.actuation_timeouts += actuation_timeouts;
        self.performance_assessments += performance_assessments;
        self.safeguard_triggers += safeguard_triggers;
        self.mitigations += mitigations;
        self.cleanups += cleanups;
        self.halted_time += *halted_time;
    }
}

/// Combined statistics for one agent run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentStats {
    /// Model-loop counters.
    pub model: ModelLoopStats,
    /// Actuator-loop counters.
    pub actuator: ActuatorLoopStats,
}

impl AgentStats {
    /// Adds another agent's counters onto this one, field by field (used by
    /// fleet-level aggregation). The exhaustive destructuring (no `..`)
    /// makes adding a field without accumulating it a compile error.
    pub fn accumulate(&mut self, other: &AgentStats) {
        let AgentStats { model, actuator } = other;
        self.model.accumulate(model);
        self.actuator.accumulate(actuator);
    }

    /// Total actions taken by the Actuator.
    pub fn actions_taken(&self) -> u64 {
        self.actuator.actions_with_model_prediction
            + self.actuator.actions_with_default_prediction
            + self.actuator.actions_without_prediction
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_totals() {
        let mut s = AgentStats::default();
        s.actuator.actions_with_model_prediction = 6;
        s.actuator.actions_with_default_prediction = 2;
        s.actuator.actions_without_prediction = 2;
        assert_eq!(s.actions_taken(), 10);
    }
}
