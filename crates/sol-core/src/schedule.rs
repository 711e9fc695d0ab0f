//! Scheduling parameters for an agent's Model and Actuator control loops.
//!
//! Mirrors the `Schedule` class in paper §4.1 (Listing 3): data points per
//! epoch, collection interval, maximum epoch time, model assessment interval,
//! maximum actuation delay, and actuator assessment interval.

use crate::error::RuntimeError;
use crate::time::SimDuration;

/// How often each developer-provided function runs.
///
/// Construct with [`Schedule::builder`]; the builder validates internal
/// consistency (e.g. the epoch must be long enough to hold the requested
/// number of collections).
///
/// # Examples
///
/// ```
/// use sol_core::schedule::Schedule;
/// use sol_core::time::SimDuration;
///
/// let schedule = Schedule::builder()
///     .data_per_epoch(10)
///     .data_collect_interval(SimDuration::from_millis(100))
///     .max_epoch_time(SimDuration::from_secs(1))
///     .assess_model_every_epochs(10)
///     .max_actuation_delay(SimDuration::from_secs(5))
///     .assess_actuator_interval(SimDuration::from_secs(1))
///     .build()?;
/// assert_eq!(schedule.data_per_epoch(), 10);
/// # Ok::<(), sol_core::error::RuntimeError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    data_per_epoch: u32,
    min_data_per_epoch: u32,
    data_collect_interval: SimDuration,
    max_epoch_time: SimDuration,
    assess_model_every_epochs: u32,
    max_actuation_delay: SimDuration,
    assess_actuator_interval: SimDuration,
}

impl Schedule {
    /// Starts building a schedule.
    pub fn builder() -> ScheduleBuilder {
        ScheduleBuilder::default()
    }

    /// Number of validated data points that complete a learning epoch.
    pub fn data_per_epoch(&self) -> u32 {
        self.data_per_epoch
    }

    /// Minimum number of validated data points required for the model to
    /// update and predict; below this the epoch short-circuits with a default
    /// prediction.
    pub fn min_data_per_epoch(&self) -> u32 {
        self.min_data_per_epoch
    }

    /// Interval between consecutive data-collection calls.
    pub fn data_collect_interval(&self) -> SimDuration {
        self.data_collect_interval
    }

    /// Maximum length of one learning epoch.
    pub fn max_epoch_time(&self) -> SimDuration {
        self.max_epoch_time
    }

    /// The model safeguard ([`Model::assess_model`](crate::model::Model::assess_model))
    /// runs every this many epochs.
    pub fn assess_model_every_epochs(&self) -> u32 {
        self.assess_model_every_epochs
    }

    /// Maximum time the Actuator waits for a prediction before acting anyway.
    pub fn max_actuation_delay(&self) -> SimDuration {
        self.max_actuation_delay
    }

    /// Interval between Actuator safeguard checks
    /// ([`Actuator::assess_performance`](crate::actuator::Actuator::assess_performance)).
    pub fn assess_actuator_interval(&self) -> SimDuration {
        self.assess_actuator_interval
    }
}

/// Builder for [`Schedule`].
#[derive(Debug, Clone)]
pub struct ScheduleBuilder {
    data_per_epoch: u32,
    min_data_per_epoch: Option<u32>,
    data_collect_interval: SimDuration,
    max_epoch_time: SimDuration,
    assess_model_every_epochs: u32,
    max_actuation_delay: SimDuration,
    assess_actuator_interval: SimDuration,
}

impl Default for ScheduleBuilder {
    fn default() -> Self {
        ScheduleBuilder {
            data_per_epoch: 1,
            min_data_per_epoch: None,
            data_collect_interval: SimDuration::from_millis(100),
            max_epoch_time: SimDuration::from_secs(1),
            assess_model_every_epochs: 1,
            max_actuation_delay: SimDuration::from_secs(5),
            assess_actuator_interval: SimDuration::from_secs(1),
        }
    }
}

impl ScheduleBuilder {
    /// Sets the number of validated samples per learning epoch.
    pub fn data_per_epoch(mut self, n: u32) -> Self {
        self.data_per_epoch = n;
        self
    }

    /// Sets the minimum number of validated samples needed to update the model
    /// (defaults to `data_per_epoch`).
    pub fn min_data_per_epoch(mut self, n: u32) -> Self {
        self.min_data_per_epoch = Some(n);
        self
    }

    /// Sets the interval between data collections.
    pub fn data_collect_interval(mut self, d: SimDuration) -> Self {
        self.data_collect_interval = d;
        self
    }

    /// Sets the maximum duration of a learning epoch.
    pub fn max_epoch_time(mut self, d: SimDuration) -> Self {
        self.max_epoch_time = d;
        self
    }

    /// Sets how many epochs elapse between model safeguard checks.
    pub fn assess_model_every_epochs(mut self, epochs: u32) -> Self {
        self.assess_model_every_epochs = epochs;
        self
    }

    /// Sets the maximum time the Actuator waits for a prediction.
    pub fn max_actuation_delay(mut self, d: SimDuration) -> Self {
        self.max_actuation_delay = d;
        self
    }

    /// Sets the interval between Actuator safeguard checks.
    pub fn assess_actuator_interval(mut self, d: SimDuration) -> Self {
        self.assess_actuator_interval = d;
        self
    }

    /// Validates the configuration and produces a [`Schedule`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidSchedule`] if any interval is zero,
    /// `data_per_epoch` is zero, `min_data_per_epoch` exceeds
    /// `data_per_epoch`, or the maximum epoch time cannot hold a single
    /// collection interval.
    pub fn build(self) -> Result<Schedule, RuntimeError> {
        if self.data_per_epoch == 0 {
            return Err(RuntimeError::InvalidSchedule("data_per_epoch must be at least 1".into()));
        }
        if self.data_collect_interval.is_zero() {
            return Err(RuntimeError::InvalidSchedule(
                "data_collect_interval must be non-zero".into(),
            ));
        }
        if self.max_epoch_time < self.data_collect_interval {
            return Err(RuntimeError::InvalidSchedule(
                "max_epoch_time must be at least one data_collect_interval".into(),
            ));
        }
        if self.assess_model_every_epochs == 0 {
            return Err(RuntimeError::InvalidSchedule(
                "assess_model_every_epochs must be at least 1".into(),
            ));
        }
        if self.max_actuation_delay.is_zero() {
            return Err(RuntimeError::InvalidSchedule(
                "max_actuation_delay must be non-zero".into(),
            ));
        }
        if self.assess_actuator_interval.is_zero() {
            return Err(RuntimeError::InvalidSchedule(
                "assess_actuator_interval must be non-zero".into(),
            ));
        }
        let min_data = self.min_data_per_epoch.unwrap_or(self.data_per_epoch);
        if min_data > self.data_per_epoch {
            return Err(RuntimeError::InvalidSchedule(
                "min_data_per_epoch must not exceed data_per_epoch".into(),
            ));
        }
        Ok(Schedule {
            data_per_epoch: self.data_per_epoch,
            min_data_per_epoch: min_data,
            data_collect_interval: self.data_collect_interval,
            max_epoch_time: self.max_epoch_time,
            assess_model_every_epochs: self.assess_model_every_epochs,
            max_actuation_delay: self.max_actuation_delay,
            assess_actuator_interval: self.assess_actuator_interval,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid() -> ScheduleBuilder {
        Schedule::builder()
            .data_per_epoch(4)
            .data_collect_interval(SimDuration::from_millis(10))
            .max_epoch_time(SimDuration::from_millis(100))
            .assess_model_every_epochs(2)
            .max_actuation_delay(SimDuration::from_millis(50))
            .assess_actuator_interval(SimDuration::from_millis(25))
    }

    #[test]
    fn builds_valid_schedule() {
        let s = valid().build().unwrap();
        assert_eq!(s.data_per_epoch(), 4);
        assert_eq!(s.min_data_per_epoch(), 4);
        assert_eq!(s.data_collect_interval(), SimDuration::from_millis(10));
    }

    #[test]
    fn min_data_defaults_to_data_per_epoch_and_can_be_lowered() {
        let s = valid().min_data_per_epoch(2).build().unwrap();
        assert_eq!(s.min_data_per_epoch(), 2);
    }

    #[test]
    fn rejects_zero_data_per_epoch() {
        assert!(matches!(valid().data_per_epoch(0).build(), Err(RuntimeError::InvalidSchedule(_))));
    }

    #[test]
    fn rejects_zero_intervals() {
        assert!(valid().data_collect_interval(SimDuration::ZERO).build().is_err());
        assert!(valid().max_actuation_delay(SimDuration::ZERO).build().is_err());
        assert!(valid().assess_actuator_interval(SimDuration::ZERO).build().is_err());
        assert!(valid().assess_model_every_epochs(0).build().is_err());
    }

    #[test]
    fn rejects_epoch_shorter_than_collection_interval() {
        assert!(valid()
            .max_epoch_time(SimDuration::from_millis(5))
            .data_collect_interval(SimDuration::from_millis(10))
            .build()
            .is_err());
    }

    #[test]
    fn rejects_min_data_above_data_per_epoch() {
        assert!(valid().min_data_per_epoch(9).build().is_err());
    }
}
