//! Error types for the SOL framework.

use std::error::Error as StdError;
use std::fmt;

/// An error produced while collecting a telemetry sample.
///
/// Returned by [`Model::collect_data`](crate::model::Model::collect_data) when
/// the underlying counter, driver, or hypervisor interface fails. The runtime
/// counts these as discarded samples; they never reach the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// The telemetry source was unavailable (e.g. driver returned an error
    /// code, as for the SmartMemory access-bit scanner in paper §5.3).
    SourceUnavailable(String),
    /// A reading was produced but is structurally unusable (e.g. wrong shape,
    /// missing counters).
    Malformed(String),
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::SourceUnavailable(s) => write!(f, "telemetry source unavailable: {s}"),
            DataError::Malformed(s) => write!(f, "malformed telemetry sample: {s}"),
        }
    }
}

impl StdError for DataError {}

/// Errors surfaced by the SOL runtime itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The schedule passed to the runtime is internally inconsistent.
    InvalidSchedule(String),
    /// A runtime configuration value (e.g. the maximum environment step) is
    /// out of range.
    InvalidConfig(String),
    /// The agent was asked to run for a zero-length horizon.
    EmptyHorizon,
    /// A worker thread of the fleet runtime panicked.
    WorkerPanicked,
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::InvalidSchedule(s) => write!(f, "invalid schedule: {s}"),
            RuntimeError::InvalidConfig(s) => write!(f, "invalid runtime configuration: {s}"),
            RuntimeError::EmptyHorizon => write!(f, "agent horizon must be non-empty"),
            RuntimeError::WorkerPanicked => write!(f, "a fleet worker thread panicked"),
        }
    }
}

impl StdError for RuntimeError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_display_lowercase_messages() {
        let e = DataError::SourceUnavailable("perf counter".into());
        assert_eq!(e.to_string(), "telemetry source unavailable: perf counter");
        let e = RuntimeError::InvalidSchedule("data_per_epoch is zero".into());
        assert!(e.to_string().starts_with("invalid schedule"));
        let e = RuntimeError::InvalidConfig("environment step is zero".into());
        assert_eq!(e.to_string(), "invalid runtime configuration: environment step is zero");
        assert_eq!(RuntimeError::WorkerPanicked.to_string(), "a fleet worker thread panicked");
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DataError>();
        assert_send_sync::<RuntimeError>();
    }
}
