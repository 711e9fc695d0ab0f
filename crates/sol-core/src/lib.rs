//! # sol-core — the SOL framework
//!
//! A Rust reproduction of the framework described in *SOL: Safe On-Node
//! Learning in Cloud Platforms* (ASPLOS 2022). SOL helps developers build
//! on-node machine-learning agents that are safe to deploy alongside customer
//! workloads: agents that detect and mitigate bad input data, inaccurate
//! models, scheduling delays, and end-to-end misbehaviour without human
//! intervention.
//!
//! ## Structure
//!
//! An agent has two halves connected by a prediction queue:
//!
//! * a [`Model`](model::Model) that collects telemetry, validates it, learns
//!   from it, and produces [`Prediction`](prediction::Prediction)s with
//!   explicit expiration times; and
//! * an [`Actuator`](actuator::Actuator) that takes control actions at regular
//!   intervals using fresh predictions when available and safe defaults when
//!   not, backed by a watchdog-style performance safeguard and an idempotent
//!   clean-up routine.
//!
//! The [`runtime`] module provides two drivers for these loops: a
//! deterministic event-queue runtime
//! ([`NodeRuntime`](runtime::node::NodeRuntime)) hosting one agent or several
//! co-located ones on a shared environment, and a threaded runtime
//! ([`runtime::threaded`]) matching the paper's deployment shape (two
//! separately scheduled control loops).
//!
//! ## Quick start
//!
//! ```
//! use sol_core::prelude::*;
//!
//! // A toy agent: the model predicts a constant, the actuator records it.
//! struct ConstModel;
//! impl Model for ConstModel {
//!     type Data = f64;
//!     type Pred = f64;
//!     fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> { Ok(1.0) }
//!     fn validate_data(&self, d: &f64) -> bool { d.is_finite() }
//!     fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
//!     fn update_model(&mut self, _now: Timestamp) {}
//!     fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
//!         Some(Prediction::model(2.0, now, now + SimDuration::from_secs(1)))
//!     }
//!     fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
//!         Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
//!     }
//!     fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment { ModelAssessment::Healthy }
//! }
//!
//! #[derive(Default)]
//! struct Recorder { last: f64 }
//! impl Actuator for Recorder {
//!     type Pred = f64;
//!     fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<f64>>) {
//!         self.last = pred.map(|p| *p.value()).unwrap_or(0.0);
//!     }
//!     fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
//!         ActuatorAssessment::Acceptable
//!     }
//!     fn mitigate(&mut self, _now: Timestamp) {}
//!     fn clean_up(&mut self, _now: Timestamp) { self.last = 0.0; }
//! }
//!
//! let schedule = Schedule::builder()
//!     .data_per_epoch(2)
//!     .data_collect_interval(SimDuration::from_millis(100))
//!     .max_epoch_time(SimDuration::from_secs(1))
//!     .build()?;
//! let mut builder = NodeRuntime::builder(NullEnvironment);
//! let agent = builder.agent("const", ConstModel, Recorder::default(), schedule);
//! let report = builder.build().run_for(SimDuration::from_secs(5))?;
//! assert!(report.agent(agent).stats().model.model_predictions > 0);
//! assert_eq!(report.agent(agent).actuator().last, 2.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod actuator;
pub mod error;
pub mod loops;
pub mod model;
pub mod prediction;
pub mod runtime;
pub mod schedule;
pub mod stats;
pub mod taxonomy;
pub mod time;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::actuator::{Actuator, ActuatorAssessment};
    pub use crate::error::{DataError, RuntimeError};
    pub use crate::model::{Model, ModelAssessment};
    pub use crate::prediction::{Prediction, PredictionSource};
    pub use crate::runtime::builder::{
        AgentBlueprint, AgentHandle, AgentView, ScenarioBuilder, ScenarioRecipe, TakenAgent,
    };
    pub use crate::runtime::fleet::{
        FleetAgentReport, FleetConfig, FleetNodeReport, FleetReport, FleetRuntime, MetricSummary,
        NodeSeed, Percentiles, PlacementStats, RoleAggregate,
    };
    pub use crate::runtime::learning::{LearningPlane, LearningStats};
    pub use crate::runtime::lifecycle::{
        FaultEvent, FaultPlan, FaultPlanConfig, LifecycleError, LifecycleEvent, NodeRecord,
        NodeRegistry, NodeState,
    };
    pub use crate::runtime::node::{AgentId, AgentReport, NodeReport, NodeRuntime};
    pub use crate::runtime::placement::{
        AgentTelemetry, ArrivalTrace, ArrivalTraceConfig, FleetCommand, FleetController, FleetView,
        GreedyPacker, GreedyPackerConfig, NodeDelta, NodeInit, NodePlacement, NodeView,
        NullController, PlacementError, PlacementPlan, TraceEvent, TraceEventKind, WorkloadId,
        WorkloadUnit,
    };
    pub use crate::runtime::profile::{FleetProfile, PhaseProfile, WorkerProfile};
    pub use crate::runtime::threaded::{leaked_threads, run_agent, ThreadedAgent, ThreadedReport};
    pub use crate::runtime::trust::{
        NodeTrustRecord, TrustAction, TrustPolicy, TrustStats, TrustVerdict,
    };
    pub use crate::runtime::{Environment, NullEnvironment};
    pub use crate::schedule::Schedule;
    pub use crate::stats::AgentStats;
    pub use crate::time::{SimDuration, SystemClock, Timestamp};
}
