//! `ScenarioBuilder`: a typed, composable node-assembly API.
//!
//! [`NodeRuntime`] hosts heterogeneous agent populations with their
//! `Model`/`Actuator` types erased; this module is the one way to put an
//! agent on it. A [`ScenarioBuilder`] registers each agent and hands back an
//! [`AgentHandle`] carrying the agent's concrete `Model` and `Actuator`
//! types, so post-run inspection needs no `Any` downcasting at call sites:
//!
//! * [`ScenarioBuilder::agent`] registers a `Model`/`Actuator` pair and
//!   returns a typed [`AgentHandle<M, A>`].
//! * [`ScenarioBuilder::register`] consumes a pre-packaged
//!   [`AgentBlueprint`] (what the `sol-agents` crate exports for each paper
//!   agent).
//! * [`ScenarioBuilder::build`] yields the assembled `NodeRuntime`, whose
//!   population is then fixed; the handles index into it and into the final
//!   [`NodeReport`]:
//!   [`NodeReport::agent`](crate::runtime::node::NodeReport::agent) returns a
//!   typed [`AgentView`] and
//!   [`NodeReport::take`](crate::runtime::node::NodeReport::take) recovers the
//!   concrete halves by value.
//!
//! Code that loops over heterogeneous agents reads the untyped
//! [`NodeReport::agents`](crate::runtime::node::NodeReport::agents) list:
//! every entry's id, name and stats.
//!
//! # Examples
//!
//! ```
//! use sol_core::prelude::*;
//! # use sol_core::error::DataError;
//! # struct M;
//! # impl Model for M {
//! #     type Data = f64;
//! #     type Pred = f64;
//! #     fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> { Ok(1.0) }
//! #     fn validate_data(&self, d: &f64) -> bool { d.is_finite() }
//! #     fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
//! #     fn update_model(&mut self, _now: Timestamp) {}
//! #     fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
//! #         Some(Prediction::model(2.0, now, now + SimDuration::from_secs(1)))
//! #     }
//! #     fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
//! #         Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
//! #     }
//! #     fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment { ModelAssessment::Healthy }
//! # }
//! # #[derive(Default)]
//! # struct A { count: u64 }
//! # impl Actuator for A {
//! #     type Pred = f64;
//! #     fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {
//! #         self.count += 1;
//! #     }
//! #     fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
//! #         ActuatorAssessment::Acceptable
//! #     }
//! #     fn mitigate(&mut self, _now: Timestamp) {}
//! #     fn clean_up(&mut self, _now: Timestamp) {}
//! # }
//! let schedule = Schedule::builder()
//!     .data_per_epoch(2)
//!     .data_collect_interval(SimDuration::from_millis(100))
//!     .max_epoch_time(SimDuration::from_secs(1))
//!     .build()?;
//!
//! let mut builder = NodeRuntime::builder(NullEnvironment);
//! let fast = builder.agent("fast", M, A::default(), schedule.clone());
//! let slow = builder.agent("slow", M, A::default(), schedule);
//! let runtime = builder.build();
//!
//! let mut report = runtime.run_for(SimDuration::from_secs(5))?;
//! // Typed access through the handles: no downcasts.
//! assert!(report.agent(fast).stats().model.epochs_completed > 0);
//! assert!(report.agent(slow).actuator().count > 0);
//! let taken = report.take(fast);
//! assert_eq!(taken.name, "fast");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::any::Any;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::actuator::Actuator;
use crate::error::RuntimeError;
use crate::model::Model;
use crate::runtime::fleet::NodeSeed;
use crate::runtime::node::{AgentId, LoopAgent, NodeReport, NodeRuntime};
use crate::runtime::Environment;
use crate::schedule::Schedule;
use crate::stats::AgentStats;
use crate::time::SimDuration;

/// A typed token for an agent registered through a [`ScenarioBuilder`]:
/// carries the agent's [`AgentId`] plus its concrete `Model`/`Actuator` types,
/// so reports can be read back without downcasting.
///
/// Handles are `Copy` and convert [`Into`] an [`AgentId`] wherever the untyped
/// runtime API (e.g.
/// [`NodeRuntime::delay_model_at`](crate::runtime::node::NodeRuntime::delay_model_at))
/// wants one.
pub struct AgentHandle<M, A> {
    id: AgentId,
    _types: PhantomData<fn() -> (M, A)>,
}

impl<M, A> AgentHandle<M, A> {
    fn new(id: AgentId) -> Self {
        AgentHandle { id, _types: PhantomData }
    }

    /// The untyped id of this agent (the escape hatch into the `AgentId` API).
    pub fn id(self) -> AgentId {
        self.id
    }
}

impl<M, A> Clone for AgentHandle<M, A> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M, A> Copy for AgentHandle<M, A> {}

impl<M, A> std::fmt::Debug for AgentHandle<M, A> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AgentHandle({})", self.id)
    }
}

impl<M, A> From<AgentHandle<M, A>> for AgentId {
    fn from(handle: AgentHandle<M, A>) -> AgentId {
        handle.id
    }
}

/// Everything needed to register one agent: a name, the `Model`/`Actuator`
/// halves, and the control-loop schedule.
///
/// Blueprints let agent crates package their wiring once (e.g.
/// `overclock_blueprint(&node, config)` in `sol-agents`) so every scenario —
/// solo runs, two-agent co-location, N-agent fleets — assembles the same
/// agent the same way via [`ScenarioBuilder::register`].
pub struct AgentBlueprint<M: Model, A: Actuator<Pred = M::Pred>> {
    /// Name the agent is registered under (shows up in reports).
    pub name: String,
    /// The agent's Model half.
    pub model: M,
    /// The agent's Actuator half.
    pub actuator: A,
    /// The schedule driving both control loops.
    pub schedule: Schedule,
}

impl<M: Model, A: Actuator<Pred = M::Pred>> AgentBlueprint<M, A> {
    /// Packages the parts of one agent.
    pub fn new(name: impl Into<String>, model: M, actuator: A, schedule: Schedule) -> Self {
        AgentBlueprint { name: name.into(), model, actuator, schedule }
    }
}

/// Assembles a [`NodeRuntime`] hosting an arbitrary agent population on one
/// shared environment. See the [module docs](self) for the full API tour.
///
/// Created with [`NodeRuntime::builder`].
pub struct ScenarioBuilder<E: Environment + 'static> {
    runtime: NodeRuntime<E>,
}

impl<E: Environment + 'static> ScenarioBuilder<E> {
    pub(crate) fn new(runtime: NodeRuntime<E>) -> Self {
        ScenarioBuilder { runtime }
    }

    /// Overrides the maximum environment step (defaults to the smallest
    /// registered data collection interval, clamped to `[1ms, 1s]`). The
    /// explicit value sticks regardless of registration order.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `step` is zero.
    pub fn max_environment_step(mut self, step: SimDuration) -> Result<Self, RuntimeError> {
        self.runtime = self.runtime.max_environment_step(step)?;
        Ok(self)
    }

    /// Requests that every agent's clean-up routine run when the simulation
    /// horizon is reached.
    pub fn cleanup_on_finish(mut self, enable: bool) -> Self {
        self.runtime = self.runtime.cleanup_on_finish(enable);
        self
    }

    /// Registers a `Model`/`Actuator` pair under `name`, driven by `schedule`,
    /// and returns a typed handle to it.
    pub fn agent<M, A>(
        &mut self,
        name: impl Into<String>,
        model: M,
        actuator: A,
        schedule: Schedule,
    ) -> AgentHandle<M, A>
    where
        M: Model + Send + 'static,
        A: Actuator<Pred = M::Pred> + Send + 'static,
    {
        AgentHandle::new(self.runtime.register_agent(name, model, actuator, schedule))
    }

    /// Registers a pre-packaged [`AgentBlueprint`] and returns its typed
    /// handle. Equivalent to calling [`agent`](Self::agent) with the
    /// blueprint's parts.
    pub fn register<M, A>(&mut self, blueprint: AgentBlueprint<M, A>) -> AgentHandle<M, A>
    where
        M: Model + Send + 'static,
        A: Actuator<Pred = M::Pred> + Send + 'static,
    {
        self.agent(blueprint.name, blueprint.model, blueprint.actuator, blueprint.schedule)
    }

    /// Number of agents registered so far.
    pub fn agent_count(&self) -> usize {
        self.runtime.agent_count()
    }

    /// Attaches a placeable workload unit to the environment being assembled
    /// (initial placement). Recipes declare *which* slots are placeable by
    /// configuring the environment's placeable capacity; this hook and the
    /// equivalent one on [`NodeRuntime`] fill those slots.
    ///
    /// # Errors
    ///
    /// Propagates the environment's
    /// [`PlacementError`](crate::runtime::placement::PlacementError).
    pub fn attach_workload(
        &mut self,
        unit: crate::runtime::placement::WorkloadUnit,
    ) -> Result<(), crate::runtime::placement::PlacementError> {
        self.runtime.attach_workload(unit)
    }

    /// The environment's current placeable state.
    pub fn placement(&self) -> crate::runtime::placement::NodePlacement {
        self.runtime.placement()
    }

    /// Read access to the environment being assembled.
    pub fn environment(&self) -> &E {
        self.runtime.environment()
    }

    /// Finishes assembly and returns the runtime, ready to
    /// [`run_for`](NodeRuntime::run_for) (or to schedule interventions on
    /// first — the handles convert into [`AgentId`]s).
    pub fn build(self) -> NodeRuntime<E> {
        self.runtime
    }
}

/// A replayable node-assembly closure: everything needed to stamp out any
/// number of identical-by-construction (but per-node seeded) nodes.
///
/// A recipe wraps a `Fn(&NodeSeed) -> NodeRuntime<E>` — typically a closure
/// that derives substrate and learner seeds from the [`NodeSeed`], assembles a
/// [`ScenarioBuilder`], and builds it. The
/// [`FleetRuntime`](crate::runtime::fleet::FleetRuntime) instantiates the
/// recipe once per simulated server, on whichever worker thread hosts that
/// node, so the closure must be `Send + Sync` and deterministic in the seed:
/// two instantiations with the same [`NodeSeed`] must produce byte-identical
/// nodes regardless of thread.
///
/// Because every node replays the same registration sequence, the
/// [`AgentHandle`]s returned while assembling *any* instantiation are valid
/// for *every* instantiation — that is what lets fleet-level aggregates be
/// keyed by handle. The presets in `sol-agents::colocation` package exactly
/// this: a recipe plus the handle set shared by all nodes.
///
/// An optional metrics closure (see [`with_metrics`](Self::with_metrics))
/// extracts named environment-level readings (SLO attainment, p99 latency,
/// violation counts) from each finished node before its report is discarded,
/// feeding the fleet's safety dashboards.
pub struct ScenarioRecipe<E: Environment + 'static> {
    build: Arc<BuildFn<E>>,
    metrics: Arc<MetricsFn<E>>,
    telemetry: Arc<TelemetryFn<E>>,
}

/// The node-assembly closure a [`ScenarioRecipe`] replays per node.
type BuildFn<E> = dyn Fn(&NodeSeed) -> NodeRuntime<E> + Send + Sync;
/// A recipe's environment-metric extractor.
type MetricsFn<E> = dyn Fn(&NodeReport<E>) -> Vec<(String, f64)> + Send + Sync;
/// A recipe's mid-run telemetry extractor (read at every epoch barrier).
type TelemetryFn<E> = dyn Fn(&E) -> Vec<(String, f64)> + Send + Sync;

impl<E: Environment + 'static> Clone for ScenarioRecipe<E> {
    fn clone(&self) -> Self {
        ScenarioRecipe {
            build: Arc::clone(&self.build),
            metrics: Arc::clone(&self.metrics),
            telemetry: Arc::clone(&self.telemetry),
        }
    }
}

impl<E: Environment + 'static> std::fmt::Debug for ScenarioRecipe<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScenarioRecipe").finish_non_exhaustive()
    }
}

impl<E: Environment + 'static> ScenarioRecipe<E> {
    /// Wraps a node-assembly closure. The closure must be deterministic in
    /// the seed (see the type docs).
    pub fn new(build: impl Fn(&NodeSeed) -> NodeRuntime<E> + Send + Sync + 'static) -> Self {
        ScenarioRecipe {
            build: Arc::new(build),
            metrics: Arc::new(|_| Vec::new()),
            telemetry: Arc::new(|_| Vec::new()),
        }
    }

    /// Attaches a metrics extractor run against every finished node's
    /// [`NodeReport`]. The returned `(name, value)` pairs are aggregated
    /// across the fleet into
    /// [`MetricSummary`](crate::runtime::fleet::MetricSummary) rows; every
    /// node must report the same metric names.
    pub fn with_metrics(
        mut self,
        metrics: impl Fn(&NodeReport<E>) -> Vec<(String, f64)> + Send + Sync + 'static,
    ) -> Self {
        self.metrics = Arc::new(metrics);
        self
    }

    /// Attaches a telemetry extractor read against every node's *live*
    /// environment at each epoch barrier. The returned `(name, value)` pairs
    /// feed the [`NodeView`](crate::runtime::placement::NodeView)s a
    /// [`FleetController`](crate::runtime::placement::FleetController) plans
    /// from — unlike [`with_metrics`](Self::with_metrics), which only runs
    /// once the node has finished. The extractor must be read-only in effect:
    /// it runs at every barrier, so any mutation would change results.
    pub fn with_telemetry(
        mut self,
        telemetry: impl Fn(&E) -> Vec<(String, f64)> + Send + Sync + 'static,
    ) -> Self {
        self.telemetry = Arc::new(telemetry);
        self
    }

    /// Stamps out one node for `seed`.
    pub fn instantiate(&self, seed: &NodeSeed) -> NodeRuntime<E> {
        (self.build)(seed)
    }

    /// Runs the metrics extractor against a finished node.
    pub fn extract_metrics(&self, report: &NodeReport<E>) -> Vec<(String, f64)> {
        (self.metrics)(report)
    }

    /// Runs the telemetry extractor against a live environment.
    pub fn extract_telemetry(&self, environment: &E) -> Vec<(String, f64)> {
        (self.telemetry)(environment)
    }
}

/// A typed, borrowed view of one agent in a
/// [`NodeReport`], obtained through
/// [`NodeReport::agent`] with an [`AgentHandle`].
pub struct AgentView<'a, M: Model, A: Actuator<Pred = M::Pred>> {
    name: &'a str,
    stats: &'a AgentStats,
    agent: &'a LoopAgent<M, A>,
}

impl<'a, M: Model, A: Actuator<Pred = M::Pred>> AgentView<'a, M, A> {
    /// The name the agent was registered under.
    pub fn name(&self) -> &'a str {
        self.name
    }

    /// Final runtime counters.
    pub fn stats(&self) -> &'a AgentStats {
        self.stats
    }

    /// The agent's concrete model.
    pub fn model(&self) -> &'a M {
        self.agent.model()
    }

    /// The agent's concrete actuator.
    pub fn actuator(&self) -> &'a A {
        self.agent.actuator()
    }
}

/// One agent recovered by value from a report via [`NodeReport::take`].
pub struct TakenAgent<M, A> {
    /// The name the agent was registered under.
    pub name: String,
    /// The agent's concrete model.
    pub model: M,
    /// The agent's concrete actuator.
    pub actuator: A,
    /// Final runtime counters.
    pub stats: AgentStats,
}

impl<E: Environment + 'static> NodeReport<E> {
    /// Typed view of one agent through its [`AgentHandle`] — model, actuator,
    /// and stats with no downcasting at the call site.
    ///
    /// # Panics
    ///
    /// Panics if the handle came from a different runtime or the agent was
    /// already taken.
    pub fn agent<M, A>(&self, handle: AgentHandle<M, A>) -> AgentView<'_, M, A>
    where
        M: Model + 'static,
        A: Actuator<Pred = M::Pred> + 'static,
    {
        let report = self.agent_report(handle.id);
        let driver: &dyn Any = &*report.driver;
        let agent = driver.downcast_ref().unwrap_or_else(|| wrong_type(handle.id));
        AgentView { name: &report.name, stats: &report.stats, agent }
    }

    /// Removes one agent from the report and returns its concrete halves by
    /// value.
    ///
    /// # Panics
    ///
    /// As [`agent`](Self::agent).
    pub fn take<M, A>(&mut self, handle: AgentHandle<M, A>) -> TakenAgent<M, A>
    where
        M: Model + 'static,
        A: Actuator<Pred = M::Pred> + 'static,
    {
        let report = self.take_agent(handle.id);
        let driver: Box<dyn Any> = report.driver;
        let agent = driver.downcast::<LoopAgent<M, A>>().unwrap_or_else(|_| wrong_type(handle.id));
        let (model, actuator, stats) = agent.into_parts();
        TakenAgent { name: report.name, model, actuator, stats }
    }
}

/// A handle used against a report from a different runtime whose agent at
/// that position has another type.
fn wrong_type(id: AgentId) -> ! {
    panic!("{id} is not of the type the handle was created with")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::node::NodeRuntime;
    use crate::runtime::testutil::{schedule, ConstModel, CountActuator, StepEnv};
    use crate::runtime::NullEnvironment;
    use crate::time::Timestamp;

    #[test]
    fn builder_assembles_typed_agents() {
        let mut builder = NodeRuntime::builder(StepEnv::default());
        let fast = builder.agent(
            "fast",
            ConstModel { value: 1.0 },
            CountActuator::default(),
            schedule(100),
        );
        let slow = builder.agent(
            "slow",
            ConstModel { value: 2.0 },
            CountActuator::default(),
            schedule(200),
        );
        let report = builder.build().run_for(SimDuration::from_secs(10)).unwrap();
        assert_eq!(report.agent(fast).stats().model.epochs_completed, 20);
        assert_eq!(report.agent(slow).stats().model.epochs_completed, 10);
        assert_eq!(report.agent(fast).name(), "fast");
        // Typed model/actuator access without downcasts.
        assert_eq!(report.agent(fast).model().value, 1.0);
        assert!(report.agent(slow).actuator().actions > 0);
    }

    #[test]
    fn single_agent_runs_exact_epochs_and_delivers_predictions() {
        let mut builder = NodeRuntime::builder(StepEnv::default());
        let agent =
            builder.agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
        let mut report = builder.build().run_for(SimDuration::from_secs(10)).unwrap();
        assert_eq!(report.ended_at, Timestamp::from_secs(10));
        assert_eq!(report.environment.last, Timestamp::from_secs(10));
        let taken = report.take(agent);
        // 10 s / (5 samples * 100 ms) = 20 epochs.
        assert_eq!(taken.stats.model.epochs_completed, 20);
        assert_eq!(taken.stats.model.model_predictions, 20);
        assert!(taken.actuator.with_pred >= 19);
    }

    #[test]
    fn accessors_work_before_a_run() {
        let mut builder = NodeRuntime::builder(StepEnv::default());
        let agent =
            builder.agent("a", ConstModel { value: 3.0 }, CountActuator::default(), schedule(100));
        assert_eq!(builder.environment().advances, 0);
        let rt = builder.build();
        assert_eq!(rt.agent_count(), 1);
        assert_eq!(rt.now(), Timestamp::ZERO);
        assert_eq!(rt.agent_stats(agent), AgentStats::default());
        assert_eq!(rt.environment().advances, 0);
    }

    #[test]
    fn builder_matches_manual_registration_byte_for_byte() {
        let manual = {
            let mut rt = NodeRuntime::new(StepEnv::default());
            let a = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
            let b = rt.register_agent("b", ConstModel { value: 2.0 }, CountActuator::default(), {
                schedule(70)
            });
            let report = rt.run_for(SimDuration::from_secs(7)).unwrap();
            (
                format!("{:#?}", report.agent_report(a).stats),
                format!("{:#?}", report.agent_report(b).stats),
                report.environment.advances,
                report.ended_at,
            )
        };
        let built = {
            let mut builder = NodeRuntime::builder(StepEnv::default());
            let a = builder.agent(
                "a",
                ConstModel { value: 1.0 },
                CountActuator::default(),
                schedule(100),
            );
            let b = builder.agent(
                "b",
                ConstModel { value: 2.0 },
                CountActuator::default(),
                schedule(70),
            );
            let report = builder.build().run_for(SimDuration::from_secs(7)).unwrap();
            (
                format!("{:#?}", report.agent(a).stats()),
                format!("{:#?}", report.agent(b).stats()),
                report.environment.advances,
                report.ended_at,
            )
        };
        assert_eq!(manual, built);
    }

    #[test]
    fn handles_target_interventions() {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let delayed =
            builder.agent("delayed", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        let healthy =
            builder.agent("healthy", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        let mut runtime = builder.build();
        // The handle converts into an AgentId for the untyped API.
        runtime.delay_model_at(delayed, Timestamp::from_secs(2), SimDuration::from_secs(5));
        let report = runtime.run_for(SimDuration::from_secs(10)).unwrap();
        assert!(
            report.agent(delayed).stats().model.epochs_completed
                < report.agent(healthy).stats().model.epochs_completed
        );
    }

    #[test]
    fn take_recovers_concrete_halves() {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let agent =
            builder.agent("a", ConstModel { value: 4.0 }, CountActuator::default(), schedule(100));
        let mut report = builder.build().run_for(SimDuration::from_secs(2)).unwrap();
        let taken = report.take(agent);
        assert_eq!(taken.name, "a");
        assert_eq!(taken.model.value, 4.0);
        assert!(taken.actuator.actions > 0);
        assert!(taken.stats.model.epochs_completed > 0);
        // The agent left the report with its halves.
        assert!(report.agents.is_empty());
    }

    #[test]
    #[should_panic(expected = "agent#0 not in report (foreign id or already taken)")]
    fn agent_after_take_panics() {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let agent =
            builder.agent("a", ConstModel { value: 4.0 }, CountActuator::default(), schedule(100));
        let mut report = builder.build().run_for(SimDuration::from_secs(2)).unwrap();
        report.take(agent);
        report.agent(agent);
    }

    #[test]
    #[should_panic(expected = "agent#0 is not of the type the handle was created with")]
    fn take_with_a_foreign_type_panics() {
        // Two runtimes with different agent types at position 0: using the
        // first runtime's handle on the second report is a type error.
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let typed =
            builder.agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
        drop(builder);

        struct OtherActuator;
        impl crate::actuator::Actuator for OtherActuator {
            type Pred = f64;
            fn take_action(
                &mut self,
                _now: Timestamp,
                _pred: Option<&crate::prediction::Prediction<f64>>,
            ) {
            }
            fn assess_performance(
                &mut self,
                _now: Timestamp,
            ) -> crate::actuator::ActuatorAssessment {
                crate::actuator::ActuatorAssessment::Acceptable
            }
            fn mitigate(&mut self, _now: Timestamp) {}
            fn clean_up(&mut self, _now: Timestamp) {}
        }

        let mut other = NodeRuntime::builder(NullEnvironment);
        other.agent("b", ConstModel { value: 1.0 }, OtherActuator, schedule(100));
        let mut report = other.build().run_for(SimDuration::from_secs(1)).unwrap();
        report.take(typed);
    }

    #[test]
    fn blueprints_register_like_inline_agents() {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let handle = builder.register(AgentBlueprint::new(
            "packaged",
            ConstModel { value: 3.0 },
            CountActuator::default(),
            schedule(100),
        ));
        let report = builder.build().run_for(SimDuration::from_secs(2)).unwrap();
        assert_eq!(report.agent(handle).name(), "packaged");
        assert_eq!(report.agent(handle).model().value, 3.0);
    }

    #[test]
    fn builder_config_methods_reach_the_runtime() {
        let builder = NodeRuntime::builder(NullEnvironment);
        assert!(builder.max_environment_step(SimDuration::ZERO).is_err());

        let mut builder = NodeRuntime::builder(NullEnvironment)
            .max_environment_step(SimDuration::from_millis(500))
            .unwrap()
            .cleanup_on_finish(true);
        let a =
            builder.agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
        assert_eq!(builder.agent_count(), 1);
        let report = builder.build().run_for(SimDuration::from_secs(2)).unwrap();
        assert_eq!(report.agent(a).stats().actuator.cleanups, 1);
    }
}
