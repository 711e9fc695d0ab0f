//! The multi-agent node runtime: a discrete-event scheduler hosting *N*
//! co-located agents on one shared environment.
//!
//! The paper's central claim (§4.2, §6) is that multiple learning agents —
//! CPU harvesting, overclocking, tiered memory — run safely *on the same
//! node*. [`NodeRuntime`] makes that scenario representable: it drives any
//! number of heterogeneous agents, each a `Model`/`Actuator` pair run by its
//! two safeguarded control loops, over a single shared [`Environment`] under
//! one virtual clock. Agents are registered through the
//! [`ScenarioBuilder`](crate::runtime::builder::ScenarioBuilder); a node hosts
//! nothing else.
//!
//! # Design
//!
//! The runtime is a classic discrete-event simulator whose next tick is the
//! earliest of three things, each kept in the structure that fits it:
//!
//! * **Agent wakes** — the next time an agent's Model or Actuator loop needs
//!   to run. Every agent has exactly one, so wakes are not queued events:
//!   they are keys in a dense per-agent table under an index heap (the
//!   private `wake` module). A wake that moves (a stepped loop, a delivered
//!   prediction, an injected delay) is a key rewritten in place — nothing is
//!   inserted, nothing goes stale, and a tick with one due agent costs one
//!   sift-down.
//! * **Interventions** — scheduled disturbances targeted at a specific agent
//!   ([`NodeRuntime::delay_model_at`], [`NodeRuntime::delay_actuator_at`]) or
//!   at the environment ([`NodeRuntime::mutate_environment_at`]), mirroring
//!   the failure-injection methodology of paper §6. These are the only queued
//!   events; they wait in a binary heap ([`TimeWheel`], named for what it
//!   replaced) that the tick loop touches only when one is due.
//! * **Environment-step boundaries** — the environment is advanced at least
//!   every `max_environment_step` of virtual time so workload dynamics are
//!   never skipped over entirely between sparse agent wakes.
//!
//! Each tick advances the clock and the environment once to that time,
//! applies every intervention that is due (in schedule order), then steps
//! every due agent in registration order and records its new wake. The
//! environment is only advanced when a wake, an intervention or a step
//! boundary is actually due — there is no per-tick scan over agents.
//!
//! The table caches the wake each agent reported when it was last looked at.
//! An agent whose wake is moved from outside the tick loop (through the
//! crate-private driver access, between segments) still gets a tick at the
//! cached time; it is stepped only if it is due by its own account, and the
//! table is refreshed either way.
//!
//! [`TimeWheel`]: super::wheel::TimeWheel

use std::any::Any;

use sol_ml::exchange::{ExchangeError, LearnedState};

use crate::actuator::Actuator;
use crate::error::RuntimeError;
use crate::loops::{ActuatorLoop, ModelLoop};
use crate::model::Model;
use crate::runtime::wake::WakeTable;
use crate::runtime::wheel::TimeWheel;
use crate::runtime::Environment;
use crate::schedule::Schedule;
use crate::stats::AgentStats;
use crate::time::{SimDuration, Timestamp};

/// Upper clamp applied to the default per-agent environment step.
const MAX_DEFAULT_ENV_STEP: SimDuration = SimDuration::from_secs(1);
/// Lower clamp applied to the default per-agent environment step.
const MIN_DEFAULT_ENV_STEP: SimDuration = SimDuration::from_millis(1);

/// Identifier of an agent registered with a [`NodeRuntime`].
///
/// Ids are dense indices assigned in registration order; they stay valid for
/// the lifetime of the runtime and index into the reports it produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(usize);

impl AgentId {
    /// The agent's position in registration order.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for AgentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

impl From<usize> for AgentId {
    /// Builds the id of the agent at registration position `index`. The
    /// mapping is the inverse of [`AgentId::index`]; an out-of-range position
    /// surfaces as the usual unknown-agent panic at the point of use.
    fn from(index: usize) -> Self {
        AgentId(index)
    }
}

/// An arbitrary environment mutation applied at a scheduled time.
type MutateFn<E> = Box<dyn FnMut(&mut E, Timestamp) + Send>;

/// An agent hosted by a [`NodeRuntime`], with its `Model`/`Actuator` generics
/// erased so heterogeneous agents can share one node.
///
/// [`LoopAgent`], a [`ModelLoop`]/[`ActuatorLoop`] pair, is the only
/// implementation, and the trait is crate-private: everything a node runs
/// sits behind SOL's safeguards. Environments and drivers must be `'static`
/// so a report can recover concrete agent types after a run via [`Any`], and
/// `Send` so a fleet coordinator can touch any node's runtime directly at an
/// epoch barrier (drivers are plain data — counters, learned state, RNGs —
/// so the bound costs implementations nothing).
///
/// # Contract
///
/// * [`next_wake`](Self::next_wake) returns the *raw* earliest time either
///   loop needs to run; the runtime clamps it to the current virtual time.
/// * [`step`](Self::step) is invoked whenever the runtime reaches a tick at or
///   after `next_wake()`; the driver must check which of its loops are due and
///   must eventually advance its wake time, or the simulation cannot progress.
pub(crate) trait AgentDriver<E: Environment>: Any + Send {
    /// The earliest virtual time at which this agent needs to run again.
    fn next_wake(&self) -> Timestamp;
    /// Runs the agent's due loops at virtual time `now` against the shared
    /// environment.
    fn step(&mut self, now: Timestamp, env: &mut E);
    /// Injects a Model-loop scheduling delay lasting until `until`.
    fn delay_model(&mut self, until: Timestamp);
    /// Injects an Actuator-loop scheduling delay lasting until `until`.
    fn delay_actuator(&mut self, until: Timestamp);
    /// Runtime counters accumulated so far.
    fn stats(&self) -> AgentStats;
    /// Invokes the agent's idempotent clean-up routine.
    fn clean_up(&mut self, now: Timestamp);
    /// Learning-plane hook: exports the agent's learned parameters for
    /// fleet-wide exchange, or `None` (the default) if the agent does not
    /// participate. [`LoopAgent`] forwards to
    /// [`Model::export_learned`].
    fn export_learned(&self) -> Option<LearnedState> {
        None
    }
    /// Learning-plane hook: imports a (blended) fleet aggregate into the
    /// agent's learner. The fleet coordinator only imports into agents whose
    /// export matched the aggregate, so the default
    /// ([`ExchangeError::Unsupported`]) is never reached under the protocol.
    ///
    /// # Errors
    ///
    /// Returns the learner's [`ExchangeError`] when `state` is incompatible.
    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        let _ = state;
        Err(ExchangeError::Unsupported)
    }
}

/// The one [`AgentDriver`]: a [`ModelLoop`]/[`ActuatorLoop`] pair plus the
/// Actuator-delay bookkeeping the failure-injection experiments need.
pub(crate) struct LoopAgent<M: Model, A: Actuator<Pred = M::Pred>> {
    model_loop: ModelLoop<M>,
    actuator_loop: ActuatorLoop<A>,
    /// The Actuator loop does not run before this time (scheduling-delay
    /// injection for the blocking-vs-non-blocking experiments).
    actuator_delayed_until: Option<Timestamp>,
}

impl<M, A> LoopAgent<M, A>
where
    M: Model,
    A: Actuator<Pred = M::Pred>,
{
    /// Creates the agent's control loops, both starting at `start`.
    pub fn new(model: M, actuator: A, schedule: Schedule, start: Timestamp) -> Self {
        LoopAgent {
            model_loop: ModelLoop::new(model, schedule.clone(), start),
            actuator_loop: ActuatorLoop::new(actuator, schedule, start),
            actuator_delayed_until: None,
        }
    }

    /// Read access to the model.
    pub fn model(&self) -> &M {
        self.model_loop.model()
    }

    /// Read access to the actuator.
    pub fn actuator(&self) -> &A {
        self.actuator_loop.actuator()
    }

    /// Combined runtime counters for both loops.
    pub fn stats(&self) -> AgentStats {
        AgentStats {
            model: self.model_loop.stats().clone(),
            actuator: self.actuator_loop.stats().clone(),
        }
    }

    /// Consumes the agent, returning the model, the actuator, and the final
    /// counters.
    pub fn into_parts(self) -> (M, A, AgentStats) {
        let stats = self.stats();
        let (model, _) = self.model_loop.into_parts();
        let (actuator, _) = self.actuator_loop.into_parts();
        (model, actuator, stats)
    }
}

impl<E, M, A> AgentDriver<E> for LoopAgent<M, A>
where
    E: Environment,
    M: Model + Send + 'static,
    A: Actuator<Pred = M::Pred> + Send + 'static,
{
    fn next_wake(&self) -> Timestamp {
        let model = self.model_loop.next_wake();
        let mut actuator = self.actuator_loop.next_wake();
        if let Some(t) = self.actuator_delayed_until {
            actuator = actuator.max(t);
        }
        model.min(actuator)
    }

    fn step(&mut self, now: Timestamp, _env: &mut E) {
        if self.model_loop.next_wake() <= now {
            if let Some(prediction) = self.model_loop.step(now) {
                self.actuator_loop.deliver(prediction);
            }
        }
        let actuator_delayed = self.actuator_delayed_until.map(|t| now < t).unwrap_or(false);
        if !actuator_delayed && self.actuator_loop.next_wake() <= now {
            self.actuator_loop.step(now);
        }
        if let Some(t) = self.actuator_delayed_until {
            if now >= t {
                self.actuator_delayed_until = None;
            }
        }
    }

    fn delay_model(&mut self, until: Timestamp) {
        self.model_loop.delay_until(until);
    }

    fn delay_actuator(&mut self, until: Timestamp) {
        // Like `ModelLoop::delay_until`: overlapping delays keep the later
        // end, so a short delay never cuts a longer one short.
        self.actuator_delayed_until =
            Some(self.actuator_delayed_until.map_or(until, |cur| cur.max(until)));
    }

    fn stats(&self) -> AgentStats {
        LoopAgent::stats(self)
    }

    fn clean_up(&mut self, now: Timestamp) {
        self.actuator_loop.clean_up(now);
    }

    fn export_learned(&self) -> Option<LearnedState> {
        self.model_loop.model().export_learned()
    }

    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        self.model_loop.model_mut().import_learned(state)
    }
}

/// An intervention targeted at one agent or at the shared environment.
///
/// Interventions wait in a [`TimeWheel`] — a heap that pops earliest-time
/// first with ties broken by schedule order — so same-time interventions apply
/// in the order they were scheduled.
enum Intervention<E> {
    /// Delay the agent's Model loop for `duration` starting at the trigger
    /// time (models throttling/starvation of the expensive ML component).
    DelayModel { id: AgentId, duration: SimDuration },
    /// Delay the agent's Actuator loop for `duration` starting at the trigger
    /// time.
    DelayActuator { id: AgentId, duration: SimDuration },
    /// Arbitrary change applied to the environment (e.g. toggle a fault
    /// injector, change a workload phase).
    Mutate(MutateFn<E>),
}

/// One registered agent.
struct AgentSlot<E: Environment + 'static> {
    name: String,
    driver: Box<dyn AgentDriver<E>>,
}

/// Final state of one agent after a [`NodeRuntime`] run.
pub struct AgentReport<E: Environment + 'static> {
    /// The agent's id.
    pub id: AgentId,
    /// The name the agent was registered under.
    pub name: String,
    /// Final runtime counters.
    pub stats: AgentStats,
    /// The type-erased driver, which the typed readers
    /// ([`NodeReport::agent`], [`NodeReport::take`]) downcast.
    pub(crate) driver: Box<dyn AgentDriver<E>>,
}

impl<E: Environment + 'static> std::fmt::Debug for AgentReport<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AgentReport")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

/// Results of a completed multi-agent run.
#[derive(Debug)]
pub struct NodeReport<E: Environment + 'static> {
    /// The shared environment, returned for post-run inspection (metrics
    /// usually live here).
    pub environment: E,
    /// Per-agent outcomes, in registration order.
    pub agents: Vec<AgentReport<E>>,
    /// The virtual time at which the run ended.
    pub ended_at: Timestamp,
}

impl<E: Environment + 'static> NodeReport<E> {
    /// The type-erased report for one agent. Looked up by id, not position,
    /// so it stays correct after [`take_agent`](Self::take_agent) removals.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not produced by the runtime that built this report
    /// or its report was already taken.
    pub(crate) fn agent_report(&self, id: AgentId) -> &AgentReport<E> {
        &self.agents[self.position(id)]
    }

    /// Removes and returns the type-erased report for one agent.
    ///
    /// # Panics
    ///
    /// As [`agent_report`](Self::agent_report).
    pub(crate) fn take_agent(&mut self, id: AgentId) -> AgentReport<E> {
        let pos = self.position(id);
        self.agents.remove(pos)
    }

    fn position(&self, id: AgentId) -> usize {
        self.agents
            .iter()
            .position(|a| a.id == id)
            .unwrap_or_else(|| panic!("{id} not in report (foreign id or already taken)"))
    }
}

/// Deterministic discrete-event driver for an agent population sharing one
/// environment.
///
/// # Examples
///
/// ```
/// use sol_core::prelude::*;
/// # use sol_core::error::DataError;
/// # struct M;
/// # impl Model for M {
/// #     type Data = f64;
/// #     type Pred = f64;
/// #     fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> { Ok(1.0) }
/// #     fn validate_data(&self, d: &f64) -> bool { d.is_finite() }
/// #     fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
/// #     fn update_model(&mut self, _now: Timestamp) {}
/// #     fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
/// #         Some(Prediction::model(2.0, now, now + SimDuration::from_secs(1)))
/// #     }
/// #     fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
/// #         Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
/// #     }
/// #     fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment { ModelAssessment::Healthy }
/// # }
/// # #[derive(Default)]
/// # struct A { count: u64 }
/// # impl Actuator for A {
/// #     type Pred = f64;
/// #     fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {
/// #         self.count += 1;
/// #     }
/// #     fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
/// #         ActuatorAssessment::Acceptable
/// #     }
/// #     fn mitigate(&mut self, _now: Timestamp) {}
/// #     fn clean_up(&mut self, _now: Timestamp) {}
/// # }
/// let schedule = Schedule::builder()
///     .data_per_epoch(2)
///     .data_collect_interval(SimDuration::from_millis(100))
///     .max_epoch_time(SimDuration::from_secs(1))
///     .build()?;
/// let mut builder = NodeRuntime::builder(NullEnvironment);
/// let first = builder.agent("first", M, A::default(), schedule.clone());
/// let second = builder.agent("second", M, A::default(), schedule);
/// let report = builder.build().run_for(SimDuration::from_secs(5))?;
/// assert!(report.agent(first).stats().model.epochs_completed > 0);
/// assert_eq!(report.agent(second).name(), "second");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct NodeRuntime<E: Environment + 'static> {
    /// The node's virtual time: moved only by the tick loop, forwards.
    now: Timestamp,
    environment: E,
    agents: Vec<AgentSlot<E>>,
    /// What each agent's [`AgentDriver::next_wake`] returned when the tick
    /// loop last looked at it; indexed like `agents`, and as long once the
    /// run has started.
    wakes: WakeTable,
    interventions: TimeWheel<Intervention<E>>,
    /// Time of the earliest pending intervention, `Timestamp::MAX` when there
    /// is none, so a tick without one never touches the queue.
    intervention_at: Timestamp,
    /// Scratch buffer the tick loop drains due interventions into; reused
    /// across ticks and across [`run_until`](Self::run_until) segments.
    due: Vec<Intervention<E>>,
    /// Largest span of virtual time the environment may be advanced in one
    /// tick even when no agent event is due.
    max_env_step: SimDuration,
    /// Whether `max_env_step` was set explicitly; an explicit value is never
    /// shrunk by later agent registrations.
    env_step_overridden: bool,
    /// The next environment-step boundary: it moves on every tick, so it is a
    /// plain field merged into the tick time, not a queued event.
    env_step_at: Timestamp,
    cleanup_on_finish: bool,
    /// Whether the first [`run_until`](Self::run_until) segment already read
    /// the initial agent wakes and set the environment-step boundary.
    started: bool,
    /// Agents the current tick looks at (due, or hit by an intervention);
    /// reused across ticks and across [`run_until`](Self::run_until) segments.
    touched: Vec<usize>,
}

impl<E: Environment + 'static> NodeRuntime<E> {
    /// Creates an empty runtime for the environment, starting at virtual time
    /// zero.
    pub fn new(environment: E) -> Self {
        NodeRuntime {
            now: Timestamp::ZERO,
            environment,
            agents: Vec::new(),
            wakes: WakeTable::new(),
            interventions: TimeWheel::new(),
            intervention_at: Timestamp::MAX,
            due: Vec::new(),
            max_env_step: MAX_DEFAULT_ENV_STEP,
            env_step_overridden: false,
            env_step_at: Timestamp::MAX,
            cleanup_on_finish: false,
            started: false,
            touched: Vec::new(),
        }
    }

    /// Starts a [`ScenarioBuilder`](crate::runtime::builder::ScenarioBuilder)
    /// assembling agents on `environment`: the typed, composable front door to
    /// this runtime. See the [`builder`](crate::runtime::builder) module docs.
    pub fn builder(environment: E) -> crate::runtime::builder::ScenarioBuilder<E> {
        crate::runtime::builder::ScenarioBuilder::new(NodeRuntime::new(environment))
    }

    /// Registers a `Model`/`Actuator` pair under `name`, driven by `schedule`.
    ///
    /// Unless overridden via
    /// [`max_environment_step`](Self::max_environment_step), the environment
    /// step shrinks to the smallest registered agent's data collection
    /// interval (clamped to `[1ms, 1s]`), so the environment always evolves
    /// at least as finely as the fastest agent samples it.
    pub(crate) fn register_agent<M, A>(
        &mut self,
        name: impl Into<String>,
        model: M,
        actuator: A,
        schedule: Schedule,
    ) -> AgentId
    where
        M: Model + Send + 'static,
        A: Actuator<Pred = M::Pred> + Send + 'static,
    {
        if !self.env_step_overridden {
            let step = schedule
                .data_collect_interval()
                .max(MIN_DEFAULT_ENV_STEP)
                .min(MAX_DEFAULT_ENV_STEP);
            self.max_env_step = self.max_env_step.min(step);
        }
        let start = self.now;
        self.register_driver(name, Box::new(LoopAgent::new(model, actuator, schedule, start)))
    }

    /// Registers a pre-built driver under `name` and returns its id.
    ///
    /// # Panics
    ///
    /// Panics once the first [`run_until`](Self::run_until) segment has
    /// started: the population is fixed when the
    /// [`ScenarioBuilder`](crate::runtime::builder::ScenarioBuilder) is built,
    /// and the wake table is filled from it then.
    pub(crate) fn register_driver(
        &mut self,
        name: impl Into<String>,
        driver: Box<dyn AgentDriver<E>>,
    ) -> AgentId {
        assert!(!self.started, "agents cannot join a node that has started running");
        let id = AgentId(self.agents.len());
        self.agents.push(AgentSlot { name: name.into(), driver });
        id
    }

    /// Number of registered agents.
    pub fn agent_count(&self) -> usize {
        self.agents.len()
    }

    /// Current runtime counters for one agent.
    ///
    /// Ids are positional: only pass ids this runtime returned. An id from a
    /// different runtime resolves to whatever agent sits at that position.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this runtime's agents.
    pub fn agent_stats(&self, id: impl Into<AgentId>) -> AgentStats {
        self.agents[id.into().0].driver.stats()
    }

    /// Mutable access to an agent's driver.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this runtime's agents.
    pub(crate) fn driver_mut(&mut self, id: AgentId) -> &mut dyn AgentDriver<E> {
        &mut *self.agents[id.0].driver
    }

    /// Requests that every agent's clean-up routine run when the simulation
    /// horizon is reached.
    pub fn cleanup_on_finish(mut self, enable: bool) -> Self {
        self.cleanup_on_finish = enable;
        self
    }

    /// Overrides the maximum environment step (defaults to the smallest
    /// registered data collection interval, clamped to `[1ms, 1s]`). The
    /// explicit value sticks regardless of registration order: agents
    /// registered afterwards no longer shrink it.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `step` is zero.
    pub fn max_environment_step(mut self, step: SimDuration) -> Result<Self, RuntimeError> {
        if step.is_zero() {
            return Err(RuntimeError::InvalidConfig("environment step must be non-zero".into()));
        }
        self.max_env_step = step;
        self.env_step_overridden = true;
        Ok(self)
    }

    /// Schedules a Model-loop scheduling delay for one agent: starting at
    /// `at`, that agent's Model loop will not run for `duration` (paper §6:
    /// "we inject a 30-second delay in the Model thread").
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this runtime's agents.
    pub fn delay_model_at(&mut self, id: impl Into<AgentId>, at: Timestamp, duration: SimDuration) {
        let id = id.into();
        assert!(id.0 < self.agents.len(), "{id} is not registered");
        self.schedule_intervention(at, Intervention::DelayModel { id, duration });
    }

    /// Schedules an Actuator-loop scheduling delay for one agent starting at
    /// `at`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this runtime's agents.
    pub fn delay_actuator_at(
        &mut self,
        id: impl Into<AgentId>,
        at: Timestamp,
        duration: SimDuration,
    ) {
        let id = id.into();
        assert!(id.0 < self.agents.len(), "{id} is not registered");
        self.schedule_intervention(at, Intervention::DelayActuator { id, duration });
    }

    /// Schedules an arbitrary environment mutation at `at` (e.g. enabling a
    /// fault injector or breaking a model's input source).
    pub fn mutate_environment_at(
        &mut self,
        at: Timestamp,
        f: impl FnMut(&mut E, Timestamp) + Send + 'static,
    ) {
        self.schedule_intervention(at, Intervention::Mutate(Box::new(f)));
    }

    /// Attaches a placeable workload unit to the environment. Valid before
    /// the run and between [`run_until`](Self::run_until) segments — this is
    /// the hook the fleet layer uses to apply
    /// [`FleetCommand`](crate::runtime::placement::FleetCommand)s at epoch
    /// boundaries.
    ///
    /// # Errors
    ///
    /// Propagates the environment's
    /// [`PlacementError`](crate::runtime::placement::PlacementError)
    /// (unsupported, capacity exceeded, duplicate id).
    pub fn attach_workload(
        &mut self,
        unit: crate::runtime::placement::WorkloadUnit,
    ) -> Result<(), crate::runtime::placement::PlacementError> {
        self.environment.attach_workload(unit)
    }

    /// Detaches a resident workload unit from the environment and returns it
    /// (so a migration can re-attach it to another node). Valid before the
    /// run and between [`run_until`](Self::run_until) segments.
    ///
    /// # Errors
    ///
    /// Propagates the environment's
    /// [`PlacementError`](crate::runtime::placement::PlacementError)
    /// (unsupported, unknown id).
    pub fn detach_workload(
        &mut self,
        id: crate::runtime::placement::WorkloadId,
    ) -> Result<crate::runtime::placement::WorkloadUnit, crate::runtime::placement::PlacementError>
    {
        self.environment.detach_workload(id)
    }

    /// The environment's current placeable state (capacity + resident units).
    pub fn placement(&self) -> crate::runtime::placement::NodePlacement {
        self.environment.placement()
    }

    /// Name and current counters of every agent, in registration order — the
    /// per-node telemetry the fleet layer snapshots at epoch barriers.
    pub fn agent_snapshots(&self) -> Vec<(String, AgentStats)> {
        self.agents.iter().map(|slot| (slot.name.clone(), slot.driver.stats())).collect()
    }

    /// Learned state of every agent, in registration order — what the node
    /// ships to the fleet's learning plane at epoch barriers. Agents without
    /// an exchangeable learner contribute `None`.
    pub fn learned_snapshots(&self) -> Vec<Option<LearnedState>> {
        self.agents.iter().map(|slot| slot.driver.export_learned()).collect()
    }

    /// Read access to the environment (before or after a run segment).
    pub fn environment(&self) -> &E {
        &self.environment
    }

    /// Mutable access to the environment.
    pub fn environment_mut(&mut self) -> &mut E {
        &mut self.environment
    }

    /// The current virtual time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    fn schedule_intervention(&mut self, at: Timestamp, intervention: Intervention<E>) {
        self.interventions.schedule(at, intervention);
        self.intervention_at = self.intervention_at.min(at);
    }

    /// Runs all agents for `horizon` of virtual time and returns the final
    /// state of the environment and every agent.
    ///
    /// Equivalent to [`run_until`](Self::run_until) up to `now + horizon`
    /// followed by [`finish`](Self::finish); use those directly to run in
    /// segments (the fleet runtime advances every node epoch by epoch under
    /// one virtual clock).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyHorizon`] if `horizon` is zero.
    pub fn run_for(mut self, horizon: SimDuration) -> Result<NodeReport<E>, RuntimeError> {
        if horizon.is_zero() {
            return Err(RuntimeError::EmptyHorizon);
        }
        let end = self.now + horizon;
        self.run_until(end);
        Ok(self.finish())
    }

    /// Advances the simulation to virtual time `end` (a no-op if `end` is not
    /// in the future), leaving the runtime resumable: agent wakes, pending
    /// interventions, and per-agent state all carry over into the next
    /// segment, so consecutive `run_until` calls behave like one continuous
    /// run whose environment is additionally advanced at each segment
    /// boundary.
    pub fn run_until(&mut self, end: Timestamp) {
        if !self.started {
            // Read now, not at registration: a driver may have been delayed
            // through `driver_mut` since.
            self.wakes.extend(self.agents.iter().map(|slot| slot.driver.next_wake()));
            self.env_step_at = self.now + self.max_env_step;
            self.started = true;
        }

        // One segment is driven by exactly one thread; let the environment
        // acquire whatever per-part exclusivity it wants once for the whole
        // batch instead of once per call (see [`Environment::begin_batch`]).
        self.environment.begin_batch();

        // Only the agents a tick touches (due by the table, or the target of
        // an intervention) are step-checked and refreshed, so a tick costs
        // O(agents due at that time), not O(agents). Both scratch buffers are
        // reused across every tick of the run.
        let mut touched = std::mem::take(&mut self.touched);
        let mut due = std::mem::take(&mut self.due);

        loop {
            let now = self.now;
            if now >= end {
                break;
            }

            // Earliest of the next wake, the next intervention and the
            // environment-step boundary; a wake already in the past (one left
            // at a segment boundary) is due now.
            let mut next = end.min(self.env_step_at).min(self.intervention_at);
            if let Some(wake) = self.wakes.earliest() {
                next = next.min(wake);
            }
            let next = next.max(now);

            // Advance time and the environment exactly once per tick.
            self.now = next;
            self.environment.advance_to(next);

            self.wakes.due(next, &mut touched);

            // Interventions apply in schedule order, before any agent steps.
            // A delay moves its target's wake, so the target is looked at
            // even if it was not due — and then its key changes outside the
            // due region the table remembered.
            let mut outside_due_region = false;
            if self.intervention_at <= next {
                self.interventions.drain_due(next, &mut due);
                for intervention in due.drain(..) {
                    let id = match intervention {
                        Intervention::DelayModel { id, duration } => {
                            self.agents[id.0].driver.delay_model(next + duration);
                            id
                        }
                        Intervention::DelayActuator { id, duration } => {
                            self.agents[id.0].driver.delay_actuator(next + duration);
                            id
                        }
                        Intervention::Mutate(mut f) => {
                            f(&mut self.environment, next);
                            continue;
                        }
                    };
                    if self.wakes.wake(id.0) > next {
                        touched.push(id.0);
                        outside_due_region = true;
                    }
                }
                self.intervention_at = self.interventions.peek(|_| true).unwrap_or(Timestamp::MAX);
            }

            // Step the touched agents that are due by their own account, in
            // registration order whatever order the heap gave them up in,
            // then record where each one's wake went.
            touched.sort_unstable();
            touched.dedup();
            for &idx in &touched {
                let slot = &mut self.agents[idx];
                if slot.driver.next_wake() <= next {
                    slot.driver.step(next, &mut self.environment);
                }
            }
            for idx in touched.drain(..) {
                self.wakes.set(idx, self.agents[idx].driver.next_wake());
            }
            if outside_due_region {
                self.wakes.rebuild();
            } else {
                self.wakes.repair();
            }

            // The environment advanced to `next`, so the boundary moves with
            // it.
            self.env_step_at = next + self.max_env_step;
        }

        self.environment.end_batch();
        self.touched = touched;
        self.due = due;
    }

    /// Heap bytes retained by this node: the agents' wake table, the
    /// intervention queue (no heap buffer until an intervention is scheduled),
    /// plus whatever the environment reports (see [`Environment::mem_bytes`]).
    pub fn mem_bytes(&self) -> usize {
        self.wakes.mem_bytes() + self.interventions.mem_bytes() + self.environment.mem_bytes()
    }

    /// Consumes the runtime and returns the final state of the environment
    /// and every agent, running clean-up routines first when
    /// [`cleanup_on_finish`](Self::cleanup_on_finish) was requested.
    pub fn finish(mut self) -> NodeReport<E> {
        let ended_at = self.now;
        if self.cleanup_on_finish {
            for slot in &mut self.agents {
                slot.driver.clean_up(ended_at);
            }
        }
        let agents = self
            .agents
            .into_iter()
            .enumerate()
            .map(|(idx, slot)| AgentReport {
                id: AgentId(idx),
                name: slot.name,
                stats: slot.driver.stats(),
                driver: slot.driver,
            })
            .collect();
        NodeReport { environment: self.environment, agents, ended_at }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::testutil::{schedule, ConstModel, CountActuator, StepEnv};
    use crate::runtime::NullEnvironment;

    #[test]
    fn rejects_empty_horizon() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
        assert!(matches!(rt.run_for(SimDuration::ZERO), Err(RuntimeError::EmptyHorizon)));
    }

    #[test]
    fn rejects_zero_environment_step() {
        let rt = NodeRuntime::new(NullEnvironment);
        assert!(matches!(
            rt.max_environment_step(SimDuration::ZERO),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn runs_two_heterogeneous_agents_on_one_environment() {
        let mut rt = NodeRuntime::new(StepEnv::default());
        let fast =
            rt.register_agent("fast", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        let slow =
            rt.register_agent("slow", ConstModel { value: 2.0 }, CountActuator::default(), {
                schedule(200)
            });
        let report = rt.run_for(SimDuration::from_secs(10)).unwrap();
        // 10 s / (5 samples * 100 ms) = 20 epochs for the fast agent, half
        // the rate for the slow one.
        assert_eq!(report.agent_report(fast).stats.model.epochs_completed, 20);
        assert_eq!(report.agent_report(slow).stats.model.epochs_completed, 10);
        assert_eq!(report.agent_report(fast).name, "fast");
        assert_eq!(report.environment.last, Timestamp::from_secs(10));
        assert_eq!(report.ended_at, Timestamp::from_secs(10));
    }

    #[test]
    fn interventions_target_only_the_addressed_agent() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let delayed =
            rt.register_agent("delayed", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        let healthy =
            rt.register_agent("healthy", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        rt.delay_model_at(delayed, Timestamp::from_secs(2), SimDuration::from_secs(5));
        let report = rt.run_for(SimDuration::from_secs(10)).unwrap();
        assert!(report.agent_report(delayed).stats.model.epochs_completed < 20);
        assert_eq!(report.agent_report(healthy).stats.model.epochs_completed, 20);
        assert!(report.agent_report(delayed).stats.actuator.actuation_timeouts >= 1);
        assert_eq!(report.agent_report(healthy).stats.actuator.actuation_timeouts, 0);
    }

    #[test]
    fn actuator_delay_targets_only_the_addressed_agent() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let delayed =
            rt.register_agent("delayed", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        let healthy =
            rt.register_agent("healthy", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
        rt.delay_actuator_at(delayed, Timestamp::from_secs(1), SimDuration::from_secs(4));
        let report = rt.run_for(SimDuration::from_secs(10)).unwrap();
        assert!(
            actuator_of(report.agent_report(delayed)).actions
                < actuator_of(report.agent_report(healthy)).actions
        );
    }

    #[test]
    fn overlapping_actuator_delays_keep_the_later_end() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let id = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(100)
        });
        // A 1 s delay starting inside a 10 s one must not end it early.
        rt.delay_actuator_at(id, Timestamp::from_secs(1), SimDuration::from_secs(10));
        rt.delay_actuator_at(id, Timestamp::from_secs(2), SimDuration::from_secs(1));
        let report = rt.run_for(SimDuration::from_secs(15)).unwrap();
        let acted = &actuator_of(report.agent_report(id)).acted_at;
        let (from, until) = (Timestamp::from_secs(1), Timestamp::from_secs(11));
        assert!(acted.iter().all(|&t| t <= from || t >= until), "acted while delayed: {acted:?}");
        assert!(acted.iter().any(|&t| t > until), "never acted after the delay: {acted:?}");
    }

    /// The concrete actuator of an agent registered with `register_agent`.
    fn actuator_of<E: Environment>(report: &AgentReport<E>) -> &CountActuator {
        let driver: &dyn Any = &*report.driver;
        driver.downcast_ref::<LoopAgent<ConstModel, CountActuator>>().unwrap().actuator()
    }

    #[test]
    fn environment_mutation_fires_at_requested_time() {
        let mut rt = NodeRuntime::new(StepEnv::default());
        rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
        rt.mutate_environment_at(Timestamp::from_secs(3), |env, now| {
            assert!(now >= Timestamp::from_secs(3));
            env.fault = true;
        });
        let report = rt.run_for(SimDuration::from_secs(5)).unwrap();
        assert!(report.environment.fault);
    }

    #[test]
    fn same_tick_interventions_apply_in_scheduling_order() {
        // Two non-commuting mutations at the same timestamp: the intervention
        // queue must preserve scheduling order ((x * 3) + 10, not
        // (x + 10) * 3).
        let run = |flipped: bool| {
            let mut rt = NodeRuntime::new(StepEnv::default());
            rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
            let triple = |env: &mut StepEnv, _| env.advances *= 3;
            let add_ten = |env: &mut StepEnv, _| env.advances += 10;
            let at = Timestamp::from_secs(2);
            if flipped {
                rt.mutate_environment_at(at, add_ten);
                rt.mutate_environment_at(at, triple);
            } else {
                rt.mutate_environment_at(at, triple);
                rt.mutate_environment_at(at, add_ten);
            }
            // The run ends exactly at the intervention tick, so the final
            // counter is the interventions' combined effect on the advance
            // count N the run had accrued by then.
            let report = rt.run_for(SimDuration::from_secs(2)).unwrap();
            report.environment.advances
        };
        // Scheduling order: 3N + 10 vs (N + 10) * 3 = 3N + 30. Applying
        // either pair in reverse would flip the +20 gap's sign.
        assert_eq!(run(true), run(false) + 20);
    }

    #[test]
    fn cleanup_on_finish_cleans_every_agent() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let a = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(100)
        });
        let b = rt.register_agent("b", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(100)
        });
        let report = rt.cleanup_on_finish(true).run_for(SimDuration::from_secs(2)).unwrap();
        for id in [a, b] {
            assert_eq!(report.agent_report(id).stats.actuator.cleanups, 1);
            assert!(actuator_of(report.agent_report(id)).cleaned);
        }
    }

    #[test]
    fn report_recovers_concrete_agents() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let id = rt.register_agent("a", ConstModel { value: 4.0 }, CountActuator::default(), {
            schedule(100)
        });
        let mut report = rt.run_for(SimDuration::from_secs(2)).unwrap();
        let driver: Box<dyn Any> = report.take_agent(id).driver;
        let agent =
            driver.downcast::<LoopAgent<ConstModel, CountActuator>>().expect("registered type");
        let (model, actuator, stats) = agent.into_parts();
        assert_eq!(model.value, 4.0);
        assert!(actuator.actions > 0);
        assert!(stats.model.epochs_completed > 0);
    }

    #[test]
    fn report_lookup_stays_correct_after_take_agent() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let a = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(100)
        });
        let b = rt.register_agent("b", ConstModel { value: 2.0 }, CountActuator::default(), {
            schedule(100)
        });
        let mut report = rt.run_for(SimDuration::from_secs(2)).unwrap();
        let taken = report.take_agent(a);
        assert_eq!(taken.name, "a");
        // Id-based lookup must survive the removal shifting positions.
        assert_eq!(report.agent_report(b).name, "b");
        assert_eq!(report.take_agent(b).name, "b");
    }

    #[test]
    fn explicit_environment_step_survives_later_registrations() {
        let rt = NodeRuntime::new(StepEnv::default())
            .max_environment_step(SimDuration::from_millis(500))
            .unwrap();
        let mut rt = rt;
        // A fast agent (100 ms collects) must not shrink the explicit 500 ms.
        rt.register_agent("fast", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(100)
        });
        assert_eq!(rt.max_env_step, SimDuration::from_millis(500));
    }

    #[test]
    fn identical_multi_agent_runs_are_deterministic() {
        let run = || {
            let mut rt = NodeRuntime::new(StepEnv::default());
            let a = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
            let b = rt.register_agent("b", ConstModel { value: 2.0 }, CountActuator::default(), {
                schedule(70)
            });
            let report = rt.run_for(SimDuration::from_secs(7)).unwrap();
            (
                report.agent_report(a).stats.clone(),
                report.agent_report(b).stats.clone(),
                report.environment.advances,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn segmented_run_until_matches_run_for() {
        // NullEnvironment: segment boundaries add environment advances but no
        // observable state, so a segmented run must reproduce run_for exactly
        // — including an intervention spanning a segment boundary.
        let build = || {
            let mut rt = NodeRuntime::new(NullEnvironment);
            let a = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(100)
            });
            let b = rt.register_agent("b", ConstModel { value: 2.0 }, CountActuator::default(), {
                schedule(70)
            });
            rt.delay_model_at(a, Timestamp::from_secs(2), SimDuration::from_secs(2));
            (rt, a, b)
        };

        let (rt, a, b) = build();
        let full = rt.run_for(SimDuration::from_secs(7)).unwrap();

        let (mut rt, a2, b2) = build();
        for secs in [1, 3, 6, 7] {
            rt.run_until(Timestamp::from_secs(secs));
        }
        // A non-advancing segment must be a no-op.
        rt.run_until(Timestamp::from_secs(5));
        let segmented = rt.finish();

        assert_eq!(
            format!("{:#?}", full.agent_report(a).stats),
            format!("{:#?}", segmented.agent_report(a2).stats),
        );
        assert_eq!(
            format!("{:#?}", full.agent_report(b).stats),
            format!("{:#?}", segmented.agent_report(b2).stats),
        );
        assert_eq!(full.ended_at, segmented.ended_at);
    }

    /// An environment logging every tick and every [`Periodic`] step.
    #[derive(Default)]
    struct LogEnv {
        ticks: Vec<Timestamp>,
        steps: Vec<(u32, Timestamp)>,
    }

    impl Environment for LogEnv {
        fn advance_to(&mut self, now: Timestamp) {
            self.ticks.push(now);
        }
    }

    impl LogEnv {
        fn steps_of(&self, tag: u32) -> Vec<Timestamp> {
            self.steps.iter().filter(|(t, _)| *t == tag).map(|&(_, at)| at).collect()
        }
    }

    /// A bare driver: wakes at `wake`, logs its step under `tag`, sleeps for
    /// `period`. Either delay replaces the wake, earlier or later.
    struct Periodic {
        tag: u32,
        wake: Timestamp,
        period: SimDuration,
    }

    impl AgentDriver<LogEnv> for Periodic {
        fn next_wake(&self) -> Timestamp {
            self.wake
        }
        fn step(&mut self, now: Timestamp, env: &mut LogEnv) {
            env.steps.push((self.tag, now));
            self.wake = now + self.period;
        }
        fn delay_model(&mut self, until: Timestamp) {
            self.wake = until;
        }
        fn delay_actuator(&mut self, until: Timestamp) {
            self.wake = until;
        }
        fn stats(&self) -> AgentStats {
            AgentStats::default()
        }
        fn clean_up(&mut self, _now: Timestamp) {}
    }

    /// A runtime over [`LogEnv`] whose environment-step boundary never
    /// fires, so every logged tick is a wake, an intervention or a segment
    /// end.
    fn periodic_runtime(agents: &[(u64, u64)]) -> (NodeRuntime<LogEnv>, Vec<AgentId>) {
        let mut rt = NodeRuntime::new(LogEnv::default())
            .max_environment_step(SimDuration::from_secs(3_600))
            .unwrap();
        let ids = agents
            .iter()
            .enumerate()
            .map(|(tag, &(wake_ms, period_ms))| {
                rt.register_driver(
                    format!("p{tag}"),
                    Box::new(Periodic {
                        tag: tag as u32,
                        wake: Timestamp::from_millis(wake_ms),
                        period: SimDuration::from_millis(period_ms),
                    }),
                )
            })
            .collect();
        (rt, ids)
    }

    fn ms(n: u64) -> Timestamp {
        Timestamp::from_millis(n)
    }

    #[test]
    fn delay_on_an_agent_that_is_not_due_moves_its_wake_without_stepping_it() {
        let (mut rt, ids) = periodic_runtime(&[(0, 300), (0, 1_000)]);
        rt.delay_model_at(ids[0], ms(250), SimDuration::from_secs(2));
        rt.run_until(ms(3_500));
        let env = rt.finish().environment;
        // Stepped at 0, asleep until 300 ms; the delay at 250 ms moves that
        // to 2.25 s and steps nothing.
        assert_eq!(
            env.steps_of(0),
            vec![ms(0), ms(2_250), ms(2_550), ms(2_850), ms(3_150), ms(3_450)]
        );
        assert!(env.ticks.contains(&ms(250)), "the intervention is a tick of its own");
        // The table took the new wake: nothing is left to fire at 300 ms, and
        // the delayed agent — the earliest wake until then — no longer hides
        // the other one's.
        assert!(!env.ticks.contains(&ms(300)));
        assert_eq!(env.steps_of(1), vec![ms(0), ms(1_000), ms(2_000), ms(3_000)]);
    }

    #[test]
    fn wake_moved_through_driver_mut_between_segments_still_ticks_at_the_cached_time() {
        let (mut rt, ids) = periodic_runtime(&[(0, 300), (0, 1_000)]);
        rt.run_until(ms(500));
        // Behind the runtime's back: the table still says 1 s.
        rt.driver_mut(ids[1]).delay_model(ms(2_500));
        rt.run_until(ms(4_000));
        let env = rt.finish().environment;
        // A tick at the cached wake (the environment is advanced there), no
        // step at it, and the table caught up: the next step is at 2.5 s.
        assert!(env.ticks.contains(&ms(1_000)));
        assert_eq!(env.steps_of(1), vec![ms(0), ms(2_500), ms(3_500)]);
    }

    #[test]
    fn wake_moved_through_driver_mut_before_the_first_segment_is_read_at_the_start() {
        let (mut rt, ids) = periodic_runtime(&[(0, 300), (100, 1_000)]);
        rt.driver_mut(ids[1]).delay_model(ms(700));
        rt.run_until(ms(1_000));
        let env = rt.finish().environment;
        assert!(!env.ticks.contains(&ms(100)), "no wake was cached at registration");
        assert_eq!(env.steps_of(1), vec![ms(700)]);
    }

    #[test]
    #[should_panic(expected = "agents cannot join a node that has started running")]
    fn registering_after_the_first_segment_panics() {
        let (mut rt, _) = periodic_runtime(&[(0, 300)]);
        rt.run_until(ms(1_000));
        rt.register_driver(
            "late",
            Box::new(Periodic { tag: 7, wake: ms(200), period: SimDuration::from_millis(450) }),
        );
    }

    #[test]
    fn agents_sharing_a_tick_step_in_registration_order_whatever_the_heap_order() {
        // First wakes in reverse registration order, so the heap's root is
        // the last agent; from 400 ms on all five are due at every tick and
        // each repair leaves them in another order.
        let (mut rt, _) =
            periodic_runtime(&[(400, 100), (300, 100), (200, 100), (100, 100), (0, 100)]);
        rt.run_until(ms(1_000));
        let env = rt.finish().environment;
        let at = |t: Timestamp| -> Vec<u32> {
            env.steps.iter().filter(|&&(_, at)| at == t).map(|&(tag, _)| tag).collect()
        };
        assert_eq!(at(ms(100)), vec![3, 4]);
        for tick in (400..1_000).step_by(100) {
            assert_eq!(at(ms(tick)), vec![0, 1, 2, 3, 4], "at {tick} ms");
        }
    }

    #[test]
    fn delay_that_pulls_a_wake_in_steps_the_agent_at_the_intervention() {
        // An intervention can make an agent that was not due step: the
        // driver's own account of its wake decides, not the table's.
        let (mut rt, ids) = periodic_runtime(&[(0, 300), (5_000, 5_000)]);
        rt.delay_model_at(ids[1], ms(700), SimDuration::ZERO);
        rt.run_until(ms(1_000));
        let env = rt.finish().environment;
        assert_eq!(env.steps_of(1), vec![ms(700)]);
        assert_eq!(env.ticks.iter().filter(|&&at| at == ms(700)).count(), 1, "in that same tick");
    }

    #[test]
    fn finish_without_running_reports_zeroed_agents() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let a = rt.register_agent("a", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(100)
        });
        let report = rt.finish();
        assert_eq!(report.ended_at, Timestamp::ZERO);
        assert_eq!(report.agent_report(a).stats.model.epochs_completed, 0);
    }

    #[test]
    fn a_node_without_interventions_retains_no_queue_buffer() {
        let mut rt = NodeRuntime::new(NullEnvironment);
        let agents: Vec<AgentId> = (0..16)
            .map(|i| {
                let (model, actuator) = (ConstModel { value: 1.0 }, CountActuator::default());
                rt.register_agent(format!("a{i}"), model, actuator, schedule(100))
            })
            .collect();
        rt.run_until(Timestamp::from_secs(1));
        let bare = rt.mem_bytes();
        let queue = std::mem::size_of::<TimeWheel<Intervention<NullEnvironment>>>();
        assert_eq!(bare, rt.wakes.mem_bytes() + queue, "wake table + the queue's own fields");

        // 30 delays cost exactly the buffer a queue of 30 holds, and it is
        // kept, not regrown, once they have all fired.
        let mut alone = TimeWheel::<Intervention<NullEnvironment>>::new();
        let duration = SimDuration::from_millis(250);
        for k in 0..30 {
            let at = Timestamp::from_secs(2 + k as u64);
            rt.delay_model_at(agents[k % 16], at, duration);
            alone.schedule(at, Intervention::DelayModel { id: agents[0], duration });
        }
        let buffer = alone.mem_bytes() - queue;
        assert_eq!(rt.mem_bytes(), bare + buffer);
        rt.run_until(Timestamp::from_secs(40));
        assert_eq!(rt.intervention_at, Timestamp::MAX, "every delay fired");
        assert_eq!(rt.mem_bytes(), bare + buffer);
    }

    #[test]
    fn environment_advances_at_most_one_step_apart() {
        /// Environment asserting consecutive advances are close together.
        #[derive(Debug, Default)]
        struct BoundedEnv {
            last: Timestamp,
            max_gap: SimDuration,
        }
        impl Environment for BoundedEnv {
            fn advance_to(&mut self, now: Timestamp) {
                self.max_gap = self.max_gap.max(now.duration_since(self.last));
                self.last = now;
            }
        }
        let mut rt = NodeRuntime::new(BoundedEnv::default());
        // One very sparse agent: collects every 900 ms.
        rt.register_agent("sparse", ConstModel { value: 1.0 }, CountActuator::default(), {
            schedule(900)
        });
        let rt = rt.max_environment_step(SimDuration::from_millis(250)).unwrap();
        let report = rt.run_for(SimDuration::from_secs(5)).unwrap();
        assert!(
            report.environment.max_gap <= SimDuration::from_millis(250),
            "gap {} exceeds the configured step",
            report.environment.max_gap
        );
    }
}
