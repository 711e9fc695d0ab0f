//! `FleetRuntime`: many simulated servers, one virtual clock.
//!
//! SOL's deployment story is fleet-wide: every server runs its own on-node
//! learners and the platform watches safety signals across thousands of
//! nodes. [`FleetRuntime`] makes that scale representable. It stamps out *N*
//! [`NodeRuntime`]s from one
//! [`ScenarioRecipe`] — a replayable closure over the
//! [`ScenarioBuilder`](crate::runtime::builder::ScenarioBuilder), seeded per
//! node through [`NodeSeed`] so nodes are heterogeneous but deterministic —
//! spreads the nodes across a worker-thread pool (every barrier's live nodes
//! form one shared task list that the workers claim in chunks through an
//! atomic cursor, so a worker that runs dry takes over what its siblings
//! have not reached and one slow node never idles a barrier), synchronizes
//! all of them on epoch boundaries of one virtual clock, and aggregates
//! every node's
//! [`AgentStats`] into a [`FleetReport`] of fleet-level safety dashboards:
//! safeguard-activation rates, environment metric summaries (SLO violations,
//! tail latencies), and per-agent-role percentiles, keyed by the same
//! [`AgentHandle`](crate::runtime::builder::AgentHandle)s the recipe's
//! builder returned.
//!
//! The epoch barrier is a *programmable coordination point*:
//! [`FleetRuntime::run_with`] invokes a [`FleetController`] at every
//! boundary with a [`FleetView`] of per-node telemetry and workload
//! placement, and applies the returned placement commands (admit / depart /
//! migrate [`WorkloadUnit`]s) before releasing the barrier — see the
//! [`placement`](crate::runtime::placement) module. [`FleetRuntime::run`] is
//! sugar for running with the do-nothing [`NullController`].
//!
//! Each worker answers a barrier with one *change list* for all the nodes it
//! claimed. On a collecting barrier it holds each node's observation whole:
//! every agent's name and counters, and the recipe's readings, names
//! included. Workers do not diff against the last barrier: in the
//! benchmark workloads that collected views, no node was ever quiet. In one
//! 20 s benchmark process at seed 1, 0 of 29.8 M node-barriers on
//! `fleet-control` (measured while its packer still took the view) and 0 of
//! 49,088 on `three-agents` would have shipped nothing; every agent counter
//! moved at every barrier, and so did 99.5 % and 50 % of the readings
//! respectively.
//! The coordinator moves each observation into its one persistent base
//! view and sends the emptied list back with the next barrier's command, so
//! the list keeps its capacity. A collecting barrier allocates per node —
//! the observation's two vectors and agent names on the worker, whatever
//! the recipe's telemetry closure builds, and the replaced pair freed on
//! the coordinator. A controller whose
//! [`wants_view`](FleetController::wants_view) is `false` (like
//! [`NullController`], or the view-free
//! [`GreedyPacker`](crate::runtime::placement::GreedyPacker)) skips
//! per-node extraction entirely: its workers ship and allocate no per-node
//! observation. Exchange rounds still allocate each node's learned-state
//! snapshots, viewing or not; the worker frees them itself.
//! Placement is not part of an observation: the coordinator reads a
//! node's placement off the arena at its first barrier and afterwards
//! re-reads only the nodes its own placement phase touched. The task list the
//! workers claim from is likewise kept across barriers — its cursor reset —
//! and rebuilt only after a lifecycle phase changed the live set. Node state
//! lives in a slot arena shared between the coordinator and the workers in
//! disjoint protocol phases, which is what lets lifecycle and placement
//! phases apply directly instead of through per-phase message round trips.
//!
//! Node availability is programmable through the same plan: lifecycle events
//! (crash / join / drain — see the [`lifecycle`](crate::runtime::lifecycle)
//! module) are applied at the barrier before any placement command, tracked
//! in a versioned [`NodeRegistry`], and reported per node. A seeded
//! [`FaultPlan`] injects the same events without controller cooperation via
//! [`FleetRuntime::run_with_faults`].
//!
//! The coordinator thread walks every barrier through the same phases, one
//! private method each: *collect* (advance the nodes, update the view),
//! the controller's plan, *lifecycle*, *learn*, *place* — and one *fold* of
//! all node reports into the [`FleetReport`] when the last barrier is
//! through. Each phase returns what it decided as a value — the nodes that
//! joined, the units crashes displaced, the fault events skipped, the nodes a trust round
//! quarantined, one outcome per placement command — and one *tally* per
//! barrier folds those values into the run's counters.
//!
//! The barrier is also the fleet's model-exchange point: with a
//! [`LearningPlane`] configured ([`FleetConfig::learning`]), each node keeps
//! one [`LearnedState`] per learner, its export baseline, which its worker
//! overwrites in place with every snapshot that changed (quiet learners
//! change nothing) and which is the fleet's only copy of it: the change
//! list carries two counters, and the coordinator reads the baselines on
//! the arena, robustly aggregates them and writes the blends back between
//! the lifecycle and placement phases — see the
//! [`learning`](crate::runtime::learning) module. After a slot's first
//! round no learned state crosses a thread by allocation: the aggregate is
//! copied into each node's baseline and model.
//!
//! Where a run's wall time went — per coordinator phase, per worker — comes
//! back *beside* the report from [`FleetRuntime::run_profiled`] as a
//! [`FleetProfile`], never inside it.
//!
//! An opt-in [`TrustPolicy`] ([`FleetConfig::trust`]) arms that exchange:
//! every round the coordinator scores each participant's export against the
//! post-aggregation consensus, excludes suspects from the fold, and — once
//! suspicion persists — quarantines the node by issuing a lifecycle `Drain`
//! at the next barrier, so a persistently poisoned node is not merely
//! outvoted but removed — see the [`trust`](crate::runtime::trust) module.
//!
//! # Determinism
//!
//! A fleet run is a pure function of `(recipe, FleetConfig, horizon)`:
//!
//! * per-node seeds come from an invertible mix of the fleet seed and the
//!   node index ([`NodeSeed::derive`]), so they never collide and never
//!   depend on scheduling;
//! * every node advances through the same epoch grid
//!   (`epoch, 2·epoch, …, horizon`) regardless of which worker claims it —
//!   a node is a pure function of its seed and the grid, so claims can
//!   rebalance freely without affecting any result; and
//! * aggregation and every barrier fold are keyed by node index, never by
//!   completion or claim order.
//!
//! The resulting [`FleetReport`] is byte-identical for 1, 2, or 64 worker
//! threads, including under forced load imbalance and seeded fault plans
//! (enforced in `tests/tests/determinism.rs` and `tests/tests/fleet.rs`).
//!
//! # Layout
//!
//! The module is split along the barrier protocol:
//!
//! * `fleet.rs` (this file) holds the fleet's shape — [`FleetConfig`],
//!   [`NodeSeed`], the epoch grid — and the `run*` methods, whose one loop
//!   walks every barrier through the phases;
//! * `fleet/shard.rs` is the worker side: the slot arena's nodes, the task
//!   list the workers claim them from, the change lists they answer with,
//!   and the worker loop;
//! * `fleet/coordinator.rs` is the coordinator side: one method per phase,
//!   the values they return, and the tally that folds those into the run's
//!   counters;
//! * `fleet/report.rs` is what comes out: [`FleetReport`] and its parts,
//!   one node's summary, and the fold of every summary into the
//!   dashboards.
//!
//! The three child modules are private: what they mark `pub` reaches no
//! further than this module, which re-exports the report types here.
//!
//! # Examples
//!
//! ```
//! use sol_core::prelude::*;
//! # use sol_core::error::DataError;
//! # #[derive(Clone)]
//! # struct M(f64);
//! # impl Model for M {
//! #     type Data = f64;
//! #     type Pred = f64;
//! #     fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> { Ok(self.0) }
//! #     fn validate_data(&self, d: &f64) -> bool { d.is_finite() }
//! #     fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
//! #     fn update_model(&mut self, _now: Timestamp) {}
//! #     fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
//! #         Some(Prediction::model(self.0, now, now + SimDuration::from_secs(1)))
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
//! // One agent per node; the per-node seed makes the fleet heterogeneous.
//! let recipe = ScenarioRecipe::new(move |seed: &NodeSeed| {
//!     let mut builder = NodeRuntime::builder(NullEnvironment);
//!     builder.agent("learner", M(seed.stream(0) as f64), A::default(), schedule.clone());
//!     builder.build()
//! });
//!
//! let config = FleetConfig { nodes: 16, threads: 4, ..FleetConfig::default() };
//! let report = FleetRuntime::new(recipe, config)?.run(SimDuration::from_secs(5))?;
//! assert_eq!(report.nodes.len(), 16);
//! assert_eq!(report.roles[0].name, "learner");
//! assert_eq!(report.roles[0].totals.model.epochs_completed, 16 * 25);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! [`NodeRuntime`]: crate::runtime::node::NodeRuntime
//! [`AgentStats`]: crate::stats::AgentStats
//! [`FleetView`]: crate::runtime::placement::FleetView
//! [`WorkloadUnit`]: crate::runtime::placement::WorkloadUnit
//! [`NodeRegistry`]: crate::runtime::lifecycle::NodeRegistry
//! [`LearnedState`]: sol_ml::exchange::LearnedState

use std::sync::Arc;

use crate::error::RuntimeError;
use crate::runtime::builder::ScenarioRecipe;
use crate::runtime::learning::LearningPlane;
use crate::runtime::lifecycle::FaultPlan;
use crate::runtime::placement::{FleetController, NullController};
use crate::runtime::profile::FleetProfile;
use crate::runtime::trust::TrustPolicy;
use crate::runtime::Environment;
use crate::time::{SimDuration, Timestamp};

use self::coordinator::Coordinator;
use self::report::summarize;
pub use self::report::{
    FleetAgentReport, FleetNodeReport, FleetReport, MetricSummary, Percentiles, PlacementStats,
    RoleAggregate,
};

mod coordinator;
mod report;
mod shard;

/// Odd multiplier walking the per-node seed sequence (the golden-ratio
/// constant of SplitMix64). Oddness makes `fleet_seed + GAMMA·index` distinct
/// for every index, and [`splitmix64`] is a bijection, so derived seeds never
/// collide within a fleet.
pub const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`, the
/// workspace's one seed-derivation step.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic identity of one node in a fleet: its index plus the
/// seed derived from `(fleet_seed, index)`.
///
/// Recipes split the node seed into independent streams with
/// [`stream`](Self::stream) — one per substrate or learner — so adding a new
/// consumer never perturbs the existing ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeSeed {
    fleet_seed: u64,
    index: u64,
    seed: u64,
}

impl NodeSeed {
    /// Derives the seed of node `index` in the fleet seeded by `fleet_seed`.
    ///
    /// The derivation is collision-free: for a fixed `fleet_seed`, distinct
    /// indices always yield distinct seeds (`fleet_seed + GAMMA·index` is
    /// injective because `GAMMA` is odd, and the SplitMix64 finalizer is a
    /// bijection). `tests/tests/fleet.rs` property-checks this for fleets up
    /// to 4096 nodes.
    pub fn derive(fleet_seed: u64, index: u64) -> NodeSeed {
        let seed = splitmix64(fleet_seed.wrapping_add(index.wrapping_mul(GAMMA)));
        NodeSeed { fleet_seed, index, seed }
    }

    /// The fleet master seed this node seed was derived from.
    pub fn fleet_seed(&self) -> u64 {
        self.fleet_seed
    }

    /// The node's index in the fleet (`0..nodes`).
    pub fn index(&self) -> u64 {
        self.index
    }

    /// The node's derived seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// An independent sub-seed for consumer `stream` (substrate RNG, learner
    /// RNG, …). Distinct streams of one node never collide.
    ///
    /// # Stream allocation convention
    ///
    /// Stream indices `0..=15` are reserved for the node-assembly presets in
    /// `sol-agents` (currently: 0 = overclock learner, 1 = CPU substrate
    /// fault injector, 2 = memory learner, 3 = memory substrate sampler;
    /// 4..=15 are held back for future preset consumers). Indices `16` and
    /// up are free for custom recipes, controllers, and experiment drivers.
    /// Fleet-level inputs that are not per-node — e.g. an
    /// [`ArrivalTrace`](crate::runtime::placement::ArrivalTrace) — should be
    /// seeded from the fleet master seed directly, not from a node stream.
    pub fn stream(&self, stream: u64) -> u64 {
        splitmix64(self.seed.wrapping_add(stream.wrapping_mul(GAMMA)))
    }
}

/// Shape of a fleet run: how many nodes, how many worker threads, the epoch
/// synchronization quantum of the shared virtual clock, the master seed, and
/// the optional learning plane.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Number of simulated servers stamped out from the recipe.
    pub nodes: usize,
    /// Worker threads the nodes are sharded across (clamped to `nodes`).
    /// The thread count never changes results — only wall-clock time.
    pub threads: usize,
    /// Virtual time between fleet-wide synchronization barriers. Every node
    /// reaches epoch boundary `k·epoch` before any node starts epoch `k+1`.
    pub epoch: SimDuration,
    /// Master seed; per-node seeds are derived via [`NodeSeed::derive`].
    pub seed: u64,
    /// Optional learning plane: when set, the coordinator periodically
    /// aggregates the nodes' exported
    /// [`LearnedState`](sol_ml::exchange::LearnedState)s and redistributes
    /// the blend — see the [`learning`](crate::runtime::learning) module.
    /// `None` (the default) runs the fleet with no model exchange.
    pub learning: Option<LearningPlane>,
    /// Optional trust plane (requires [`learning`](Self::learning)): when
    /// set, every exchange round scores each participant's export against
    /// the consensus, excludes suspects from aggregation, and drains
    /// persistently divergent nodes — see the
    /// [`trust`](crate::runtime::trust) module. `None` (the default) runs
    /// the learning plane with containment only.
    pub trust: Option<TrustPolicy>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 8,
            threads: 4,
            epoch: SimDuration::from_secs(1),
            seed: 0x501_f1ee7,
            learning: None,
            trust: None,
        }
    }
}

/// Drives *N* recipe-stamped [`NodeRuntime`](crate::runtime::node::NodeRuntime)s
/// under one virtual clock. See
/// the [module docs](self).
pub struct FleetRuntime<E: Environment + 'static> {
    recipe: Arc<ScenarioRecipe<E>>,
    config: FleetConfig,
}

impl<E: Environment + 'static> Clone for FleetRuntime<E> {
    fn clone(&self) -> Self {
        FleetRuntime { recipe: Arc::clone(&self.recipe), config: self.config.clone() }
    }
}

impl<E: Environment + 'static> std::fmt::Debug for FleetRuntime<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRuntime").field("config", &self.config).finish_non_exhaustive()
    }
}

impl<E: Environment + 'static> FleetRuntime<E> {
    /// Creates a fleet from a recipe and a config.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] if `nodes` or `threads` is
    /// zero, if `epoch` is zero, if the learning plane is degenerate
    /// (`exchange_every` of zero, or a blend weight outside `[0, 1]`), or if
    /// a trust policy is configured without a learning plane or with
    /// degenerate thresholds.
    pub fn new(recipe: ScenarioRecipe<E>, config: FleetConfig) -> Result<Self, RuntimeError> {
        let invalid = |rule| Err(RuntimeError::InvalidConfig(format!("fleet config: {rule}")));
        if config.nodes == 0 {
            return invalid("nodes must be at least 1");
        }
        if config.threads == 0 {
            return invalid("threads must be at least 1");
        }
        if config.epoch.is_zero() {
            return invalid("epoch must be non-zero");
        }
        if let Some(plane) = &config.learning {
            plane.validate().map_err(|e| RuntimeError::InvalidConfig(format!("fleet {e}")))?;
        }
        if let Some(policy) = &config.trust {
            if config.learning.is_none() {
                return Err(RuntimeError::InvalidConfig(
                    "fleet trust policy requires a learning plane: there is nothing to score \
                     without exchange rounds"
                        .into(),
                ));
            }
            policy.validate().map_err(|e| RuntimeError::InvalidConfig(format!("fleet {e}")))?;
        }
        // The recipe is shared by reference from here on: worker threads and
        // per-node runs borrow the same allocation instead of cloning the
        // closure set per worker or per call.
        Ok(FleetRuntime { recipe: Arc::new(recipe), config })
    }

    /// Validates a run horizon against the config (shared by
    /// [`run_with`](Self::run_with) and [`run_node`](Self::run_node)).
    fn check_horizon(&self, horizon: SimDuration) -> Result<(), RuntimeError> {
        if horizon.is_zero() {
            return Err(RuntimeError::EmptyHorizon);
        }
        if self.config.epoch > horizon {
            return Err(RuntimeError::InvalidConfig(format!(
                "fleet config: epoch ({}) exceeds the run horizon ({horizon})",
                self.config.epoch
            )));
        }
        Ok(())
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The seed node `index` would be stamped out with.
    pub fn node_seed(&self, index: usize) -> NodeSeed {
        NodeSeed::derive(self.config.seed, index as u64)
    }

    /// Runs the whole fleet for `horizon` of virtual time with no placement
    /// activity: sugar for [`run_with`](Self::run_with) and the
    /// [`NullController`] — byte-identical results, same barrier protocol.
    /// Because [`NullController`] declines the per-node view
    /// ([`FleetController::wants_view`]), barriers skip agent-stat and
    /// telemetry extraction entirely: the per-epoch fixed cost is one task
    /// list entry per live node.
    ///
    /// # Errors
    ///
    /// See [`run_with`](Self::run_with).
    pub fn run(&self, horizon: SimDuration) -> Result<FleetReport, RuntimeError>
    where
        E: Send,
    {
        self.run_with(&mut NullController, horizon)
    }

    /// Runs the whole fleet for `horizon` of virtual time under a
    /// [`FleetController`]: stamps every node out of the recipe into a
    /// shared slot arena and advances all of them epoch by epoch (no node
    /// enters epoch `k+1` before every node finished epoch `k`). Epoch work
    /// is one shared task list per barrier that the worker threads claim in
    /// chunks until it runs dry, so barrier wall time tracks the total work
    /// of the epoch, not the slowest static shard. Which thread advances a
    /// node never affects results: a node's
    /// trajectory is a pure function of its seed and the shared epoch grid,
    /// and all barrier folds are keyed by node index.
    ///
    /// At every epoch boundary the controller receives a [`FleetView`] of
    /// per-node telemetry and placement and returns a
    /// [`PlacementPlan`](crate::runtime::placement::PlacementPlan); the
    /// plan is applied before the barrier is released — departures and
    /// migration-detaches first, then admissions, then migration-attaches,
    /// each phase stable-sorted by target node index — so freed capacity is
    /// available to the same barrier's admissions. The view is maintained as
    /// one persistent base that every barrier's change lists refresh with
    /// each node's whole observation (no measured workload has a node that
    /// is quiet across a barrier); a controller whose
    /// [`wants_view`](FleetController::wants_view) is `false` skips even
    /// that, receiving views with exact `placement`/`state`/`displaced` but
    /// empty per-node agent and telemetry vectors.
    ///
    /// The plan's lifecycle events are applied first, before any placement
    /// command: a crash retires the node and moves its residents into the
    /// displaced pool surfaced by the next [`FleetView`], a join stamps a
    /// fresh node from the recipe at the next free index (its
    /// [`NodeSeed`] is collision-free by construction), and a drain flips
    /// the node to `Draining` — it rejects admissions from this boundary on
    /// and retires as `Drained` once a barrier observation shows it empty.
    /// Every change is validated against the [`NodeRegistry`] state machine;
    /// an illegal transition aborts the run.
    ///
    /// Commands that fail against a node's environment (capacity exceeded,
    /// unknown unit, environment without placeable slots) or against the
    /// registry (admitting to a non-`Active` node) are counted in
    /// [`PlacementStats::failed_placements`], not fatal. A migration whose
    /// attach half fails is rolled back — the unit is re-attached to its
    /// source node, whose capacity the detach just freed — so a rejected
    /// migration can never destroy a workload unit.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyHorizon`] if `horizon` is zero,
    /// [`RuntimeError::InvalidConfig`] if `epoch` exceeds `horizon`, if the
    /// controller addressed a node index outside the fleet, if it issued an
    /// illegal lifecycle transition, or if the recipe produced differing
    /// agent populations across nodes, and
    /// [`RuntimeError::WorkerPanicked`] if a worker thread died (e.g. the
    /// recipe panicked).
    ///
    /// [`FleetView`]: crate::runtime::placement::FleetView
    /// [`NodeRegistry`]: crate::runtime::lifecycle::NodeRegistry
    pub fn run_with(
        &self,
        controller: &mut dyn FleetController,
        horizon: SimDuration,
    ) -> Result<FleetReport, RuntimeError>
    where
        E: Send,
    {
        self.run_with_faults(controller, FaultPlan::empty(), horizon)
    }

    /// Runs the fleet under a [`FleetController`] while a seeded
    /// [`FaultPlan`] injects availability events (crashes, joins, drains) at
    /// epoch boundaries, without the controller's cooperation: at every
    /// boundary the plan's due events are appended after the controller's
    /// own lifecycle events. An empty fault plan makes this byte-identical
    /// to [`run_with`](Self::run_with), which is this with
    /// [`FaultPlan::empty`].
    ///
    /// # Errors
    ///
    /// See [`run_with`](Self::run_with). A fault plan cannot know which
    /// nodes the controller or the trust plane will have removed by the time
    /// an event comes due, so a plan event the [`NodeRegistry`] rejects as an
    /// illegal transition (crashing or draining a node that already left) is
    /// skipped — a machine that has left cannot crash — exactly as the
    /// coordinator skips its own quarantine drain for such a node. The
    /// lifecycle phase returns the events it skipped beside what it applied,
    /// and their count is folded into
    /// [`FleetProfile::fault_events_skipped`]. A plan event addressing a
    /// node index outside the fleet is still an
    /// [`RuntimeError::InvalidConfig`], as is every illegal transition the
    /// *controller* issues.
    ///
    /// [`NodeRegistry`]: crate::runtime::lifecycle::NodeRegistry
    pub fn run_with_faults(
        &self,
        controller: &mut dyn FleetController,
        faults: FaultPlan,
        horizon: SimDuration,
    ) -> Result<FleetReport, RuntimeError>
    where
        E: Send,
    {
        self.run_profiled(controller, faults, horizon).map(|(report, _)| report)
    }

    /// [`run_with_faults`](Self::run_with_faults), also returning the run's
    /// [`FleetProfile`]: the coordinator's wall time by barrier phase, each
    /// worker's busy time and claims, how many task lists and change
    /// buffers the barrier machinery built, and how many fault-plan events it
    /// skipped. The profile comes back *beside*
    /// the report, never inside it — the report stays a pure function of the
    /// run's inputs — and this is the one code path behind every `run*`
    /// method: the others drop the profile.
    ///
    /// # Errors
    ///
    /// See [`run_with_faults`](Self::run_with_faults).
    pub fn run_profiled(
        &self,
        controller: &mut dyn FleetController,
        mut faults: FaultPlan,
        horizon: SimDuration,
    ) -> Result<(FleetReport, FleetProfile), RuntimeError>
    where
        E: Send,
    {
        self.check_horizon(horizon)?;
        let boundaries = epoch_boundaries(horizon, self.config.epoch);
        let (mut coordinator, workers) = Coordinator::start(self, controller.wants_view());

        // The barrier protocol, one phase after another: advance every live
        // node to the boundary and fold what they ship into the base view,
        // let the controller plan on it, then apply the plan — lifecycle
        // events first, the learning round between, placement last — on the
        // arena, and tally what the phases decided. A round's quarantines
        // drain at the next barrier's lifecycle phase. The closure owns the
        // coordinator, so on every way out — the final fold or an early `?`
        // — its command senders drop, which is what releases the workers for
        // the join below.
        let report = (move || {
            let mut quarantines = Vec::new();
            for (epoch, &boundary) in (0u64..).zip(&boundaries) {
                let drained = coordinator.collect(epoch, boundary)?;
                let (commands, events) = controller.plan(&coordinator.base).into_parts();
                coordinator.clock.charge(&mut coordinator.profile.phases.plan_ns);
                let lifecycle = coordinator.lifecycle(drained, events, &mut faults, quarantines)?;
                coordinator.clock.charge(&mut coordinator.profile.phases.lifecycle_ns);
                quarantines = coordinator.learn(epoch, &lifecycle);
                let placed = coordinator.place(commands)?;
                coordinator.tally(&lifecycle, &placed);
                coordinator.clock.charge(&mut coordinator.profile.phases.place_ns);
            }
            coordinator.fold(&boundaries)
        })();

        let mut worker_died = false;
        for worker in workers {
            worker_died |= worker.join().is_err();
        }
        if worker_died {
            // A panic inside a worker is the root cause; report it even if
            // the protocol error surfaced first.
            return Err(RuntimeError::WorkerPanicked);
        }
        report
    }

    /// Runs a single node of the fleet inline on the calling thread, with the
    /// same per-node seed and the same epoch segmentation as [`run`] — the
    /// resulting [`FleetNodeReport`] is byte-identical to the corresponding
    /// entry of a full fleet run. Useful for debugging one server of a large
    /// fleet and for testing that fleet aggregation is exactly the fold of
    /// per-node reports.
    ///
    /// A configured [`FleetConfig::learning`] plane is coordinator-driven
    /// and has no single-node equivalent: `run_node` never exchanges state,
    /// so its report matches the fleet entry only when no exchange round
    /// actually changed the node's models (e.g. a fleet of one under
    /// [`BlendPolicy::Replace`](sol_ml::exchange::BlendPolicy::Replace),
    /// where the aggregate always equals the local state and redistribution
    /// is skipped).
    ///
    /// [`run`]: Self::run
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::EmptyHorizon`] if `horizon` is zero and
    /// [`RuntimeError::InvalidConfig`] if `index` is out of range or `epoch`
    /// exceeds `horizon`.
    pub fn run_node(
        &self,
        index: usize,
        horizon: SimDuration,
    ) -> Result<FleetNodeReport, RuntimeError> {
        self.check_horizon(horizon)?;
        if index >= self.config.nodes {
            return Err(RuntimeError::InvalidConfig(format!(
                "node index {index} out of range for a {}-node fleet",
                self.config.nodes
            )));
        }
        let seed = self.node_seed(index);
        let mut runtime = self.recipe.instantiate(&seed);
        for &boundary in &epoch_boundaries(horizon, self.config.epoch) {
            runtime.run_until(boundary);
        }
        Ok(summarize(&self.recipe, seed, runtime))
    }
}

/// The epoch grid: `epoch, 2·epoch, …` clamped to the horizon, ending
/// exactly at the horizon.
fn epoch_boundaries(horizon: SimDuration, epoch: SimDuration) -> Vec<Timestamp> {
    let end = Timestamp::ZERO + horizon;
    let mut boundaries = Vec::new();
    let mut t = Timestamp::ZERO;
    loop {
        t = t.saturating_add(epoch).min(end);
        boundaries.push(t);
        if t >= end {
            return boundaries;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::shard::{ChangeList, NodeSlot, NodeTask};
    use super::*;
    use crate::error::DataError;
    use crate::model::{Model, ModelAssessment};
    use crate::prediction::Prediction;
    use crate::runtime::learning::LearningExchange;
    use crate::runtime::node::AgentId;
    use crate::runtime::node::NodeRuntime;
    use crate::runtime::testutil::{schedule, ConstModel, CountActuator, StepEnv};
    use sol_ml::exchange::{BlendPolicy, ExchangeError, LearnedState, StateKind};

    /// Renders a value's full Debug output as bytes for exact comparison.
    fn debug_bytes<T: std::fmt::Debug>(value: &T) -> Vec<u8> {
        format!("{value:#?}").into_bytes()
    }

    /// A two-agent recipe whose per-node collect interval is derived from the
    /// node seed, so nodes are heterogeneous but deterministic.
    fn heterogeneous_recipe() -> ScenarioRecipe<StepEnv> {
        ScenarioRecipe::new(|seed: &NodeSeed| {
            let mut builder = NodeRuntime::builder(StepEnv::default());
            let interval = 50 + seed.stream(0) % 100;
            builder.agent("fast", ConstModel { value: 1.0 }, CountActuator::default(), {
                schedule(interval)
            });
            builder.agent("slow", ConstModel { value: 2.0 }, CountActuator::default(), {
                schedule(2 * interval)
            });
            builder.build()
        })
        .with_metrics(|report| vec![("advances".into(), report.environment.advances as f64)])
    }

    #[test]
    fn node_seeds_are_unique_and_deterministic() {
        let mut seen = std::collections::HashSet::new();
        for index in 0..4096 {
            let seed = NodeSeed::derive(7, index);
            assert!(seen.insert(seed.seed()), "seed collision at node {index}");
            assert_eq!(seed.seed(), NodeSeed::derive(7, index).seed());
        }
        // Streams of one node are distinct too.
        let node = NodeSeed::derive(7, 3);
        assert_ne!(node.stream(0), node.stream(1));
    }

    #[test]
    fn rejects_degenerate_configs_naming_the_field() {
        let message = |config: FleetConfig| -> String {
            match FleetRuntime::new(heterogeneous_recipe(), config) {
                Err(RuntimeError::InvalidConfig(message)) => message,
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        };
        assert!(message(FleetConfig { nodes: 0, ..FleetConfig::default() }).contains("nodes"));
        assert!(message(FleetConfig { threads: 0, ..FleetConfig::default() }).contains("threads"));
        let zero_epoch =
            message(FleetConfig { epoch: SimDuration::ZERO, ..FleetConfig::default() });
        assert!(zero_epoch.contains("epoch"), "message was {zero_epoch:?}");
        let fleet = FleetRuntime::new(heterogeneous_recipe(), FleetConfig::default()).unwrap();
        assert!(matches!(fleet.run(SimDuration::ZERO), Err(RuntimeError::EmptyHorizon)));
    }

    #[test]
    fn rejects_epoch_longer_than_the_horizon() {
        // An epoch that cannot fit in the horizon used to silently degenerate
        // to one oversized boundary; now it is a named config error on every
        // run path.
        let config = FleetConfig { epoch: SimDuration::from_secs(30), ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        for result in [
            fleet.run(SimDuration::from_secs(2)).map(|_| ()),
            fleet.run_node(0, SimDuration::from_secs(2)).map(|_| ()),
        ] {
            match result {
                Err(RuntimeError::InvalidConfig(message)) => {
                    assert!(message.contains("epoch"), "message was {message:?}");
                    assert!(message.contains("horizon"), "message was {message:?}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
        }
        // An epoch equal to the horizon is the single-epoch case, not an
        // error.
        assert!(fleet.run(SimDuration::from_secs(30)).is_ok());
    }

    #[test]
    fn report_surfaces_per_node_memory_footprint() {
        let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        let report = fleet.run(SimDuration::from_secs(2)).unwrap();
        // StepEnv reports no environment bytes, but every node still carries
        // its wake vector and intervention queue, so the accounting is
        // non-zero on every node.
        for node in &report.nodes {
            assert!(node.mem_bytes > 0, "node {} reported zero bytes", node.node);
        }
        let max = report.nodes.iter().map(|n| n.mem_bytes).max().unwrap();
        assert_eq!(report.mem_bytes_per_node, max);
    }

    #[test]
    fn epoch_grid_clamps_to_the_horizon() {
        let grid = epoch_boundaries(SimDuration::from_secs(10), SimDuration::from_secs(3));
        assert_eq!(
            grid,
            vec![
                Timestamp::from_secs(3),
                Timestamp::from_secs(6),
                Timestamp::from_secs(9),
                Timestamp::from_secs(10),
            ]
        );
        // An epoch equal to the horizon is the single-epoch case.
        let grid = epoch_boundaries(SimDuration::from_secs(2), SimDuration::from_secs(2));
        assert_eq!(grid, vec![Timestamp::from_secs(2)]);
    }

    /// A learner whose one weight grows by its node's step at every model
    /// update, so nodes disagree, keep learning, and accept any import.
    struct DriftModel {
        weight: f64,
        step: f64,
    }

    impl Model for DriftModel {
        type Data = f64;
        type Pred = f64;
        fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
            Ok(self.weight)
        }
        fn validate_data(&self, d: &f64) -> bool {
            d.is_finite()
        }
        fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
        fn update_model(&mut self, _now: Timestamp) {
            self.weight += self.step;
        }
        fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
            Some(Prediction::model(self.weight, now, now + SimDuration::from_secs(1)))
        }
        fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
            Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
        }
        fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
            ModelAssessment::Healthy
        }
        fn export_learned(&self) -> Option<LearnedState> {
            LearnedState::new(StateKind::LinearWeights, vec![1], vec![self.weight]).ok()
        }
        fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
            self.weight = state.values()[0];
            Ok(())
        }
    }

    /// Three stamped `DriftModel` nodes (node `i` learning `1 + i` a model
    /// update) taken through one exchange round at 2 s under `blend`, the
    /// way `collect` and `learn` take a fleet. Returns the recipe, the
    /// arena, the exchange and each node's export before the round.
    fn one_round(
        blend: BlendPolicy,
    ) -> (ScenarioRecipe<StepEnv>, Vec<NodeTask<StepEnv>>, LearningExchange, Vec<LearnedState>)
    {
        let recipe = ScenarioRecipe::new(|seed: &NodeSeed| {
            let mut builder = NodeRuntime::builder(StepEnv::default());
            let model = DriftModel { weight: 0.0, step: 1.0 + seed.index() as f64 };
            builder.agent("drift", model, CountActuator::default(), schedule(100));
            builder.build()
        });
        let arena: Vec<NodeTask<StepEnv>> = (0..3)
            .map(|index| NodeSlot::vacant(NodeSeed::derive(7, index), Timestamp::ZERO))
            .collect();
        let plane = LearningPlane { blend, ..LearningPlane::default() };
        let mut exchange = LearningExchange::new(plane);
        let mut changes = ChangeList::default();
        for slot in &arena {
            slot.advance(&recipe, Timestamp::from_secs(2), false, true, &mut changes);
        }
        let (participants, bytes) = changes.take_learned();
        assert_eq!((participants, bytes), (3, 3 * 8), "every node learned something to export");
        exchange.absorb(participants, bytes);
        let exports: Vec<LearnedState> = arena.iter().map(baseline).collect();
        {
            let baselines: Vec<_> = arena.iter().map(|slot| slot.baseline()).collect();
            let rows: Vec<_> =
                baselines.iter().enumerate().map(|(node, base)| (node, base.states())).collect();
            exchange.round(&rows);
        }
        for slot in &arena {
            slot.with_live(|shard| exchange.redistribute(shard.learner()));
        }
        (recipe, arena, exchange, exports)
    }

    fn baseline(slot: &NodeTask<StepEnv>) -> LearnedState {
        slot.with_live(|shard| shard.learned_base[0].clone()).flatten().expect("a baseline")
    }

    fn weight(slot: &NodeTask<StepEnv>) -> f64 {
        let state = slot.with_live(|shard| shard.runtime.learned_snapshots().remove(0));
        state.flatten().expect("an exportable model").values()[0]
    }

    /// After a `Replace` round every baseline — and every model — holds the
    /// aggregate, the median node's own export: it was offered nothing. A
    /// node that learns on counts as a participant again and overwrites its
    /// own baseline alone; its peers' baselines and the aggregate stay put.
    #[test]
    fn a_replace_round_leaves_every_baseline_equal_to_the_aggregate() {
        let (recipe, arena, exchange, exports) = one_round(BlendPolicy::Replace);
        let aggregate = exchange.aggregates()[0].clone().unwrap();
        assert_eq!(aggregate, exports[1], "the median of three is the middle node's export");
        for slot in &arena {
            assert_eq!(baseline(slot), aggregate);
            assert_eq!(weight(slot), aggregate.values()[0]);
        }
        let stats = exchange.stats();
        assert_eq!(stats.redistributed, 2, "the median node shipped nothing");
        assert_eq!(stats.bytes_redistributed, 2 * 8);

        let mut changes = ChangeList::default();
        arena[0].advance(&recipe, Timestamp::from_secs(4), false, true, &mut changes);
        assert_eq!(changes.take_learned(), (1, 8), "node 0 re-exports what it learned");
        assert_ne!(baseline(&arena[0]), aggregate, "node 0 kept learning");
        assert_eq!(baseline(&arena[0]).values()[0], weight(&arena[0]));
        for slot in &arena[1..] {
            assert_eq!(baseline(slot), aggregate, "a peer's baseline moves only with its node");
        }
        assert_eq!(exchange.aggregates()[0].as_ref(), Some(&aggregate));
    }

    /// A `Mix` blend differs per node: each baseline, and each model, holds
    /// that node's own convex mix of its export and the aggregate.
    #[test]
    fn a_mix_round_gives_every_node_its_own_blend() {
        let mix = BlendPolicy::Mix { weight: 0.5 };
        let (_, arena, exchange, exports) = one_round(mix);
        let aggregate = exchange.aggregates()[0].as_ref().unwrap();
        for (slot, export) in arena.iter().zip(&exports) {
            let blend = mix.blend(export, aggregate).unwrap();
            assert_eq!(baseline(slot), blend);
            assert_eq!(weight(slot), blend.values()[0]);
        }
        assert_ne!(baseline(&arena[0]), baseline(&arena[2]));
        assert_ne!(baseline(&arena[0]), *aggregate);
    }

    #[test]
    fn report_is_byte_identical_across_thread_counts() {
        let run = |threads: usize| {
            let config = FleetConfig { nodes: 11, threads, ..FleetConfig::default() };
            let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
            debug_bytes(&fleet.run(SimDuration::from_secs(7)).unwrap())
        };
        let single = run(1);
        assert_eq!(single, run(2));
        assert_eq!(single, run(8));
        // More threads than nodes clamps rather than erroring.
        assert_eq!(single, run(64));
    }

    #[test]
    fn fleet_run_equals_the_fold_of_run_node() {
        let config = FleetConfig { nodes: 6, threads: 3, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        let horizon = SimDuration::from_secs(5);
        let report = fleet.run(horizon).unwrap();
        for index in 0..6 {
            let solo = fleet.run_node(index, horizon).unwrap();
            assert_eq!(debug_bytes(&report.nodes[index]), debug_bytes(&solo));
        }
        assert!(matches!(fleet.run_node(6, horizon), Err(RuntimeError::InvalidConfig(_))));
    }

    #[test]
    fn seeds_make_nodes_heterogeneous() {
        let config = FleetConfig { nodes: 8, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        let report = fleet.run(SimDuration::from_secs(10)).unwrap();
        let epochs: std::collections::HashSet<u64> =
            report.nodes.iter().map(|n| n.agents[0].stats.model.epochs_completed).collect();
        assert!(epochs.len() > 1, "per-node seeds must differentiate the nodes");
        // ...and the dashboards reflect the spread.
        let role = &report.roles[0];
        assert_eq!(role.name, "fast");
        assert_eq!(role.nodes, 8);
        assert!(role.epochs_completed.max > role.epochs_completed.min);
        assert_eq!(
            role.totals.model.epochs_completed,
            report.nodes.iter().map(|n| n.agents[0].stats.model.epochs_completed).sum::<u64>()
        );
    }

    #[test]
    fn metrics_aggregate_across_nodes() {
        let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        let report = fleet.run(SimDuration::from_secs(3)).unwrap();
        let summary = report.metric("advances").expect("recipe reports advances");
        assert_eq!(summary.nodes, 4);
        assert!(summary.total > 0.0);
        assert!(summary.min <= summary.mean && summary.mean <= summary.max);
        assert!((summary.mean - summary.total / 4.0).abs() < 1e-9);
    }

    #[test]
    fn role_lookup_is_keyed_by_handle_position() {
        // Capture handles from a probe assembly; they are valid fleet-wide.
        let mut probe = NodeRuntime::builder(StepEnv::default());
        let fast =
            probe.agent("fast", ConstModel { value: 1.0 }, CountActuator::default(), schedule(80));
        let slow =
            probe.agent("slow", ConstModel { value: 2.0 }, CountActuator::default(), schedule(160));
        drop(probe);

        let config = FleetConfig { nodes: 3, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        let report = fleet.run(SimDuration::from_secs(4)).unwrap();
        assert_eq!(report.role(fast).name, "fast");
        assert_eq!(report.role(slow).name, "slow");
        assert_eq!(report.role(AgentId::from(1)).name, "slow");
    }

    #[test]
    #[should_panic(expected = "agent#2 not in report")]
    fn role_lookup_out_of_range_panics() {
        let config = FleetConfig { nodes: 1, threads: 1, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(heterogeneous_recipe(), config).unwrap();
        let report = fleet.run(SimDuration::from_secs(1)).unwrap();
        report.role(AgentId::from(2));
    }

    #[test]
    fn differing_populations_are_rejected() {
        let recipe = ScenarioRecipe::new(|seed: &NodeSeed| {
            let mut builder = NodeRuntime::builder(StepEnv::default());
            builder.agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
            if seed.index() % 2 == 1 {
                builder.agent("b", ConstModel { value: 1.0 }, CountActuator::default(), {
                    schedule(100)
                });
            }
            builder.build()
        });
        let config = FleetConfig { nodes: 2, threads: 1, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(recipe, config).unwrap();
        assert!(matches!(
            fleet.run(SimDuration::from_secs(1)),
            Err(RuntimeError::InvalidConfig(_))
        ));
    }

    #[test]
    fn differing_metric_sets_are_rejected() {
        let recipe = ScenarioRecipe::new(|seed: &NodeSeed| {
            let env = StepEnv { fault: seed.index() % 2 == 1, ..StepEnv::default() };
            let mut builder = NodeRuntime::builder(env);
            builder.agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
            builder.build()
        })
        .with_metrics(|report| {
            // A metric that only some nodes report would silently skew the
            // fleet-wide summaries; the aggregator must reject it.
            if report.environment.fault {
                Vec::new()
            } else {
                vec![("advances".into(), report.environment.advances as f64)]
            }
        });
        let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(recipe, config).unwrap();
        let result = fleet.run(SimDuration::from_secs(1));
        assert!(matches!(result, Err(RuntimeError::InvalidConfig(_))));
    }

    #[test]
    fn worker_panic_surfaces_as_runtime_error() {
        let recipe = ScenarioRecipe::new(|seed: &NodeSeed| {
            assert!(seed.index() != 1, "node 1 is cursed");
            let mut builder = NodeRuntime::builder(StepEnv::default());
            builder.agent("a", ConstModel { value: 1.0 }, CountActuator::default(), schedule(100));
            builder.build()
        });
        let config = FleetConfig { nodes: 3, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(recipe, config).unwrap();
        assert!(matches!(fleet.run(SimDuration::from_secs(1)), Err(RuntimeError::WorkerPanicked)));
    }
}
