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
//! The view is patched in place, and a barrier costs one entry per agent
//! counter and telemetry reading, not a rebuilt view. Each worker answers a
//! barrier with one flat *change list* for all the nodes it claimed: a
//! `(node, role, AgentStats)` entry for every agent and a
//! `(node, slot, f64)` entry for every telemetry reading, plus a full
//! [`NodeInit`] for a node observed for the first time (or whose telemetry
//! layout changed). Workers do not diff against the last barrier: in the
//! benchmark workloads that collect views, no node was ever quiet. In one
//! 20 s benchmark process at seed 1, 0 of 29.8 M node-barriers on
//! `fleet-control` and 0 of 49,088 on `three-agents` would have shipped
//! nothing; every agent counter moved at every barrier, and so did 99.5 %
//! and 50 % of the readings respectively.
//! The coordinator moves the entries into its one persistent base view and
//! sends the emptied list back with the next barrier's command, so the
//! vectors keep their capacity: a steady barrier allocates nothing per node
//! on a worker and frees nothing on the coordinator. A controller whose
//! [`wants_view`](FleetController::wants_view) is `false` (like
//! [`NullController`]) skips per-node extraction entirely. The task list the
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
//! private method each: *collect* (advance the nodes, patch the view),
//! the controller's plan, *lifecycle*, *learn*, *place* — and one *fold* of
//! all node reports into the [`FleetReport`] when the last barrier is
//! through.
//!
//! The barrier is also the fleet's model-exchange point: with a
//! [`LearningPlane`] configured ([`FleetConfig::learning`]), nodes piggyback
//! changed [`LearnedState`] snapshots of their learners on the change list
//! they already send (quiet learners ship nothing), and
//! the coordinator robustly aggregates and redistributes them between the
//! lifecycle and placement phases — see the
//! [`learning`](crate::runtime::learning) module. A state is immutable once
//! exported and crosses the barrier by reference: the node's next diff
//! baseline and the coordinator's mirror row share one `Arc`, and a
//! `Replace` round hands the whole fleet one aggregate allocation.
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

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;

use sol_ml::exchange::LearnedState;

use crate::error::RuntimeError;
use crate::runtime::builder::ScenarioRecipe;
use crate::runtime::learning::{LearningExchange, LearningPlane, LearningStats, NodeLearnedExport};
use crate::runtime::lifecycle::{
    FaultPlan, LifecycleError, LifecycleEvent, NodeRecord, NodeRegistry, NodeState,
};
use crate::runtime::node::{AgentId, NodeRuntime};
use crate::runtime::placement::{
    AgentTelemetry, FleetCommand, FleetController, FleetView, NodeInit, NodePlacement, NodeView,
    NullController, WorkloadId, WorkloadUnit,
};
use crate::runtime::profile::{FleetProfile, Lap, WorkerProfile};
use crate::runtime::trust::{NodeTrustRecord, TrustAction, TrustPlane, TrustPolicy, TrustStats};
use crate::runtime::Environment;
use crate::stats::AgentStats;
use crate::time::{SimDuration, Timestamp};

/// Odd multiplier walking the per-node seed sequence (the golden-ratio
/// constant of SplitMix64). Oddness makes `fleet_seed + GAMMA·index` distinct
/// for every index, and [`splitmix64`] is a bijection, so derived seeds never
/// collide within a fleet.
pub(crate) const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 finalizer: a bijective avalanche mix on `u64`.
pub(crate) fn splitmix64(mut x: u64) -> u64 {
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
    /// aggregates the nodes' exported [`LearnedState`]s and redistributes
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

/// Final counters of one agent on one fleet node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAgentReport {
    /// The name the agent was registered under (identical across nodes).
    pub name: String,
    /// The agent's final runtime counters.
    pub stats: AgentStats,
}

/// Outcome of one node of a fleet run: per-agent counters plus the named
/// environment metrics the recipe extracted before the node was discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetNodeReport {
    /// The node's index in the fleet.
    pub node: usize,
    /// The derived seed the node was stamped out with.
    pub seed: u64,
    /// Per-agent outcomes, in registration order (the same order on every
    /// node, so position == role).
    pub agents: Vec<FleetAgentReport>,
    /// Environment metrics extracted by the recipe's
    /// [`with_metrics`](ScenarioRecipe::with_metrics) closure.
    pub metrics: Vec<(String, f64)>,
    /// Workload units resident on the node when it stopped (empty for
    /// environments without placeable slots).
    pub workloads: Vec<WorkloadUnit>,
    /// The node's final lifecycle record: its state when the run ended (or
    /// when it retired), the record version, and the join/update epochs.
    /// [`NodeRecord::initial`] for a node that saw no lifecycle events.
    pub lifecycle: NodeRecord,
    /// The node's final trust record: accumulated suspicion, divergence
    /// counters, and the verdict the trust plane ended on.
    /// [`NodeTrustRecord::initial`] for a run without a
    /// [`TrustPolicy`](FleetConfig::trust).
    pub trust: NodeTrustRecord,
    /// The virtual time at which the node stopped. For a crashed or drained
    /// node this is the boundary at which it retired, measured on the node's
    /// own clock (which starts at zero when the node joins).
    pub ended_at: Timestamp,
    /// Bytes of simulation state the node held when it stopped — the
    /// runtime's agent wake table and intervention queue plus whatever the
    /// environment reports through [`Environment::mem_bytes`] (nothing, for
    /// environments that do not implement the accounting hook).
    pub mem_bytes: usize,
}

/// Nearest-rank percentiles over one per-node statistic of an agent role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Smallest per-node value.
    pub min: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest per-node value.
    pub max: f64,
}

impl Percentiles {
    /// The all-zero distribution: what [`of`](Self::of) returns for an empty
    /// slice.
    pub const ZEROED: Percentiles =
        Percentiles { min: 0.0, p50: 0.0, p90: 0.0, p99: 0.0, max: 0.0 };

    /// Computes nearest-rank percentiles; `values` need not be sorted.
    ///
    /// An empty slice yields [`Percentiles::ZEROED`] — there is no data to
    /// rank, and a zeroed row keeps aggregate reports total rather than
    /// panicking deep inside a fleet fold. Callers that need to distinguish
    /// "no data" from "all zero" should use [`try_of`](Self::try_of).
    pub fn of(values: &[f64]) -> Percentiles {
        Percentiles::try_of(values).unwrap_or(Percentiles::ZEROED)
    }

    /// Like [`of`](Self::of), but reports an empty slice as `None` instead of
    /// a zeroed distribution.
    pub fn try_of(values: &[f64]) -> Option<Percentiles> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let n = sorted.len();
            let r = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            sorted[r.min(n) - 1]
        };
        Some(Percentiles {
            min: sorted[0],
            p50: rank(50.0),
            p90: rank(90.0),
            p99: rank(99.0),
            max: sorted[sorted.len() - 1],
        })
    }
}

/// Fleet-wide aggregate for one agent role (one registration position of the
/// recipe), the unit of the safety dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleAggregate {
    /// The name the role's agents were registered under.
    pub name: String,
    /// Number of nodes contributing to this aggregate.
    pub nodes: usize,
    /// Field-wise sum of every node's [`AgentStats`] for this role.
    pub totals: AgentStats,
    /// Fraction of nodes on which a safeguard activated at least once
    /// (an Actuator safeguard trip or a Model prediction interception).
    pub safeguard_activation_rate: f64,
    /// Per-node distribution of completed learning epochs.
    pub epochs_completed: Percentiles,
    /// Per-node distribution of actions taken.
    pub actions_taken: Percentiles,
    /// Per-node distribution of Actuator safeguard trips.
    pub safeguard_triggers: Percentiles,
}

/// Fleet-wide summary of one named environment metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name, as reported by the recipe's metrics closure.
    pub name: String,
    /// Number of nodes that reported the metric.
    pub nodes: usize,
    /// Sum across nodes (e.g. total SLO violations in the fleet).
    pub total: f64,
    /// Mean across nodes.
    pub mean: f64,
    /// Smallest per-node value.
    pub min: f64,
    /// Largest per-node value.
    pub max: f64,
}

/// Fleet-wide placement outcomes of one run: what the
/// [`FleetController`] asked for and what actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementStats {
    /// Total commands the controller issued across all epoch boundaries.
    pub commands: u64,
    /// Workload units successfully admitted.
    pub admitted: u64,
    /// Workload units successfully departed (drained).
    pub departed: u64,
    /// Workload units successfully migrated between nodes.
    pub migrated: u64,
    /// Commands that failed against the hosting environment: rejected
    /// admissions (capacity, unsupported environment, duplicate id, or a
    /// non-`Active` target node), detaches of unknown units, migrations
    /// whose either half failed — plus, at the end of the run, one count for
    /// every crash-displaced unit that was never re-placed.
    pub failed_placements: u64,
    /// Workload units displaced by node crashes.
    pub displaced: u64,
    /// Displaced units successfully re-placed onto a live node (a subset of
    /// [`admitted`](Self::admitted)).
    pub replaced: u64,
    /// Distribution over nodes of each node's mean occupancy (used fraction
    /// of its placeable capacity, averaged over the epoch barriers).
    /// [`Percentiles::ZEROED`] when no environment has placeable capacity.
    pub occupancy: Percentiles,
    /// Mean over epoch barriers of (fleet-wide resident cores) /
    /// (fleet-wide placeable capacity); 0 when nothing is placeable.
    pub packing_efficiency: f64,
}

impl Default for PlacementStats {
    fn default() -> Self {
        PlacementStats {
            commands: 0,
            admitted: 0,
            departed: 0,
            migrated: 0,
            failed_placements: 0,
            displaced: 0,
            replaced: 0,
            occupancy: Percentiles::ZEROED,
            packing_efficiency: 0.0,
        }
    }
}

/// Results of a completed fleet run: per-node outcomes in index order plus
/// the fleet-level dashboards.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-node outcomes, sorted by node index.
    pub nodes: Vec<FleetNodeReport>,
    /// Per-role aggregates, in agent registration order. Index with the
    /// [`AgentHandle`](crate::runtime::builder::AgentHandle)s the recipe's
    /// builder returned, via [`role`](Self::role). Crashed nodes are
    /// excluded from the fold (their partial counters would skew the safety
    /// dashboard); their stats remain visible in [`nodes`](Self::nodes)
    /// under the node's final lifecycle state.
    pub roles: Vec<RoleAggregate>,
    /// Summaries of the recipe-extracted environment metrics, in first-seen
    /// order. Crashed nodes are excluded, as for [`roles`](Self::roles).
    pub metrics: Vec<MetricSummary>,
    /// Placement outcomes (all-zero for a [`NullController`] run over
    /// capacity-free environments).
    pub placement: PlacementStats,
    /// Learning-plane outcomes (all-zero when [`FleetConfig::learning`] is
    /// `None`).
    pub learning: LearningStats,
    /// Trust-plane outcomes (all-zero when [`FleetConfig::trust`] is
    /// `None`). Per-node scores and verdicts live on each
    /// [`FleetNodeReport::trust`].
    pub trust: TrustStats,
    /// The virtual time at which the fleet stopped (identical on every node).
    pub ended_at: Timestamp,
    /// Number of epoch-boundary synchronizations the run performed (the
    /// controller is invoked once per boundary).
    pub epochs: u64,
    /// The largest per-node [`FleetNodeReport::mem_bytes`] in the fleet — the
    /// per-node budget a host must provision to run this configuration. A
    /// max (not a mean) because every node must fit; deterministic because
    /// each node's footprint is a pure function of its trajectory.
    pub mem_bytes_per_node: usize,
}

impl FleetReport {
    /// The aggregate for one agent role, keyed by the
    /// [`AgentHandle`](crate::runtime::builder::AgentHandle) (or [`AgentId`])
    /// the recipe's builder returned.
    ///
    /// # Panics
    ///
    /// Panics if the handle's position is out of range for the recipe's agent
    /// population.
    pub fn role(&self, handle: impl Into<AgentId>) -> &RoleAggregate {
        let id = handle.into();
        self.roles
            .get(id.index())
            .unwrap_or_else(|| panic!("{id} not in report (foreign id or already taken)"))
    }

    /// The summary of one recipe-extracted environment metric, by name.
    pub fn metric(&self, name: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// One unit of epoch work: a node's slot in the shared arena. The node index
/// lives inside the slot (in its seed), so a task is just the `Arc`.
type NodeTask<E> = Arc<NodeSlot<E>>;

/// The live set's tasks, shared by every worker: each claims contiguous
/// chunks through the one atomic cursor until none is left, so a worker that
/// runs out of work takes over what a slower sibling has not reached yet and
/// one slow node never idles the barrier. The list outlives the barrier: the
/// coordinator [`reset`](Self::reset)s it for the next one and builds a new
/// list only when the live set changed.
struct TaskList<T> {
    tasks: Vec<T>,
    /// Index of the first unclaimed task (past the end once all are claimed).
    next: AtomicUsize,
    /// Tasks handed out per claim.
    chunk: usize,
}

impl<T> TaskList<T> {
    /// A list `claimants` workers will share. A chunk is an eighth of one
    /// worker's even share: large enough that light nodes (~100 ns of work
    /// an epoch) do not pay one contended atomic each, small enough that the
    /// tail of the list rebalances whatever imbalance its head hid.
    fn new(tasks: Vec<T>, claimants: usize) -> Self {
        let chunk = (tasks.len() / (8 * claimants)).max(1);
        TaskList { tasks, next: AtomicUsize::new(0), chunk }
    }

    /// Claims the next chunk, or `None` once every task is claimed. Every
    /// task is handed out exactly once: `fetch_add` gives each caller a
    /// distinct start.
    fn claim(&self) -> Option<&[T]> {
        // Relaxed: the cursor publishes nothing but itself. The list reaches
        // the workers through the command channel and their results return
        // through the reply channel, which order everything else.
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        let end = (start + self.chunk).min(self.tasks.len());
        (start < end).then(|| &self.tasks[start..end])
    }

    /// Makes every task claimable again. The caller must know that no claim
    /// is in flight — the coordinator does: every worker answered the
    /// previous barrier, and answers only once its claims ran dry.
    fn reset(&self) {
        // Relaxed, as in `claim`: the command channel orders this store
        // before the next barrier's claims.
        self.next.store(0, Ordering::Relaxed);
    }
}

/// What one worker observed at one barrier, across every node it claimed,
/// flattened into four vectors keyed by node index: every agent counter and
/// reading of every collected node, changed or not, since at every measured
/// barrier every counter had moved (shares in the [module docs](self)).
/// The coordinator moves
/// the entries into its base view and hands the emptied list back with the
/// next command, so the vectors keep their capacity and a steady barrier
/// allocates nothing per node — on either side.
#[derive(Default)]
struct ChangeList {
    /// First full observations (and re-observations after a telemetry
    /// layout change): one per node per run, as a rule.
    inits: Vec<(usize, NodeInit)>,
    /// Agent counters: `(node, registration position, stats)`.
    agents: Vec<(usize, usize, AgentStats)>,
    /// Telemetry readings: `(node, emission position, value)`.
    telemetry: Vec<(usize, usize, f64)>,
    /// On exchange rounds, the learned states that changed since each
    /// node's last export.
    exports: Vec<NodeLearnedExport>,
}

impl ChangeList {
    /// Moves the view changes into `nodes`, leaving those three vectors
    /// empty. A node is claimed by one worker per barrier and ships either
    /// an init or patches, so the order lists are patched in never shows.
    /// Positions out of range for a node's layout are ignored, exactly as
    /// [`NodeDelta::apply`](crate::runtime::placement::NodeDelta::apply)
    /// ignores them.
    fn patch(&mut self, nodes: &mut [NodeView]) {
        for (node, init) in self.inits.drain(..) {
            let view = &mut nodes[node];
            view.agents = init.agents;
            view.telemetry = init.telemetry;
            view.placement = init.placement;
        }
        for (node, role, stats) in self.agents.drain(..) {
            if let Some(agent) = nodes[node].agents.get_mut(role) {
                agent.stats = stats;
            }
        }
        for (node, slot, value) in self.telemetry.drain(..) {
            if let Some((_, reading)) = nodes[node].telemetry.get_mut(slot) {
                *reading = value;
            }
        }
    }
}

/// What one barrier asks of the workers.
#[derive(Clone, Copy)]
enum Work {
    /// Run every claimed node to `boundary`. `collect` asks for full barrier
    /// observations (agent stats + telemetry deltas) — without it only each
    /// node's first observation is shipped; `learn` marks a learning-plane
    /// exchange round (nodes piggyback changed learned state).
    Epoch { boundary: Timestamp, collect: bool, learn: bool },
    /// Summarize every claimed node and ship the reports home.
    Finish,
}

/// What the coordinator sends to every worker, once per barrier (the entire
/// lifecycle/placement phase runs coordinator-side against the shared
/// arena) and once more to summarize: the work, the live set's task list,
/// and an empty change list to fill — the one this worker's previous answer
/// came back in.
struct CoordMsg<E: Environment + 'static> {
    work: Work,
    tasks: Arc<TaskList<NodeTask<E>>>,
    changes: ChangeList,
}

/// What a worker did with one command.
enum Done {
    /// Every node this worker claimed reached the boundary; carries what
    /// changed on them.
    Epoch(ChangeList),
    /// Final outcomes of the nodes this worker claimed (answers `Finish`).
    Finished(Vec<FleetNodeReport>),
}

/// What a worker sends back once the task list ran dry: the outcome, and its
/// own account of the barrier for the [`FleetProfile`].
struct WorkerMsg {
    done: Done,
    /// Wall time from receiving the command to sending this.
    busy_ns: u64,
    /// Nodes claimed off the task list.
    claimed: u64,
}

/// Drives *N* recipe-stamped [`NodeRuntime`]s under one virtual clock. See
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
        if config.nodes == 0 {
            return Err(RuntimeError::InvalidConfig(
                "fleet config: nodes must be at least 1".into(),
            ));
        }
        if config.threads == 0 {
            return Err(RuntimeError::InvalidConfig(
                "fleet config: threads must be at least 1".into(),
            ));
        }
        if config.epoch.is_zero() {
            return Err(RuntimeError::InvalidConfig("fleet config: epoch must be non-zero".into()));
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
    /// one persistent base patched in place from the workers' change lists,
    /// which carry every agent counter and reading of every node (no
    /// measured workload has a node that is quiet across a barrier); a
    /// controller whose [`wants_view`](FleetController::wants_view) is
    /// `false` skips even that, receiving views with exact
    /// `placement`/`state`/`displaced` but empty per-node agent and telemetry
    /// vectors.
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
    /// coordinator skips its own quarantine drain for such a node, and
    /// counted in [`FleetProfile::fault_events_skipped`]. A plan
    /// event addressing a node index outside the fleet is still an
    /// [`RuntimeError::InvalidConfig`], as is every illegal transition the
    /// *controller* issues.
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
        // arena. The closure owns the coordinator, so on every way out — the
        // final fold or an early `?` — its command senders drop, which is
        // what releases the workers for the join below.
        let report = (move || {
            for (epoch, &boundary) in (0u64..).zip(&boundaries) {
                let drained = coordinator.collect(epoch, boundary)?;
                let plan = controller.plan(&coordinator.base);
                coordinator.placement.commands += plan.len() as u64;
                let (commands, events) = plan.into_parts();
                coordinator.clock.charge(&mut coordinator.profile.phases.plan_ns);
                let joined =
                    coordinator.lifecycle(epoch, boundary, drained, events, &mut faults)?;
                coordinator.clock.charge(&mut coordinator.profile.phases.lifecycle_ns);
                coordinator.learn(epoch, &joined);
                coordinator.place(commands)?;
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
            return Err(died());
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

fn died() -> RuntimeError {
    RuntimeError::WorkerPanicked
}

/// The base-view entry of a node nothing is known about yet — before its
/// first observation ships — or any more, once it retired.
fn placeholder_view(node: usize, state: NodeState) -> NodeView {
    NodeView {
        node,
        agents: Vec::new(),
        telemetry: Vec::new(),
        placement: NodePlacement::none(),
        state,
    }
}

/// The coordinator's learning state. The trust engine scores the exchange's
/// rounds, so it never exists without one (config validation guarantees it).
struct LearningPhase {
    /// The per-node learned-state mirror, the latest per-role aggregates,
    /// and the run's counters.
    exchange: LearningExchange,
    trust: Option<TrustPlane>,
    /// The quarantine hand-off, in ascending node order: drains issued by
    /// round `k`'s scoring are applied in barrier `k+1`'s lifecycle phase,
    /// because scoring runs after the current barrier's lifecycle phase
    /// already completed.
    quarantine_drains: Vec<usize>,
}

/// `(source node, unit, migration target)`; a departure has no target.
type Detach = (usize, WorkloadId, Option<usize>);
/// `(target node, unit, migration source)`; an admission has no source.
type Attach = (usize, WorkloadUnit, Option<usize>);

/// Everything the coordinator thread holds across the barriers of one run.
/// [`FleetRuntime::run_with_faults`] calls its phases in order — `collect`,
/// `lifecycle`, `learn`, `place` at every barrier, `fold` once at the end.
struct Coordinator<'f, E: Environment + 'static> {
    fleet: &'f FleetRuntime<E>,
    /// Whether the controller reads the per-node view, i.e. whether barriers
    /// extract agent stats and telemetry at all. Sampled once per run.
    wants_view: bool,
    /// One command sender and one reply receiver per worker. A closed
    /// channel either way means the worker died; dropping the senders is
    /// what tells the workers to exit.
    links: Vec<(Sender<CoordMsg<E>>, Receiver<WorkerMsg>)>,
    /// The live set's task list, reset and reused barrier after barrier;
    /// `None` until the first barrier and after a lifecycle phase changed
    /// the live set, which makes the next hand-off build a fresh one.
    tasks: Option<Arc<TaskList<NodeTask<E>>>>,
    /// Emptied change lists waiting to go out with the next command: each
    /// worker's answer comes back in the list it was sent, so after the
    /// first barrier this pool holds one per worker between barriers.
    buffers: Vec<ChangeList>,
    /// The slot arena: one persistent, mutex-guarded slot per node index,
    /// shared between the coordinator and whichever worker claims the node
    /// each epoch. Slots are stamped lazily (`Vacant`) and die in place
    /// (`Retired`), so a node's state never moves between allocations for
    /// the lifetime of the run, and the coordinator can apply lifecycle and
    /// placement phases directly — no per-phase message round trips.
    arena: Vec<NodeTask<E>>,
    registry: NodeRegistry,
    /// The base view, patched in place from the workers' change lists at
    /// every barrier; the crash-displaced pool lives inside it. Entries
    /// start as placeholders — every node ships a full first observation at
    /// its first barrier, before any controller looks.
    base: FleetView,
    learning: Option<LearningPhase>,
    placement: PlacementStats,
    occupancy_sums: Vec<f64>,
    packing_sum: f64,
    /// Reports of nodes retired mid-run, folded in with the survivors'.
    early_reports: Vec<FleetNodeReport>,
    /// Where the wall time goes; never read by anything that feeds the
    /// report.
    profile: FleetProfile,
    /// The stopwatch behind `profile.phases`: it runs from here to the end
    /// of the fold, and every lap is charged to exactly one phase.
    clock: Lap,
}

impl<'f, E: Environment + Send + 'static> Coordinator<'f, E> {
    /// Spawns the worker pool and sets up an all-`Active`, all-vacant fleet.
    /// The handles come back separately so the caller can join the workers
    /// after the coordinator (and with it the command senders) is gone.
    fn start(fleet: &'f FleetRuntime<E>, wants_view: bool) -> (Self, Vec<thread::JoinHandle<()>>) {
        let config = &fleet.config;
        let mut links = Vec::new();
        let mut workers = Vec::new();
        for _ in 0..config.threads.min(config.nodes) {
            let (cmd_tx, cmd_rx) = mpsc::channel::<CoordMsg<E>>();
            let (done_tx, done_rx) = mpsc::channel::<WorkerMsg>();
            links.push((cmd_tx, done_rx));
            let recipe = Arc::clone(&fleet.recipe);
            let handle = thread::Builder::new()
                .name("sol-fleet-worker".into())
                .spawn(move || worker(recipe, cmd_rx, done_tx))
                .expect("spawn fleet worker");
            workers.push(handle);
        }
        let profile = FleetProfile {
            workers: vec![WorkerProfile::default(); links.len()],
            ..Default::default()
        };
        let coordinator = Coordinator {
            fleet,
            wants_view,
            links,
            tasks: None,
            buffers: Vec::new(),
            arena: (0..config.nodes)
                .map(|index| NodeSlot::vacant(fleet.node_seed(index), Timestamp::ZERO))
                .collect(),
            registry: NodeRegistry::new(config.nodes),
            base: FleetView {
                now: Timestamp::ZERO,
                epoch: 0,
                nodes: (0..config.nodes)
                    .map(|index| placeholder_view(index, NodeState::Active))
                    .collect(),
                displaced: Vec::new(),
            },
            learning: config.learning.map(|plane| LearningPhase {
                exchange: LearningExchange::new(plane, config.nodes),
                trust: config.trust.map(|policy| TrustPlane::new(policy, config.nodes)),
                quarantine_drains: Vec::new(),
            }),
            placement: PlacementStats::default(),
            occupancy_sums: vec![0.0; config.nodes],
            packing_sum: 0.0,
            early_reports: Vec::new(),
            profile,
            clock: Lap::start(),
        };
        (coordinator, workers)
    }

    /// Wakes every worker with `work` over the live set's task list — the
    /// previous barrier's list with its cursor reset, or a fresh one if the
    /// live set changed since — and an empty change list each.
    fn hand_off(&mut self, work: Work) -> Result<(), RuntimeError> {
        let tasks = match &self.tasks {
            Some(tasks) => {
                tasks.reset();
                Arc::clone(tasks)
            }
            None => {
                let live = self.registry.records().iter().filter(|record| record.state.is_live());
                let slots = live.map(|record| Arc::clone(&self.arena[record.node])).collect();
                self.profile.task_lists_built += 1;
                Arc::clone(self.tasks.insert(Arc::new(TaskList::new(slots, self.links.len()))))
            }
        };
        for (cmd_tx, _) in &self.links {
            let changes = self.buffers.pop().unwrap_or_else(|| {
                self.profile.change_buffers_allocated += 1;
                ChangeList::default()
            });
            cmd_tx
                .send(CoordMsg { work, tasks: Arc::clone(&tasks), changes })
                .map_err(|_| died())?;
        }
        Ok(())
    }

    /// Waits for worker `link`'s answer to the last hand-off and books the
    /// worker's own account of the barrier.
    fn answer(&mut self, link: usize) -> Result<Done, RuntimeError> {
        let WorkerMsg { done, busy_ns, claimed } = self.links[link].1.recv().map_err(|_| died())?;
        let worker = &mut self.profile.workers[link];
        worker.busy_ns += busy_ns;
        worker.nodes_claimed += claimed;
        Ok(done)
    }

    /// Collect phase: advances every live node to `boundary`, patches what
    /// the workers ship into the base view (and, on exchange rounds, the
    /// learned-state mirror), and brings the registry and the view's stamps
    /// up to date before the controller looks. Returns the draining nodes
    /// observed empty, which retire in this barrier's lifecycle phase.
    fn collect(&mut self, epoch: u64, boundary: Timestamp) -> Result<Vec<usize>, RuntimeError> {
        let learn = self
            .learning
            .as_ref()
            .is_some_and(|phase| phase.exchange.plane().is_learn_epoch(epoch));
        self.hand_off(Work::Epoch { boundary, collect: self.wants_view, learn })?;
        self.clock.charge(&mut self.profile.phases.hand_off_ns);
        // One worker's list is patched in while the others still run.
        for link in 0..self.links.len() {
            let Done::Epoch(mut changes) = self.answer(link)? else { return Err(died()) };
            self.clock.charge(&mut self.profile.phases.wait_ns);
            changes.patch(&mut self.base.nodes);
            self.clock.charge(&mut self.profile.phases.apply_ns);
            if let Some(phase) = self.learning.as_mut() {
                // Patch the learned-state mirror before lifecycle events
                // retire anyone: the exports describe the boundary every
                // node just reached.
                phase.exchange.absorb(changes.exports.drain(..));
            }
            self.clock.charge(&mut self.profile.phases.absorb_ns);
            self.buffers.push(changes);
        }

        // Registry bookkeeping from the fresh observations: nodes that
        // joined at an earlier boundary have run a full epoch and become
        // Active; draining nodes observed empty retire as Drained this
        // boundary.
        let mut drained = Vec::new();
        for index in 0..self.registry.len() {
            let record = self.registry.records()[index];
            match record.state {
                NodeState::Joining if record.joined_epoch < epoch => {
                    self.registry
                        .transition(index, NodeState::Active, epoch)
                        .expect("joining -> active is legal");
                }
                NodeState::Draining if self.base.nodes[index].placement.resident.is_empty() => {
                    self.registry
                        .transition(index, NodeState::Drained, epoch)
                        .expect("draining -> drained is legal");
                    drained.push(index);
                }
                _ => {}
            }
        }

        // Stamp the barrier position and every node's registry state onto
        // the base view (retired nodes were tombstoned when they retired),
        // and book occupancy from this pre-plan view.
        self.base.now = boundary;
        self.base.epoch = epoch;
        let mut used_total = 0.0;
        let mut capacity_total = 0.0;
        for (index, view) in self.base.nodes.iter_mut().enumerate() {
            view.state = self.registry.records()[index].state;
            self.occupancy_sums[index] += view.placement.occupancy();
            used_total += view.placement.used();
            capacity_total += view.placement.capacity;
        }
        if capacity_total > 0.0 {
            self.packing_sum += used_total / capacity_total;
        }
        self.profile.barriers += 1;
        self.clock.charge(&mut self.profile.phases.bookkeeping_ns);
        Ok(drained)
    }

    /// Lifecycle phase, applied directly on the arena: the controller's
    /// `events`, then the fault plan's due ones, update the registry in
    /// issue order; then completed drains (`drained`) and fresh crashes
    /// retire together, in node order, so the displaced pool's layout is
    /// independent of issue order. Returns the nodes that joined.
    fn lifecycle(
        &mut self,
        epoch: u64,
        boundary: Timestamp,
        drained: Vec<usize>,
        events: Vec<LifecycleEvent>,
        faults: &mut FaultPlan,
    ) -> Result<Vec<usize>, RuntimeError> {
        let due = faults.due(boundary);
        self.placement.commands += due.len() as u64;
        let mut retiring = drained;
        let mut crashed = Vec::new();
        let mut joined = Vec::new();
        let issued = events.into_iter().map(|event| (event, false));
        for (event, from_plan) in issued.chain(due.into_iter().map(|event| (event, true))) {
            let outcome = match event {
                LifecycleEvent::Crash { node } => {
                    self.registry.transition(node, NodeState::Crashed, epoch).map(|()| {
                        crashed.push(node);
                        retiring.push(node);
                    })
                }
                LifecycleEvent::Drain { node } => {
                    self.registry.transition(node, NodeState::Draining, epoch)
                }
                LifecycleEvent::Join => {
                    let index = self.registry.join(epoch);
                    self.arena.push(NodeSlot::vacant(self.fleet.node_seed(index), boundary));
                    self.base.nodes.push(placeholder_view(index, NodeState::Joining));
                    joined.push(index);
                    Ok(())
                }
            };
            match outcome {
                Ok(()) => {}
                // The plan's author cannot know which nodes the controller
                // or the trust plane removed first, and a machine that has
                // left cannot crash: the event's intent is already met.
                Err(LifecycleError::IllegalTransition { .. }) if from_plan => {
                    self.profile.fault_events_skipped += 1;
                }
                // From the controller, an illegal transition is a loud
                // error, never a silent repair.
                Err(e) => return Err(RuntimeError::InvalidConfig(e.to_string())),
            }
        }
        if let Some(phase) = self.learning.as_mut() {
            // Trust-plane quarantines flow through the same lifecycle
            // machinery as controller drains, one barrier after the round
            // that issued them. A node crashed or drained in the meantime is
            // skipped: the quarantine's intent — get the node out of the
            // fleet — is already satisfied, and its exports stay excluded
            // either way.
            for node in phase.quarantine_drains.drain(..) {
                if self.registry.records()[node].state == NodeState::Active {
                    self.registry
                        .transition(node, NodeState::Draining, epoch)
                        .expect("active -> draining is legal");
                }
            }
            phase.exchange.grow(self.registry.len());
            if let Some(trust) = phase.trust.as_mut() {
                trust.grow(self.registry.len());
            }
        }
        self.occupancy_sums.resize(self.registry.len(), 0.0);
        if !(retiring.is_empty() && joined.is_empty()) {
            // The live set changes at this barrier: the next hand-off builds
            // its task list anew.
            self.tasks = None;
        }

        retiring.sort_unstable();
        for &node in &retiring {
            // A vacant slot (a node crashed at its own join boundary) is
            // stamped first, so it reports like any zero-advancement node.
            let shard = self.arena[node]
                .take(&self.fleet.recipe)
                .expect("a retiring node is live or vacant");
            let report = summarize(&self.fleet.recipe, shard.seed, shard.runtime);
            if crashed.contains(&node) {
                // Crashed: residents are displaced and must be re-placed by
                // the controller.
                self.placement.displaced += report.workloads.len() as u64;
                self.base.displaced.extend(&report.workloads);
            } else if !report.workloads.is_empty() {
                // A node only retires as Drained after a barrier observation
                // showed it empty, and nothing may attach in between;
                // resident units here mean the protocol is broken.
                return Err(RuntimeError::InvalidConfig(format!(
                    "drained node {node} still hosts {} workload unit(s)",
                    report.workloads.len()
                )));
            }
            self.early_reports.push(report);
            if let Some(phase) = self.learning.as_mut() {
                // Retired nodes stop contributing to aggregates from this
                // barrier on: a crashed node's final export was absorbed in
                // the collect phase, and dropping its row here removes it
                // before this barrier's exchange round folds.
                phase.exchange.forget(node);
            }
            // Tombstone the base entry; its state stamp comes off the
            // registry at the next barrier, like every node's.
            let view = &mut self.base.nodes[node];
            *view = placeholder_view(node, view.state);
        }
        Ok(joined)
    }

    /// Learning phase, between lifecycle and placement: on exchange rounds,
    /// fold the live nodes' mirrored states into per-role aggregates, score
    /// the round, and import the blended aggregate back into every live
    /// node; nodes that `joined` at this barrier warm-start from the latest
    /// aggregates either way. Everything runs coordinator-side, keyed by
    /// node index in ascending order, so the learning plane inherits the
    /// thread-count determinism of the rest of the barrier.
    fn learn(&mut self, epoch: u64, joined: &[usize]) {
        let Some(phase) = self.learning.as_mut() else { return };
        let (arena, recipe) = (&self.arena, &self.fleet.recipe);
        if phase.exchange.plane().is_learn_epoch(epoch) {
            let records = self.registry.records().iter();
            let live: Vec<usize> =
                records.filter(|record| record.state.is_live()).map(|record| record.node).collect();
            // Trust gate: suspects' and quarantined nodes' exports are
            // withheld from the fold. Verdicts are the ones standing at the
            // start of the round, so exclusion is a pure function of earlier
            // rounds.
            match phase.trust.as_mut() {
                Some(trust) => phase.exchange.round(&trust.participants(&live)),
                None => phase.exchange.round(&live),
            }
            self.clock.charge(&mut self.profile.phases.round_ns);
            // Score the round: every live node's mirrored export (withheld
            // ones included — measured against the consensus they no longer
            // vote on) against the fresh aggregates, in node-index order.
            // Quarantine verdicts queue a Drain for the next barrier's
            // lifecycle phase.
            if let Some(trust) = phase.trust.as_mut() {
                for action in trust.evaluate(epoch, &live, &phase.exchange) {
                    if let TrustAction::Quarantine { node, .. } = action {
                        phase.quarantine_drains.push(node);
                    }
                }
            }
            self.clock.charge(&mut self.profile.phases.score_ns);
            phase.exchange.redistribute(&live, |node, slot, state| {
                arena[node].with_live(|shard| shard.import_learned(slot, state)).unwrap_or(false)
            });
        }
        for &node in joined {
            // Stamping here is byte-identical to the lazy stamp a worker
            // would perform at the node's first epoch — it is a pure
            // function of the recipe and the slot's seed.
            phase.exchange.warm_start(node, |slot, state| {
                arena[node]
                    .with_stamped(recipe, |shard| shard.import_learned(slot, state))
                    .unwrap_or(false)
            });
        }
        self.clock.charge(&mut self.profile.phases.redistribute_ns);
    }

    /// Validates the plan's commands against the registry and splits them
    /// into the detach and attach lists, each in plan order. An out-of-range
    /// index is a loud error, while a command against a node in the wrong
    /// lifecycle state (admissions and migration targets need `Active`;
    /// sources need a live node) counts as a failed placement — this is how
    /// draining and joining nodes reject admissions, and how commands racing
    /// a same-plan crash fail instead of resurrecting a dead node.
    fn partition(
        &mut self,
        commands: Vec<FleetCommand>,
    ) -> Result<(Vec<Detach>, Vec<Attach>), RuntimeError> {
        let records = self.registry.records();
        let state = |node: usize| match records.get(node) {
            Some(record) => Ok(record.state),
            None => Err(RuntimeError::InvalidConfig(format!(
                "controller addressed node {node} of a {}-node fleet",
                records.len()
            ))),
        };
        let mut detaches = Vec::new();
        let mut attaches = Vec::new();
        for command in commands {
            let accepted = match command {
                FleetCommand::Admit { node, unit } => {
                    let accepted = state(node)?.is_active();
                    if accepted {
                        attaches.push((node, unit, None));
                    }
                    accepted
                }
                FleetCommand::Depart { node, workload } => {
                    let accepted = state(node)?.is_live();
                    if accepted {
                        detaches.push((node, workload, None));
                    }
                    accepted
                }
                FleetCommand::Migrate { from, to, workload } => {
                    let (target, source) = (state(to)?, state(from)?);
                    let accepted = source.is_live() && target.is_active();
                    if accepted {
                        detaches.push((from, workload, Some(to)));
                    }
                    accepted
                }
            };
            if !accepted {
                self.placement.failed_placements += 1;
            }
        }
        Ok((detaches, attaches))
    }

    /// Attaches `unit` to `node`; `false` if the node's environment refuses
    /// it or the slot is not live.
    fn attach(&self, node: usize, unit: WorkloadUnit) -> bool {
        self.arena[node]
            .with_live(|shard| shard.runtime.attach_workload(unit).is_ok())
            .unwrap_or(false)
    }

    /// Placement phase: departures and migration-detaches first, then
    /// admissions and migration-attaches, each stable-sorted by target node
    /// index — so freed capacity is available to the same barrier's
    /// admissions — then the rollback of migrations whose attach half
    /// failed. A command's tag is its position in its list.
    fn place(&mut self, commands: Vec<FleetCommand>) -> Result<(), RuntimeError> {
        let (detaches, mut attaches) = self.partition(commands)?;
        // Every node whose placement the phases may have changed, for the
        // mirror refresh at the end.
        let mut touched: Vec<usize> = Vec::new();

        let mut order: Vec<usize> = (0..detaches.len()).collect();
        order.sort_by_key(|&tag| (detaches[tag].0, tag));
        let mut recovered: Vec<Option<WorkloadUnit>> = vec![None; detaches.len()];
        for tag in order {
            let (node, workload, _) = detaches[tag];
            touched.push(node);
            recovered[tag] = self.arena[node]
                .with_live(|shard| shard.runtime.detach_workload(workload).ok())
                .flatten();
        }
        // Migration re-attaches queue behind the admissions, in plan order.
        for (&(from, _, to), unit) in detaches.iter().zip(recovered) {
            match (unit, to) {
                (None, _) => self.placement.failed_placements += 1,
                (Some(_), None) => self.placement.departed += 1,
                (Some(unit), Some(to)) => attaches.push((to, unit, Some(from))),
            }
        }

        let mut order: Vec<usize> = (0..attaches.len()).collect();
        order.sort_by_key(|&tag| (attaches[tag].0, tag));
        let mut failed_tags: Vec<usize> = Vec::new();
        for tag in order {
            let (node, unit, source) = attaches[tag];
            touched.push(node);
            match (self.attach(node, unit), source) {
                (true, None) => self.placement.admitted += 1,
                (true, Some(_)) => self.placement.migrated += 1,
                (false, _) => failed_tags.push(tag),
            }
        }
        failed_tags.sort_unstable();

        // Displaced units whose re-admission landed leave the pool.
        for (tag, &(_, unit, source)) in attaches.iter().enumerate() {
            if source.is_none() && failed_tags.binary_search(&tag).is_err() {
                if let Some(pos) = self.base.displaced.iter().position(|u| u.id == unit.id) {
                    self.base.displaced.remove(pos);
                    self.placement.replaced += 1;
                }
            }
        }

        // Rollback: a migration whose attach half failed must not destroy
        // the unit — it goes back to its source node (which just freed the
        // capacity). The failed migration still counts as a failed
        // placement; failed admissions only count (the unit never entered
        // the fleet).
        for &tag in &failed_tags {
            self.placement.failed_placements += 1;
            let (_, unit, source) = attaches[tag];
            if let Some(source) = source {
                touched.push(source);
                if !self.attach(source, unit) {
                    // A unit that could not even return home is genuinely
                    // lost; make that loud in the stats.
                    self.placement.failed_placements += 1;
                }
            }
        }

        // Placement changes only through the hooks above, so the mirror
        // refresh re-reads truth for the touched nodes alone; every other
        // node's mirrored placement is already exact.
        touched.sort_unstable();
        touched.dedup();
        for node in touched {
            if let Some(now) = self.arena[node].with_live(|shard| shard.runtime.placement()) {
                self.base.nodes[node].placement = now;
            }
        }
        Ok(())
    }

    /// Fold phase, once the last barrier is through: the surviving nodes
    /// summarize through the same task list (summaries are independent;
    /// reports re-sort by index), the retired nodes' reports join them, and
    /// everything folds into the fleet dashboard.
    fn fold(
        mut self,
        boundaries: &[Timestamp],
    ) -> Result<(FleetReport, FleetProfile), RuntimeError> {
        let mut nodes = std::mem::take(&mut self.early_reports);
        self.hand_off(Work::Finish)?;
        for link in 0..self.links.len() {
            let Done::Finished(reports) = self.answer(link)? else { return Err(died()) };
            nodes.extend(reports);
        }
        nodes.sort_by_key(|report| report.node);
        assert_eq!(nodes.len(), self.registry.len(), "every node reports exactly once");
        for node in &mut nodes {
            node.lifecycle = self.registry.records()[node.node];
            if let Some(trust) = self.learning.as_ref().and_then(|phase| phase.trust.as_ref()) {
                node.trust = trust.record(node.node);
            }
        }

        let epochs = boundaries.len() as f64;
        let mut placement = self.placement;
        placement.occupancy =
            Percentiles::of(&self.occupancy_sums.iter().map(|s| s / epochs).collect::<Vec<f64>>());
        placement.packing_efficiency = self.packing_sum / epochs;
        // Displaced units nobody re-placed did not survive the run; that must
        // be loud in the stats, not silently forgotten with the pool.
        placement.failed_placements += self.base.displaced.len() as u64;

        let ended_at = *boundaries.last().expect("non-empty epoch grid");
        let (learning, trust) = match &self.learning {
            Some(phase) => (
                phase.exchange.stats(),
                phase.trust.as_ref().map(|trust| trust.stats()).unwrap_or_default(),
            ),
            None => Default::default(),
        };
        let report =
            aggregate(nodes, boundaries.len() as u64, placement, learning, trust, ended_at)?;
        self.clock.charge(&mut self.profile.phases.fold_ns);
        Ok((report, self.profile))
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

/// One stamped node: its seed, its live runtime, the fleet time at which its
/// local clock started (non-zero for nodes joined mid-run), the telemetry
/// layout the coordinator's view of it has, and its learned-state export
/// baseline.
struct ShardNode<E: Environment + 'static> {
    seed: NodeSeed,
    runtime: NodeRuntime<E>,
    start: Timestamp,
    /// How many telemetry readings the last full observation shipped;
    /// `None` until the first one. Barrier patches are positional, so a
    /// reading count that differs from it re-ships the node in full.
    telemetry_len: Option<usize>,
    /// Learned states as of the last learning-plane export (or coordinator
    /// import), indexed by agent slot; the exchange-round diff baseline.
    /// Empty until the first exchange round touches the node. Shared with
    /// the coordinator's mirror — and, after a `Replace` round, with every
    /// other node — never written through.
    learned_base: Vec<Option<Arc<LearnedState>>>,
}

impl<E: Environment + 'static> ShardNode<E> {
    /// Stamps the node out of the recipe. It ships a full observation at
    /// its first barrier.
    fn stamp(recipe: &ScenarioRecipe<E>, seed: NodeSeed, start: Timestamp) -> Self {
        ShardNode {
            runtime: recipe.instantiate(&seed),
            seed,
            start,
            telemetry_len: None,
            learned_base: Vec::new(),
        }
    }

    /// Maps fleet time onto this node's local clock. A joined node starts a
    /// virgin timeline at its join boundary, so the recipe's schedules and
    /// seed-derived phases behave exactly as on a node present from the
    /// start.
    fn local(&self, fleet_time: Timestamp) -> Timestamp {
        Timestamp::ZERO + fleet_time.duration_since(self.start)
    }

    /// Runs the node's event loop up to fleet time `boundary`. Out of line on
    /// purpose: this loop is where a node-bound run's time goes, and compiled
    /// into the worker's body its code generation shifts with every edit to
    /// the barrier code around it — the node-bound benchmark workloads read
    /// 5–15 % slower after a change that touched no line of the loop.
    #[inline(never)]
    fn run_to(&mut self, boundary: Timestamp) {
        let until = self.local(boundary);
        self.runtime.run_until(until);
    }

    /// Writes the barrier observation into `changes`. The first call ships
    /// a full [`NodeInit`] (placement always, agent stats and telemetry only
    /// when `collect`); later calls write nothing without `collect`, and
    /// with it every role's stats and every reading, unchanged or not (no
    /// measured workload has a quiet node; see the [module docs](self)).
    fn observe(&mut self, recipe: &ScenarioRecipe<E>, collect: bool, changes: &mut ChangeList) {
        let node = self.seed.index() as usize;
        let Some(telemetry_len) = self.telemetry_len else {
            changes.inits.push((node, self.full_observation(recipe, collect)));
            return;
        };
        if !collect {
            return;
        }
        let readings = recipe.extract_telemetry(self.runtime.environment());
        if readings.len() != telemetry_len {
            // The telemetry shape changed; re-ship everything rather than
            // patch positionally against a stale layout.
            changes.inits.push((node, self.full_observation(recipe, collect)));
            return;
        }
        for role in 0..self.runtime.agent_count() {
            changes.agents.push((node, role, self.runtime.agent_stats(AgentId::from(role))));
        }
        changes
            .telemetry
            .extend(readings.into_iter().enumerate().map(|(slot, (_, value))| (node, slot, value)));
    }

    /// A full observation, recording its telemetry layout. Placement is
    /// always exact (the coordinator mirrors it); agent stats and telemetry
    /// are extracted only when some controller will read them.
    fn full_observation(&mut self, recipe: &ScenarioRecipe<E>, collect: bool) -> NodeInit {
        let mut init = NodeInit {
            agents: Vec::new(),
            telemetry: Vec::new(),
            placement: self.runtime.placement(),
        };
        if collect {
            init.agents = self
                .runtime
                .agent_snapshots()
                .into_iter()
                .map(|(name, stats)| AgentTelemetry { name, stats })
                .collect();
            init.telemetry = recipe.extract_telemetry(self.runtime.environment());
        }
        self.telemetry_len = Some(init.telemetry.len());
        init
    }

    /// The learning-plane export for this barrier: every agent's learned
    /// state that changed since the node's last export (the first exchange
    /// round ships every exportable state). `None` when nothing changed —
    /// the quiet-learner case, costing the coordinator nothing.
    fn export_learned(&mut self) -> Option<NodeLearnedExport> {
        let snapshots = self.runtime.learned_snapshots();
        self.learned_base.resize(snapshots.len(), None);
        let mut states = Vec::new();
        for (slot, snapshot) in snapshots.into_iter().enumerate() {
            let Some(state) = snapshot else { continue };
            if self.learned_base[slot].as_deref() == Some(&state) {
                continue;
            }
            // One allocation, two holders: this node's next diff baseline
            // and the coordinator's mirror row.
            let state = Arc::new(state);
            self.learned_base[slot] = Some(Arc::clone(&state));
            states.push((slot, state));
        }
        if states.is_empty() {
            None
        } else {
            Some(NodeLearnedExport { node: self.seed.index() as usize, states })
        }
    }

    /// Imports a (blended) fleet aggregate into agent `slot`'s model,
    /// refreshing the export baseline so the next exchange round does not
    /// re-ship what the coordinator already knows. The model copies the
    /// values out; the baseline keeps a handle on the shared state. Returns
    /// whether the model accepted the state.
    fn import_learned(&mut self, slot: usize, state: &Arc<LearnedState>) -> bool {
        if slot >= self.runtime.agent_count() {
            return false;
        }
        if self.runtime.driver_mut(AgentId::from(slot)).import_learned(state).is_err() {
            return false;
        }
        if self.learned_base.len() <= slot {
            self.learned_base.resize(slot + 1, None);
        }
        self.learned_base[slot] = Some(Arc::clone(state));
        true
    }
}

/// A node's lifetime inside its arena slot: recipe-stampable, stamped, or
/// permanently retired.
///
/// `Live` dwarfs the other variants, but boxing it would put a pointer chase
/// on every event batch: a slot spends essentially its whole lifetime `Live`,
/// and the enum lives in a per-node heap allocation already (the arena's
/// `Arc<NodeSlot>`), so the size difference buys nothing.
#[allow(clippy::large_enum_variant)]
enum Slot<E: Environment + 'static> {
    /// Not yet stamped: holds everything needed to stamp on first claim, so
    /// construction cost lands on whichever worker first advances the node,
    /// not on the coordinator.
    Vacant { seed: NodeSeed, start: Timestamp },
    /// Stamped and running.
    Live(ShardNode<E>),
    /// Retired (crashed or drained); its report already shipped.
    Retired,
}

/// One arena slot, shared between the coordinator and the workers. The
/// protocol keeps their accesses in disjoint phases (workers only between
/// receiving a `CoordMsg` and answering it, the coordinator only outside
/// that), so the mutex is never contended — it exists to make the sharing
/// sound, not to arbitrate races.
struct NodeSlot<E: Environment + 'static>(Mutex<Slot<E>>);

impl<E: Environment + 'static> NodeSlot<E> {
    fn vacant(seed: NodeSeed, start: Timestamp) -> Arc<Self> {
        Arc::new(NodeSlot(Mutex::new(Slot::Vacant { seed, start })))
    }

    fn lock(&self) -> MutexGuard<'_, Slot<E>> {
        // A worker that panicked never answers, so the coordinator aborts
        // before touching the slots it poisoned; this expect is a backstop,
        // not a code path.
        self.0.lock().expect("fleet node slot poisoned")
    }

    /// Locks the slot, stamping the node first if it is still vacant.
    /// Stamping is a pure function of the recipe and the slot's seed, so
    /// whoever gets here first — the worker advancing the node, or the
    /// coordinator warm-starting or retiring it — stamps the same node.
    fn stamped(&self, recipe: &ScenarioRecipe<E>) -> MutexGuard<'_, Slot<E>> {
        let mut guard = self.lock();
        if let Slot::Vacant { seed, start } = *guard {
            *guard = Slot::Live(ShardNode::stamp(recipe, seed, start));
        }
        guard
    }

    /// Stamps the node if needed, advances it to the epoch boundary, and
    /// writes its barrier observation delta plus — when `learn` marks an
    /// exchange round — its learning-plane export into `changes` (nothing
    /// for an unchanged node or a retired slot).
    fn advance(
        &self,
        recipe: &ScenarioRecipe<E>,
        boundary: Timestamp,
        collect: bool,
        learn: bool,
        changes: &mut ChangeList,
    ) {
        let mut guard = self.stamped(recipe);
        let Slot::Live(node) = &mut *guard else { return };
        node.run_to(boundary);
        node.observe(recipe, collect, changes);
        if learn {
            changes.exports.extend(node.export_learned());
        }
    }

    /// Takes the node out for good, leaving the slot `Retired` (`None` if it
    /// already was). A still-vacant slot — a node that joined at the final
    /// boundary, or crashed at its own join boundary — is stamped first so
    /// it reports like any zero-advancement node.
    fn take(&self, recipe: &ScenarioRecipe<E>) -> Option<ShardNode<E>> {
        match std::mem::replace(&mut *self.stamped(recipe), Slot::Retired) {
            Slot::Live(node) => Some(node),
            _ => None,
        }
    }

    /// Runs `f` on the live node, if the slot is live. The coordinator's
    /// placement hooks go through this: a command addressed to a node whose
    /// slot is vacant (joined this very barrier) or retired fails.
    fn with_live<R>(&self, f: impl FnOnce(&mut ShardNode<E>) -> R) -> Option<R> {
        match &mut *self.lock() {
            Slot::Live(node) => Some(f(node)),
            _ => None,
        }
    }

    /// Like [`with_live`](Self::with_live), but stamps a vacant node first
    /// (`None` only for a retired slot). The learning plane's join
    /// warm-start goes through this: importing the fleet aggregate needs a
    /// live runtime.
    fn with_stamped<R>(
        &self,
        recipe: &ScenarioRecipe<E>,
        f: impl FnOnce(&mut ShardNode<E>) -> R,
    ) -> Option<R> {
        match &mut *self.stamped(recipe) {
            Slot::Live(node) => Some(f(node)),
            _ => None,
        }
    }
}

/// Worker body: on each command, claim chunks of the task list until it
/// runs dry — advancing (or, for `Finish`, summarizing) every node claimed —
/// and ship the results home in one message, epoch changes in the very list
/// the command brought. A closed channel either way means the run is over or
/// was aborted (another worker died, or the controller erred): exit quietly.
fn worker<E: Environment + Send + 'static>(
    recipe: Arc<ScenarioRecipe<E>>,
    cmd_rx: Receiver<CoordMsg<E>>,
    done_tx: Sender<WorkerMsg>,
) {
    while let Ok(CoordMsg { work, tasks, mut changes }) = cmd_rx.recv() {
        let mut lap = Lap::start();
        let mut claimed = 0;
        let done = match work {
            Work::Epoch { boundary, collect, learn } => {
                while let Some(chunk) = tasks.claim() {
                    claimed += chunk.len();
                    for slot in chunk {
                        slot.advance(&recipe, boundary, collect, learn, &mut changes);
                    }
                }
                Done::Epoch(changes)
            }
            Work::Finish => {
                let mut finished = Vec::new();
                while let Some(chunk) = tasks.claim() {
                    claimed += chunk.len();
                    for slot in chunk {
                        let node = slot.take(&recipe);
                        finished.extend(node.map(|n| summarize(&recipe, n.seed, n.runtime)));
                    }
                }
                Done::Finished(finished)
            }
        };
        let mut busy_ns = 0;
        lap.charge(&mut busy_ns);
        if done_tx.send(WorkerMsg { done, busy_ns, claimed: claimed as u64 }).is_err() {
            return;
        }
    }
}

/// Finishes one node and boils its report down to the `Send`-able summary
/// the coordinator aggregates (stats + recipe-extracted metrics).
fn summarize<E: Environment + 'static>(
    recipe: &ScenarioRecipe<E>,
    seed: NodeSeed,
    runtime: NodeRuntime<E>,
) -> FleetNodeReport {
    let workloads = runtime.placement().resident;
    let mem_bytes = runtime.mem_bytes();
    let report = runtime.finish();
    let metrics = recipe.extract_metrics(&report);
    let agents = report
        .agents
        .iter()
        .map(|a| FleetAgentReport { name: a.name.clone(), stats: a.stats.clone() })
        .collect();
    FleetNodeReport {
        node: seed.index() as usize,
        seed: seed.seed(),
        agents,
        metrics,
        workloads,
        // The initial record; the fleet coordinator stamps the registry's
        // final record over it, which is byte-identical for a node that saw
        // no lifecycle events — keeping [`FleetRuntime::run_node`] exact.
        lifecycle: NodeRecord::initial(seed.index() as usize),
        // Same contract as `lifecycle`: the coordinator stamps the trust
        // plane's final record over this when one is configured.
        trust: NodeTrustRecord::initial(seed.index() as usize),
        ended_at: report.ended_at,
        mem_bytes,
    }
}

/// Folds per-node reports (already in index order) into the fleet dashboard.
///
/// Crashed nodes are validated like every other node but excluded from the
/// role aggregates and metric summaries — a crash truncates the node's
/// trajectory at an arbitrary boundary, so folding its stats in would skew
/// the surviving fleet's dashboard. Their full reports remain in
/// [`FleetReport::nodes`]. `ended_at` is the fleet clock's final boundary,
/// passed in explicitly because node 0 may itself have retired early.
fn aggregate(
    nodes: Vec<FleetNodeReport>,
    epochs: u64,
    placement: PlacementStats,
    learning: LearningStats,
    trust: TrustStats,
    ended_at: Timestamp,
) -> Result<FleetReport, RuntimeError> {
    let first = &nodes[0];
    for node in &nodes[1..] {
        let matches = node.agents.len() == first.agents.len()
            && node.agents.iter().zip(&first.agents).all(|(a, b)| a.name == b.name);
        if !matches {
            return Err(RuntimeError::InvalidConfig(format!(
                "recipe produced differing agent populations: node 0 has {:?}, node {} has {:?}",
                first.agents.iter().map(|a| &a.name).collect::<Vec<_>>(),
                node.node,
                node.agents.iter().map(|a| &a.name).collect::<Vec<_>>(),
            )));
        }
        // Metric summaries are fleet-wide means/totals, so a node silently
        // dropping a metric would skew them; fail as loudly as a population
        // mismatch does.
        let metrics_match = node.metrics.len() == first.metrics.len()
            && node.metrics.iter().zip(&first.metrics).all(|((a, _), (b, _))| a == b);
        if !metrics_match {
            return Err(RuntimeError::InvalidConfig(format!(
                "recipe produced differing metric sets: node 0 has {:?}, node {} has {:?}",
                first.metrics.iter().map(|(n, _)| n).collect::<Vec<_>>(),
                node.node,
                node.metrics.iter().map(|(n, _)| n).collect::<Vec<_>>(),
            )));
        }
    }

    let contributors: Vec<&FleetNodeReport> =
        nodes.iter().filter(|n| n.lifecycle.state != NodeState::Crashed).collect();
    // `max(1)` guards the all-crashed fleet: rates read 0 instead of NaN.
    let denominator = contributors.len().max(1) as f64;

    let roles = (0..first.agents.len())
        .map(|role| {
            let mut totals = AgentStats::default();
            let mut activated = 0usize;
            let mut epochs_completed = Vec::with_capacity(contributors.len());
            let mut actions = Vec::with_capacity(contributors.len());
            let mut triggers = Vec::with_capacity(contributors.len());
            for node in &contributors {
                let stats = &node.agents[role].stats;
                totals.accumulate(stats);
                if stats.actuator.safeguard_triggers > 0 || stats.model.intercepted_predictions > 0
                {
                    activated += 1;
                }
                epochs_completed.push(stats.model.epochs_completed as f64);
                actions.push(stats.actions_taken() as f64);
                triggers.push(stats.actuator.safeguard_triggers as f64);
            }
            RoleAggregate {
                name: first.agents[role].name.clone(),
                nodes: contributors.len(),
                totals,
                safeguard_activation_rate: activated as f64 / denominator,
                epochs_completed: Percentiles::of(&epochs_completed),
                actions_taken: Percentiles::of(&actions),
                safeguard_triggers: Percentiles::of(&triggers),
            }
        })
        .collect();

    // Metric summaries in the recipe's emission order; every node reports
    // the same names at the same positions (validated above), and values are
    // folded in node order so the layout is scheduling-independent.
    let metrics = first
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = contributors.iter().map(|n| n.metrics[i].1).collect();
            let total: f64 = values.iter().sum();
            let (min, max) = if values.is_empty() {
                (0.0, 0.0)
            } else {
                (
                    values.iter().copied().fold(f64::INFINITY, f64::min),
                    values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            };
            MetricSummary {
                name: name.clone(),
                nodes: values.len(),
                total,
                mean: total / denominator,
                min,
                max,
            }
        })
        .collect();

    let mem_bytes_per_node = nodes.iter().map(|n| n.mem_bytes).max().unwrap_or(0);
    Ok(FleetReport {
        nodes,
        roles,
        metrics,
        placement,
        learning,
        trust,
        ended_at,
        epochs,
        mem_bytes_per_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::DataError;
    use crate::model::{Model, ModelAssessment};
    use crate::prediction::Prediction;
    use crate::runtime::node::NodeRuntime;
    use crate::runtime::testutil::{schedule, ConstModel, CountActuator, StepEnv};
    use sol_ml::exchange::{BlendPolicy, ExchangeError, StateKind};

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
        // its wake table and intervention queue, so the accounting is
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

    /// The contract the worker pool rests on: however many claimants race
    /// for a list, every task is handed out exactly once — whether the
    /// length divides into chunks, leaves a short last chunk, or is shorter
    /// than the claimant count.
    #[test]
    fn every_task_is_claimed_exactly_once() {
        for len in [1000usize, 1003, 5, 0] {
            let list = Arc::new(TaskList::new((0..len).collect(), 8));
            let start = Arc::new(std::sync::Barrier::new(8));
            let claimants: Vec<thread::JoinHandle<Vec<usize>>> = (0..8)
                .map(|_| {
                    let (list, start) = (Arc::clone(&list), Arc::clone(&start));
                    thread::spawn(move || {
                        // Release all eight at once so the claims do race.
                        start.wait();
                        let mut mine = Vec::new();
                        while let Some(chunk) = list.claim() {
                            mine.extend_from_slice(chunk);
                        }
                        mine
                    })
                })
                .collect();
            let mut all: Vec<usize> =
                claimants.into_iter().flat_map(|claimant| claimant.join().unwrap()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..len).collect::<Vec<usize>>(), "{len} tasks");
            assert!(list.claim().is_none(), "a drained list stays drained");
        }
    }

    /// The list outlives its barrier: after a `reset` — issued, as in the
    /// coordinator, only once every claimant ran dry — the same four
    /// claimants split the same tasks again, exactly once each, reuse after
    /// reuse.
    #[test]
    fn a_reset_list_hands_every_task_out_exactly_once_per_reuse() {
        let list = Arc::new(TaskList::new((0..1003usize).collect(), 4));
        // Two waits per reuse: one releases the claims, one tells the
        // resetter that all four ran dry.
        let gate = Arc::new(std::sync::Barrier::new(5));
        let claimants: Vec<thread::JoinHandle<Vec<Vec<usize>>>> = (0..4)
            .map(|_| {
                let (list, gate) = (Arc::clone(&list), Arc::clone(&gate));
                thread::spawn(move || {
                    (0..4)
                        .map(|_| {
                            gate.wait();
                            let mut mine = Vec::new();
                            while let Some(chunk) = list.claim() {
                                mine.extend_from_slice(chunk);
                            }
                            gate.wait();
                            mine
                        })
                        .collect()
                })
            })
            .collect();
        for reuse in 0..4 {
            if reuse > 0 {
                list.reset();
            }
            gate.wait();
            gate.wait();
            assert!(list.claim().is_none(), "reuse {reuse} drained the list");
        }
        let claims: Vec<Vec<Vec<usize>>> =
            claimants.into_iter().map(|claimant| claimant.join().unwrap()).collect();
        for reuse in 0..4 {
            let mut all: Vec<usize> =
                claims.iter().flat_map(|claimant| claimant[reuse].iter().copied()).collect();
            all.sort_unstable();
            assert_eq!(all, (0..1003).collect::<Vec<usize>>(), "reuse {reuse}");
        }
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

    /// Three stamped `DriftModel` nodes taken through one exchange round at
    /// `boundary` under `blend`, the way `collect` and `learn` take a fleet.
    fn one_round(
        blend: BlendPolicy,
    ) -> (ScenarioRecipe<StepEnv>, Vec<NodeTask<StepEnv>>, LearningExchange) {
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
        let mut exchange = LearningExchange::new(plane, arena.len());
        let mut changes = ChangeList::default();
        for slot in &arena {
            slot.advance(&recipe, Timestamp::from_secs(2), false, true, &mut changes);
        }
        assert_eq!(changes.exports.len(), 3, "every node learned something to export");
        exchange.absorb(changes.exports.drain(..));
        exchange.round(&[0, 1, 2]);
        exchange.redistribute(&[0, 1, 2], |node, slot, state| {
            arena[node].with_live(|shard| shard.import_learned(slot, state)).unwrap_or(false)
        });
        (recipe, arena, exchange)
    }

    fn baseline(slot: &NodeTask<StepEnv>) -> Arc<LearnedState> {
        slot.with_live(|shard| shard.learned_base[0].clone()).flatten().expect("a baseline")
    }

    /// After a `Replace` round the median node already holds the aggregate's
    /// value and keeps its own export; every *other* node's baseline and
    /// mirror row are the aggregate's very allocation. A node that learns on
    /// exports a fresh state and disturbs neither its peers nor the
    /// aggregate.
    #[test]
    fn a_replace_round_shares_one_aggregate_allocation_across_the_fleet() {
        let (recipe, arena, mut exchange) = one_round(BlendPolicy::Replace);
        let aggregate = Arc::clone(exchange.aggregates()[0].as_ref().unwrap());
        for node in [0, 2] {
            assert!(Arc::ptr_eq(exchange.local(node, 0).unwrap(), &aggregate), "mirror {node}");
            assert!(Arc::ptr_eq(&baseline(&arena[node]), &aggregate), "baseline {node}");
        }
        // The median node's export equalled the aggregate: nothing shipped,
        // and node and mirror still share the node's own export.
        assert_eq!(**exchange.local(1, 0).unwrap(), *aggregate);
        assert!(Arc::ptr_eq(exchange.local(1, 0).unwrap(), &baseline(&arena[1])));

        let before = (*aggregate).clone();
        let mut changes = ChangeList::default();
        arena[0].advance(&recipe, Timestamp::from_secs(4), false, true, &mut changes);
        exchange.absorb(changes.exports.drain(..));
        let fresh = exchange.local(0, 0).unwrap();
        assert_ne!(**fresh, before, "node 0 kept learning");
        assert!(Arc::ptr_eq(fresh, &baseline(&arena[0])), "an export is one shared allocation");
        assert_eq!(*aggregate, before, "shared states are never written through");
        assert!(Arc::ptr_eq(exchange.local(2, 0).unwrap(), &aggregate));
        assert!(Arc::ptr_eq(&baseline(&arena[2]), &aggregate));
        assert!(Arc::ptr_eq(exchange.aggregates()[0].as_ref().unwrap(), &aggregate));
    }

    /// A `Mix` blend differs per node, so no two holders share it — but each
    /// node still shares its own blend with its mirror row.
    #[test]
    fn a_mix_round_gives_every_node_its_own_blend() {
        let (_, arena, exchange) = one_round(BlendPolicy::Mix { weight: 0.5 });
        let aggregate = exchange.aggregates()[0].as_ref().unwrap();
        for node in [0, 2] {
            let local = exchange.local(node, 0).unwrap();
            assert!(!Arc::ptr_eq(local, aggregate), "node {node} holds a blend of its own");
            assert_ne!(**local, **aggregate);
            assert!(Arc::ptr_eq(local, &baseline(&arena[node])));
        }
        assert!(!Arc::ptr_eq(exchange.local(0, 0).unwrap(), exchange.local(2, 0).unwrap()));
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

    #[test]
    fn percentiles_use_nearest_rank() {
        let p = Percentiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p90, 4.0);
        assert_eq!(p.max, 4.0);
        let single = Percentiles::of(&[5.0]);
        assert_eq!(single.p50, 5.0);
        assert_eq!(single.p99, 5.0);
    }

    #[test]
    fn percentiles_of_empty_slice_are_zeroed() {
        // The documented empty-slice contract: `of` yields the all-zero
        // distribution (so fleet folds over zero-capacity placements never
        // panic) and `try_of` reports the absence of data explicitly.
        assert_eq!(Percentiles::of(&[]), Percentiles::ZEROED);
        assert_eq!(Percentiles::try_of(&[]), None);
        assert_eq!(Percentiles::try_of(&[2.0]), Some(Percentiles::of(&[2.0])));
    }
}
