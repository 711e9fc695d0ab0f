//! Fleet-level workload placement: the programmable epoch-barrier
//! coordination point.
//!
//! SOL's safety story is evaluated per node, but its deployment story is
//! fleet-wide: Azure-style platforms continuously admit, drain, and move VMs
//! across servers, and on-node learners must stay safe *while the platform
//! reshuffles work under them*. This module turns the
//! [`FleetRuntime`](crate::runtime::fleet::FleetRuntime)'s epoch barrier from
//! a dead clock-sync point into a programmable coordination point:
//!
//! * a [`WorkloadUnit`] is a first-class, movable unit of work (a VM in
//!   protean terms) with a stable [`WorkloadId`] — no longer a
//!   build-time-frozen workload box;
//! * environments opt into hosting units through the placement hooks on
//!   [`Environment`](crate::runtime::Environment)
//!   (`attach_workload`/`detach_workload`/`placement`), surfaced between
//!   epoch segments via
//!   [`NodeRuntime`](crate::runtime::node::NodeRuntime) and
//!   [`ScenarioBuilder`](crate::runtime::builder::ScenarioBuilder);
//! * an object-safe [`FleetController`] is invoked at every epoch boundary
//!   with a [`FleetView`] — per-node [`AgentStats`] snapshots,
//!   recipe-extracted telemetry, and the current placement — and returns a
//!   [`PlacementPlan`] of typed [`FleetCommand`]s (admit, depart, migrate)
//!   that [`run_with`](crate::runtime::fleet::FleetRuntime::run_with) applies
//!   deterministically before releasing the barrier.
//!
//! Two controllers ship with the framework: [`NullController`] (no commands;
//! `run(horizon)` is sugar for `run_with(&mut NullController, horizon)`) and
//! [`GreedyPacker`], a protean-style harvest-aware packer driven by a seeded
//! [`ArrivalTrace`] of VM arrivals and departures.
//!
//! # Determinism
//!
//! Everything here is a pure function of its inputs: the controller runs on
//! the coordinator thread against a [`FleetView`] sorted by node index, the
//! plan is applied in a fixed phase order (departures and migration-detaches,
//! then admissions, then migration-attaches, each stable-sorted by target
//! node index), and [`ArrivalTrace::generate`] derives every event from the
//! seed with the same SplitMix64 mix the per-node seeds use. Fleet reports
//! therefore stay byte-identical across worker-thread counts even with a
//! controller migrating work every epoch (pinned in
//! `tests/tests/determinism.rs`).

use crate::stats::AgentStats;
use crate::time::{SimDuration, Timestamp};

use super::fleet::{splitmix64, GAMMA};
use super::lifecycle::{LifecycleEvent, NodeState};

/// Stable identity of a placeable [`WorkloadUnit`], assigned by whoever
/// creates the unit (an [`ArrivalTrace`], a test, a custom controller) and
/// preserved across migrations between nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkloadId(pub u64);

impl std::fmt::Display for WorkloadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm#{}", self.0)
    }
}

/// A first-class, movable unit of work: the descriptor a hosting environment
/// turns into load (a VM's core demand and compute-boundedness, in the fluid
/// model the node simulators use).
///
/// Units are plain data so they can travel between nodes — and between the
/// worker threads hosting those nodes — when a [`FleetCommand::Migrate`] is
/// applied.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadUnit {
    /// Stable identity, preserved across migrations.
    pub id: WorkloadId,
    /// Cores' worth of compute the unit demands while resident.
    pub cores: f64,
    /// Fraction of the unit's busy cycles that are productive (not stalled);
    /// feeds the hosting node's counter model.
    pub cpu_bound_fraction: f64,
}

impl WorkloadUnit {
    /// Creates a unit with the given core demand and a fully compute-bound
    /// profile.
    ///
    /// # Panics
    ///
    /// Panics if `cores` is not finite and positive.
    pub fn new(id: WorkloadId, cores: f64) -> Self {
        assert!(cores.is_finite() && cores > 0.0, "workload cores must be positive");
        WorkloadUnit { id, cores, cpu_bound_fraction: 1.0 }
    }

    /// Returns the unit with the given CPU-bound fraction.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn with_cpu_bound_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "cpu-bound fraction must be in [0, 1]");
        self.cpu_bound_fraction = fraction;
        self
    }
}

/// Why a placement operation on an environment failed.
///
/// Failed operations are normal outcomes of a fleet run (a controller may
/// over-subscribe a node); the runtime counts them in
/// [`PlacementStats`](crate::runtime::fleet::PlacementStats) rather than
/// aborting.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The environment hosts no placeable slots (the default for every
    /// [`Environment`](crate::runtime::Environment) that does not opt in).
    Unsupported,
    /// Admitting the unit would exceed the environment's placeable capacity.
    CapacityExceeded {
        /// Cores the rejected unit demanded.
        requested: f64,
        /// Placeable cores that were still free.
        free: f64,
    },
    /// A unit with the same [`WorkloadId`] is already resident.
    DuplicateWorkload(WorkloadId),
    /// No resident unit has the requested [`WorkloadId`].
    UnknownWorkload(WorkloadId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::Unsupported => {
                write!(f, "environment hosts no placeable workload slots")
            }
            PlacementError::CapacityExceeded { requested, free } => {
                write!(f, "workload wants {requested} cores but only {free} are placeable")
            }
            PlacementError::DuplicateWorkload(id) => write!(f, "{id} is already resident"),
            PlacementError::UnknownWorkload(id) => write!(f, "{id} is not resident"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// Snapshot of one environment's placeable state: its capacity and the units
/// currently resident.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePlacement {
    /// Placeable core capacity (0 for environments without placeable slots).
    pub capacity: f64,
    /// Units currently resident, in admission order.
    pub resident: Vec<WorkloadUnit>,
}

impl NodePlacement {
    /// The snapshot of an environment with no placeable slots.
    pub fn none() -> Self {
        NodePlacement::default()
    }

    /// Cores demanded by the resident units.
    pub fn used(&self) -> f64 {
        self.resident.iter().map(|u| u.cores).sum()
    }

    /// Placeable cores still free.
    pub fn free(&self) -> f64 {
        (self.capacity - self.used()).max(0.0)
    }

    /// Used fraction of the placeable capacity, in `[0, 1]`-ish (0 when the
    /// environment has no capacity).
    pub fn occupancy(&self) -> f64 {
        if self.capacity > 0.0 {
            self.used() / self.capacity
        } else {
            0.0
        }
    }

    /// Whether a unit with `id` is resident.
    pub fn hosts(&self, id: WorkloadId) -> bool {
        self.resident.iter().any(|u| u.id == id)
    }
}

/// Name and current counters of one agent, as seen at an epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentTelemetry {
    /// The name the agent was registered under.
    pub name: String,
    /// The agent's counters accumulated so far (not just this epoch).
    pub stats: AgentStats,
}

/// Telemetry snapshot of one node at an epoch barrier.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// The node's index in the fleet.
    pub node: usize,
    /// Per-agent counters, in registration order.
    pub agents: Vec<AgentTelemetry>,
    /// Environment readings extracted by the recipe's
    /// [`with_telemetry`](crate::runtime::builder::ScenarioRecipe::with_telemetry)
    /// closure.
    pub telemetry: Vec<(String, f64)>,
    /// The node's current workload placement.
    pub placement: NodePlacement,
    /// The node's lifecycle state, stamped from the fleet's
    /// [`NodeRegistry`](crate::runtime::lifecycle::NodeRegistry). Retired
    /// nodes ([`Drained`](NodeState::Drained) / [`Crashed`](NodeState::Crashed))
    /// appear as tombstones: empty agents, empty telemetry, no placement.
    ///
    /// The stamp is the state at the barrier, not every state the node
    /// passed through: a node that starts draining while empty reads
    /// `Active` in one view and `Drained` in the next (see
    /// [`NodeState::Draining`]).
    pub state: NodeState,
}

impl NodeView {
    /// A named telemetry reading, if the recipe reported it.
    pub fn reading(&self, name: &str) -> Option<f64> {
        self.telemetry.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// What a [`FleetController`] sees at an epoch boundary: every node's
/// telemetry and placement, folded in node-index order (never completion
/// order, so the view is identical for any worker-thread count).
#[derive(Debug, Clone, PartialEq)]
pub struct FleetView {
    /// The virtual time of the boundary.
    pub now: Timestamp,
    /// Zero-based index of the boundary (`0` is the first barrier, at one
    /// epoch of virtual time).
    pub epoch: u64,
    /// Per-node snapshots, sorted by node index.
    pub nodes: Vec<NodeView>,
    /// Workload units displaced by node crashes and not yet re-placed, in
    /// displacement order. They stay in this pool (and reappear in every
    /// subsequent view) until a controller successfully re-admits them; any
    /// still displaced when the run ends are counted as failed placements.
    pub displaced: Vec<WorkloadUnit>,
}

/// A node's full observation: everything needed to seed a base
/// [`NodeView`] for that node. Only [`NodeDelta`] carries it, as the
/// wholesale replacement for a first view or a changed layout; the fleet
/// runtime ships no `NodeInit`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeInit {
    /// Per-agent names and counters, in registration order.
    pub agents: Vec<AgentTelemetry>,
    /// Recipe-extracted environment readings.
    pub telemetry: Vec<(String, f64)>,
    /// The node's workload placement.
    pub placement: NodePlacement,
}

/// The changes in one node's [`NodeView`] between two epoch barriers.
///
/// A codec for a consumer that keeps its own base [`FleetView`] and wants
/// only what changed. The fleet runtime does not use it: its workers ship
/// each collected node's counters and readings whole, because no measured
/// workload has a node that stands still across a barrier. Agent
/// counters are keyed by registration position and telemetry readings by
/// emission position — both orders are fixed for the lifetime of a node, so
/// positions are stable keys and names never need to travel twice.
///
/// `diff`/`apply` form a codec: `apply(diff(prev, next), prev) == next` for
/// any two views of the same node (property-tested across churn sequences in
/// `tests/tests/delta_views.rs`).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeDelta {
    /// The node's index in the fleet.
    pub node: usize,
    /// The full first observation; `Some` replaces the base wholesale
    /// (also used when a node's agent or telemetry population changed shape,
    /// which positional patches cannot express).
    pub init: Option<NodeInit>,
    /// Changed agent counters, by registration position.
    pub agents: Vec<(usize, AgentStats)>,
    /// Changed telemetry readings, by emission position.
    pub telemetry: Vec<(usize, f64)>,
    /// The new placement, if it changed.
    pub placement: Option<NodePlacement>,
    /// The new lifecycle state, if it changed.
    pub state: Option<NodeState>,
}

impl NodeDelta {
    /// The empty delta for `node`: applying it changes nothing.
    pub fn empty(node: usize) -> Self {
        NodeDelta { node, ..NodeDelta::default() }
    }

    /// Whether applying this delta would change nothing.
    pub fn is_empty(&self) -> bool {
        self.init.is_none()
            && self.agents.is_empty()
            && self.telemetry.is_empty()
            && self.placement.is_none()
            && self.state.is_none()
    }

    /// The delta turning `prev` into `next`.
    ///
    /// Falls back to a full [`NodeInit`] when the agent or telemetry
    /// populations changed shape (different lengths or names) — positional
    /// patches only make sense against an identical layout.
    pub fn diff(prev: &NodeView, next: &NodeView) -> NodeDelta {
        debug_assert_eq!(prev.node, next.node, "deltas are per-node");
        let mut delta = NodeDelta::empty(next.node);
        if next.state != prev.state {
            delta.state = Some(next.state);
        }
        let same_layout = prev.agents.len() == next.agents.len()
            && prev.agents.iter().zip(&next.agents).all(|(a, b)| a.name == b.name)
            && prev.telemetry.len() == next.telemetry.len()
            && prev.telemetry.iter().zip(&next.telemetry).all(|((a, _), (b, _))| a == b);
        if !same_layout {
            delta.init = Some(NodeInit {
                agents: next.agents.clone(),
                telemetry: next.telemetry.clone(),
                placement: next.placement.clone(),
            });
            return delta;
        }
        for (role, (prev_agent, next_agent)) in prev.agents.iter().zip(&next.agents).enumerate() {
            if prev_agent.stats != next_agent.stats {
                delta.agents.push((role, next_agent.stats.clone()));
            }
        }
        for (slot, ((_, prev_value), (_, next_value))) in
            prev.telemetry.iter().zip(&next.telemetry).enumerate()
        {
            if prev_value != next_value {
                delta.telemetry.push((slot, *next_value));
            }
        }
        if prev.placement != next.placement {
            delta.placement = Some(next.placement.clone());
        }
        delta
    }

    /// Patches `view` in place.
    ///
    /// Positions out of range for the view's current layout are ignored —
    /// they can only arise from applying a delta against the wrong base,
    /// and dropping them keeps `apply` total.
    pub fn apply(&self, view: &mut NodeView) {
        debug_assert_eq!(self.node, view.node, "deltas are per-node");
        if let Some(init) = &self.init {
            view.agents = init.agents.clone();
            view.telemetry = init.telemetry.clone();
            view.placement = init.placement.clone();
        }
        for (role, stats) in &self.agents {
            if let Some(agent) = view.agents.get_mut(*role) {
                agent.stats = stats.clone();
            }
        }
        for (slot, value) in &self.telemetry {
            if let Some((_, reading)) = view.telemetry.get_mut(*slot) {
                *reading = *value;
            }
        }
        if let Some(placement) = &self.placement {
            view.placement = placement.clone();
        }
        if let Some(state) = self.state {
            view.state = state;
        }
    }
}

/// One typed placement command issued by a [`FleetController`].
#[derive(Debug, Clone, PartialEq)]
pub enum FleetCommand {
    /// Attach `unit` to `node` (a VM arrival).
    Admit {
        /// Target node index.
        node: usize,
        /// The unit to attach.
        unit: WorkloadUnit,
    },
    /// Detach the unit from `node` and drop it (a VM departure / drain).
    Depart {
        /// The node currently hosting the unit.
        node: usize,
        /// The unit to detach.
        workload: WorkloadId,
    },
    /// Detach the unit from `from` and attach it to `to`.
    Migrate {
        /// The node currently hosting the unit.
        from: usize,
        /// The destination node.
        to: usize,
        /// The unit to move.
        workload: WorkloadId,
    },
}

/// The commands a [`FleetController`] returns for one epoch boundary.
///
/// The runtime applies a plan's lifecycle events first (crashes displace,
/// joins stamp new nodes, drains close admissions), then its placement
/// commands in three phases — departures and migration-detaches, then
/// admissions, then migration-attaches — each phase stable-sorted by target
/// node index, so freed capacity is available to the same barrier's
/// admissions and application order never depends on the worker-thread
/// layout. Because lifecycle events land first, a placement command against a
/// node crashed in the same plan fails (counted, not fatal).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlacementPlan {
    commands: Vec<FleetCommand>,
    lifecycle: Vec<LifecycleEvent>,
}

impl PlacementPlan {
    /// An empty plan.
    pub fn new() -> Self {
        PlacementPlan::default()
    }

    /// Queues an [`FleetCommand::Admit`].
    pub fn admit(&mut self, node: usize, unit: WorkloadUnit) {
        self.commands.push(FleetCommand::Admit { node, unit });
    }

    /// Queues a [`FleetCommand::Depart`].
    pub fn depart(&mut self, node: usize, workload: WorkloadId) {
        self.commands.push(FleetCommand::Depart { node, workload });
    }

    /// Queues a [`FleetCommand::Migrate`].
    pub fn migrate(&mut self, from: usize, to: usize, workload: WorkloadId) {
        self.commands.push(FleetCommand::Migrate { from, to, workload });
    }

    /// Queues an arbitrary command.
    pub fn push(&mut self, command: FleetCommand) {
        self.commands.push(command);
    }

    /// Queues a [`LifecycleEvent::Crash`] of `node`.
    pub fn crash(&mut self, node: usize) {
        self.lifecycle.push(LifecycleEvent::Crash { node });
    }

    /// Queues a [`LifecycleEvent::Join`]: a fresh node stamped from the
    /// recipe at the next free index.
    pub fn join(&mut self) {
        self.lifecycle.push(LifecycleEvent::Join);
    }

    /// Queues a [`LifecycleEvent::Drain`] of `node`.
    pub fn drain(&mut self, node: usize) {
        self.lifecycle.push(LifecycleEvent::Drain { node });
    }

    /// Queues an arbitrary lifecycle event.
    pub fn lifecycle(&mut self, event: LifecycleEvent) {
        self.lifecycle.push(event);
    }

    /// The queued commands, in issue order.
    pub fn commands(&self) -> &[FleetCommand] {
        &self.commands
    }

    /// Number of queued commands and lifecycle events.
    pub fn len(&self) -> usize {
        self.commands.len() + self.lifecycle.len()
    }

    /// Whether the plan issues no commands and no lifecycle events.
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty() && self.lifecycle.is_empty()
    }

    /// Consumes the plan, returning its commands and lifecycle events.
    pub fn into_parts(self) -> (Vec<FleetCommand>, Vec<LifecycleEvent>) {
        (self.commands, self.lifecycle)
    }
}

/// The programmable epoch-barrier hook: invoked by
/// [`FleetRuntime::run_with`](crate::runtime::fleet::FleetRuntime::run_with)
/// at every epoch boundary, after all nodes reached the barrier and before
/// any node is released into the next epoch.
///
/// The trait is object-safe so controllers can be swapped at run time and
/// composed behind `&mut dyn FleetController`. Implementations must be
/// deterministic in the view (no wall clock, no ambient randomness) or fleet
/// reports lose their byte-identity across thread counts.
pub trait FleetController: Send {
    /// Returns the placement commands to apply at this boundary.
    fn plan(&mut self, view: &FleetView) -> PlacementPlan;

    /// Whether this controller reads the per-node agent counters and
    /// telemetry of the [`FleetView`] it is planning against.
    ///
    /// Defaults to `true`. A controller that plans from placement and
    /// lifecycle state alone — a view-free planner like [`GreedyPacker`],
    /// or one that plans from nothing, like [`NullController`] — can return
    /// `false`: the fleet runtime then skips extracting agent stats and
    /// telemetry at every barrier — the dominant per-node fixed cost of an
    /// idle epoch — and hands [`plan`](Self::plan) views whose per-node
    /// `agents`/`telemetry` vectors are empty while `now`, `epoch`, `node`,
    /// `placement`, `state`, and `displaced` stay exact. The answer is
    /// sampled once per run, before the first barrier, and a wrapper that
    /// delegates [`plan`](Self::plan) should forward it.
    fn wants_view(&self) -> bool {
        true
    }
}

/// The do-nothing controller: issues no commands, ever.
/// [`FleetRuntime::run`](crate::runtime::fleet::FleetRuntime::run) is sugar
/// for running with this controller.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullController;

impl FleetController for NullController {
    fn plan(&mut self, _view: &FleetView) -> PlacementPlan {
        PlacementPlan::new()
    }

    /// Never looks at the view, so barrier snapshots can be skipped entirely.
    fn wants_view(&self) -> bool {
        false
    }
}

/// Shape of a generated [`ArrivalTrace`]: how many VM arrivals, over what
/// span, and the ranges their sizes and lifetimes are drawn from.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTraceConfig {
    /// Number of VM arrivals in the trace.
    pub workloads: usize,
    /// Arrivals are spread uniformly over `[0, span)`.
    pub span: SimDuration,
    /// Smallest core demand drawn.
    pub min_cores: f64,
    /// Largest core demand drawn.
    pub max_cores: f64,
    /// Shortest VM lifetime drawn.
    pub min_lifetime: SimDuration,
    /// Longest VM lifetime drawn.
    pub max_lifetime: SimDuration,
}

impl Default for ArrivalTraceConfig {
    fn default() -> Self {
        ArrivalTraceConfig {
            workloads: 32,
            span: SimDuration::from_secs(60),
            min_cores: 0.5,
            max_cores: 2.0,
            min_lifetime: SimDuration::from_secs(5),
            max_lifetime: SimDuration::from_secs(30),
        }
    }
}

/// What happens at one point of an [`ArrivalTrace`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEventKind {
    /// A VM arrives and wants to be placed.
    Arrive(WorkloadUnit),
    /// A previously arrived VM departs.
    Depart(WorkloadId),
}

/// One timestamped event of an [`ArrivalTrace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// When the event is due.
    pub at: Timestamp,
    /// Arrival or departure.
    pub kind: TraceEventKind,
}

/// A seeded, deterministic sequence of VM arrivals and departures — the
/// demand side of a protean-style placement run.
///
/// Every event is derived from the seed with the same SplitMix64 mix the
/// per-node seeds use, so a trace is a pure function of
/// `(seed, ArrivalTraceConfig)`. Seed the trace from the fleet's master seed
/// (or any constant) — per-node [`NodeSeed`](crate::runtime::fleet::NodeSeed)
/// streams are for on-node consumers; the trace is a fleet-level input.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    events: Vec<TraceEvent>,
    arrivals: usize,
}

impl ArrivalTrace {
    /// An empty trace (no arrivals, no departures).
    pub fn empty() -> Self {
        ArrivalTrace { events: Vec::new(), arrivals: 0 }
    }

    /// Generates a trace from a seed and a shape.
    ///
    /// Departures always fall strictly after their arrival (lifetimes are
    /// clamped to at least one nanosecond) and may fall past any run horizon,
    /// in which case the VM simply never departs within the run.
    ///
    /// # Panics
    ///
    /// Panics if a range is inverted (`min_cores > max_cores`,
    /// `min_lifetime > max_lifetime`), if `min_cores` is not positive, or if
    /// `span` is zero while `workloads > 0`.
    pub fn generate(seed: u64, config: &ArrivalTraceConfig) -> Self {
        assert!(config.min_cores > 0.0, "min_cores must be positive");
        assert!(config.min_cores <= config.max_cores, "min_cores must not exceed max_cores");
        assert!(
            config.min_lifetime <= config.max_lifetime,
            "min_lifetime must not exceed max_lifetime"
        );
        assert!(
            config.workloads == 0 || !config.span.is_zero(),
            "a non-empty trace needs a non-zero span"
        );
        // Domain separation from `NodeSeed::derive`: traces are routinely
        // seeded with the fleet master seed, and without this extra mix
        // variate k would be bit-identical to node k's derived seed.
        const TRACE_DOMAIN: u64 = 0x4152_5249_5641_4c53; // "ARRIVALS"
        let root = splitmix64(seed ^ TRACE_DOMAIN);
        let uniform = |salt: u64| {
            // 53 random mantissa bits -> [0, 1).
            (splitmix64(root.wrapping_add(salt.wrapping_mul(GAMMA))) >> 11) as f64
                / 9_007_199_254_740_992.0
        };
        let mut events = Vec::with_capacity(config.workloads * 2);
        for i in 0..config.workloads as u64 {
            let arrival_frac = uniform(i * 4);
            let cores_frac = uniform(i * 4 + 1);
            let lifetime_frac = uniform(i * 4 + 2);
            let bound_frac = uniform(i * 4 + 3);
            let at = Timestamp::ZERO
                + SimDuration::from_nanos((config.span.as_nanos() as f64 * arrival_frac) as u64);
            let cores = config.min_cores + (config.max_cores - config.min_cores) * cores_frac;
            let lifetime_nanos = config.min_lifetime.as_nanos() as f64
                + (config.max_lifetime.as_nanos() - config.min_lifetime.as_nanos()) as f64
                    * lifetime_frac;
            let lifetime = SimDuration::from_nanos((lifetime_nanos as u64).max(1));
            let unit = WorkloadUnit::new(WorkloadId(i), cores)
                .with_cpu_bound_fraction(0.6 + 0.4 * bound_frac);
            events.push(TraceEvent { at, kind: TraceEventKind::Arrive(unit) });
            events.push(TraceEvent { at: at + lifetime, kind: TraceEventKind::Depart(unit.id) });
        }
        // Stable by time: a VM's arrival was pushed before its departure, so
        // equal timestamps keep arrive-before-depart order.
        events.sort_by_key(|e| e.at);
        ArrivalTrace { events, arrivals: config.workloads }
    }

    /// The trace's events, sorted by time.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of VM arrivals in the trace.
    pub fn arrivals(&self) -> usize {
        self.arrivals
    }
}

/// Tuning knobs for the [`GreedyPacker`].
#[derive(Debug, Clone, PartialEq)]
pub struct GreedyPackerConfig {
    /// Rebalancing triggers when the free-capacity gap between the emptiest
    /// and fullest node exceeds this many cores; `<= 0` disables rebalancing
    /// migrations entirely.
    pub rebalance_gap: f64,
    /// At most this many rebalancing migrations per epoch boundary.
    pub max_rebalances_per_epoch: usize,
}

impl Default for GreedyPackerConfig {
    fn default() -> Self {
        GreedyPackerConfig { rebalance_gap: 2.0, max_rebalances_per_epoch: 1 }
    }
}

/// A protean-style harvest-aware packer driven by an [`ArrivalTrace`].
///
/// At every epoch boundary the packer
///
/// 1. absorbs the trace events that came due since the previous boundary
///    (departures of resident units become [`FleetCommand::Depart`]s;
///    departures of units that were never placed just leave the queue);
/// 2. queues crash-displaced units from [`FleetView::displaced`] at the front
///    of its pending queue (skipping units whose trace departure has already
///    passed), so re-placements come before fresh arrivals;
/// 3. evacuates [`Draining`](NodeState::Draining) nodes: each resident
///    (smallest first) migrates to the emptiest `Active` node with room —
///    what does not fit stays and is retried at the next boundary;
/// 4. places queued arrivals worst-fit — each unit goes to the `Active` node
///    with the most free placeable capacity, i.e. the most harvestable idle
///    headroom (ties break toward the lower node index). Eligibility is
///    re-evaluated against the *current* [`FleetView`] at every boundary, so
///    a unit deferred while the fleet was full lands on a node that joined
///    after the deferral; units that fit nowhere stay queued; and
/// 5. issues up to
///    [`max_rebalances_per_epoch`](GreedyPackerConfig::max_rebalances_per_epoch)
///    [`FleetCommand::Migrate`]s toward the emptiest `Active` node when the
///    free-capacity gap exceeds
///    [`rebalance_gap`](GreedyPackerConfig::rebalance_gap): the donor is the
///    least-free `Active` node that has a movable unit fitting the recipient
///    (nodes with nothing movable — e.g. zero-capacity nodes — are skipped,
///    not allowed to wedge rebalancing), and the smallest such unit moves.
///
/// Only `Active` nodes receive work: `Joining`, `Draining`, and retired
/// nodes are skipped as admission and migration targets.
///
/// All choices are functions of the (index-sorted) [`FleetView`] and the
/// packer's own deterministic queue, so runs stay byte-identical across
/// worker-thread counts.
///
/// The packer is a view-free planner: it reads the view's `now`, its
/// `displaced` pool and, per node, `node`, `state` and `placement` — never
/// an agent counter or a telemetry reading — so its
/// [`wants_view`](FleetController::wants_view) is `false` and the fleet's
/// workers extract neither at its barriers. Its plans are the same either
/// way (`tests/tests/placement.rs` runs it behind a wrapper that asks for
/// the full view and compares the reports).
#[derive(Debug, Clone)]
pub struct GreedyPacker {
    events: Vec<TraceEvent>,
    cursor: usize,
    pending: Vec<WorkloadUnit>,
    /// Ids whose trace departure has come due; displaced copies of these
    /// must not be re-placed.
    departed: Vec<WorkloadId>,
    config: GreedyPackerConfig,
    deferred_placements: u64,
}

impl GreedyPacker {
    /// Creates a packer over a trace with the default tuning.
    pub fn new(trace: ArrivalTrace) -> Self {
        GreedyPacker::with_config(trace, GreedyPackerConfig::default())
    }

    /// Creates a packer over a trace with explicit tuning.
    pub fn with_config(trace: ArrivalTrace, config: GreedyPackerConfig) -> Self {
        GreedyPacker {
            events: trace.events,
            cursor: 0,
            pending: Vec::new(),
            departed: Vec::new(),
            config,
            deferred_placements: 0,
        }
    }

    /// Arrivals currently queued because no node had room.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Times an arrival had to be deferred to a later boundary because no
    /// node had room (the same unit can defer more than once).
    pub fn deferred_placements(&self) -> u64 {
        self.deferred_placements
    }
}

/// Position of the largest value among the eligible positions, ties broken
/// toward the *lowest* position (`Iterator::max_by` would take the highest —
/// the packer's documented tie-break is the lower node index).
fn first_max(free: &[f64], eligible: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &value) in free.iter().enumerate() {
        if eligible(i) && best.is_none_or(|b| value > free[b]) {
            best = Some(i);
        }
    }
    best
}

/// Position of the smallest value among the eligible positions, ties broken
/// toward the lowest position.
fn first_min_where(free: &[f64], eligible: impl Fn(usize) -> bool) -> Option<usize> {
    let mut best: Option<usize> = None;
    for (i, &value) in free.iter().enumerate() {
        if eligible(i) && best.is_none_or(|b| value < free[b]) {
            best = Some(i);
        }
    }
    best
}

impl FleetController for GreedyPacker {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        let mut plan = PlacementPlan::new();
        // Only Active nodes receive admissions and migration attaches.
        let active = |i: usize| view.nodes[i].state.is_active();
        // Free capacity per view position, debited as the plan assigns work.
        let mut free: Vec<f64> = view.nodes.iter().map(|n| n.placement.free()).collect();
        // Units this plan already departs or migrates (not eligible again).
        let mut touched: Vec<WorkloadId> = Vec::new();

        // 1. Absorb due trace events.
        while self.cursor < self.events.len() && self.events[self.cursor].at <= view.now {
            match &self.events[self.cursor].kind {
                TraceEventKind::Arrive(unit) => self.pending.push(*unit),
                TraceEventKind::Depart(id) => {
                    self.departed.push(*id);
                    // One scan finds the hosting node's view position and
                    // the unit's size together.
                    let hosted = || {
                        view.nodes.iter().enumerate().find_map(|(pos, n)| {
                            let unit = n.placement.resident.iter().find(|u| u.id == *id)?;
                            Some((pos, unit.cores))
                        })
                    };
                    if let Some(pos) = self.pending.iter().position(|u| u.id == *id) {
                        // Departed before it was ever placed.
                        self.pending.remove(pos);
                    } else if let Some((pos, cores)) = hosted() {
                        free[pos] += cores;
                        touched.push(*id);
                        plan.depart(view.nodes[pos].node, *id);
                    }
                }
            }
            self.cursor += 1;
        }

        // 2. Crash-displaced units re-enter at the front of the queue, so
        // re-placements come before fresh arrivals. Units already queued (a
        // prior boundary's enqueue whose admission failed) and units whose
        // trace departure has passed are skipped; the latter stay in the
        // fleet's displaced pool and are counted as failed placements when
        // the run ends.
        let mut queue: Vec<WorkloadUnit> = view
            .displaced
            .iter()
            .filter(|u| !self.departed.contains(&u.id))
            .filter(|u| !self.pending.iter().any(|p| p.id == u.id))
            .copied()
            .collect();
        queue.append(&mut self.pending);
        self.pending = queue;

        // 3. Evacuate draining nodes: each resident (smallest first, ties by
        // id) migrates to the emptiest Active node with room; what does not
        // fit stays resident and is retried at the next boundary.
        for pos in 0..view.nodes.len() {
            if view.nodes[pos].state != NodeState::Draining {
                continue;
            }
            let mut residents = view.nodes[pos].placement.resident.clone();
            residents.sort_by(|a, b| {
                a.cores.partial_cmp(&b.cores).expect("finite cores").then(a.id.cmp(&b.id))
            });
            for unit in residents {
                if touched.contains(&unit.id) {
                    continue; // departed this plan
                }
                let Some(target) = first_max(&free, |i| active(i) && free[i] + 1e-9 >= unit.cores)
                else {
                    continue;
                };
                free[target] -= unit.cores;
                free[pos] += unit.cores;
                touched.push(unit.id);
                plan.migrate(view.nodes[pos].node, view.nodes[target].node, unit.id);
            }
        }

        // 4. Worst-fit placement of queued arrivals and re-placements.
        // Eligibility is a fresh function of the current view: nodes that
        // joined since a unit was deferred are candidates like any other.
        let mut still_pending = Vec::new();
        for unit in self.pending.drain(..) {
            let target = first_max(&free, |i| active(i) && free[i] + 1e-9 >= unit.cores);
            match target {
                Some(i) => {
                    free[i] -= unit.cores;
                    plan.admit(view.nodes[i].node, unit);
                }
                None => {
                    self.deferred_placements += 1;
                    still_pending.push(unit);
                }
            }
        }
        self.pending = still_pending;

        // 5. Rebalancing migrations toward the emptiest Active node. The
        // donor is the least-free Active node that can actually contribute —
        // a node with no movable (unmoved, fitting) resident unit is skipped
        // rather than wedging rebalancing for the whole fleet (e.g. a
        // zero-capacity node is always the free-capacity minimum but never a
        // donor).
        if self.config.rebalance_gap > 0.0 && free.len() > 1 {
            for _ in 0..self.config.max_rebalances_per_epoch {
                let Some(recipient) = first_max(&free, active) else { break };
                // The smallest movable unit per eligible donor: resident,
                // not already moved this epoch, and fitting the recipient.
                let movable = |donor: usize| {
                    view.nodes[donor]
                        .placement
                        .resident
                        .iter()
                        .filter(|u| !touched.contains(&u.id))
                        .filter(|u| free[recipient] + 1e-9 >= u.cores)
                        .min_by(|a, b| {
                            a.cores
                                .partial_cmp(&b.cores)
                                .expect("finite cores")
                                .then(a.id.cmp(&b.id))
                        })
                        .copied()
                };
                let donor = first_min_where(&free, |i| {
                    active(i)
                        && i != recipient
                        && free[recipient] - free[i] >= self.config.rebalance_gap
                        && movable(i).is_some()
                });
                let Some(donor) = donor else { break };
                let unit = movable(donor).expect("donor eligibility checked");
                free[donor] += unit.cores;
                free[recipient] -= unit.cores;
                touched.push(unit.id);
                plan.migrate(view.nodes[donor].node, view.nodes[recipient].node, unit.id);
            }
        }
        plan
    }

    /// Plans from placement, lifecycle state and the displaced pool alone.
    fn wants_view(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view_of(now: Timestamp, nodes: Vec<(NodePlacement, NodeState)>) -> FleetView {
        FleetView {
            now,
            epoch: 0,
            nodes: nodes
                .into_iter()
                .enumerate()
                .map(|(i, (placement, state))| NodeView {
                    node: i,
                    agents: Vec::new(),
                    telemetry: Vec::new(),
                    placement,
                    state,
                })
                .collect(),
            displaced: Vec::new(),
        }
    }

    fn view_at(now: Timestamp, nodes: Vec<NodePlacement>) -> FleetView {
        view_of(now, nodes.into_iter().map(|p| (p, NodeState::Active)).collect())
    }

    fn view(nodes: Vec<NodePlacement>) -> FleetView {
        view_at(Timestamp::from_secs(1), nodes)
    }

    fn placeable(capacity: f64, resident: Vec<WorkloadUnit>) -> NodePlacement {
        NodePlacement { capacity, resident }
    }

    #[test]
    fn node_placement_accounting() {
        let p = placeable(
            8.0,
            vec![WorkloadUnit::new(WorkloadId(0), 2.0), WorkloadUnit::new(WorkloadId(1), 1.5)],
        );
        assert_eq!(p.used(), 3.5);
        assert_eq!(p.free(), 4.5);
        assert!((p.occupancy() - 3.5 / 8.0).abs() < 1e-12);
        assert!(p.hosts(WorkloadId(1)));
        assert!(!p.hosts(WorkloadId(2)));
        let none = NodePlacement::none();
        assert_eq!(none.occupancy(), 0.0);
        assert_eq!(none.free(), 0.0);
    }

    #[test]
    fn arrival_trace_is_deterministic_and_ordered() {
        let config = ArrivalTraceConfig { workloads: 16, ..ArrivalTraceConfig::default() };
        let a = ArrivalTrace::generate(7, &config);
        let b = ArrivalTrace::generate(7, &config);
        assert_eq!(a, b);
        assert_ne!(a, ArrivalTrace::generate(8, &config));
        assert_eq!(a.arrivals(), 16);
        assert_eq!(a.events().len(), 32);
        for pair in a.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "events must be time-sorted");
        }
        // Every arrival precedes its own departure.
        for (i, event) in a.events().iter().enumerate() {
            if let TraceEventKind::Depart(id) = &event.kind {
                let arrived_before = a.events()[..i]
                    .iter()
                    .any(|e| matches!(&e.kind, TraceEventKind::Arrive(u) if u.id == *id));
                assert!(arrived_before, "{id} departs before arriving");
            }
        }
        // Sizes and lifetimes stay in their configured ranges.
        for event in a.events() {
            if let TraceEventKind::Arrive(unit) = &event.kind {
                assert!(unit.cores >= config.min_cores && unit.cores <= config.max_cores);
                assert!((0.6..=1.0).contains(&unit.cpu_bound_fraction));
            }
        }
    }

    #[test]
    fn packer_places_worst_fit() {
        // Rebalancing off so the test isolates the placement decision.
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 0.0, max_rebalances_per_epoch: 0 },
        );
        packer.pending.push(WorkloadUnit::new(WorkloadId(9), 1.0));
        let v = view(vec![
            placeable(8.0, vec![WorkloadUnit::new(WorkloadId(0), 5.0)]), // free 3
            placeable(8.0, vec![WorkloadUnit::new(WorkloadId(1), 1.0)]), // free 7 <- target
            placeable(4.0, vec![]),                                      // free 4
        ]);
        let plan = packer.plan(&v);
        assert_eq!(
            plan.commands(),
            &[FleetCommand::Admit { node: 1, unit: WorkloadUnit::new(WorkloadId(9), 1.0) }]
        );
    }

    #[test]
    fn packer_ties_break_toward_the_lower_node_index() {
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 0.0, max_rebalances_per_epoch: 0 },
        );
        packer.pending.push(WorkloadUnit::new(WorkloadId(0), 1.0));
        // Three equally empty nodes: the documented tie-break is the lowest
        // node index (Iterator::max_by would pick the highest).
        let v = view(vec![placeable(8.0, vec![]), placeable(8.0, vec![]), placeable(8.0, vec![])]);
        let plan = packer.plan(&v);
        assert!(matches!(plan.commands()[0], FleetCommand::Admit { node: 0, .. }));
    }

    #[test]
    fn packer_defers_when_nothing_fits_and_retries() {
        let trace = ArrivalTrace::empty();
        let mut packer = GreedyPacker::new(trace);
        packer.pending.push(WorkloadUnit::new(WorkloadId(3), 6.0));
        let full = view(vec![placeable(4.0, vec![])]);
        let plan = packer.plan(&full);
        assert!(plan.is_empty());
        assert_eq!(packer.pending(), 1);
        assert_eq!(packer.deferred_placements(), 1);
        // Once capacity appears, the queued unit is placed.
        let roomy = view(vec![placeable(8.0, vec![])]);
        let plan = packer.plan(&roomy);
        assert_eq!(plan.len(), 1);
        assert_eq!(packer.pending(), 0);
    }

    #[test]
    fn packer_departs_resident_units_and_forgets_unplaced_ones() {
        let unit = WorkloadUnit::new(WorkloadId(0), 1.0);
        let never_placed = WorkloadUnit::new(WorkloadId(1), 100.0);
        let trace = ArrivalTrace {
            events: vec![
                TraceEvent { at: Timestamp::from_millis(10), kind: TraceEventKind::Arrive(unit) },
                TraceEvent {
                    at: Timestamp::from_millis(20),
                    kind: TraceEventKind::Arrive(never_placed),
                },
                TraceEvent {
                    at: Timestamp::from_millis(900),
                    kind: TraceEventKind::Depart(unit.id),
                },
                TraceEvent {
                    at: Timestamp::from_millis(901),
                    kind: TraceEventKind::Depart(never_placed.id),
                },
            ],
            arrivals: 2,
        };
        let mut packer = GreedyPacker::new(trace);
        // First barrier (before the departures are due): both arrivals due;
        // only `unit` fits.
        let plan = packer.plan(&view_at(Timestamp::from_millis(100), vec![placeable(2.0, vec![])]));
        assert_eq!(plan.len(), 1);
        // Second barrier: `unit` is resident and departs; `never_placed`
        // departs silently from the queue.
        let plan = packer.plan(&view(vec![placeable(2.0, vec![unit])]));
        assert_eq!(plan.commands(), &[FleetCommand::Depart { node: 0, workload: unit.id }]);
        assert_eq!(packer.pending(), 0);
    }

    #[test]
    fn packer_rebalances_across_a_wide_gap() {
        let small = WorkloadUnit::new(WorkloadId(0), 1.0);
        let big = WorkloadUnit::new(WorkloadId(1), 4.0);
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 2.0, max_rebalances_per_epoch: 4 },
        );
        let v = view(vec![
            placeable(8.0, vec![small, big]), // free 3
            placeable(8.0, vec![]),           // free 8
        ]);
        let plan = packer.plan(&v);
        // The smallest unit moves from the loaded node to the empty one; the
        // remaining gap (7 free vs 4 free... after moving `small`) is checked
        // again and a second move of `big` closes it under the threshold.
        assert!(plan
            .commands()
            .iter()
            .any(|c| matches!(c, FleetCommand::Migrate { from: 0, to: 1, workload } if *workload == small.id)));
        // Disabled rebalancing issues nothing.
        let mut off = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 0.0, max_rebalances_per_epoch: 4 },
        );
        assert!(off.plan(&v).is_empty());
    }

    #[test]
    fn zero_capacity_nodes_cannot_wedge_rebalancing() {
        // Node 0 has no placeable capacity (free == 0, the minimum) and no
        // residents; it must be skipped as donor so the real imbalance
        // between nodes 1 and 2 still rebalances.
        let stuck = WorkloadUnit::new(WorkloadId(4), 1.0);
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 2.0, max_rebalances_per_epoch: 1 },
        );
        let v = view(vec![
            placeable(0.0, vec![]),      // free 0 — not a donor
            placeable(8.0, vec![stuck]), // free 7
            placeable(8.0, vec![]),      // free 8... wait, gap 1 < 2
        ]);
        // Widen the gap: load node 1 heavily.
        let heavy = WorkloadUnit::new(WorkloadId(5), 5.0);
        let mut nodes = v.nodes;
        nodes[1].placement.resident.push(heavy); // free 2 vs free 8: gap 6
        let v = FleetView { nodes, ..v };
        let plan = packer.plan(&v);
        assert!(
            plan.commands()
                .iter()
                .any(|c| matches!(c, FleetCommand::Migrate { from: 1, to: 2, .. })),
            "node 1 must donate despite node 0 being the free-capacity minimum: {plan:?}"
        );
    }

    #[test]
    fn null_controller_is_empty() {
        let v = view(vec![placeable(8.0, vec![])]);
        assert!(NullController.plan(&v).is_empty());
    }

    #[test]
    fn placement_plan_collects_commands_and_lifecycle_events() {
        let mut plan = PlacementPlan::new();
        assert!(plan.is_empty());
        plan.admit(0, WorkloadUnit::new(WorkloadId(0), 1.0));
        plan.depart(1, WorkloadId(2));
        plan.migrate(1, 0, WorkloadId(3));
        assert_eq!(plan.len(), 3);
        assert!(matches!(plan.commands()[2], FleetCommand::Migrate { from: 1, to: 0, .. }));

        plan.crash(2);
        plan.join();
        plan.drain(4);
        assert_eq!(plan.len(), 6);
        let (commands, lifecycle) = plan.into_parts();
        assert_eq!(commands.len(), 3);
        assert_eq!(
            lifecycle,
            [
                LifecycleEvent::Crash { node: 2 },
                LifecycleEvent::Join,
                LifecycleEvent::Drain { node: 4 }
            ]
        );
    }

    #[test]
    fn packer_only_targets_active_nodes() {
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 0.0, max_rebalances_per_epoch: 0 },
        );
        packer.pending.push(WorkloadUnit::new(WorkloadId(0), 1.0));
        // The roomiest nodes are draining/joining; only node 2 may admit.
        let v = view_of(
            Timestamp::from_secs(1),
            vec![
                (placeable(8.0, vec![]), NodeState::Draining),
                (placeable(8.0, vec![]), NodeState::Joining),
                (placeable(4.0, vec![]), NodeState::Active),
            ],
        );
        let plan = packer.plan(&v);
        assert_eq!(
            plan.commands(),
            &[FleetCommand::Admit { node: 2, unit: WorkloadUnit::new(WorkloadId(0), 1.0) }]
        );
        // With no Active node at all, the unit defers instead of landing on a
        // non-admitting node.
        let mut stuck = GreedyPacker::new(ArrivalTrace::empty());
        stuck.pending.push(WorkloadUnit::new(WorkloadId(1), 1.0));
        let v =
            view_of(Timestamp::from_secs(1), vec![(placeable(8.0, vec![]), NodeState::Draining)]);
        assert!(stuck.plan(&v).is_empty());
        assert_eq!(stuck.pending(), 1);
    }

    #[test]
    fn packer_evacuates_draining_nodes_smallest_first() {
        let small = WorkloadUnit::new(WorkloadId(0), 1.0);
        let big = WorkloadUnit::new(WorkloadId(1), 3.0);
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 0.0, max_rebalances_per_epoch: 0 },
        );
        let v = view_of(
            Timestamp::from_secs(1),
            vec![
                (placeable(8.0, vec![big, small]), NodeState::Draining),
                (placeable(8.0, vec![]), NodeState::Active), // free 8: takes both
                (placeable(2.0, vec![]), NodeState::Active), // free 2
            ],
        );
        let plan = packer.plan(&v);
        assert_eq!(
            plan.commands(),
            &[
                FleetCommand::Migrate { from: 0, to: 1, workload: small.id },
                FleetCommand::Migrate { from: 0, to: 1, workload: big.id },
            ],
            "smallest resident first, each to the then-emptiest Active node \
             (node 1 stays emptier than node 2 even after taking the first unit)"
        );
        // Nothing fits anywhere: the resident stays put, retried later.
        let mut wedged = GreedyPacker::new(ArrivalTrace::empty());
        let huge = WorkloadUnit::new(WorkloadId(2), 9.0);
        let v = view_of(
            Timestamp::from_secs(1),
            vec![
                (placeable(10.0, vec![huge]), NodeState::Draining),
                (placeable(4.0, vec![]), NodeState::Active),
            ],
        );
        assert!(wedged.plan(&v).is_empty());
    }

    #[test]
    fn packer_replaces_displaced_units_before_fresh_arrivals() {
        let displaced = WorkloadUnit::new(WorkloadId(7), 3.0);
        let fresh = WorkloadUnit::new(WorkloadId(8), 3.0);
        let mut packer = GreedyPacker::with_config(
            ArrivalTrace::empty(),
            GreedyPackerConfig { rebalance_gap: 0.0, max_rebalances_per_epoch: 0 },
        );
        packer.pending.push(fresh);
        // Room for only one of the two: the displaced unit must win.
        let mut v = view(vec![placeable(4.0, vec![])]);
        v.displaced.push(displaced);
        let plan = packer.plan(&v);
        assert_eq!(
            plan.commands(),
            &[FleetCommand::Admit { node: 0, unit: displaced }],
            "displaced units queue ahead of fresh arrivals"
        );
        assert_eq!(packer.pending(), 1, "the fresh arrival defers");
        // The same displaced unit reappearing in the pool is not re-queued
        // while it is still pending.
        let mut v = view(vec![placeable(0.0, vec![])]);
        v.displaced.push(displaced);
        packer.plan(&v);
        packer.plan(&v);
        assert_eq!(
            packer.pending.iter().filter(|u| u.id == displaced.id).count(),
            1,
            "pool re-offers must not duplicate the queue entry"
        );
    }

    #[test]
    fn packer_skips_displaced_units_that_already_departed() {
        let unit = WorkloadUnit::new(WorkloadId(0), 1.0);
        let trace = ArrivalTrace {
            events: vec![
                TraceEvent { at: Timestamp::from_millis(10), kind: TraceEventKind::Arrive(unit) },
                TraceEvent {
                    at: Timestamp::from_millis(500),
                    kind: TraceEventKind::Depart(unit.id),
                },
            ],
            arrivals: 1,
        };
        let mut packer = GreedyPacker::new(trace);
        // Boundary 1: arrive + admit.
        let plan = packer.plan(&view_at(Timestamp::from_millis(100), vec![placeable(4.0, vec![])]));
        assert_eq!(plan.commands().len(), 1);
        // The node hosting it crashed, and by the next boundary the unit's
        // departure has passed: the displaced copy must not be re-placed.
        let mut v = view_at(Timestamp::from_secs(1), vec![placeable(4.0, vec![])]);
        v.displaced.push(unit);
        let plan = packer.plan(&v);
        assert!(plan.is_empty(), "departed displaced units are not revived: {plan:?}");
        assert_eq!(packer.pending(), 0);
    }

    /// Regression test for the deferral-queue bugfix: a unit deferred while
    /// every node was full must land on a node that *joined after* the
    /// deferral — eligibility is re-evaluated against the current view, not
    /// the node set that existed when the unit was queued.
    #[test]
    fn deferred_units_land_on_nodes_joined_after_the_deferral() {
        let unit = WorkloadUnit::new(WorkloadId(0), 5.0);
        let mut packer = GreedyPacker::new(ArrivalTrace::empty());
        packer.pending.push(unit);
        // Boundary 1: one full node; the unit defers.
        let full = placeable(6.0, vec![WorkloadUnit::new(WorkloadId(9), 4.0)]);
        assert!(packer.plan(&view(vec![full.clone()])).is_empty());
        assert_eq!(packer.deferred_placements(), 1);
        // Boundary 2: a freshly joined node (index 1) has room; the deferred
        // unit must be admitted there.
        let v = view_of(
            Timestamp::from_secs(2),
            vec![(full, NodeState::Active), (placeable(6.0, vec![]), NodeState::Active)],
        );
        let plan = packer.plan(&v);
        assert_eq!(plan.commands(), &[FleetCommand::Admit { node: 1, unit }]);
        assert_eq!(packer.pending(), 0);
    }
}
