//! Node lifecycle: crash, join, and drain as first-class fleet events.
//!
//! SOL's deployment story is a fleet where servers fail, reimage, and rejoin
//! constantly — controllers that never face a node disappearing are not
//! facing the one disturbance every production platform guarantees. This
//! module makes availability churn a typed, deterministic input to a fleet
//! run:
//!
//! * a [`NodeRegistry`] keeps one versioned [`NodeRecord`] per node slot with
//!   the state machine `Joining → Active → Draining → Drained | Crashed`;
//!   illegal transitions are loud [`LifecycleError`]s, never silent repairs;
//! * a [`LifecycleEvent`] (`Crash`, `Join`, `Drain`) can be emitted by any
//!   [`FleetController`](crate::runtime::placement::FleetController) in its
//!   [`PlacementPlan`](crate::runtime::placement::PlacementPlan), exactly
//!   like a placement command; and
//! * a seeded [`FaultPlan`] injects lifecycle events at epoch boundaries
//!   independently of the controller — the availability analogue of an
//!   [`ArrivalTrace`](crate::runtime::placement::ArrivalTrace), applied by
//!   [`FleetRuntime::run_with_faults`](crate::runtime::fleet::FleetRuntime::run_with_faults).
//!
//! The [`FleetRuntime`](crate::runtime::fleet::FleetRuntime) applies the
//! events inside its deterministic barrier protocol: a crashed node's
//! resident [`WorkloadUnit`](crate::runtime::placement::WorkloadUnit)s are
//! surfaced as displaced in the next
//! [`FleetView`](crate::runtime::placement::FleetView) so controllers must
//! re-place them, joins stamp a fresh node from the
//! [`ScenarioRecipe`](crate::runtime::builder::ScenarioRecipe) mid-run
//! (collision-free [`NodeSeed::derive`](crate::runtime::fleet::NodeSeed) at
//! the next free index), and draining nodes reject new admissions while the
//! controller migrates residents off.

use crate::time::{SimDuration, Timestamp};

use super::fleet::{splitmix64, GAMMA};

/// Where one node slot is in its life. The only legal transitions are
///
/// ```text
/// Joining ──► Active ──► Draining ──► Drained
///    │           │           │
///    └───────────┴───────────┴──────► Crashed
/// ```
///
/// — terminal states ([`Drained`](Self::Drained), [`Crashed`](Self::Crashed))
/// are never left, and a node cannot drain without passing through
/// [`Active`](Self::Active). [`NodeRegistry::transition`] rejects everything
/// else with a [`LifecycleError::IllegalTransition`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeState {
    /// Stamped out mid-run and not yet eligible for admissions; activates at
    /// the next epoch boundary.
    Joining,
    /// Fully in service: runs agents, hosts workloads, accepts admissions.
    Active,
    /// Being emptied: rejects new admissions, keeps running its residents
    /// until the controller migrates them off.
    ///
    /// A node that holds no residents when it starts draining retires as
    /// [`Drained`](Self::Drained) in the next barrier's bookkeeping, before
    /// that barrier's [`FleetView`](crate::runtime::placement::FleetView) is
    /// stamped, so no view ever reads it `Draining`. Its
    /// `Active → Draining → Drained` edges are recorded only in the
    /// [`NodeRegistry`]; anything that logs lifecycle transitions must take
    /// them from there, not from successive views.
    Draining,
    /// Terminal: drained to zero residents and retired cleanly.
    Drained,
    /// Terminal: failed abruptly; its residents were displaced.
    Crashed,
}

impl NodeState {
    /// Whether a transition from `self` to `to` is legal.
    pub fn can_transition(self, to: NodeState) -> bool {
        matches!(
            (self, to),
            (NodeState::Joining, NodeState::Active)
                | (NodeState::Joining, NodeState::Crashed)
                | (NodeState::Active, NodeState::Draining)
                | (NodeState::Active, NodeState::Crashed)
                | (NodeState::Draining, NodeState::Drained)
                | (NodeState::Draining, NodeState::Crashed)
        )
    }

    /// Whether the node accepts new workload admissions.
    pub fn is_active(self) -> bool {
        matches!(self, NodeState::Active)
    }

    /// Whether the node is still running (has a live simulation behind it).
    pub fn is_live(self) -> bool {
        matches!(self, NodeState::Joining | NodeState::Active | NodeState::Draining)
    }
}

impl std::fmt::Display for NodeState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            NodeState::Joining => "joining",
            NodeState::Active => "active",
            NodeState::Draining => "draining",
            NodeState::Drained => "drained",
            NodeState::Crashed => "crashed",
        };
        f.write_str(name)
    }
}

/// The versioned lifecycle record of one node slot in a [`NodeRegistry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeRecord {
    /// The node's index in the fleet (stable for the whole run; slots are
    /// never reused).
    pub node: usize,
    /// The node's current lifecycle state.
    pub state: NodeState,
    /// Bumped on every transition; starts at 1 when the record is created.
    pub version: u64,
    /// The epoch boundary at which the node entered the fleet (0 for the
    /// initial population).
    pub joined_epoch: u64,
    /// The epoch boundary of the record's most recent transition.
    pub updated_epoch: u64,
}

impl NodeRecord {
    /// The record of an initial-population node that never transitioned:
    /// `Active` at version 1 since epoch 0. This is also what
    /// [`FleetRuntime::run_node`](crate::runtime::fleet::FleetRuntime::run_node)
    /// stamps, so a surviving node's fleet report matches its solo run.
    pub fn initial(node: usize) -> NodeRecord {
        NodeRecord { node, state: NodeState::Active, version: 1, joined_epoch: 0, updated_epoch: 0 }
    }
}

/// Why a lifecycle operation was rejected. These are loud errors: the fleet
/// aborts the run rather than guessing what a controller meant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleError {
    /// The addressed node index does not exist in the registry.
    UnknownNode(usize),
    /// The requested transition is not an edge of the state machine.
    IllegalTransition {
        /// The addressed node.
        node: usize,
        /// Its current state.
        from: NodeState,
        /// The rejected target state.
        to: NodeState,
    },
}

impl std::fmt::Display for LifecycleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LifecycleError::UnknownNode(node) => {
                write!(f, "lifecycle event addressed unknown node {node}")
            }
            LifecycleError::IllegalTransition { node, from, to } => {
                write!(f, "illegal lifecycle transition for node {node}: {from} -> {to}")
            }
        }
    }
}

impl std::error::Error for LifecycleError {}

/// The fleet's versioned lifecycle ledger: one [`NodeRecord`] per node slot,
/// append-only (slots are never reused), with every state change validated
/// against the [`NodeState`] machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeRegistry {
    records: Vec<NodeRecord>,
}

impl NodeRegistry {
    /// A registry of `initial_nodes` slots, all `Active` since epoch 0.
    pub fn new(initial_nodes: usize) -> NodeRegistry {
        NodeRegistry { records: (0..initial_nodes).map(NodeRecord::initial).collect() }
    }

    /// Number of node slots ever registered (live and terminal).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the registry holds no slots.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records, in node-index order.
    pub fn records(&self) -> &[NodeRecord] {
        &self.records
    }

    /// The record of one node, if the slot exists.
    pub fn record(&self, node: usize) -> Option<&NodeRecord> {
        self.records.get(node)
    }

    /// The state of one node, if the slot exists.
    pub fn state(&self, node: usize) -> Option<NodeState> {
        self.records.get(node).map(|r| r.state)
    }

    /// Number of live (joining, active, or draining) nodes.
    pub fn live(&self) -> usize {
        self.records.iter().filter(|r| r.state.is_live()).count()
    }

    /// Registers a new `Joining` node at the next free index and returns that
    /// index. Indices grow monotonically, so a joined node's
    /// [`NodeSeed`](crate::runtime::fleet::NodeSeed) never collides with any
    /// earlier node's.
    pub fn join(&mut self, epoch: u64) -> usize {
        let node = self.records.len();
        self.records.push(NodeRecord {
            node,
            state: NodeState::Joining,
            version: 1,
            joined_epoch: epoch,
            updated_epoch: epoch,
        });
        node
    }

    /// Moves `node` to `to`, bumping the record's version.
    ///
    /// # Errors
    ///
    /// [`LifecycleError::UnknownNode`] if the slot does not exist;
    /// [`LifecycleError::IllegalTransition`] if the edge is not part of the
    /// state machine. On error the record is untouched.
    pub fn transition(
        &mut self,
        node: usize,
        to: NodeState,
        epoch: u64,
    ) -> Result<(), LifecycleError> {
        let record = self.records.get_mut(node).ok_or(LifecycleError::UnknownNode(node))?;
        if !record.state.can_transition(to) {
            return Err(LifecycleError::IllegalTransition { node, from: record.state, to });
        }
        record.state = to;
        record.version += 1;
        record.updated_epoch = epoch;
        Ok(())
    }
}

/// One availability event, issued by a controller (via
/// [`PlacementPlan`](crate::runtime::placement::PlacementPlan)) or injected
/// by a [`FaultPlan`] at an epoch boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LifecycleEvent {
    /// `node` fails abruptly: its agents stop, its resident workloads are
    /// displaced into the next
    /// [`FleetView`](crate::runtime::placement::FleetView).
    Crash {
        /// The failing node.
        node: usize,
    },
    /// A fresh node is stamped from the recipe at the next free index; it is
    /// `Joining` until the next boundary, then `Active`.
    Join,
    /// `node` stops accepting admissions and waits for the controller to
    /// migrate its residents off; once observed empty at a boundary it
    /// retires as `Drained`.
    Drain {
        /// The node to empty.
        node: usize,
    },
}

/// One timestamped entry of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// The event fires at the first epoch boundary at or after this time.
    pub at: Timestamp,
    /// What happens.
    pub event: LifecycleEvent,
}

/// Shape of a generated [`FaultPlan`]: how many of each event, spread over
/// what span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlanConfig {
    /// Number of node crashes.
    pub crashes: usize,
    /// Number of node joins.
    pub joins: usize,
    /// Number of node drains.
    pub drains: usize,
    /// Event times are spread uniformly over `(0, span]`.
    pub span: SimDuration,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        FaultPlanConfig { crashes: 1, joins: 1, drains: 1, span: SimDuration::from_secs(60) }
    }
}

/// A seeded, deterministic schedule of availability events — the failure
/// analogue of an [`ArrivalTrace`](crate::runtime::placement::ArrivalTrace).
///
/// Crash and drain targets are sampled *without replacement* from the initial
/// node population, so a generated plan never asks the same node to both
/// crash and drain (the second event would be an illegal transition, which
/// the fleet skips for plan events — the node has already left — and counts
/// in [`FleetProfile::fault_events_skipped`]). The plan is a pure function of
/// `(seed, nodes, FaultPlanConfig)`.
///
/// [`FleetProfile::fault_events_skipped`]: crate::runtime::profile::FleetProfile::fault_events_skipped
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    cursor: usize,
}

impl FaultPlan {
    /// A plan with no events: `run_with_faults` under an empty plan is
    /// byte-identical to `run_with`.
    pub fn empty() -> FaultPlan {
        FaultPlan { events: Vec::new(), cursor: 0 }
    }

    /// A plan over explicit events (sorted by time; ties keep their given
    /// order). Useful for scripting a precise failure scenario in tests and
    /// examples.
    pub fn from_events(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at);
        FaultPlan { events, cursor: 0 }
    }

    /// Generates a plan from a seed, the initial fleet size, and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `crashes + drains > nodes` (targets are sampled without
    /// replacement) or if `span` is zero while the plan has events.
    pub fn generate(seed: u64, nodes: usize, config: &FaultPlanConfig) -> FaultPlan {
        let targeted = config.crashes + config.drains;
        assert!(
            targeted <= nodes,
            "fault plan wants {targeted} crash/drain targets but the fleet has {nodes} nodes"
        );
        let total = targeted + config.joins;
        assert!(total == 0 || !config.span.is_zero(), "a non-empty fault plan needs a span");
        // Domain separation from `NodeSeed::derive` and the arrival trace.
        const FAULT_DOMAIN: u64 = 0x4641_494c_4f56_4552; // "FAILOVER"
        let root = splitmix64(seed ^ FAULT_DOMAIN);
        let draw = |salt: u64| splitmix64(root.wrapping_add(salt.wrapping_mul(GAMMA)));
        // Partial Fisher-Yates over the node indices: the first `targeted`
        // entries are the distinct crash/drain victims.
        let mut pool: Vec<usize> = (0..nodes).collect();
        for i in 0..targeted {
            let j = i + (draw(i as u64) as usize) % (nodes - i);
            pool.swap(i, j);
        }
        let at = |salt: u64| {
            let frac = (draw(salt) >> 11) as f64 / 9_007_199_254_740_992.0;
            Timestamp::ZERO
                + SimDuration::from_nanos(((config.span.as_nanos() as f64 * frac) as u64).max(1))
        };
        let mut events = Vec::with_capacity(total);
        for (i, &node) in pool[..config.crashes].iter().enumerate() {
            events.push(FaultEvent {
                at: at(1_000 + i as u64),
                event: LifecycleEvent::Crash { node },
            });
        }
        for (i, &node) in pool[config.crashes..targeted].iter().enumerate() {
            events.push(FaultEvent {
                at: at(2_000 + i as u64),
                event: LifecycleEvent::Drain { node },
            });
        }
        for i in 0..config.joins {
            events.push(FaultEvent { at: at(3_000 + i as u64), event: LifecycleEvent::Join });
        }
        events.sort_by_key(|e| e.at);
        FaultPlan { events, cursor: 0 }
    }

    /// The plan's events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether the plan has no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Advances the cursor past every event due at or before `now` and
    /// returns them, in time order.
    pub fn due(&mut self, now: Timestamp) -> Vec<LifecycleEvent> {
        let mut fired = Vec::new();
        while self.cursor < self.events.len() && self.events[self.cursor].at <= now {
            fired.push(self.events[self.cursor].event);
            self.cursor += 1;
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL_STATES: [NodeState; 5] = [
        NodeState::Joining,
        NodeState::Active,
        NodeState::Draining,
        NodeState::Drained,
        NodeState::Crashed,
    ];

    #[test]
    fn exactly_six_edges_are_legal() {
        let mut legal = 0;
        for from in ALL_STATES {
            for to in ALL_STATES {
                if from.can_transition(to) {
                    legal += 1;
                    assert!(from.is_live(), "only live states may transition: {from} -> {to}");
                }
                if !from.is_live() {
                    assert!(!from.can_transition(to), "terminal {from} must never leave");
                }
            }
        }
        assert_eq!(legal, 6);
        // Spot checks on both sides of the fence.
        assert!(NodeState::Active.can_transition(NodeState::Draining));
        assert!(!NodeState::Active.can_transition(NodeState::Drained));
        assert!(!NodeState::Joining.can_transition(NodeState::Draining));
        assert!(!NodeState::Crashed.can_transition(NodeState::Active));
    }

    #[test]
    fn registry_tracks_versions_and_epochs() {
        let mut registry = NodeRegistry::new(2);
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.record(0), Some(&NodeRecord::initial(0)));
        assert_eq!(registry.live(), 2);

        registry.transition(0, NodeState::Draining, 3).unwrap();
        registry.transition(0, NodeState::Drained, 5).unwrap();
        let record = registry.record(0).unwrap();
        assert_eq!(record.state, NodeState::Drained);
        assert_eq!(record.version, 3);
        assert_eq!(record.joined_epoch, 0);
        assert_eq!(record.updated_epoch, 5);
        assert_eq!(registry.live(), 1);

        let joined = registry.join(4);
        assert_eq!(joined, 2);
        let record = *registry.record(joined).unwrap();
        assert_eq!(record.state, NodeState::Joining);
        assert_eq!(record.version, 1);
        assert_eq!(record.joined_epoch, 4);
        registry.transition(joined, NodeState::Active, 5).unwrap();
        assert_eq!(registry.state(joined), Some(NodeState::Active));
    }

    #[test]
    fn registry_rejects_illegal_operations_loudly_and_untouched() {
        let mut registry = NodeRegistry::new(1);
        assert_eq!(
            registry.transition(7, NodeState::Crashed, 0),
            Err(LifecycleError::UnknownNode(7))
        );
        let err = registry.transition(0, NodeState::Drained, 2).unwrap_err();
        assert_eq!(
            err,
            LifecycleError::IllegalTransition {
                node: 0,
                from: NodeState::Active,
                to: NodeState::Drained
            }
        );
        assert!(err.to_string().contains("active -> drained"));
        // The failed transition left the record untouched.
        assert_eq!(registry.record(0), Some(&NodeRecord::initial(0)));
    }

    #[test]
    fn fault_plan_is_deterministic_sorted_and_collision_free() {
        let config =
            FaultPlanConfig { crashes: 2, joins: 2, drains: 2, span: SimDuration::from_secs(30) };
        let a = FaultPlan::generate(9, 6, &config);
        assert_eq!(a, FaultPlan::generate(9, 6, &config));
        assert_ne!(a, FaultPlan::generate(10, 6, &config));
        assert_eq!(a.events().len(), 6);
        for pair in a.events().windows(2) {
            assert!(pair[0].at <= pair[1].at, "events must be time-sorted");
        }
        // Crash and drain targets never overlap, so the plan is always legal.
        let mut targets = Vec::new();
        for e in a.events() {
            match e.event {
                LifecycleEvent::Crash { node } | LifecycleEvent::Drain { node } => {
                    assert!(!targets.contains(&node), "node {node} targeted twice");
                    assert!(node < 6);
                    targets.push(node);
                }
                LifecycleEvent::Join => {}
            }
        }
        assert_eq!(targets.len(), 4);
    }

    #[test]
    #[should_panic(expected = "crash/drain targets")]
    fn fault_plan_rejects_more_targets_than_nodes() {
        let config =
            FaultPlanConfig { crashes: 3, joins: 0, drains: 2, span: SimDuration::from_secs(10) };
        FaultPlan::generate(0, 4, &config);
    }

    #[test]
    fn fault_plan_cursor_fires_each_event_once() {
        let crash = LifecycleEvent::Crash { node: 0 };
        let mut plan = FaultPlan::from_events(vec![
            FaultEvent { at: Timestamp::from_secs(5), event: LifecycleEvent::Join },
            FaultEvent { at: Timestamp::from_secs(2), event: crash },
        ]);
        assert_eq!(plan.due(Timestamp::from_secs(1)), Vec::new());
        assert_eq!(plan.due(Timestamp::from_secs(2)), vec![crash]);
        assert_eq!(plan.due(Timestamp::from_secs(10)), vec![LifecycleEvent::Join]);
        assert_eq!(plan.due(Timestamp::from_secs(20)), Vec::new());
        assert!(FaultPlan::empty().is_empty());
    }
}
