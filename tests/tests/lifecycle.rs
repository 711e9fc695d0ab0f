//! Chaos tests for the fleet lifecycle layer: crash, join, and drain as
//! first-class fleet events.
//!
//! * The `NodeRegistry` never admits an illegal transition, for arbitrary
//!   operation sequences (a proptest against an independent model of the
//!   legal edge set).
//! * Fleet aggregation under crashes is exactly the fold of the *surviving*
//!   per-node `run_node` reports: survivors stay byte-identical to their
//!   inline runs, crashed nodes are excluded from role aggregates and
//!   metric summaries but keep their full report.
//! * A drained node ends with zero residents (the packer evacuates it), and
//!   lifecycle programming errors — draining a node twice, crashing a node
//!   that already retired — abort the run loudly.
//! * The acceptance scenario: an 8-node `GreedyPacker` fleet survives a
//!   mid-run crash with every displaced unit re-placed or counted failed,
//!   byte-identical across 1, 2, and 8 worker threads.

use proptest::prelude::*;

use sol_core::error::RuntimeError;
use sol_core::prelude::*;
use sol_tests::{debug_bytes, placeable_preset, test_trace, toy_recipe};

/// A controller that emits a fixed batch of lifecycle events at one epoch
/// and otherwise stays silent.
struct EventAt {
    epoch: u64,
    events: Vec<LifecycleEvent>,
}

impl FleetController for EventAt {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        let mut plan = PlacementPlan::new();
        if view.epoch == self.epoch {
            for &event in &self.events {
                plan.lifecycle(event);
            }
        }
        plan
    }
}

// ---------------------------------------------------------------------------
// Satellite (a): the registry never admits an illegal transition.
// ---------------------------------------------------------------------------

/// The legal edge set, written out independently of
/// `NodeState::can_transition` so the proptest checks the implementation
/// against a second opinion rather than against itself.
fn legal(from: NodeState, to: NodeState) -> bool {
    use NodeState::{Active, Crashed, Drained, Draining, Joining};
    matches!(
        (from, to),
        (Joining, Active)
            | (Joining, Crashed)
            | (Active, Draining)
            | (Active, Crashed)
            | (Draining, Drained)
            | (Draining, Crashed)
    )
}

const ALL_STATES: [NodeState; 5] = [
    NodeState::Joining,
    NodeState::Active,
    NodeState::Draining,
    NodeState::Drained,
    NodeState::Crashed,
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For arbitrary operation sequences (joins, in-range and out-of-range
    /// transitions to arbitrary states), the registry accepts exactly the
    /// legal edge set, rejects everything else untouched, and keeps record
    /// versions strictly increasing per accepted change.
    #[test]
    fn registry_never_admits_illegal_transitions(
        nodes in 1usize..6,
        ops in prop::collection::vec((0usize..10, 0usize..5), 0..48),
    ) {
        let mut registry = NodeRegistry::new(nodes);
        let mut model: Vec<NodeState> = vec![NodeState::Active; nodes];

        for (step, &(slot, state)) in ops.iter().enumerate() {
            let epoch = step as u64;
            let to = ALL_STATES[state];
            if slot == 9 {
                // Join op: always legal, always at the next free index.
                let index = registry.join(epoch);
                prop_assert_eq!(index, model.len());
                model.push(NodeState::Joining);
                prop_assert_eq!(registry.state(index), Some(NodeState::Joining));
                continue;
            }
            // Sometimes past the end: must be UnknownNode, never a panic.
            let node = slot % (model.len() + 2);
            let before = registry.records().to_vec();
            let outcome = registry.transition(node, to, epoch);
            if node >= model.len() {
                prop_assert!(matches!(outcome, Err(LifecycleError::UnknownNode(n)) if n == node));
                prop_assert_eq!(registry.records(), before.as_slice());
            } else if legal(model[node], to) {
                prop_assert!(outcome.is_ok(), "legal edge {} -> {} rejected", model[node], to);
                model[node] = to;
                let record = registry.records()[node];
                prop_assert_eq!(record.state, to);
                prop_assert_eq!(record.version, before[node].version + 1);
                prop_assert_eq!(record.updated_epoch, epoch);
            } else {
                prop_assert!(
                    matches!(
                        outcome,
                        Err(LifecycleError::IllegalTransition { node: n, from, to: t })
                            if n == node && from == model[node] && t == to
                    ),
                    "illegal edge {} -> {} admitted", model[node], to
                );
                // Rejected transitions leave the whole registry untouched.
                prop_assert_eq!(registry.records(), before.as_slice());
            }
        }

        // The model and the registry agree on every final state.
        prop_assert_eq!(registry.len(), model.len());
        for (node, &state) in model.iter().enumerate() {
            prop_assert_eq!(registry.state(node), Some(state));
        }
        let live = model.iter().filter(|s| s.is_live()).count();
        prop_assert_eq!(registry.live(), live);
    }

    // -----------------------------------------------------------------------
    // Satellite (b): aggregation under crashes folds exactly the survivors.
    // -----------------------------------------------------------------------

    /// Crashing a subset of nodes mid-run leaves every survivor's report
    /// byte-identical to its inline `run_node`, marks the crashed nodes'
    /// final lifecycle state, and folds role aggregates and metric summaries
    /// over the survivors only.
    #[test]
    fn crash_aggregation_is_the_fold_of_surviving_run_node_reports(
        nodes in 2usize..8,
        threads in 1usize..5,
        crash_picks in prop::collection::vec(0usize..8, 1..3),
        crash_epoch in 0u64..3,
        fleet_seed in 0u64..500,
    ) {
        let mut crashes: Vec<usize> = crash_picks.iter().map(|&pick| pick % nodes).collect();
        crashes.sort_unstable();
        crashes.dedup();
        crashes.truncate(nodes - 1); // keep at least one survivor

        let config = FleetConfig {
            nodes,
            threads,
            epoch: SimDuration::from_millis(500),
            seed: fleet_seed,
            ..FleetConfig::default()
        };
        let horizon = SimDuration::from_secs(2);
        let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
        let mut chaos = EventAt {
            epoch: crash_epoch,
            events: crashes.iter().map(|&node| LifecycleEvent::Crash { node }).collect(),
        };
        let report = fleet.run_with(&mut chaos, horizon).unwrap();

        prop_assert_eq!(report.nodes.len(), nodes);
        for index in 0..nodes {
            let node = &report.nodes[index];
            if crashes.contains(&index) {
                prop_assert_eq!(node.lifecycle.state, NodeState::Crashed);
                prop_assert_eq!(node.lifecycle.updated_epoch, crash_epoch);
                // The crashed node's trajectory was truncated at the crash
                // boundary, on its own clock.
                prop_assert_eq!(
                    node.ended_at,
                    Timestamp::ZERO + SimDuration::from_millis(500 * (crash_epoch + 1))
                );
            } else {
                let solo = fleet.run_node(index, horizon).unwrap();
                prop_assert_eq!(debug_bytes(node), debug_bytes(&solo));
            }
        }

        // Role aggregates and metric summaries fold the survivors only.
        let survivors: Vec<&FleetNodeReport> = report
            .nodes
            .iter()
            .filter(|n| n.lifecycle.state != NodeState::Crashed)
            .collect();
        for (role_idx, role) in report.roles.iter().enumerate() {
            let mut folded = AgentStats::default();
            for node in &survivors {
                folded.accumulate(&node.agents[role_idx].stats);
            }
            prop_assert_eq!(debug_bytes(&role.totals), debug_bytes(&folded));
            prop_assert_eq!(role.nodes, survivors.len());
        }
        let summary = report.metric("ended_secs").unwrap();
        let folded: f64 = survivors.iter().map(|n| n.metrics[0].1).sum();
        prop_assert_eq!(summary.nodes, survivors.len());
        prop_assert!((summary.total - folded).abs() < 1e-9);
    }

    // -----------------------------------------------------------------------
    // Satellite (c): a drained node ends empty, for arbitrary churn seeds.
    // -----------------------------------------------------------------------

    /// Draining a node of a packed fleet always ends with that node holding
    /// zero residents: the packer evacuates it, admissions are rejected from
    /// the drain boundary on, and the node retires as `Drained` once a
    /// barrier snapshot shows it empty.
    #[test]
    fn drained_nodes_end_with_zero_residents(trace_seed in 0u64..64) {
        let horizon = SimDuration::from_secs(16);
        let trace = ArrivalTrace::generate(
            trace_seed,
            &ArrivalTraceConfig {
                workloads: 12,
                span: horizon,
                min_cores: 0.5,
                max_cores: 2.0,
                min_lifetime: SimDuration::from_secs(6),
                max_lifetime: SimDuration::from_secs(14),
            },
        );
        let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(placeable_preset().recipe, config).unwrap();
        let mut packer = GreedyPacker::new(trace);
        let faults = FaultPlan::from_events(vec![FaultEvent {
            at: Timestamp::from_secs(8),
            event: LifecycleEvent::Drain { node: 1 },
        }]);
        let report = fleet.run_with_faults(&mut packer, faults, horizon).unwrap();

        let drained = &report.nodes[1];
        prop_assert_eq!(drained.lifecycle.state, NodeState::Drained);
        prop_assert!(
            drained.workloads.is_empty(),
            "a drained node must end empty, found {:?}", drained.workloads
        );
        // Evacuation re-places, it never destroys: everything admitted
        // either departed on schedule or is still resident somewhere.
        let resident: u64 = report.nodes.iter().map(|n| n.workloads.len() as u64).sum();
        prop_assert_eq!(resident, report.placement.admitted - report.placement.departed);
    }
}

// ---------------------------------------------------------------------------
// Lifecycle programming errors are loud, not silent repairs.
// ---------------------------------------------------------------------------

#[test]
fn draining_a_node_twice_is_a_loud_error() {
    let config = FleetConfig { nodes: 2, threads: 1, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    let mut chaos = EventAt {
        epoch: 0,
        events: vec![LifecycleEvent::Drain { node: 0 }, LifecycleEvent::Drain { node: 0 }],
    };
    let err = fleet.run_with(&mut chaos, SimDuration::from_secs(3)).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::InvalidConfig(msg) if msg.contains("draining")),
        "expected an illegal-transition error, got {err:?}"
    );
}

#[test]
fn crashing_a_retired_node_is_a_loud_error() {
    // Node 0 drains at epoch 0 and (being empty on NullEnvironment) retires
    // as Drained at epoch 1; crashing it at epoch 2 is illegal.
    struct DrainThenCrash;
    impl FleetController for DrainThenCrash {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            let mut plan = PlacementPlan::new();
            match view.epoch {
                0 => plan.drain(0),
                2 => plan.crash(0),
                _ => {}
            }
            plan
        }
    }
    let config = FleetConfig { nodes: 2, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    let err = fleet.run_with(&mut DrainThenCrash, SimDuration::from_secs(5)).unwrap_err();
    assert!(
        matches!(&err, RuntimeError::InvalidConfig(msg) if msg.contains("drained")),
        "expected an illegal-transition error, got {err:?}"
    );
}

#[test]
fn fault_plan_events_on_departed_nodes_are_skipped_and_counted() {
    // The plan crashes node 1, then — as an author who cannot see the fleet
    // would — crashes and drains it again; it drains node 0, which is empty
    // and retires a barrier later, and crashes it after that.
    let at = |secs: u64, event| FaultEvent { at: Timestamp::from_secs(secs), event };
    let faults = FaultPlan::from_events(vec![
        at(1, LifecycleEvent::Crash { node: 1 }),
        at(2, LifecycleEvent::Drain { node: 0 }),
        at(3, LifecycleEvent::Crash { node: 1 }),
        at(4, LifecycleEvent::Drain { node: 1 }),
        at(5, LifecycleEvent::Crash { node: 0 }),
    ]);
    let mut skipped = Vec::new();
    for threads in [1usize, 2] {
        let config = FleetConfig { nodes: 3, threads, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
        let (report, profile) = fleet
            .run_profiled(&mut NullController, faults.clone(), SimDuration::from_secs(8))
            .expect("a plan event on a departed node must not abort the run");
        assert_eq!(report.nodes[1].lifecycle.state, NodeState::Crashed);
        assert_eq!(report.nodes[1].ended_at, Timestamp::from_secs(1));
        assert_eq!(report.nodes[0].lifecycle.state, NodeState::Drained);
        assert_eq!(report.nodes[2].lifecycle.state, NodeState::Active);
        skipped.push(profile.fault_events_skipped);
    }
    assert_eq!(skipped, [3, 3], "three of the five events found their node gone");

    // A plan whose every event lands skips nothing.
    let config = FleetConfig { nodes: 3, threads: 1, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    let legal = FaultPlan::from_events(vec![at(1, LifecycleEvent::Crash { node: 1 })]);
    let (_, profile) =
        fleet.run_profiled(&mut NullController, legal, SimDuration::from_secs(8)).unwrap();
    assert_eq!(profile.fault_events_skipped, 0);
}

#[test]
fn commands_against_crashed_nodes_fail_counted_not_fatal() {
    // Crash node 0 and, at the next boundary, try to admit to it: the
    // admission must be counted failed, never resurrect the node.
    struct CrashThenAdmit;
    impl FleetController for CrashThenAdmit {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            let mut plan = PlacementPlan::new();
            match view.epoch {
                0 => plan.crash(0),
                1 => plan.admit(0, WorkloadUnit::new(WorkloadId(7), 1.0)),
                _ => {}
            }
            plan
        }
    }
    let config = FleetConfig { nodes: 2, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(placeable_preset().recipe, config).unwrap();
    let report = fleet.run_with(&mut CrashThenAdmit, SimDuration::from_secs(4)).unwrap();
    assert_eq!(report.placement.admitted, 0);
    assert_eq!(report.placement.failed_placements, 1);
    assert_eq!(report.nodes[0].lifecycle.state, NodeState::Crashed);
}

// ---------------------------------------------------------------------------
// Joins: fresh nodes enter mid-run and become first-class fleet members.
// ---------------------------------------------------------------------------

#[test]
fn joined_nodes_run_a_virgin_timeline_and_activate() {
    let config = FleetConfig {
        nodes: 3,
        threads: 2,
        epoch: SimDuration::from_secs(1),
        ..FleetConfig::default()
    };
    let horizon = SimDuration::from_secs(6);
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    let mut chaos = EventAt { epoch: 1, events: vec![LifecycleEvent::Join] };
    let report = fleet.run_with(&mut chaos, horizon).unwrap();

    assert_eq!(report.nodes.len(), 4, "the joined node is a first-class report entry");
    let joined = &report.nodes[3];
    assert_eq!(joined.lifecycle.state, NodeState::Active);
    assert_eq!(joined.lifecycle.joined_epoch, 1);
    // The join landed at the epoch-1 boundary (t = 2s); the node's own clock
    // started there, so it ran 4 of the 6 fleet seconds.
    assert_eq!(joined.ended_at, Timestamp::from_secs(4));
    // The joined node's seed is the fleet's derivation at index 3 — exactly
    // what a 4-node fleet would have stamped.
    assert_eq!(joined.seed, fleet.node_seed(3).seed());
    assert!(
        joined.agents.iter().any(|a| a.stats.model.epochs_completed > 0),
        "the joined node must actually learn"
    );
    // Aggregates include the newcomer.
    for role in &report.roles {
        assert_eq!(role.nodes, 4);
    }
}

// ---------------------------------------------------------------------------
// Acceptance: an 8-node packed fleet survives a mid-run crash, with every
// displaced unit re-placed or counted failed, byte-identical across thread
// counts.
// ---------------------------------------------------------------------------

#[test]
fn eight_node_packer_fleet_survives_a_mid_run_crash() {
    let horizon = SimDuration::from_secs(20);
    let faults = FaultPlan::from_events(vec![FaultEvent {
        at: Timestamp::from_secs(9),
        event: LifecycleEvent::Crash { node: 3 },
    }]);

    let mut renders: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 2, 8] {
        let config = FleetConfig { nodes: 8, threads, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(placeable_preset().recipe, config).unwrap();
        let mut packer = GreedyPacker::new(test_trace(40, horizon));
        let report = fleet.run_with_faults(&mut packer, faults.clone(), horizon).unwrap();

        let p = &report.placement;
        assert!(p.displaced > 0, "the crashed node must have hosted work: {p:?}");
        assert!(p.replaced > 0, "displaced units must be re-placed: {p:?}");
        // Every displaced unit is re-placed or counted failed — the packer
        // itself never oversubscribes, so the only failures are displaced
        // units that could not return (e.g. departed while pooled).
        assert_eq!(p.failed_placements, p.displaced - p.replaced, "{p:?}");

        // The crashed node keeps its full report under its final lifecycle
        // state but is excluded from the role aggregates.
        let crashed = &report.nodes[3];
        assert_eq!(crashed.lifecycle.state, NodeState::Crashed);
        assert!(!crashed.agents.is_empty());
        assert_eq!(crashed.ended_at, Timestamp::from_secs(9));
        for role in &report.roles {
            assert_eq!(role.nodes, 7, "role aggregates must exclude the crashed node");
        }
        // Learning survives the churn: the surviving majority keeps
        // completing epochs after the crash.
        let survivors_learning = report
            .nodes
            .iter()
            .filter(|n| n.lifecycle.state == NodeState::Active)
            .filter(|n| n.agents.iter().any(|a| a.stats.model.epochs_completed > 0))
            .count();
        assert_eq!(survivors_learning, 7);

        renders.push(debug_bytes(&report));
    }
    assert_eq!(renders[0], renders[1], "1-thread and 2-thread runs must be byte-identical");
    assert_eq!(renders[0], renders[2], "1-thread and 8-thread runs must be byte-identical");
}
