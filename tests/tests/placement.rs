//! Cross-crate tests of the programmable epoch barrier: `FleetController`,
//! workload placement, and the segmentation corner cases the redesign must
//! not perturb.
//!
//! * `run(horizon)` must stay byte-identical to `run_with(&mut
//!   NullController, horizon)` — and to a controller that issues zero
//!   commands — across the epoch-grid corner cases (horizon not divisible by
//!   the epoch, single-epoch horizon).
//! * The `GreedyPacker` must actually place, migrate, and drain VMs on a
//!   real placeable co-location fleet, and the placement dashboard must
//!   reflect it.
//! * Placement failures (no placeable slots, out-of-capacity) are counted,
//!   never fatal; controller programming errors (bad node index) are loud.

use sol_core::error::{DataError, RuntimeError};
use sol_core::prelude::*;
use sol_tests::{debug_bytes, placeable_preset, test_trace};

/// A deterministic toy model/actuator pair for placement-free recipes.
struct ToyModel;

impl Model for ToyModel {
    type Data = f64;
    type Pred = f64;
    fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
        Ok(1.0)
    }
    fn validate_data(&self, d: &f64) -> bool {
        d.is_finite()
    }
    fn commit_data(&mut self, _now: Timestamp, _d: f64) {}
    fn update_model(&mut self, _now: Timestamp) {}
    fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
        Some(Prediction::model(1.0, now, now + SimDuration::from_secs(1)))
    }
    fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
        Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
    }
    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        ModelAssessment::Healthy
    }
}

#[derive(Default)]
struct ToyActuator;

impl Actuator for ToyActuator {
    type Pred = f64;
    fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {}
    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }
    fn mitigate(&mut self, _now: Timestamp) {}
    fn clean_up(&mut self, _now: Timestamp) {}
}

fn toy_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(2)
        .data_collect_interval(SimDuration::from_millis(100))
        .max_epoch_time(SimDuration::from_secs(1))
        .build()
        .unwrap()
}

/// A single-agent recipe over `NullEnvironment` (no placeable slots).
fn toy_recipe() -> ScenarioRecipe<NullEnvironment> {
    ScenarioRecipe::new(|_seed: &NodeSeed| {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        builder.agent("toy", ToyModel, ToyActuator, toy_schedule());
        builder.build()
    })
}

/// A controller that always returns an empty plan but counts invocations and
/// remembers what it saw.
struct CountingController {
    invocations: u64,
    boundaries: Vec<Timestamp>,
    telemetry_names: Vec<String>,
}

impl CountingController {
    fn new() -> Self {
        CountingController { invocations: 0, boundaries: Vec::new(), telemetry_names: Vec::new() }
    }
}

impl FleetController for CountingController {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        self.invocations += 1;
        self.boundaries.push(view.now);
        if self.telemetry_names.is_empty() {
            if let Some(node) = view.nodes.first() {
                self.telemetry_names =
                    node.telemetry.iter().map(|(name, _)| name.clone()).collect();
            }
        }
        PlacementPlan::new()
    }
}

// ---------------------------------------------------------------------------
// Satellite: epoch segmentation corner cases must stay byte-identical to the
// pre-redesign run() path.
// ---------------------------------------------------------------------------

#[test]
fn run_equals_null_controller_and_zero_command_controller_across_epoch_grids() {
    // (horizon, epoch) pairs covering: not divisible, single-epoch (epoch ==
    // horizon), and the everyday divisible case.
    let cases = [
        (SimDuration::from_secs(7), SimDuration::from_secs(3)), // 3,6,7 — not divisible
        (SimDuration::from_secs(4), SimDuration::from_secs(4)), // single epoch
        (SimDuration::from_secs(6), SimDuration::from_secs(2)), // divisible
    ];
    for (horizon, epoch) in cases {
        let config = FleetConfig { nodes: 3, threads: 2, epoch, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
        let plain = fleet.run(horizon).unwrap();
        let null = fleet.run_with(&mut NullController, horizon).unwrap();
        assert_eq!(
            debug_bytes(&plain),
            debug_bytes(&null),
            "run() must equal run_with(NullController) for epoch {epoch}, horizon {horizon}"
        );
        let mut counting = CountingController::new();
        let counted = fleet.run_with(&mut counting, horizon).unwrap();
        assert_eq!(
            debug_bytes(&plain),
            debug_bytes(&counted),
            "a zero-command controller must not perturb the run"
        );
        // The controller is invoked at every epoch boundary, ending exactly
        // at the horizon.
        assert_eq!(counting.invocations, plain.epochs);
        assert_eq!(*counting.boundaries.last().unwrap(), Timestamp::ZERO + horizon);
        assert_eq!(plain.ended_at, Timestamp::ZERO + horizon);
    }
}

// ---------------------------------------------------------------------------
// The programmable barrier on a real placeable fleet.
// ---------------------------------------------------------------------------

#[test]
fn greedy_packer_places_migrates_and_drains_on_a_real_fleet() {
    let horizon = SimDuration::from_secs(20);
    let preset = placeable_preset();
    let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
    let mut packer = GreedyPacker::new(test_trace(24, horizon));
    let report = fleet.run_with(&mut packer, horizon).unwrap();

    let p = &report.placement;
    assert!(p.admitted > 0, "VMs must be admitted: {p:?}");
    assert!(p.departed > 0, "short-lived VMs must depart: {p:?}");
    assert!(p.migrated > 0, "rebalancing must migrate at least one VM: {p:?}");
    assert_eq!(p.failed_placements, 0, "the packer never oversubscribes: {p:?}");
    assert!(p.commands >= p.admitted + p.departed + p.migrated);
    assert!(p.packing_efficiency > 0.0 && p.packing_efficiency <= 1.0);
    assert!(p.occupancy.max > 0.0, "occupancy must be visible: {p:?}");
    assert!(p.occupancy.min <= p.occupancy.p50 && p.occupancy.p50 <= p.occupancy.max);

    // Final per-node placement is reported and consistent with the counts:
    // admitted minus departed minus still-pending-in-trace equals resident.
    let resident: usize = report.nodes.iter().map(|n| n.workloads.len()).sum();
    assert_eq!(resident as u64, p.admitted - p.departed);
    // Resident units respect per-node capacity.
    for node in &report.nodes {
        let used: f64 = node.workloads.iter().map(|u| u.cores).sum();
        assert!(used <= 6.0 + 1e-9, "node {} over capacity: {used}", node.node);
    }
}

#[test]
fn fleet_view_carries_stats_telemetry_and_placement() {
    let horizon = SimDuration::from_secs(6);
    let preset = placeable_preset();
    let config = FleetConfig { nodes: 2, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();

    /// Asserts the view's shape at every barrier.
    struct Inspector {
        saw_progress: bool,
    }
    impl FleetController for Inspector {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            assert_eq!(view.nodes.len(), 2);
            for (i, node) in view.nodes.iter().enumerate() {
                assert_eq!(node.node, i, "views must be sorted by node index");
                assert_eq!(node.agents.len(), 2);
                assert_eq!(node.agents[0].name, "smart-overclock");
                assert_eq!(node.agents[1].name, "smart-harvest");
                assert!(node.reading("p99_latency_ms").is_some());
                assert!(node.reading("avg_power_watts").is_some());
                assert_eq!(node.reading("nope"), None);
                assert_eq!(node.placement.capacity, 6.0);
                if node.agents[0].stats.model.samples_committed > 0 {
                    self.saw_progress = true;
                }
            }
            PlacementPlan::new()
        }
    }
    let mut inspector = Inspector { saw_progress: false };
    fleet.run_with(&mut inspector, horizon).unwrap();
    assert!(inspector.saw_progress, "barrier snapshots must carry live agent stats");
}

/// `GreedyPacker` is a view-free planner: it declines the view, so its
/// barriers extract no agent counter and no telemetry reading. Behind a
/// wrapper that forwards `plan` but asks for the full view, the same fleet —
/// arrivals, departures and rebalancing, a crash, a drain and a join — must
/// produce the same report byte for byte, at 1 and 2 worker threads.
#[test]
fn greedy_packer_plans_the_same_with_or_without_the_full_view() {
    /// The packer, made to take the full view.
    struct Viewing {
        packer: GreedyPacker,
        saw_telemetry: bool,
    }
    impl FleetController for Viewing {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            self.saw_telemetry |= view
                .nodes
                .iter()
                .any(|node| !node.agents.is_empty() && node.reading("p99_latency_ms").is_some());
            self.packer.plan(view)
        }
    }

    let horizon = SimDuration::from_secs(30);
    let trace = || test_trace(32, horizon);
    assert!(!GreedyPacker::new(trace()).wants_view());
    let at = |secs: u64, event| FaultEvent { at: Timestamp::from_secs(secs), event };
    let faults = FaultPlan::from_events(vec![
        at(7, LifecycleEvent::Crash { node: 1 }),
        at(12, LifecycleEvent::Drain { node: 2 }),
        at(15, LifecycleEvent::Join),
    ]);
    let mut reports = Vec::new();
    for threads in [1, 2] {
        let config = FleetConfig { nodes: 4, threads, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(placeable_preset().recipe, config).unwrap();
        let bare = fleet.run_with_faults(&mut GreedyPacker::new(trace()), faults.clone(), horizon);
        let mut viewing = Viewing { packer: GreedyPacker::new(trace()), saw_telemetry: false };
        let viewed = fleet.run_with_faults(&mut viewing, faults.clone(), horizon).unwrap();
        assert!(viewing.wants_view() && viewing.saw_telemetry, "the wrapper took the view");
        let bare = bare.unwrap();
        let p = &bare.placement;
        assert!(p.admitted > 0 && p.departed > 0 && p.migrated > 0, "placement: {p:?}");
        assert!(p.displaced > 0, "the crash displaced work: {p:?}");
        assert_eq!(bare.nodes.len(), 5, "the join landed");
        assert_eq!(debug_bytes(&bare), debug_bytes(&viewed), "{threads} worker thread(s)");
        reports.push(debug_bytes(&bare));
    }
    assert_eq!(reports[0], reports[1], "1 and 2 worker threads");
}

// ---------------------------------------------------------------------------
// Failure accounting and controller programming errors.
// ---------------------------------------------------------------------------

#[test]
fn placement_failures_are_counted_not_fatal() {
    // NullEnvironment has no placeable slots: every admit fails and is
    // counted; migrations of unknown units count once per failed half.
    struct Pusher;
    impl FleetController for Pusher {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            let mut plan = PlacementPlan::new();
            if view.epoch == 0 {
                plan.admit(0, WorkloadUnit::new(WorkloadId(1), 1.0));
                plan.depart(1, WorkloadId(2));
                plan.migrate(0, 1, WorkloadId(3));
            }
            plan
        }
    }
    let config = FleetConfig { nodes: 2, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    let report = fleet.run_with(&mut Pusher, SimDuration::from_secs(3)).unwrap();
    assert_eq!(report.placement.commands, 3);
    assert_eq!(report.placement.admitted, 0);
    assert_eq!(report.placement.departed, 0);
    assert_eq!(report.placement.migrated, 0);
    // The admit failed, the depart failed, and the migrate failed at its
    // detach half (so its attach never ran): three failures.
    assert_eq!(report.placement.failed_placements, 3);
    // No capacity anywhere: occupancy and packing efficiency stay zeroed.
    assert_eq!(report.placement.occupancy, Percentiles::ZEROED);
    assert_eq!(report.placement.packing_efficiency, 0.0);
}

#[test]
fn over_capacity_admissions_fail_without_aborting_the_run() {
    struct Oversubscriber;
    impl FleetController for Oversubscriber {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            let mut plan = PlacementPlan::new();
            if view.epoch == 0 {
                // 6 placeable cores: the first two 2.5-core VMs fit, the
                // third does not.
                for i in 0..3u64 {
                    plan.admit(0, WorkloadUnit::new(WorkloadId(i), 2.5));
                }
            }
            plan
        }
    }
    let preset = placeable_preset();
    let config = FleetConfig { nodes: 1, threads: 1, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
    let report = fleet.run_with(&mut Oversubscriber, SimDuration::from_secs(3)).unwrap();
    assert_eq!(report.placement.admitted, 2);
    assert_eq!(report.placement.failed_placements, 1);
    assert_eq!(report.nodes[0].workloads.len(), 2);
}

#[test]
fn failed_migration_attach_rolls_the_unit_back_to_its_source() {
    // Epoch 0: place a unit on node 0 and fill node 1 to capacity.
    // Epoch 1: migrate the unit 0 → 1; the attach must fail (node 1 is
    // full), and the unit must be restored to node 0 instead of vanishing.
    struct BadMigrator;
    impl FleetController for BadMigrator {
        fn plan(&mut self, view: &FleetView) -> PlacementPlan {
            let mut plan = PlacementPlan::new();
            match view.epoch {
                0 => {
                    plan.admit(0, WorkloadUnit::new(WorkloadId(0), 2.0));
                    plan.admit(1, WorkloadUnit::new(WorkloadId(1), 6.0));
                }
                1 => plan.migrate(0, 1, WorkloadId(0)),
                _ => {}
            }
            plan
        }
    }
    let preset = placeable_preset();
    let config = FleetConfig { nodes: 2, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
    let report = fleet.run_with(&mut BadMigrator, SimDuration::from_secs(4)).unwrap();
    assert_eq!(report.placement.admitted, 2);
    assert_eq!(report.placement.migrated, 0);
    assert_eq!(report.placement.failed_placements, 1, "the rejected migration is counted");
    // The unit survived on its source node.
    assert!(report.nodes[0].workloads.iter().any(|u| u.id == WorkloadId(0)));
    assert_eq!(report.nodes[1].workloads.len(), 1);
}

#[test]
fn controller_addressing_a_bad_node_is_a_loud_config_error() {
    struct OutOfRange;
    impl FleetController for OutOfRange {
        fn plan(&mut self, _view: &FleetView) -> PlacementPlan {
            let mut plan = PlacementPlan::new();
            plan.admit(99, WorkloadUnit::new(WorkloadId(0), 1.0));
            plan
        }
    }
    let config = FleetConfig { nodes: 2, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    match fleet.run_with(&mut OutOfRange, SimDuration::from_secs(2)) {
        Err(RuntimeError::InvalidConfig(message)) => {
            assert!(message.contains("node 99"), "message was {message:?}");
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Satellite: FleetConfig validation names the offending field.
// ---------------------------------------------------------------------------

#[test]
fn fleet_config_validation_names_the_field() {
    let message = |config: FleetConfig| -> String {
        match FleetRuntime::new(toy_recipe(), config) {
            Err(RuntimeError::InvalidConfig(message)) => message,
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    };
    assert!(message(FleetConfig { threads: 0, ..FleetConfig::default() }).contains("threads"));
    assert!(message(FleetConfig { nodes: 0, ..FleetConfig::default() }).contains("nodes"));
    assert!(message(FleetConfig { epoch: SimDuration::ZERO, ..FleetConfig::default() })
        .contains("epoch"));
    // epoch > horizon is a run-time check (the horizon is a run argument).
    let config = FleetConfig { epoch: SimDuration::from_secs(9), ..FleetConfig::default() };
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    match fleet.run(SimDuration::from_secs(4)) {
        Err(RuntimeError::InvalidConfig(message)) => {
            assert!(message.contains("epoch") && message.contains("horizon"));
        }
        other => panic!("expected InvalidConfig, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Learner safety holds under churn: the paper's safeguards neither trip more
// often nor vanish when the platform reshuffles work mid-run.
// ---------------------------------------------------------------------------

#[test]
fn safeguard_activation_rates_hold_steady_under_migration_churn() {
    let horizon = SimDuration::from_secs(20);
    let preset = placeable_preset();
    let config = FleetConfig { nodes: 3, threads: 3, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();

    let baseline = fleet.run(horizon).unwrap();
    let mut packer = GreedyPacker::new(test_trace(18, horizon));
    let churned = fleet.run_with(&mut packer, horizon).unwrap();
    assert!(churned.placement.migrated > 0, "the run must actually churn");

    for handle in [AgentId::from(preset.overclock), AgentId::from(preset.harvest)] {
        let calm = baseline.role(handle);
        let busy = churned.role(handle);
        assert_eq!(
            calm.safeguard_activation_rate, busy.safeguard_activation_rate,
            "safeguard activation must hold steady under churn for {}",
            calm.name
        );
        // The learners keep learning at the same cadence.
        assert_eq!(calm.totals.model.epochs_completed, busy.totals.model.epochs_completed);
    }
}
