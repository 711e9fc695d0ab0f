//! Cross-crate properties of the `FleetRuntime`.
//!
//! * Fleet aggregation must be exactly the fold of per-node reports: the
//!   dashboard adds information, never invents it (a proptest over toy
//!   fleets of varying size, thread count, and epoch quantum).
//! * Per-node seed derivation must never collide for any fleet seed up to
//!   4096 nodes.
//! * A 65536-node fleet (the scale ceiling) runs every node under its own
//!   seed and agrees with `run_node`.
//! * The real-agent recipes must produce heterogeneous fleets whose handles
//!   key the fleet dashboard.

use proptest::prelude::*;

use sol_agents::prelude::*;
use sol_core::error::DataError;
use sol_core::prelude::*;
use sol_ml::exchange::{ExchangeError, LearnedState, StateKind};
use sol_tests::{toy_recipe, toy_schedule, ToyActuator, ToyModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The fleet dashboard is exactly the fold of per-node outcomes: every
    /// `nodes[i]` matches an inline `run_node(i)`, and the per-role totals
    /// equal the sum over nodes — for any fleet shape.
    #[test]
    fn fleet_aggregation_is_the_fold_of_per_node_reports(
        nodes in 1usize..10,
        threads in 1usize..5,
        epoch_ms in 200u64..2_000,
        fleet_seed in 0u64..1_000,
    ) {
        let config = FleetConfig {
            nodes,
            threads,
            epoch: SimDuration::from_millis(epoch_ms),
            seed: fleet_seed,
            ..FleetConfig::default()
        };
        let horizon = SimDuration::from_secs(3);
        let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
        let report = fleet.run(horizon).unwrap();

        prop_assert_eq!(report.nodes.len(), nodes);
        for index in 0..nodes {
            let solo = fleet.run_node(index, horizon).unwrap();
            prop_assert_eq!(format!("{:#?}", report.nodes[index]), format!("{solo:#?}"));
        }

        // Role totals are the fold of the per-node stats.
        for (role_idx, role) in report.roles.iter().enumerate() {
            let mut folded = AgentStats::default();
            for node in &report.nodes {
                folded.accumulate(&node.agents[role_idx].stats);
            }
            prop_assert_eq!(format!("{:#?}", role.totals), format!("{folded:#?}"));
            prop_assert_eq!(role.nodes, nodes);
        }

        // Metric summaries fold the per-node metrics.
        let summary = report.metric("ended_secs").unwrap();
        let folded: f64 = report.nodes.iter().map(|n| n.metrics[0].1).sum();
        prop_assert_eq!(summary.nodes, nodes);
        prop_assert!((summary.total - folded).abs() < 1e-9);
    }

    /// Per-node seed derivation never collides, for any master seed, up to
    /// 4096 nodes.
    #[test]
    fn per_node_seeds_never_collide(fleet_seed in any::<u64>()) {
        let mut seen = std::collections::HashSet::with_capacity(4096);
        for index in 0..4096u64 {
            let seed = NodeSeed::derive(fleet_seed, index);
            prop_assert_eq!(seed.index(), index);
            prop_assert!(
                seen.insert(seed.seed()),
                "seed collision at node {} for fleet seed {}", index, fleet_seed
            );
        }
    }
}

/// The scale ceiling, on every push: a 65536-node fleet stamps, runs and
/// reports every node, each under its own seed, and its last node is exactly
/// what an inline `run_node` of that index computes.
#[test]
fn fleet_of_65536_nodes_runs_under_distinct_seeds() {
    const NODES: usize = 65_536;
    let horizon = SimDuration::from_secs(1);
    let config = FleetConfig { nodes: NODES, threads: 2, ..FleetConfig::default() };
    let fleet_seed = config.seed;
    let fleet = FleetRuntime::new(toy_recipe(), config).unwrap();
    let report = fleet.run(horizon).unwrap();

    assert_eq!(report.nodes.len(), NODES);
    let mut seen = std::collections::HashSet::with_capacity(NODES);
    for (index, node) in report.nodes.iter().enumerate() {
        assert_eq!(node.seed, NodeSeed::derive(fleet_seed, index as u64).seed());
        assert!(seen.insert(node.seed), "seed collision at node {index}");
    }
    let last = fleet.run_node(NODES - 1, horizon).unwrap();
    assert_eq!(format!("{:#?}", report.nodes[NODES - 1]), format!("{last:#?}"));
}

/// The real three-agent recipe drives a heterogeneous fleet whose dashboard
/// is keyed by the preset's typed handles.
#[test]
fn three_agent_fleet_dashboard_is_keyed_by_handles() {
    let preset = three_agents_recipe(ThreeAgentConfig::default());
    let config = FleetConfig { nodes: 4, threads: 2, ..FleetConfig::default() };
    let fleet = FleetRuntime::new(preset.recipe, config).unwrap();
    let report = fleet.run(SimDuration::from_secs(45)).unwrap();

    let overclock = report.role(preset.overclock);
    let harvest = report.role(preset.harvest);
    let memory = report.role(preset.memory);
    assert_eq!(overclock.name, "smart-overclock");
    assert_eq!(harvest.name, "smart-harvest");
    assert_eq!(memory.name, "smart-memory");
    assert!(overclock.totals.model.epochs_completed >= 4 * 35);
    assert!(harvest.totals.model.epochs_completed >= 4 * 800);
    assert!(memory.totals.model.epochs_completed >= 4);

    // Heterogeneity: seeded Q-learners diverge across nodes, visible in the
    // fleet percentiles and in the per-node substrate metrics.
    let energies: std::collections::HashSet<String> = report
        .nodes
        .iter()
        .map(|n| format!("{:?}", n.metrics.iter().find(|(k, _)| k == "avg_power_watts").unwrap()))
        .collect();
    assert!(energies.len() > 1, "per-node seeds must differentiate the substrate outcomes");

    // The memory SLO dashboard counts violating nodes fleet-wide.
    let violations = report.metric("memory_slo_violations").unwrap();
    assert_eq!(violations.nodes, 4);
    assert!(violations.total <= 4.0);
}

// ---------------------------------------------------------------------------
// Claim-order determinism: a forced load imbalance (one node carrying ~8×
// the agent work of its peers) makes the worker stuck on it fall behind, so
// its siblings claim the rest of the barrier's task list — and the results
// must still be a pure function of (recipe, config, horizon).
// ---------------------------------------------------------------------------

/// Eight identically-named roles on every node — same population, so fleet
/// aggregation accepts it — but node 0 runs dense schedules while every
/// other node runs sparse ones. Under static round-robin sharding this
/// scenario pinned one worker at ~8× its siblings' work; claiming from one
/// shared task list rebalances it, and this recipe is the regression net
/// proving the rebalancing never leaks into results.
fn imbalanced_recipe() -> ScenarioRecipe<NullEnvironment> {
    ScenarioRecipe::new(|seed: &NodeSeed| {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let collect_ms = if seed.index() == 0 { 20 } else { 160 };
        for role in 0..8 {
            builder.agent(
                format!("role-{role}"),
                ToyModel { value: role as f64 },
                ToyActuator::default(),
                toy_schedule(collect_ms),
            );
        }
        builder.build()
    })
}

/// The shared-task-list acceptance bar: with one node 8× heavier than the
/// rest, the `FleetReport` stays byte-identical across 1, 2, 4 (an uneven
/// share of six nodes), 8 and 64 (both clamped to the node count) worker
/// threads, across repeat runs, and equal to the inline `run_node` fold —
/// whichever worker ends up advancing a node can never affect what the node
/// computes.
#[test]
fn imbalanced_fleet_reports_are_byte_identical_across_worker_thread_counts() {
    let horizon = SimDuration::from_secs(5);
    let config = |threads: usize| FleetConfig {
        nodes: 6,
        threads,
        epoch: SimDuration::from_millis(500),
        seed: 0xD15B,
        ..FleetConfig::default()
    };
    let run = |threads: usize| {
        let fleet = FleetRuntime::new(imbalanced_recipe(), config(threads)).unwrap();
        format!("{:#?}", fleet.run(horizon).unwrap())
    };
    let single = run(1);
    for threads in [2, 4, 8, 64] {
        assert_eq!(single, run(threads), "{threads}-thread imbalanced fleet diverged");
    }
    assert_eq!(single, run(8), "repeat imbalanced runs must be byte-stable");

    // Every node's fleet entry equals its inline, pool-free solo run.
    let fleet = FleetRuntime::new(imbalanced_recipe(), config(3)).unwrap();
    let report = fleet.run(horizon).unwrap();
    for index in 0..6 {
        let solo = fleet.run_node(index, horizon).unwrap();
        assert_eq!(format!("{:#?}", report.nodes[index]), format!("{solo:#?}"));
    }
}

// ---------------------------------------------------------------------------
// The barrier wire format: flat change lists, a task list per live set
// ---------------------------------------------------------------------------

/// An environment whose one reading moves at every advance, so telemetry
/// patches cross every barrier.
#[derive(Default)]
struct CountingEnv {
    advances: u64,
}

impl Environment for CountingEnv {
    fn advance_to(&mut self, _now: Timestamp) {
        self.advances += 1;
    }
}

/// A learner whose one weight drifts by a per-node step at every model
/// update: nodes disagree, every exchange round has something to ship, and
/// any aggregate is accepted.
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

/// Two agents per node — a drifting learner and a quiet toy — over a
/// counting environment whose advances are the node's telemetry.
fn observed_recipe() -> ScenarioRecipe<CountingEnv> {
    ScenarioRecipe::new(|seed: &NodeSeed| {
        let mut builder = NodeRuntime::builder(CountingEnv::default());
        let collect_ms = 40 + seed.stream(0) % 120;
        let step = 1.0 + (seed.stream(1) % 7) as f64;
        builder.agent("learner", DriftModel { weight: 0.0, step }, ToyActuator::default(), {
            toy_schedule(collect_ms)
        });
        builder.agent("toy", ToyModel { value: 2.0 }, ToyActuator::default(), {
            toy_schedule(collect_ms * 2)
        });
        builder.build()
    })
    .with_telemetry(|env: &CountingEnv| vec![("advances".into(), env.advances as f64)])
}

/// Plans nothing; keeps a copy of every view it was shown.
#[derive(Default)]
struct Recorder {
    views: Vec<FleetView>,
}

impl FleetController for Recorder {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        self.views.push(view.clone());
        PlacementPlan::new()
    }
}

/// What the controller sees is the wire format's whole output, so it is the
/// place to pin it: under crashes, joins, drains and a learning plane, the
/// sequence of views is the same whichever workers wrote which change list,
/// a live node's counters and readings only ever grow, and the last view
/// agrees with the report the same run folds.
#[test]
fn recorded_views_are_identical_across_thread_counts_and_agree_with_the_report() {
    const NODES: usize = 32;
    let horizon = SimDuration::from_secs(20);
    let run = |threads: usize| {
        let config = FleetConfig {
            nodes: NODES,
            threads,
            epoch: SimDuration::from_millis(500),
            seed: 0xC0DE,
            learning: Some(LearningPlane { exchange_every: 2, ..LearningPlane::default() }),
            ..FleetConfig::default()
        };
        let faults = FaultPlan::generate(
            0xFA17,
            NODES,
            &FaultPlanConfig { crashes: 3, joins: 3, drains: 2, span: horizon },
        );
        let mut recorder = Recorder::default();
        let fleet = FleetRuntime::new(observed_recipe(), config).unwrap();
        let report = fleet.run_with_faults(&mut recorder, faults, horizon).unwrap();
        (recorder.views, report)
    };

    let (views, report) = run(1);
    assert_eq!(views.len(), 40);
    for threads in [2, 8] {
        let (other, other_report) = run(threads);
        assert_eq!(views, other, "{threads}-thread views diverged");
        assert_eq!(format!("{report:#?}"), format!("{other_report:#?}"));
    }
    assert_eq!(report.nodes.len(), NODES + 3, "all three joins landed");
    assert!(report.learning.redistributed > 0, "the learning plane moved state");

    for pair in views.windows(2) {
        for (before, after) in pair[0].nodes.iter().zip(&pair[1].nodes) {
            if after.agents.is_empty() {
                // A tombstone: the node retired at the barrier in between.
                assert!(!after.state.is_live(), "node {} lost its agents", after.node);
                continue;
            }
            for (was, is) in before.agents.iter().zip(&after.agents) {
                assert_eq!(was.name, is.name);
                assert!(is.stats.model.samples_committed >= was.stats.model.samples_committed);
                assert!(is.stats.model.epochs_completed >= was.stats.model.epochs_completed);
                assert!(
                    is.stats.actuator.performance_assessments
                        >= was.stats.actuator.performance_assessments
                );
            }
            for ((_, was), (_, is)) in before.telemetry.iter().zip(&after.telemetry) {
                assert!(is >= was, "node {} telemetry ran backwards", after.node);
            }
        }
    }

    // The last barrier sits on the horizon, so what it showed of every
    // surviving node is what that node reports.
    let last = views.last().unwrap();
    let mut survivors = 0;
    for (view, node) in last.nodes.iter().zip(&report.nodes) {
        assert_eq!(view.node, node.node);
        if !view.state.is_live() {
            continue;
        }
        survivors += 1;
        assert_eq!(view.agents.len(), node.agents.len());
        for (seen, reported) in view.agents.iter().zip(&node.agents) {
            assert_eq!(seen.name, reported.name);
            assert_eq!(seen.stats, reported.stats, "node {} agent {}", node.node, seen.name);
        }
    }
    assert!(survivors >= NODES - 5, "{survivors} nodes outlived the fault plan");
}

/// One agent that collects less often than the barrier comes round, over a
/// constant reading: most barriers find a node exactly as the last one did.
fn quiet_recipe() -> ScenarioRecipe<NullEnvironment> {
    ScenarioRecipe::new(|seed: &NodeSeed| {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let collect_ms = 300 + seed.stream(0) % 400;
        builder.agent("slow", ToyModel { value: 1.0 }, ToyActuator::default(), {
            toy_schedule(collect_ms)
        });
        builder.build()
    })
    .with_telemetry(|_: &NullEnvironment| vec![("constant".into(), 1.0)])
}

/// The per-barrier view oracle, quiet nodes included: every node of every
/// view the controller is shown equals what a standalone runtime stamped
/// from the same seed reports when run to the same boundary.
#[test]
fn every_recorded_view_matches_a_standalone_node_at_its_boundary() {
    const NODES: usize = 6;
    let epoch = SimDuration::from_millis(100);
    let recipe = quiet_recipe();
    for threads in [1, 2] {
        let config = FleetConfig { nodes: NODES, threads, epoch, ..FleetConfig::default() };
        let fleet = FleetRuntime::new(recipe.clone(), config).unwrap();
        let mut recorder = Recorder::default();
        fleet.run_with(&mut recorder, SimDuration::from_secs(10)).unwrap();
        assert_eq!(recorder.views.len(), 100);
        let mut quiet = 0;
        for node in 0..NODES {
            let mut standalone = recipe.instantiate(&fleet.node_seed(node));
            let mut last: Option<&NodeView> = None;
            for view in &recorder.views {
                standalone.run_until(Timestamp::ZERO + epoch * (view.epoch + 1));
                let expected = NodeView {
                    node,
                    agents: standalone
                        .agent_snapshots()
                        .into_iter()
                        .map(|(name, stats)| AgentTelemetry { name, stats })
                        .collect(),
                    telemetry: recipe.extract_telemetry(standalone.environment()),
                    placement: standalone.placement(),
                    state: NodeState::Active,
                };
                let seen = &view.nodes[node];
                assert_eq!(seen, &expected, "{threads} threads, epoch {}", view.epoch);
                quiet += usize::from(last == Some(seen));
                last = Some(seen);
            }
        }
        assert!(quiet > NODES * 50, "only {quiet} quiet node-barriers");
    }
}

/// A view-wanting controller that plans nothing.
struct Watcher;

impl FleetController for Watcher {
    fn plan(&mut self, _view: &FleetView) -> PlacementPlan {
        PlacementPlan::new()
    }
}

/// The allocation gate, in counts that do not depend on the weather: a
/// steady fleet builds one task list for the whole run and one change buffer
/// per worker, and a run whose live set changes at `k` barriers builds
/// exactly `k` more lists.
#[test]
fn barrier_machinery_is_built_once_per_live_set() {
    let horizon = SimDuration::from_secs(100);
    let config = FleetConfig {
        nodes: 64,
        threads: 4,
        epoch: SimDuration::from_millis(500),
        ..FleetConfig::default()
    };
    let fleet = FleetRuntime::new(observed_recipe(), config).unwrap();
    let (report, profile) = fleet.run_profiled(&mut Watcher, FaultPlan::empty(), horizon).unwrap();
    assert_eq!(report.epochs, 200);
    assert_eq!(profile.barriers, 200);
    assert_eq!(profile.task_lists_built, 1);
    assert_eq!(profile.workers.len(), 4);
    assert!(profile.change_buffers_allocated <= 2 * 4, "{profile}");
    // Every live node is claimed once per barrier and once more to fold.
    let claimed: u64 = profile.workers.iter().map(|worker| worker.nodes_claimed).sum();
    assert_eq!(claimed, 64 * 201);

    // Three barriers change the live set: a crash at 10 s, a join and a
    // second crash together at 20 s, and a drain issued at 30 s that
    // completes — the node is observed empty — at the barrier after.
    let at = |secs: u64, event| FaultEvent { at: Timestamp::from_secs(secs), event };
    let faults = FaultPlan::from_events(vec![
        at(10, LifecycleEvent::Crash { node: 3 }),
        at(20, LifecycleEvent::Join),
        at(20, LifecycleEvent::Crash { node: 5 }),
        at(30, LifecycleEvent::Drain { node: 7 }),
    ]);
    let (report, profile) = fleet.run_profiled(&mut Watcher, faults, horizon).unwrap();
    assert_eq!(report.nodes.len(), 65);
    assert_eq!(report.nodes[7].lifecycle.state, NodeState::Drained);
    assert_eq!(profile.task_lists_built, 1 + 3);
    assert!(profile.change_buffers_allocated <= 2 * 4, "{profile}");

    // The profile never leaks into the report: the same run through the
    // profile-dropping entry point renders the same bytes.
    let faults = FaultPlan::from_events(vec![at(10, LifecycleEvent::Crash { node: 3 })]);
    let plain = fleet.run_with_faults(&mut Watcher, faults.clone(), horizon).unwrap();
    let (profiled, _) = fleet.run_profiled(&mut Watcher, faults, horizon).unwrap();
    assert_eq!(format!("{plain:#?}"), format!("{profiled:#?}"));
    assert!(!format!("{plain:#?}").contains("_ns"), "no wall-clock field in a report");
}
