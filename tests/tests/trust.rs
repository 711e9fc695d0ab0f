//! Closed-loop properties of the fleet trust plane.
//!
//! The learning plane's robust aggregation *contains* poisoners; the trust
//! plane *identifies and evicts* them. These tests pin the full loop at fleet
//! scale:
//!
//! * A fleet with persistent sign-flip poisoners quarantines and drains every
//!   victim within a bounded number of learning rounds, while honest nodes
//!   end the run trusted and active.
//! * A clean fleet of the same shape records zero trust actions at the
//!   default thresholds — detection has a pinned false-positive floor.
//! * Both reports are byte-identical across 1, 2, and 8 worker threads and
//!   across repeat runs.
//! * Misconfigured trust policies are rejected loudly at construction.

use sol_agents::poison::{
    poisoned_overclock_recipe, PoisonAttack, PoisonPlan, PoisonedOverclockConfig,
};
use sol_core::prelude::*;
use sol_ml::exchange::{AggregationRule, BlendPolicy};

const NODES: usize = 8;
const VICTIMS: usize = 2;
const HORIZON: SimDuration = SimDuration::from_secs(120);
const FLEET_SEED: u64 = 0x1EA2;

/// `exchange_every: 5` on the default 1s epoch gives a learning round every
/// five epochs; the default [`TrustPolicy`] quarantines after three
/// consecutive divergent rounds, so detection must land within the first ~20
/// epochs of a 120s run — leaving a long trusted-steady-state tail.
fn plane() -> LearningPlane {
    LearningPlane {
        exchange_every: 5,
        rule: AggregationRule::CoordinateWiseMedian,
        blend: BlendPolicy::Replace,
    }
}

fn trusted_fleet(
    victims: usize,
    threads: usize,
) -> (FleetRuntime<sol_node_sim::shared::Shared<sol_node_sim::cpu_node::CpuNode>>, PoisonPlan) {
    let preset = poisoned_overclock_recipe(PoisonedOverclockConfig {
        victims,
        attack: PoisonAttack::SignFlip { gain: 4.0 },
        nodes: NODES,
    });
    let config = FleetConfig {
        nodes: NODES,
        threads,
        seed: FLEET_SEED,
        learning: Some(plane()),
        trust: Some(TrustPolicy::default()),
        ..FleetConfig::default()
    };
    (FleetRuntime::new(preset.recipe, config).unwrap(), preset.plan)
}

/// The headline closed loop, pinned: every node the [`PoisonPlan`] poisons is
/// identified, quarantined, and drained out of the fleet within bounded
/// epochs, and every honest node survives untouched.
#[test]
fn persistent_poisoners_are_quarantined_and_drained() {
    let (fleet, plan) = trusted_fleet(VICTIMS, 4);
    let report = fleet.run(HORIZON).unwrap();

    assert_eq!(report.trust.quarantines, VICTIMS as u64, "every victim is quarantined");
    assert!(report.trust.suspects >= VICTIMS as u64, "quarantine passes through suspect");
    assert!(report.trust.excluded > 0, "suspects sit out at least one aggregation");
    assert!(report.trust.divergent >= 3 * VICTIMS as u64, "escalation takes divergent rounds");

    for node in &report.nodes {
        if plan.is_poisoned(node.node) {
            assert_eq!(
                node.trust.verdict,
                TrustVerdict::Quarantined,
                "victim {} must end quarantined",
                node.node
            );
            assert_eq!(
                node.lifecycle.state,
                NodeState::Drained,
                "victim {} must be drained out",
                node.node
            );
            // Detection is prompt: quarantine needs 3 divergent rounds
            // (epochs 5/10/15), the drain lands on the next barrier, and an
            // empty node retires immediately — well inside 40 epochs.
            assert!(
                node.lifecycle.updated_epoch <= 40,
                "victim {} drained too late: epoch {}",
                node.node,
                node.lifecycle.updated_epoch
            );
            assert!(node.trust.divergent_rounds >= 3);
        } else {
            assert_eq!(
                node.trust.verdict,
                TrustVerdict::Trusted,
                "honest node {} must stay trusted",
                node.node
            );
            assert_eq!(node.lifecycle.state, NodeState::Active);
            assert_eq!(node.trust.divergent_rounds, 0, "honest node {} diverged", node.node);
        }
    }
}

/// The false-positive floor, pinned: a clean fleet of identical shape runs
/// the same policy for the same horizon and records no trust action at all.
#[test]
fn a_clean_fleet_records_zero_trust_actions() {
    let (fleet, _) = trusted_fleet(0, 4);
    let report = fleet.run(HORIZON).unwrap();

    assert!(report.trust.rounds_scored > 0, "scoring must actually run");
    assert!(report.trust.nodes_scored >= report.trust.rounds_scored * NODES as u64);
    assert_eq!(report.trust.divergent, 0, "no clean node-round may look divergent");
    assert_eq!(report.trust.suspects, 0);
    assert_eq!(report.trust.quarantines, 0);
    assert_eq!(report.trust.excluded, 0);
    for node in &report.nodes {
        assert_eq!(node.trust.verdict, TrustVerdict::Trusted);
        assert_eq!(node.lifecycle.state, NodeState::Active);
        assert!(node.trust.rounds_scored > 0);
    }
}

/// Determinism under eviction: the poisoned *and* clean trusted fleets must
/// produce byte-identical reports across 1, 2, and 8 worker threads and
/// across repeat runs — quarantine drains reshape the live set mid-run, which
/// is exactly where schedule-dependence would creep in.
#[test]
fn trusted_fleet_reports_are_byte_identical_across_thread_counts() {
    let horizon = SimDuration::from_secs(90);
    for victims in [VICTIMS, 0] {
        let run = |threads: usize| {
            format!("{report:#?}", report = trusted_fleet(victims, threads).0.run(horizon).unwrap())
        };
        let one = run(1);
        assert_eq!(one, run(2), "victims {victims}: 1 vs 2 threads");
        assert_eq!(one, run(8), "victims {victims}: 1 vs 8 threads");
        assert_eq!(one, run(1), "victims {victims}: repeat run");
    }
}

/// Construction-time validation: trust without a learning plane is an error,
/// and each degenerate policy field is rejected with a message naming it.
#[test]
fn misconfigured_trust_policies_are_rejected() {
    let recipe = || {
        poisoned_overclock_recipe(PoisonedOverclockConfig {
            nodes: NODES,
            ..PoisonedOverclockConfig::default()
        })
        .recipe
    };

    let orphan = FleetConfig {
        nodes: NODES,
        trust: Some(TrustPolicy::default()),
        learning: None,
        ..FleetConfig::default()
    };
    let err = FleetRuntime::new(recipe(), orphan).unwrap_err();
    assert!(format!("{err}").contains("trust"), "unexpected error: {err}");

    let bad_policies = [
        ("divergence_z", TrustPolicy { divergence_z: 0.0, ..TrustPolicy::default() }),
        ("divergence_z", TrustPolicy { divergence_z: f64::NAN, ..TrustPolicy::default() }),
        ("decay", TrustPolicy { decay: 1.0, ..TrustPolicy::default() }),
        ("decay", TrustPolicy { decay: -0.5, ..TrustPolicy::default() }),
        ("suspect_after", TrustPolicy { suspect_after: 0.0, ..TrustPolicy::default() }),
        (
            "quarantine_after",
            TrustPolicy { suspect_after: 2.0, quarantine_after: 1.0, ..TrustPolicy::default() },
        ),
    ];
    for (field, policy) in bad_policies {
        let config = FleetConfig {
            nodes: NODES,
            learning: Some(plane()),
            trust: Some(policy),
            ..FleetConfig::default()
        };
        let err = FleetRuntime::new(recipe(), config).unwrap_err();
        assert!(
            format!("{err}").contains(field),
            "policy with bad {field} must name the field: {err}"
        );
    }
}

/// A fault plan's author cannot know which nodes the trust plane will
/// remove. A crash and a drain scripted for the victims *after* the round in
/// which [`persistent_poisoners_are_quarantined_and_drained`] sees them
/// leave (epoch 40 at the latest) must be skipped — a machine that has left
/// cannot crash — instead of aborting the run, exactly as the coordinator
/// skips its own quarantine drain for a node that already left.
#[test]
fn fault_plan_events_on_already_drained_victims_are_skipped() {
    let run = |threads: usize| {
        let (fleet, plan) = trusted_fleet(VICTIMS, threads);
        let at = |secs: u64, event| FaultEvent { at: Timestamp::from_secs(secs), event };
        let faults = FaultPlan::from_events(vec![
            at(50, LifecycleEvent::Crash { node: plan.victims()[0] }),
            at(60, LifecycleEvent::Drain { node: plan.victims()[1] }),
        ]);
        let report = fleet
            .run_with_faults(&mut NullController, faults, HORIZON)
            .expect("a fault plan racing the trust plane must not abort the run");
        for node in &report.nodes {
            if plan.is_poisoned(node.node) {
                assert_eq!(node.trust.verdict, TrustVerdict::Quarantined);
                assert_eq!(node.lifecycle.state, NodeState::Drained, "victim {}", node.node);
                assert!(node.lifecycle.updated_epoch <= 40, "the trust drain retired it");
            } else {
                assert_eq!(node.trust.verdict, TrustVerdict::Trusted);
                assert_eq!(node.lifecycle.state, NodeState::Active, "honest {}", node.node);
            }
        }
        format!("{report:#?}")
    };
    let one = run(1);
    assert_eq!(one, run(2), "1 vs 2 threads");
    assert_eq!(one, run(8), "1 vs 8 threads");
}

/// Every node's lifecycle state in every view the controller was shown.
#[derive(Default)]
struct StateRecorder {
    views: Vec<(Timestamp, Vec<NodeState>)>,
}

impl FleetController for StateRecorder {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        self.views.push((view.now, view.nodes.iter().map(|node| node.state).collect()));
        PlacementPlan::new()
    }
}

/// The other side of the race above: a fault-plan crash that lands at the
/// very barrier whose lifecycle phase applies the trust plane's quarantine
/// drain. Fault events apply before quarantines, so the crash wins and the
/// coordinator skips its own drain — neither an error nor a skipped fault
/// event — and the run is otherwise the one it would have been.
#[test]
fn a_crash_at_the_quarantine_barrier_preempts_the_drain() {
    let (fleet, plan) = trusted_fleet(VICTIMS, 2);
    let victim = plan.victims()[0];
    let mut recorder = StateRecorder::default();
    let first = fleet.run_with(&mut recorder, HORIZON).unwrap();
    // A quarantined node is empty, so it retires at the barrier after its
    // drain and no view reads it `Draining`: the drain landed at the last
    // barrier whose view still read it `Active`.
    let views = &recorder.views;
    let left = views.iter().position(|(_, states)| states[victim] != NodeState::Active).unwrap();
    assert_eq!(views[left].1[victim], NodeState::Drained, "the trust plane drained the victim");
    let (boundary, _) = views[left - 1];

    let run = |threads: usize| {
        let (fleet, _) = trusted_fleet(VICTIMS, threads);
        let crash = FaultEvent { at: boundary, event: LifecycleEvent::Crash { node: victim } };
        let (report, profile) = fleet
            .run_profiled(&mut NullController, FaultPlan::from_events(vec![crash]), HORIZON)
            .expect("a crash racing a quarantine drain must not abort the run");
        let node = &report.nodes[victim];
        assert_eq!(node.lifecycle.state, NodeState::Crashed, "the crash landed first");
        assert_eq!(node.lifecycle.updated_epoch, left as u64 - 1, "at the quarantine barrier");
        assert_eq!(node.lifecycle.version, 2, "one transition: no drain before the crash");
        assert_eq!(node.trust.verdict, TrustVerdict::Quarantined);
        assert_eq!(report.trust.quarantines, first.trust.quarantines);
        assert_eq!(profile.fault_events_skipped, 0, "the crash applied; the drain was skipped");
        format!("{report:#?}")
    };
    let one = run(1);
    assert_eq!(one, run(2), "1 vs 2 threads");
    assert_eq!(one, run(8), "1 vs 8 threads");
}
