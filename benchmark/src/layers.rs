//! Isolated drives: each layer's public entry points under workload-shaped
//! traffic, timed in bulk.
//!
//! One `Instant` pair brackets a whole round of calls (tens of thousands to
//! millions), so the clock costs nothing per call; each drive runs three
//! rounds and reports the median. These are the numbers the in-situ shares
//! are checked against, and the ones a change to a single layer moves first.

use std::hint::black_box;
use std::time::Instant;

use sol_agents::colocation::{colocated_agents, three_agents, ColocationConfig, ThreeAgentConfig};
use sol_agents::overclock::{smart_overclock, OverclockConfig};
use sol_core::loops::{ActuatorLoop, ModelLoop};
use sol_core::prelude::*;
use sol_core::runtime::wheel::TimeWheel;
use sol_ml::cost_sensitive::{CostSensitiveClassifier, CostSensitiveExample};
use sol_ml::exchange::{robust_z_scores, AggregationRule, LearnedState};
use sol_ml::features::DistributionalFeatures;
use sol_ml::online_stats::SlidingWindow;
use sol_ml::qlearning::{QConfig, QLearner};
use sol_ml::thompson::ThompsonSampler;
use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
use sol_node_sim::harvest_node::{BurstyService, HarvestNode, HarvestNodeConfig};
use sol_node_sim::memory_node::{MemoryNode, MemoryWorkloadKind};
use sol_node_sim::shared::Shared;
use sol_node_sim::workload::OverclockWorkloadKind;

use crate::recipes::{cadence_schedule, many_agents_recipe, splitmix64, NoopActuator, NoopModel};
use crate::stats::median;

/// One drive's reading, in the unit `metrics::PER_LAYER` gives its name.
pub struct Reading {
    /// Per-layer metric name.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
}

const ROUNDS: usize = 3;

/// Nanoseconds per call: the median over [`ROUNDS`] rounds of `round`, each
/// of which makes `calls` calls.
fn ns_per_call(calls: u64, mut round: impl FnMut()) -> f64 {
    let rounds: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let start = Instant::now();
            round();
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&rounds)
}

/// Runs every drive. A few seconds in all.
pub fn drive_all() -> Vec<Reading> {
    let mut readings = Vec::new();
    let mut push = |name, value| readings.push(Reading { name, value });

    push("placement.delta_diff_apply_ns", delta_diff_apply());
    push("lifecycle.transition_ns", lifecycle_transition());
    let states = overclock_states(2_048);
    let trimmed = AggregationRule::TrimmedMean { k: states.len() / 8 };
    push("exchange.aggregate_us_mean", aggregate(AggregationRule::Mean, &states, 40));
    push(
        "exchange.aggregate_us_median",
        aggregate(AggregationRule::CoordinateWiseMedian, &states, 8),
    );
    push("exchange.aggregate_us_trimmed", aggregate(trimmed, &states, 8));
    push("exchange.robust_z_us", robust_z(states.len()));
    push("wheel.ns_per_event_near", wheel_events(&[10; 8], 120_000));
    push(
        "wheel.ns_per_event_far",
        wheel_events(&[100, 100, 100, 100, 100, 100, 1_000, 5_000], 120_000),
    );
    let (agent_step_ns, wheel_bytes) = agent_steps();
    push("wheel.mem_bytes", wheel_bytes);
    push("node.ns_per_tick_noop", empty_ticks());
    push("node.ns_per_agent_step", agent_step_ns);
    push("loops.model_step_ns", model_loop_steps());
    push("loops.actuator_step_ns", actuator_loop_steps());

    let memory_config = ThreeAgentConfig::default().memory_node;
    push("cpu_node.advance_ns", advances(cpu_node(OverclockWorkloadKind::ObjectStore)));
    push(
        "harvest_node.advance_ns",
        advances(HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default())),
    );
    push(
        "memory_node.advance_ns",
        advances(MemoryNode::new(MemoryWorkloadKind::ObjectStore, memory_config)),
    );
    push(
        "multi_node.advance_ns_two",
        advances(colocated_agents(ColocationConfig::default()).runtime.finish().environment),
    );
    push(
        "multi_node.advance_ns_three",
        advances(three_agents(ThreeAgentConfig::default()).runtime.finish().environment),
    );
    let (unscoped, scoped) = shared_with();
    push("shared.with_ns_unscoped", unscoped);
    push("shared.with_ns_scoped", scoped);

    push("ml.qlearning_step_ns", qlearning_steps());
    push("ml.cost_sensitive_step_ns", cost_sensitive_steps());
    push("ml.thompson_step_ns", thompson_steps());
    push("ml.features_extract_ns", feature_extractions());
    let (push_ns, quantile_us) = latency_window();
    push("ml.window_push_ns", push_ns);
    push("ml.window_quantile_us", quantile_us);
    readings
}

/// One barrier view of realistic width: three agents, four readings.
fn synthetic_view(step: u64) -> NodeView {
    NodeView {
        node: 17,
        agents: (0..3u64)
            .map(|role| {
                let mut stats = AgentStats::default();
                stats.model.samples_committed = step * (role + 1);
                AgentTelemetry { name: format!("agent-{role}"), stats }
            })
            .collect(),
        telemetry: (0..4)
            .map(|slot| (format!("reading-{slot}"), (step * slot) as f64 * 0.5))
            .collect(),
        placement: NodePlacement::none(),
        state: NodeState::Active,
    }
}

/// `NodeDelta::diff` + `apply` between two views that differ in every agent
/// counter and most readings — a busy node's barrier.
fn delta_diff_apply() -> f64 {
    const CALLS: u64 = 100_000;
    let variants = [synthetic_view(1), synthetic_view(2)];
    let mut mirror = synthetic_view(0);
    ns_per_call(CALLS, || {
        for i in 0..CALLS as usize {
            let delta = NodeDelta::diff(&mirror, &variants[i % 2]);
            delta.apply(&mut mirror);
        }
        black_box(&mirror);
    })
}

/// `NodeRegistry::transition`: every node of a 2048-node registry drains and
/// retires.
fn lifecycle_transition() -> f64 {
    const NODES: usize = 2_048;
    const REGISTRIES: usize = 25;
    let mut fresh: Vec<Vec<NodeRegistry>> =
        (0..ROUNDS).map(|_| (0..REGISTRIES).map(|_| NodeRegistry::new(NODES)).collect()).collect();
    ns_per_call((2 * NODES * REGISTRIES) as u64, || {
        for mut registry in fresh.pop().expect("one batch of registries per round") {
            for node in 0..NODES {
                registry.transition(node, NodeState::Draining, 1).expect("active -> draining");
                registry.transition(node, NodeState::Drained, 2).expect("draining -> drained");
            }
            black_box(&registry);
        }
    })
}

/// `count` learned states of the SmartOverclock Q-table's kind and shape,
/// spread deterministically around a real export.
fn overclock_states(count: usize) -> Vec<LearnedState> {
    let (model, _) = smart_overclock(
        &Shared::new(cpu_node(OverclockWorkloadKind::DiskSpeed)),
        OverclockConfig::default(),
    );
    let export = model.export_learned().expect("the Q-learner always exports");
    (0..count as u64)
        .map(|node| {
            let values = export
                .values()
                .iter()
                .enumerate()
                .map(|(i, v)| v + (splitmix64(node * 4_096 + i as u64) >> 40) as f64 * 1e-9)
                .collect();
            LearnedState::new(export.kind(), export.shape().to_vec(), values)
                .expect("a finite perturbation of a valid state")
        })
        .collect()
}

/// Microseconds per `AggregationRule::aggregate` over `states`.
fn aggregate(rule: AggregationRule, states: &[LearnedState], calls: u64) -> f64 {
    ns_per_call(calls, || {
        for _ in 0..calls {
            black_box(rule.aggregate(black_box(states)).expect("compatible states"));
        }
    }) / 1e3
}

/// Microseconds per `robust_z_scores` over one round's consensus distances.
fn robust_z(participants: usize) -> f64 {
    const CALLS: u64 = 200;
    let distances: Vec<f64> =
        (0..participants as u64).map(|n| (splitmix64(n) >> 40) as f64 * 1e-6).collect();
    ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            black_box(robust_z_scores(black_box(&distances), 0.05));
        }
    }) / 1e3
}

/// Nanoseconds per event through the time wheel: one self-rescheduling
/// stream per cadence, popped with `peek` + `drain_due` as the node runtime
/// does. Cadences under 32 ms stay in the near-horizon slots; longer ones
/// park in the overflow heap and migrate in.
fn wheel_events(cadences_ms: &[u64], events: usize) -> f64 {
    ns_per_call(events as u64, || {
        let mut wheel: TimeWheel<u32> = TimeWheel::new();
        for stream in 0..cadences_ms.len() {
            wheel.schedule(Timestamp::from_micros(stream as u64), stream as u32);
        }
        let mut popped = 0;
        let mut due = Vec::new();
        while popped < events {
            let next = wheel.peek(|_| true).expect("streams reschedule themselves");
            wheel.drain_due(next, &mut due);
            popped += due.len();
            for stream in due.drain(..) {
                let cadence = SimDuration::from_millis(cadences_ms[stream as usize]);
                wheel.schedule(next + cadence, stream);
            }
        }
        black_box(popped);
    })
}

/// An environment that only counts its ticks.
#[derive(Default)]
struct TickCounter {
    ticks: u64,
}

impl Environment for TickCounter {
    fn advance_to(&mut self, _now: Timestamp) {
        self.ticks += 1;
    }
}

/// Nanoseconds per tick of a node with nothing to do: no agents, a 1 ms
/// environment step.
fn empty_ticks() -> f64 {
    const VIRTUAL_SECS: u64 = 120;
    let mut ticks = 0;
    let total = ns_per_call(1, || {
        let runtime = NodeRuntime::new(TickCounter::default())
            .max_environment_step(SimDuration::from_millis(1))
            .expect("1 ms is a valid step");
        let report = runtime.run_for(SimDuration::from_secs(VIRTUAL_SECS)).expect("non-empty");
        ticks = report.environment.ticks;
    });
    total / ticks as f64
}

/// Nanoseconds per agent step (one Model collect and whatever Actuator work
/// comes due with it) of one `many-agents` node run alone, and the bytes its
/// time wheel retains afterwards.
fn agent_steps() -> (f64, f64) {
    let horizon = SimDuration::from_secs(60);
    let recipe = many_agents_recipe(horizon, None);
    let (mut steps, mut wheel_bytes) = (0, 0);
    let total = ns_per_call(1, || {
        let mut runtime = recipe.instantiate(&NodeSeed::derive(1, 0));
        runtime.run_until(Timestamp::ZERO + horizon);
        // `NullEnvironment` reports no bytes: what is left is the wheel.
        wheel_bytes = runtime.mem_bytes();
        steps = runtime
            .agent_snapshots()
            .iter()
            .map(|(_, stats)| stats.model.samples_committed)
            .sum::<u64>();
    });
    (total / steps as f64, wheel_bytes as f64)
}

/// Nanoseconds per `ModelLoop::step` on a no-op model — with
/// [`actuator_loop_steps`], the paper's §6.1 runtime overhead.
fn model_loop_steps() -> f64 {
    const CALLS: u64 = 500_000;
    let schedule = cadence_schedule(SimDuration::from_millis(10));
    let mut model = ModelLoop::new(NoopModel, schedule, Timestamp::ZERO);
    ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            let now = model.next_wake();
            black_box(model.step(now));
        }
    })
}

/// Nanoseconds per `ActuatorLoop::step` on a no-op actuator, a prediction
/// delivered every fifth step.
fn actuator_loop_steps() -> f64 {
    const CALLS: u64 = 500_000;
    let schedule = cadence_schedule(SimDuration::from_millis(10));
    let mut actuator = ActuatorLoop::new(NoopActuator, schedule, Timestamp::ZERO);
    let mut now = Timestamp::ZERO;
    ns_per_call(CALLS, || {
        for i in 0..CALLS {
            if i % 5 == 0 {
                let expires = now + SimDuration::from_secs(60);
                actuator.deliver(Prediction::model(1.0, now, expires));
            }
            now = now.max(actuator.next_wake());
            actuator.step(now);
        }
        black_box(actuator.stats());
    })
}

fn cpu_node(workload: OverclockWorkloadKind) -> CpuNode {
    CpuNode::new(workload.build(8), CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() })
}

/// Nanoseconds per `advance_to` at the 1 ms cadence the harvest agent imposes
/// on a node, with no agent acting on the substrate and one `begin_batch`
/// around each round.
fn advances(mut env: impl Environment) -> f64 {
    const CALLS: u64 = 50_000;
    let mut now = Timestamp::ZERO;
    ns_per_call(CALLS, || {
        env.begin_batch();
        for _ in 0..CALLS {
            now += SimDuration::from_millis(1);
            env.advance_to(now);
        }
        env.end_batch();
    })
}

/// Nanoseconds per `Shared::with`: paying the lock on every access, and
/// under one open scope (the owner fast path a batch takes).
fn shared_with() -> (f64, f64) {
    const CALLS: u64 = 2_000_000;
    let shared = Shared::new(0u64);
    let mut accesses = || {
        for _ in 0..CALLS {
            black_box(shared.with(|v| {
                *v += 1;
                *v
            }));
        }
    };
    let unscoped = ns_per_call(CALLS, &mut accesses);
    let scope = shared.scope();
    let scoped = ns_per_call(CALLS, &mut accesses);
    drop(scope);
    (unscoped, scoped)
}

fn qlearning_steps() -> f64 {
    const CALLS: u64 = 1_000_000;
    let mut learner = QLearner::with_seed(QConfig::new(12, 3), 1);
    ns_per_call(CALLS, || {
        for i in 0..CALLS as usize {
            let state = i % 12;
            let action = learner.choose_action(state).action;
            learner.update(state, action, 1.0, (state + 1) % 12);
        }
        black_box(learner.table());
    })
}

fn cost_sensitive_steps() -> f64 {
    const CALLS: u64 = 300_000;
    let mut classifier = CostSensitiveClassifier::new(9, 9, 0.05);
    let example = CostSensitiveExample::from_ordinal_truth(vec![0.5; 9], 4, 9, 8.0, 1.0);
    ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            classifier.update(&example);
            black_box(classifier.predict(&example.features));
        }
    })
}

fn thompson_steps() -> f64 {
    const CALLS: u64 = 300_000;
    let mut bandit = ThompsonSampler::with_seed(6, 1);
    ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            let arm = bandit.select();
            bandit.record(arm, arm == 2);
        }
        black_box(bandit.selections());
    })
}

fn feature_extractions() -> f64 {
    const CALLS: u64 = 200_000;
    let samples: Vec<f64> = (0..25).map(|i| (i as f64 * 0.37).sin().abs() * 8.0).collect();
    ns_per_call(CALLS, || {
        for _ in 0..CALLS {
            black_box(DistributionalFeatures::extract(black_box(&samples)));
        }
    })
}

/// The 4096-sample latency window the substrates keep: nanoseconds per push
/// into a full window, microseconds per p99 read of one.
fn latency_window() -> (f64, f64) {
    const PUSHES: u64 = 4_000_000;
    const READS: u64 = 2_000;
    let mut window = SlidingWindow::new(4_096);
    let sample = |i: u64| (splitmix64(i) >> 40) as f64 * 1e-3;
    for i in 0..4_096 {
        window.push(sample(i));
    }
    let push_ns = ns_per_call(PUSHES, || {
        for i in 0..PUSHES {
            window.push(sample(i));
        }
    });
    let quantile_ns = ns_per_call(READS, || {
        for _ in 0..READS {
            black_box(black_box(&window).quantile(0.99));
        }
    });
    (push_ns, quantile_ns / 1e3)
}
