//! The node recipes the benchmark owns.
//!
//! Two kinds. The **mirrors** rebuild the `colocated_agents` and
//! `three_agents` presets from their public parts with a span wrapper around
//! every environment, model and actuator — the traced run uses them, the
//! end-to-end run uses the presets themselves, and `trace.mirror_match`
//! checks the two simulate the same thing. The **benchmark-owned nodes**
//! (`many-agents`, `fleet-control`) have no preset to mirror; they always
//! carry the wrappers, which without a sink only forward.

use std::sync::Arc;

use sol_agents::colocation::{ColocationConfig, ThreeAgentConfig, MEMORY_SLO_ATTAINMENT_FLOOR};
use sol_agents::harvest::harvest_blueprint;
use sol_agents::memory::memory_blueprint;
use sol_agents::overclock::{
    overclock_blueprint, overclock_schedule, smart_overclock, OverclockConfig,
};
use sol_agents::poison::{PoisonAttack, PoisonPlan, PoisonedLearner};
use sol_core::error::DataError;
use sol_core::prelude::*;
use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
use sol_node_sim::harvest_node::{BurstyService, HarvestNode, HarvestNodeConfig};
use sol_node_sim::memory_node::MemoryNode;
use sol_node_sim::multi_node::{Coupling, MultiNode};
use sol_node_sim::shared::Shared;
use sol_node_sim::workload::OverclockWorkloadKind;

use crate::trace::{TraceSink, Traced, TracedEnv};

/// SplitMix64, the workspace's seed-derivation step (the runtime's own copy
/// is crate-private).
pub fn splitmix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Node-seed streams of the `fleet-control` node, as `sol-agents::poison`
/// assigns them.
const STREAM_LEARNER: u64 = 0;
const STREAM_CPU_NODE: u64 = 1;
const STREAM_POISON_SALT: u64 = 16;

/// Registers a blueprint's agent with both halves wrapped.
fn register_traced<E, M, A>(
    builder: &mut ScenarioBuilder<E>,
    blueprint: AgentBlueprint<M, A>,
    sink: Option<&Arc<TraceSink>>,
    node: usize,
) where
    E: Environment + 'static,
    M: Model + Send + 'static,
    A: Actuator<Pred = M::Pred> + Send + 'static,
{
    let agent = builder.agent_count();
    builder.agent(
        blueprint.name,
        Traced::new(blueprint.model, sink, node, agent),
        Traced::new(blueprint.actuator, sink, node, agent),
        blueprint.schedule,
    );
}

fn cpu_substrate(
    workload: OverclockWorkloadKind,
    cores: usize,
    latency_window: usize,
    cpu_seed: u64,
    placeable_cores: f64,
) -> Shared<CpuNode> {
    Shared::new(CpuNode::new(
        workload.build_with_window(cores, latency_window),
        CpuNodeConfig { cores, ..CpuNodeConfig::default() }
            .with_seed(cpu_seed)
            .with_placeable_cores(placeable_cores),
    ))
}

fn harvest_substrate(service: BurstyService, latency_window: usize) -> Shared<HarvestNode> {
    Shared::new(HarvestNode::new(
        service,
        HarvestNodeConfig { latency_window, ..HarvestNodeConfig::default() },
    ))
}

/// `colocated_recipe(base)`, rebuilt from public parts with span wrappers.
pub fn colocated_mirror(
    base: ColocationConfig,
    sink: Option<Arc<TraceSink>>,
) -> ScenarioRecipe<TracedEnv<MultiNode>> {
    ScenarioRecipe::new(move |seed: &NodeSeed| {
        let config = base.clone().reseeded(seed);
        let (sink, index) = (sink.as_ref(), seed.index() as usize);
        let cpu = cpu_substrate(
            config.workload,
            config.cores,
            config.latency_window,
            config.cpu_seed,
            config.placeable_cores,
        );
        let harvest = harvest_substrate(config.service, config.latency_window);
        let mut node = MultiNode::builder().cpu(cpu.clone()).harvest(harvest.clone());
        if config.couple_frequency {
            node = node.coupling(Coupling::FrequencyToDemand);
        }
        let node = node.build().expect("both coupled substrates are registered");
        let mut builder = NodeRuntime::builder(TracedEnv::new(node, sink, index));
        register_traced(&mut builder, overclock_blueprint(&cpu, config.overclock), sink, index);
        register_traced(&mut builder, harvest_blueprint(&harvest, config.harvest), sink, index);
        builder.build()
    })
    .with_telemetry(|env| {
        let env = env.inner();
        let cpu = env.cpu().expect("recipe registers the CPU substrate");
        let harvest = env.harvest().expect("recipe registers the harvest substrate");
        vec![
            ("p99_latency_ms".into(), harvest.with(|n| n.p99_latency_ms())),
            ("avg_power_watts".into(), cpu.with(|n| n.average_power_watts())),
        ]
    })
    .with_metrics(|report| cpu_and_harvest_metrics(report.environment.inner()))
}

fn cpu_and_harvest_metrics(env: &MultiNode) -> Vec<(String, f64)> {
    let cpu = env.cpu().expect("recipe registers the CPU substrate");
    let harvest = env.harvest().expect("recipe registers the harvest substrate");
    let (perf, power) = cpu.with(|n| (n.performance().score, n.average_power_watts()));
    let (p99, harvested) = harvest.with(|n| (n.p99_latency_ms(), n.harvested_core_seconds()));
    vec![
        ("perf_score".into(), perf),
        ("avg_power_watts".into(), power),
        ("p99_latency_ms".into(), p99),
        ("harvested_core_seconds".into(), harvested),
    ]
}

/// `three_agents_recipe(base)`, rebuilt from public parts with span wrappers.
pub fn three_agents_mirror(
    base: ThreeAgentConfig,
    sink: Option<Arc<TraceSink>>,
) -> ScenarioRecipe<TracedEnv<MultiNode>> {
    let slo_target = base.memory.local_access_slo;
    ScenarioRecipe::new(move |seed: &NodeSeed| {
        let config = base.clone().reseeded(seed);
        let (sink, index) = (sink.as_ref(), seed.index() as usize);
        let cpu = cpu_substrate(
            config.workload,
            config.cores,
            config.latency_window,
            config.cpu_seed,
            config.placeable_cores,
        );
        let harvest = harvest_substrate(config.service, config.latency_window);
        let memory = Shared::new(MemoryNode::new(config.memory_workload, config.memory_node));
        let mut node =
            MultiNode::builder().cpu(cpu.clone()).harvest(harvest.clone()).memory(memory.clone());
        if config.couple_frequency {
            node = node.coupling(Coupling::FrequencyToDemand);
        }
        if config.couple_memory_bandwidth {
            node = node.coupling(Coupling::FrequencyToMemoryBandwidth);
        }
        let node = node.build().expect("all coupled substrates are registered");
        let mut builder = NodeRuntime::builder(TracedEnv::new(node, sink, index));
        register_traced(&mut builder, overclock_blueprint(&cpu, config.overclock), sink, index);
        register_traced(&mut builder, harvest_blueprint(&harvest, config.harvest), sink, index);
        register_traced(&mut builder, memory_blueprint(&memory, config.memory), sink, index);
        builder.build()
    })
    .with_telemetry(|env| {
        let env = env.inner();
        let cpu = env.cpu().expect("recipe registers the CPU substrate");
        let harvest = env.harvest().expect("recipe registers the harvest substrate");
        let memory = env.memory().expect("recipe registers the memory substrate");
        vec![
            ("p99_latency_ms".into(), harvest.with(|n| n.p99_latency_ms())),
            ("avg_power_watts".into(), cpu.with(|n| n.average_power_watts())),
            ("remote_fraction".into(), memory.with(|n| n.recent_remote_fraction())),
        ]
    })
    .with_metrics(move |report| {
        let env = report.environment.inner();
        let memory = env.memory().expect("recipe registers the memory substrate");
        let (slo, remote) = memory.with(|n| (n.slo_attainment(slo_target), n.remote_batch_count()));
        let mut metrics = cpu_and_harvest_metrics(env);
        metrics.extend([
            ("memory_slo_attainment".into(), slo),
            ("memory_remote_batches".into(), remote as f64),
            (
                "memory_slo_violations".into(),
                if slo < MEMORY_SLO_ATTAINMENT_FLOOR { 1.0 } else { 0.0 },
            ),
        ]);
        metrics
    })
}

/// A model that does nothing: what remains is the runtime's own cost.
pub struct NoopModel;

impl Model for NoopModel {
    type Data = f64;
    type Pred = f64;

    fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
        Ok(1.0)
    }

    fn validate_data(&self, _data: &f64) -> bool {
        true
    }

    fn commit_data(&mut self, _now: Timestamp, _data: f64) {}

    fn update_model(&mut self, _now: Timestamp) {}

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<f64>> {
        Some(Prediction::model(1.0, now, now + SimDuration::from_secs(60)))
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
        Prediction::fallback(0.0, now, now + SimDuration::from_secs(60))
    }

    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        ModelAssessment::Healthy
    }
}

/// An actuator that does nothing.
pub struct NoopActuator;

impl Actuator for NoopActuator {
    type Pred = f64;

    fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {}

    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        ActuatorAssessment::Acceptable
    }

    fn mitigate(&mut self, _now: Timestamp) {}

    fn clean_up(&mut self, _now: Timestamp) {}
}

/// Agents per `many-agents` node: the cadence set below, twice.
pub const MANY_AGENTS: usize = 16;
/// Model-delay interventions per `many-agents` node.
pub const MANY_AGENT_DELAYS: u64 = 30;

/// Collect cadences of the `many-agents` node. Only the 1 ms and 10 ms
/// agents stay inside the wheel's 32 x 1 ms near horizon; the rest park in
/// its overflow heap and migrate in.
const CADENCES_MS: [u64; MANY_AGENTS / 2] = [1, 10, 10, 100, 100, 100, 1_000, 5_000];

/// A schedule scaled from its collect cadence: 5 samples per learning epoch,
/// the actuator assessed every 5 collects and due every 10.
pub fn cadence_schedule(cadence: SimDuration) -> Schedule {
    Schedule::builder()
        .data_per_epoch(5)
        .data_collect_interval(cadence)
        .max_epoch_time(cadence * 10)
        .assess_model_every_epochs(1)
        .max_actuation_delay(cadence * 10)
        .assess_actuator_interval(cadence * 5)
        .build()
        .expect("a schedule scaled from a non-zero cadence is valid")
}

/// The `many-agents` node: no substrate, no learner — 16 no-op agents on
/// eight cadences, de-phased by a few microseconds so they do not all share
/// ticks, plus model-delay interventions that invalidate wakes by
/// generation. The time wheel, event dispatch and the loops are all that is
/// left to measure.
///
/// The delay schedule differs from node to node but is keyed by the node's
/// index, not by its seed: the wheel's bucket capacities — and with them
/// `mem_bytes_per_node` — follow the schedule (3 % from seed to seed when it
/// was seeded), and a memory metric that moves with the seed cannot carry a
/// tight bound.
pub fn many_agents_recipe(
    horizon: SimDuration,
    sink: Option<Arc<TraceSink>>,
) -> ScenarioRecipe<TracedEnv<NullEnvironment>> {
    ScenarioRecipe::new(move |seed: &NodeSeed| {
        let (sink, index) = (sink.as_ref(), seed.index() as usize);
        let mut builder = NodeRuntime::builder(TracedEnv::new(NullEnvironment, sink, index));
        for agent in 0..MANY_AGENTS {
            let cadence = SimDuration::from_millis(CADENCES_MS[agent % CADENCES_MS.len()])
                + SimDuration::from_micros(3 * agent as u64);
            builder.agent(
                format!("noop-{agent:02}"),
                Traced::new(NoopModel, sink, index, agent),
                Traced::new(NoopActuator, sink, index, agent),
                cadence_schedule(cadence),
            );
        }
        let mut runtime = builder.build();
        let slice = horizon.as_nanos() / MANY_AGENT_DELAYS;
        for k in 0..MANY_AGENT_DELAYS {
            let draw = splitmix64(splitmix64(seed.index()).wrapping_add(k));
            let at = Timestamp::from_nanos(k * slice + (draw >> 32) % slice.max(1));
            let agent = AgentId::from((draw % MANY_AGENTS as u64) as usize);
            runtime.delay_model_at(agent, at, SimDuration::from_millis(250));
        }
        runtime
    })
}

/// The `fleet-control` node: one SmartOverclock agent, its exports passed
/// through a [`PoisonedLearner`], on a placeable disk-bound CPU substrate.
/// Light on purpose — about 2 µs of host time per node-second — so the
/// coordinator, not the nodes, sets the run's wall time.
pub fn control_recipe(
    plan: PoisonPlan,
    sink: Option<Arc<TraceSink>>,
) -> ScenarioRecipe<TracedEnv<Shared<CpuNode>>> {
    const CORES: usize = 8;
    const PLACEABLE_CORES: f64 = 6.0;
    ScenarioRecipe::new(move |seed: &NodeSeed| {
        let (sink, index) = (sink.as_ref(), seed.index() as usize);
        let node = Shared::new(CpuNode::new(
            OverclockWorkloadKind::DiskSpeed.build(CORES),
            CpuNodeConfig { cores: CORES, ..CpuNodeConfig::default() }
                .with_seed(seed.stream(STREAM_CPU_NODE))
                .with_placeable_cores(PLACEABLE_CORES),
        ));
        let config =
            OverclockConfig { seed: seed.stream(STREAM_LEARNER), ..OverclockConfig::default() };
        let (model, actuator) = smart_overclock(&node, config);
        let attack = plan.attack_for(index, PoisonAttack::SignFlip { gain: 3.0 });
        let model = PoisonedLearner::new(model, attack, seed.stream(STREAM_POISON_SALT));
        let mut builder = NodeRuntime::builder(TracedEnv::new(node, sink, index));
        builder.agent(
            "smart-overclock",
            Traced::new(model, sink, index, 0),
            Traced::new(actuator, sink, index, 0),
            overclock_schedule(),
        );
        builder.build()
    })
    .with_telemetry(|env| {
        vec![("avg_power_watts".into(), env.inner().with(|n| n.average_power_watts()))]
    })
    .with_metrics(|report| {
        let (perf, power) =
            report.environment.inner().with(|n| (n.performance().score, n.average_power_watts()));
        vec![("perf_score".into(), perf), ("avg_power_watts".into(), power)]
    })
}
