//! Co-location presets: SOL agent populations sharing one node.
//!
//! The paper's central claim (§4.2, §6) is that multiple SOL agents run
//! safely on the same server. This module packages ready-to-run node
//! assemblies on top of the typed
//! [`ScenarioBuilder`](sol_core::runtime::builder::ScenarioBuilder) API and
//! the composable [`MultiNode`] environment:
//!
//! * [`colocated_agents`] — the two CPU-side agents (SmartOverclock +
//!   SmartHarvest) on one node, the configuration evaluated throughout
//!   `sol-bench`'s interference table.
//! * [`three_agents`] — all three paper agents (SmartOverclock, SmartHarvest,
//!   SmartMemory) on one node, with both physical couplings
//!   (frequency→demand and frequency→memory-bandwidth).
//!
//! Each preset returns typed [`AgentHandle`]s, so experiments target
//! interventions ([`NodeRuntime::delay_model_at`]) and read per-agent reports
//! without any downcasting. For custom populations, compose
//! [`MultiNode::builder`] and the per-agent blueprints
//! ([`overclock_blueprint`], [`harvest_blueprint`], [`memory_blueprint`])
//! directly.

use sol_core::runtime::builder::{AgentHandle, ScenarioRecipe};
use sol_core::runtime::fleet::NodeSeed;
use sol_core::runtime::node::NodeRuntime;
use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
use sol_node_sim::harvest_node::{BurstyService, HarvestNode, HarvestNodeConfig};
use sol_node_sim::memory_node::{MemoryNode, MemoryNodeConfig, MemoryWorkloadKind};
use sol_node_sim::multi_node::{Coupling, MultiNode};
use sol_node_sim::shared::Shared;
use sol_node_sim::workload::OverclockWorkloadKind;

use crate::harvest::{harvest_blueprint, HarvestActuator, HarvestConfig, HarvestModel};
use crate::memory::{memory_blueprint, MemoryActuator, MemoryConfig, MemoryModel};
use crate::overclock::{overclock_blueprint, OverclockActuator, OverclockConfig, OverclockModel};

/// Sub-seed streams of a fleet [`NodeSeed`], one per random consumer on a
/// node. Fixed assignments keep recipes reproducible: adding a consumer means
/// adding a stream, never renumbering existing ones.
///
/// Convention (documented on [`NodeSeed::stream`]): the presets own stream
/// indices `0..=15`; custom recipes, controllers, and experiment drivers use
/// `16` and up. Fleet-level inputs such as an arrival trace are seeded from
/// the fleet master seed, not from per-node streams.
const STREAM_OVERCLOCK_LEARNER: u64 = 0;
const STREAM_CPU_NODE: u64 = 1;
const STREAM_MEMORY_LEARNER: u64 = 2;
const STREAM_MEMORY_NODE: u64 = 3;

/// The minimum fraction of active seconds that must meet the node's
/// configured local-access SLO (`MemoryConfig::local_access_slo`) for the
/// node to count as healthy; fleet recipes report a `memory_slo_violations`
/// metric of 1 for nodes below this attainment floor (the same floor the
/// `three_agents` example asserts).
pub const MEMORY_SLO_ATTAINMENT_FLOOR: f64 = 0.5;

/// Configuration for a co-located two-agent node.
#[derive(Debug, Clone)]
pub struct ColocationConfig {
    /// SmartOverclock agent configuration.
    pub overclock: OverclockConfig,
    /// SmartHarvest agent configuration.
    pub harvest: HarvestConfig,
    /// Workload hosted by the overclocked VM.
    pub workload: OverclockWorkloadKind,
    /// Latency-sensitive service hosted by the harvest-side primary VM.
    pub service: BurstyService,
    /// Cores visible to the overclocked VM.
    pub cores: usize,
    /// RNG seed of the CPU substrate's fault injector.
    pub cpu_seed: u64,
    /// Whether overclocking speeds up the harvest-side primary VM
    /// (shared frequency domain).
    pub couple_frequency: bool,
    /// Cores' worth of dynamically placeable VM slots on the CPU substrate
    /// (0 — the default — declines all fleet-level placement; see
    /// `CpuNodeConfig::placeable_cores`).
    pub placeable_cores: f64,
    /// Capacity of the node's latency sliding windows (the harvest
    /// substrate's request-latency window and the ObjectStore workload's
    /// operation-latency window). The default (4096 samples) matches the
    /// historical hardcoded size; large fleets shrink it to cut per-node
    /// memory (see `FleetReport::mem_bytes_per_node`). Quantile estimates
    /// get noisier below ~512 samples.
    pub latency_window: usize,
}

impl Default for ColocationConfig {
    fn default() -> Self {
        ColocationConfig {
            overclock: OverclockConfig::default(),
            harvest: HarvestConfig::default(),
            workload: OverclockWorkloadKind::ObjectStore,
            service: BurstyService::image_dnn(),
            cores: 8,
            cpu_seed: CpuNodeConfig::default().seed,
            couple_frequency: true,
            placeable_cores: 0.0,
            latency_window: 4_096,
        }
    }
}

impl ColocationConfig {
    /// Derives every random stream of this node from a fleet [`NodeSeed`]
    /// (see [`colocated_recipe`]): the SmartOverclock Q-learner and the CPU
    /// substrate's fault injector each get an independent sub-seed, so fleet
    /// nodes are heterogeneous but each node is fully deterministic.
    pub fn reseeded(mut self, seed: &NodeSeed) -> Self {
        self.overclock.seed = seed.stream(STREAM_OVERCLOCK_LEARNER);
        self.cpu_seed = seed.stream(STREAM_CPU_NODE);
        self
    }
}

/// A ready-to-run co-located node: the runtime plus the typed handles and
/// node handles needed to target interventions and read reports afterwards.
pub struct ColocatedAgents {
    /// The multi-agent runtime hosting both agents.
    pub runtime: NodeRuntime<MultiNode>,
    /// Typed handle to the SmartOverclock agent (registered first).
    pub overclock: AgentHandle<OverclockModel, OverclockActuator>,
    /// Typed handle to the SmartHarvest agent (registered second).
    pub harvest: AgentHandle<HarvestModel, HarvestActuator>,
    /// Handle to the CPU/DVFS substrate (also reachable via the report's
    /// environment).
    pub cpu: Shared<CpuNode>,
    /// Handle to the harvesting substrate.
    pub harvest_node: Shared<HarvestNode>,
}

/// Builds a [`NodeRuntime`] hosting SmartOverclock and SmartHarvest on one
/// shared node.
///
/// # Examples
///
/// ```
/// use sol_agents::colocation::{colocated_agents, ColocationConfig};
/// use sol_core::time::SimDuration;
///
/// let agents = colocated_agents(ColocationConfig::default());
/// let (overclock, harvest) = (agents.overclock, agents.harvest);
/// let report = agents.runtime.run_for(SimDuration::from_secs(5))?;
/// assert!(report.agent(overclock).stats().model.epochs_completed > 0);
/// assert!(report.agent(harvest).stats().model.epochs_completed > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn colocated_agents(config: ColocationConfig) -> ColocatedAgents {
    let cpu = Shared::new(CpuNode::new(
        config.workload.build_with_window(config.cores, config.latency_window),
        CpuNodeConfig { cores: config.cores, ..CpuNodeConfig::default() }
            .with_seed(config.cpu_seed)
            .with_placeable_cores(config.placeable_cores),
    ));
    let harvest_node = Shared::new(HarvestNode::new(
        config.service,
        HarvestNodeConfig { latency_window: config.latency_window, ..HarvestNodeConfig::default() },
    ));
    let mut node = MultiNode::builder().cpu(cpu.clone()).harvest(harvest_node.clone());
    if config.couple_frequency {
        node = node.coupling(Coupling::FrequencyToDemand);
    }
    let node = node.build().expect("both coupled substrates are registered");

    let mut builder = NodeRuntime::builder(node);
    let overclock = builder.register(overclock_blueprint(&cpu, config.overclock));
    let harvest = builder.register(harvest_blueprint(&harvest_node, config.harvest));

    ColocatedAgents { runtime: builder.build(), overclock, harvest, cpu, harvest_node }
}

/// Configuration for the full three-agent node of the paper's deployment
/// story.
#[derive(Debug, Clone)]
pub struct ThreeAgentConfig {
    /// SmartOverclock agent configuration.
    pub overclock: OverclockConfig,
    /// SmartHarvest agent configuration.
    pub harvest: HarvestConfig,
    /// SmartMemory agent configuration.
    pub memory: MemoryConfig,
    /// Workload hosted by the overclocked VM.
    pub workload: OverclockWorkloadKind,
    /// Latency-sensitive service hosted by the harvest-side primary VM.
    pub service: BurstyService,
    /// Memory workload whose pages SmartMemory manages.
    pub memory_workload: MemoryWorkloadKind,
    /// Two-tier memory substrate configuration.
    pub memory_node: MemoryNodeConfig,
    /// Cores visible to the overclocked VM.
    pub cores: usize,
    /// RNG seed of the CPU substrate's fault injector.
    pub cpu_seed: u64,
    /// Whether overclocking speeds up the harvest-side primary VM
    /// (shared frequency domain).
    pub couple_frequency: bool,
    /// Whether overclocking raises the memory workload's access rate
    /// (frequency→memory-bandwidth coupling).
    pub couple_memory_bandwidth: bool,
    /// Cores' worth of dynamically placeable VM slots on the CPU substrate
    /// (0 — the default — declines all fleet-level placement).
    pub placeable_cores: f64,
    /// Capacity of the node's latency sliding windows (see
    /// [`ColocationConfig::latency_window`]).
    pub latency_window: usize,
}

impl Default for ThreeAgentConfig {
    fn default() -> Self {
        ThreeAgentConfig {
            overclock: OverclockConfig::default(),
            harvest: HarvestConfig::default(),
            memory: MemoryConfig::default(),
            workload: OverclockWorkloadKind::ObjectStore,
            service: BurstyService::image_dnn(),
            memory_workload: MemoryWorkloadKind::ObjectStore,
            memory_node: MemoryNodeConfig {
                batches: 128,
                accesses_per_sec: 40_000.0,
                ..MemoryNodeConfig::default()
            },
            cores: 8,
            cpu_seed: CpuNodeConfig::default().seed,
            couple_frequency: true,
            couple_memory_bandwidth: true,
            placeable_cores: 0.0,
            latency_window: 4_096,
        }
    }
}

impl ThreeAgentConfig {
    /// Derives every random stream of this node from a fleet [`NodeSeed`]
    /// (see [`three_agents_recipe`]): the SmartOverclock Q-learner, the
    /// SmartMemory Thompson samplers, the CPU substrate's fault injector, and
    /// the memory substrate's access sampler each get an independent
    /// sub-seed, so fleet nodes are heterogeneous but each node is fully
    /// deterministic.
    pub fn reseeded(mut self, seed: &NodeSeed) -> Self {
        self.overclock.seed = seed.stream(STREAM_OVERCLOCK_LEARNER);
        self.cpu_seed = seed.stream(STREAM_CPU_NODE);
        self.memory.seed = seed.stream(STREAM_MEMORY_LEARNER);
        self.memory_node = self.memory_node.with_seed(seed.stream(STREAM_MEMORY_NODE));
        self
    }
}

/// A ready-to-run node hosting all three paper agents, with typed handles to
/// each.
pub struct ThreeAgents {
    /// The multi-agent runtime hosting all three agents.
    pub runtime: NodeRuntime<MultiNode>,
    /// Typed handle to the SmartOverclock agent (registered first).
    pub overclock: AgentHandle<OverclockModel, OverclockActuator>,
    /// Typed handle to the SmartHarvest agent (registered second).
    pub harvest: AgentHandle<HarvestModel, HarvestActuator>,
    /// Typed handle to the SmartMemory agent (registered third).
    pub memory: AgentHandle<MemoryModel, MemoryActuator>,
    /// Handle to the CPU/DVFS substrate.
    pub cpu: Shared<CpuNode>,
    /// Handle to the harvesting substrate.
    pub harvest_node: Shared<HarvestNode>,
    /// Handle to the two-tier memory substrate.
    pub memory_node: Shared<MemoryNode>,
}

/// Builds a [`NodeRuntime`] hosting all **three** paper agents —
/// SmartOverclock, SmartHarvest, and SmartMemory — on one [`MultiNode`] with
/// both physical couplings declared.
///
/// # Examples
///
/// ```
/// use sol_agents::colocation::{three_agents, ThreeAgentConfig};
/// use sol_core::time::SimDuration;
///
/// let agents = three_agents(ThreeAgentConfig::default());
/// let (oc, hv, mem) = (agents.overclock, agents.harvest, agents.memory);
/// let report = agents.runtime.run_for(SimDuration::from_secs(10))?;
/// // All three learners made progress on the shared node, read back through
/// // typed handles with no downcasts.
/// assert!(report.agent(oc).stats().model.epochs_completed > 0);
/// assert!(report.agent(hv).stats().model.epochs_completed > 0);
/// assert!(report.agent(mem).stats().model.samples_committed > 0);
/// assert_eq!(report.agent(mem).name(), "smart-memory");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn three_agents(config: ThreeAgentConfig) -> ThreeAgents {
    let cpu = Shared::new(CpuNode::new(
        config.workload.build_with_window(config.cores, config.latency_window),
        CpuNodeConfig { cores: config.cores, ..CpuNodeConfig::default() }
            .with_seed(config.cpu_seed)
            .with_placeable_cores(config.placeable_cores),
    ));
    let harvest_node = Shared::new(HarvestNode::new(
        config.service,
        HarvestNodeConfig { latency_window: config.latency_window, ..HarvestNodeConfig::default() },
    ));
    let memory_node = Shared::new(MemoryNode::new(config.memory_workload, config.memory_node));

    let mut node = MultiNode::builder()
        .cpu(cpu.clone())
        .harvest(harvest_node.clone())
        .memory(memory_node.clone());
    if config.couple_frequency {
        node = node.coupling(Coupling::FrequencyToDemand);
    }
    if config.couple_memory_bandwidth {
        node = node.coupling(Coupling::FrequencyToMemoryBandwidth);
    }
    let node = node.build().expect("all coupled substrates are registered");

    let mut builder = NodeRuntime::builder(node);
    let overclock = builder.register(overclock_blueprint(&cpu, config.overclock));
    let harvest = builder.register(harvest_blueprint(&harvest_node, config.harvest));
    let memory = builder.register(memory_blueprint(&memory_node, config.memory));

    ThreeAgents {
        runtime: builder.build(),
        overclock,
        harvest,
        memory,
        cpu,
        harvest_node,
        memory_node,
    }
}

/// A fleet-ready two-agent node recipe: the [`ScenarioRecipe`] plus the
/// handle set shared by every node it stamps out (each node replays the same
/// registration sequence, so the handles are valid fleet-wide — including
/// against [`FleetReport::role`](sol_core::runtime::fleet::FleetReport::role)).
pub struct ColocatedRecipe {
    /// The replayable node assembly; pass to
    /// [`FleetRuntime::new`](sol_core::runtime::fleet::FleetRuntime::new).
    pub recipe: ScenarioRecipe<MultiNode>,
    /// Handle to the SmartOverclock agent on every node.
    pub overclock: AgentHandle<OverclockModel, OverclockActuator>,
    /// Handle to the SmartHarvest agent on every node.
    pub harvest: AgentHandle<HarvestModel, HarvestActuator>,
}

/// Packages [`colocated_agents`] as a fleet recipe: every node is stamped out
/// from `base` with its learner and substrate RNGs reseeded per node
/// ([`ColocationConfig::reseeded`]). The recipe reports the CPU and harvest
/// substrate outcomes (`perf_score`, `avg_power_watts`, `p99_latency_ms`,
/// `harvested_core_seconds`) as fleet metrics.
pub fn colocated_recipe(base: ColocationConfig) -> ColocatedRecipe {
    // Handles are positional, so one probe assembly yields the handle set
    // shared by every node. Building (and discarding) a probe node keeps the
    // invariant that handles only ever come from a real registration; the
    // cost is one cheap construction per recipe, never per node.
    let probe = colocated_agents(base.clone());
    let recipe = ScenarioRecipe::new(move |seed: &NodeSeed| {
        colocated_agents(base.clone().reseeded(seed)).runtime
    })
    .with_telemetry(|env| {
        // Live barrier telemetry for fleet controllers: the safety signal a
        // harvest-aware packer watches (primary-VM tail latency) plus the
        // node's current power draw.
        let cpu = env.cpu().expect("recipe registers the CPU substrate");
        let harvest = env.harvest().expect("recipe registers the harvest substrate");
        vec![
            ("p99_latency_ms".into(), harvest.with(|n| n.p99_latency_ms())),
            ("avg_power_watts".into(), cpu.with(|n| n.average_power_watts())),
        ]
    })
    .with_metrics(|report| {
        let env = &report.environment;
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
    });
    ColocatedRecipe { recipe, overclock: probe.overclock, harvest: probe.harvest }
}

/// A fleet-ready three-agent node recipe (see [`ColocatedRecipe`] for the
/// handle-sharing contract).
pub struct ThreeAgentsRecipe {
    /// The replayable node assembly; pass to
    /// [`FleetRuntime::new`](sol_core::runtime::fleet::FleetRuntime::new).
    pub recipe: ScenarioRecipe<MultiNode>,
    /// Handle to the SmartOverclock agent on every node.
    pub overclock: AgentHandle<OverclockModel, OverclockActuator>,
    /// Handle to the SmartHarvest agent on every node.
    pub harvest: AgentHandle<HarvestModel, HarvestActuator>,
    /// Handle to the SmartMemory agent on every node.
    pub memory: AgentHandle<MemoryModel, MemoryActuator>,
}

/// Packages [`three_agents`] as a fleet recipe: every node is stamped out
/// from `base` with its learner and substrate RNGs reseeded per node
/// ([`ThreeAgentConfig::reseeded`]). On top of the two-agent metrics the
/// recipe reports `memory_slo_attainment` (against the SLO the node's
/// SmartMemory agent is actually configured to enforce,
/// `base.memory.local_access_slo`), `memory_remote_batches`, and
/// `memory_slo_violations` (1 for nodes whose attainment fell below
/// [`MEMORY_SLO_ATTAINMENT_FLOOR`]), so a fleet run's dashboard directly
/// counts SLO-violating servers.
pub fn three_agents_recipe(base: ThreeAgentConfig) -> ThreeAgentsRecipe {
    // One probe assembly yields the fleet-wide handle set; see
    // `colocated_recipe` for the tradeoff.
    let probe = three_agents(base.clone());
    // Measure attainment against the SLO the agents enforce, not a constant:
    // a fleet configured for a 90%-local SLO must be judged at 90%.
    let slo_target = base.memory.local_access_slo;
    let recipe = ScenarioRecipe::new(move |seed: &NodeSeed| {
        three_agents(base.clone().reseeded(seed)).runtime
    })
    .with_telemetry(|env| {
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
        let env = &report.environment;
        let cpu = env.cpu().expect("recipe registers the CPU substrate");
        let harvest = env.harvest().expect("recipe registers the harvest substrate");
        let memory = env.memory().expect("recipe registers the memory substrate");
        let (perf, power) = cpu.with(|n| (n.performance().score, n.average_power_watts()));
        let (p99, harvested) = harvest.with(|n| (n.p99_latency_ms(), n.harvested_core_seconds()));
        let (slo, remote) = memory.with(|n| (n.slo_attainment(slo_target), n.remote_batch_count()));
        vec![
            ("perf_score".into(), perf),
            ("avg_power_watts".into(), power),
            ("p99_latency_ms".into(), p99),
            ("harvested_core_seconds".into(), harvested),
            ("memory_slo_attainment".into(), slo),
            ("memory_remote_batches".into(), remote as f64),
            (
                "memory_slo_violations".into(),
                if slo < MEMORY_SLO_ATTAINMENT_FLOOR { 1.0 } else { 0.0 },
            ),
        ]
    });
    ThreeAgentsRecipe {
        recipe,
        overclock: probe.overclock,
        harvest: probe.harvest,
        memory: probe.memory,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_core::time::{SimDuration, Timestamp};

    #[test]
    fn both_agents_make_progress_on_one_node() {
        let agents = colocated_agents(ColocationConfig::default());
        let (oc, hv) = (agents.overclock, agents.harvest);
        let report = agents.runtime.run_for(SimDuration::from_secs(30)).unwrap();
        assert!(report.agent(oc).stats().model.epochs_completed >= 25);
        assert!(report.agent(hv).stats().model.epochs_completed >= 500);
        assert_eq!(report.agent(oc).name(), "smart-overclock");
        assert_eq!(report.agent(hv).name(), "smart-harvest");
        // Both substrates reached the horizon under the shared clock.
        let env = &report.environment;
        assert_eq!(env.cpu().unwrap().lock().now(), Timestamp::from_secs(30));
        assert_eq!(env.harvest().unwrap().lock().now(), Timestamp::from_secs(30));
    }

    #[test]
    fn model_delay_targets_one_agent_without_disturbing_the_other() {
        // Coupling off: with separate frequency domains the only way the
        // delay could reach the harvest agent is through a runtime-level
        // targeting bug. (With coupling on, interference through the shared
        // frequency is expected physics — measured in sol-bench.)
        let run = |delay_overclock: bool| {
            let config = ColocationConfig { couple_frequency: false, ..Default::default() };
            let agents = colocated_agents(config);
            let (oc, hv) = (agents.overclock, agents.harvest);
            let mut runtime = agents.runtime;
            if delay_overclock {
                runtime.delay_model_at(oc, Timestamp::from_secs(5), SimDuration::from_secs(20));
            }
            let report = runtime.run_for(SimDuration::from_secs(30)).unwrap();
            (report.agent(oc).stats().clone(), report.agent(hv).stats().clone())
        };
        let (oc_delayed, hv_beside_delay) = run(true);
        let (oc_clean, hv_clean) = run(false);
        assert!(
            oc_delayed.model.epochs_completed < oc_clean.model.epochs_completed,
            "the delayed overclock model must lose epochs"
        );
        assert_eq!(
            hv_beside_delay.model.epochs_completed, hv_clean.model.epochs_completed,
            "the co-located harvest agent must be unaffected by the targeted delay"
        );
    }

    #[test]
    fn frequency_coupling_increases_harvested_core_seconds() {
        let run = |couple: bool| {
            let config = ColocationConfig { couple_frequency: couple, ..Default::default() };
            let agents = colocated_agents(config);
            agents.runtime.run_for(SimDuration::from_secs(60)).unwrap();
            agents.harvest_node.with(|h| h.harvested_core_seconds())
        };
        // With the coupling, overclocking the CPU-bound workload shrinks the
        // primary VM's demand, so there is at least as much to harvest.
        assert!(run(true) >= run(false) * 0.99);
    }

    #[test]
    fn three_agents_make_progress_on_one_node() {
        let agents = three_agents(ThreeAgentConfig::default());
        let (oc, hv, mem) = (agents.overclock, agents.harvest, agents.memory);
        let report = agents.runtime.run_for(SimDuration::from_secs(45)).unwrap();
        assert!(report.agent(oc).stats().model.epochs_completed >= 35);
        assert!(report.agent(hv).stats().model.epochs_completed >= 800);
        // SmartMemory epochs are 38.4 s long: one full epoch fits in 45 s.
        assert!(report.agent(mem).stats().model.epochs_completed >= 1);
        // All three substrates reached the horizon under the shared clock.
        for now in [
            agents.cpu.with(|n| n.now()),
            agents.harvest_node.with(|n| n.now()),
            agents.memory_node.with(|n| n.now()),
        ] {
            assert_eq!(now, Timestamp::from_secs(45));
        }
    }

    #[test]
    fn memory_bandwidth_coupling_scales_access_rate_with_overclocking() {
        let run = |couple: bool| {
            let config = ThreeAgentConfig {
                couple_memory_bandwidth: couple,
                // Keep frequency behaviour identical across both runs so the
                // only difference is whether it reaches the memory substrate.
                ..Default::default()
            };
            let agents = three_agents(config);
            agents.runtime.run_for(SimDuration::from_secs(20)).unwrap();
            agents.memory_node.with(|n| n.local_accesses() + n.remote_accesses())
        };
        // The ObjectStore CPU workload overclocks quickly, so the coupled
        // memory substrate sees at least as many accesses.
        assert!(run(true) >= run(false));
    }

    #[test]
    fn latency_window_knob_shrinks_the_node_footprint() {
        // Windows allocate lazily, so run long enough for both sizes to fill.
        let footprint = |window: usize| {
            let config = ColocationConfig { latency_window: window, ..Default::default() };
            let mut runtime = colocated_agents(config).runtime;
            runtime.run_until(Timestamp::from_secs(30));
            runtime.mem_bytes()
        };
        let full = footprint(4_096);
        let compact = footprint(512);
        assert!(
            compact < full,
            "512-sample windows ({compact} B) must undercut 4096-sample windows ({full} B)"
        );
        // The ObjectStore workload's window alone shrinks by 3584 samples (the
        // harvest side's run-length windows by 224 reserved runs on top).
        assert!(full - compact >= 3_584 * std::mem::size_of::<f64>());
    }

    #[test]
    fn reseeding_derives_independent_streams() {
        let seed = NodeSeed::derive(99, 5);
        let two = ColocationConfig::default().reseeded(&seed);
        let three = ThreeAgentConfig::default().reseeded(&seed);
        // The same stream assignments hold across both presets.
        assert_eq!(two.overclock.seed, three.overclock.seed);
        assert_eq!(two.cpu_seed, three.cpu_seed);
        // All streams of one node are distinct.
        let streams =
            [three.overclock.seed, three.cpu_seed, three.memory.seed, three.memory_node.seed];
        let unique: std::collections::HashSet<u64> = streams.iter().copied().collect();
        assert_eq!(unique.len(), streams.len());
        // A different node gets different streams.
        let other = ColocationConfig::default().reseeded(&NodeSeed::derive(99, 6));
        assert_ne!(two.overclock.seed, other.overclock.seed);
    }

    #[test]
    fn recipe_instantiations_are_deterministic_per_seed() {
        let run = |seed: &NodeSeed| {
            let preset = colocated_recipe(ColocationConfig::default());
            let report =
                preset.recipe.instantiate(seed).run_for(SimDuration::from_secs(30)).unwrap();
            let stats = format!(
                "{:#?}{:#?}",
                report.agent(preset.overclock).stats(),
                report.agent(preset.harvest).stats()
            );
            (stats, preset.recipe.extract_metrics(&report))
        };
        let seed = NodeSeed::derive(1, 2);
        assert_eq!(run(&seed), run(&seed));
        // Different node seeds diverge (different Q-learner exploration).
        assert_ne!(run(&seed), run(&NodeSeed::derive(1, 3)));
    }

    #[test]
    fn three_agent_recipe_reports_memory_metrics() {
        let preset = three_agents_recipe(ThreeAgentConfig::default());
        let seed = NodeSeed::derive(0, 0);
        let report = preset.recipe.instantiate(&seed).run_for(SimDuration::from_secs(45)).unwrap();
        let metrics = preset.recipe.extract_metrics(&report);
        let names: Vec<&str> = metrics.iter().map(|(n, _)| n.as_str()).collect();
        for expected in [
            "perf_score",
            "avg_power_watts",
            "p99_latency_ms",
            "harvested_core_seconds",
            "memory_slo_attainment",
            "memory_remote_batches",
            "memory_slo_violations",
        ] {
            assert!(names.contains(&expected), "missing metric {expected}");
        }
        // Handles from the preset read every agent without downcasts.
        assert!(report.agent(preset.overclock).stats().model.epochs_completed > 0);
        assert!(report.agent(preset.harvest).stats().model.epochs_completed > 0);
        assert!(report.agent(preset.memory).stats().model.samples_committed > 0);
    }

    #[test]
    fn targeted_delay_leaves_the_other_two_agents_untouched() {
        let run = |delay_memory: bool| {
            let config = ThreeAgentConfig {
                couple_frequency: false,
                couple_memory_bandwidth: false,
                ..Default::default()
            };
            let agents = three_agents(config);
            let mut runtime = agents.runtime;
            if delay_memory {
                runtime.delay_model_at(
                    agents.memory,
                    Timestamp::from_secs(5),
                    SimDuration::from_secs(20),
                );
            }
            let report = runtime.run_for(SimDuration::from_secs(30)).unwrap();
            (
                report.agent(agents.overclock).stats().clone(),
                report.agent(agents.harvest).stats().clone(),
                report.agent(agents.memory).stats().clone(),
            )
        };
        let (oc_d, hv_d, mem_d) = run(true);
        let (oc_c, hv_c, mem_c) = run(false);
        assert!(mem_d.model.samples_committed < mem_c.model.samples_committed);
        assert_eq!(oc_d, oc_c, "the overclock agent must be unaffected");
        assert_eq!(hv_d, hv_c, "the harvest agent must be unaffected");
    }
}
