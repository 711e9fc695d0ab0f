//! The four workloads: what runs, how its inputs come from the seed, and
//! what a correct outcome looks like.
//!
//! The seed feeds input generation only — the fleet seed, the arrival trace,
//! the fault plan, the poison plan. The product receives generated inputs,
//! never a workload name.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sol_agents::colocation::{
    colocated_recipe, three_agents_recipe, ColocationConfig, ThreeAgentConfig,
};
use sol_agents::poison::PoisonPlan;
use sol_core::prelude::*;
use sol_ml::exchange::{AggregationRule, BlendPolicy};
use sol_node_sim::cpu_node::CpuNode;
use sol_node_sim::multi_node::MultiNode;
use sol_node_sim::shared::Shared;

use crate::host::process_cpu_seconds;
use crate::recipes::{
    colocated_mirror, control_recipe, many_agents_recipe, splitmix64, three_agents_mirror,
};
use crate::trace::{TraceSink, TracedController, TracedEnv};

/// The workload names, in reporting order.
pub const NAMES: [&str; 4] = ["fleet-steady", "three-agents", "many-agents", "fleet-control"];

/// Full size (what the benchmark reports) or toy size (what its self-tests
/// can afford).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes in the README's workload table.
    Full,
    /// A few nodes for a few virtual seconds.
    #[cfg_attr(not(test), allow(dead_code))]
    Toy,
}

/// The shape of one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Workload name.
    pub name: &'static str,
    /// Initial fleet size.
    pub nodes: usize,
    /// Worker threads the end-to-end run asks for.
    pub threads: usize,
    /// Virtual time between barriers.
    pub epoch: SimDuration,
    /// Virtual time simulated per repetition.
    pub horizon: SimDuration,
    /// Whether the workload arms fleet planes, so that taking them away one
    /// by one ([`Planes::LADDER`]) measures something.
    pub planes: bool,
}

impl Spec {
    /// Barriers per repetition.
    pub fn epochs(&self) -> u64 {
        self.horizon.as_nanos().div_ceil(self.epoch.as_nanos())
    }

    /// Simulated node-minutes per repetition, the denominator of the
    /// per-node-minute metrics (initial nodes x virtual minutes — the
    /// definition `BENCH_fleet.json` uses).
    pub fn node_minutes(&self) -> f64 {
        self.nodes as f64 * self.horizon.as_secs_f64() / 60.0
    }
}

/// Which fleet planes a `fleet-control` run arms: the ablation ladder of the
/// traced run. The other workloads have no planes and ignore it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planes {
    /// `GreedyPacker` over the arrival trace, plus the fault plan.
    pub placement: bool,
    /// The learning plane's exchange rounds.
    pub learning: bool,
    /// The trust plane (needs `learning`).
    pub trust: bool,
}

impl Planes {
    /// Everything on: the workload as the end-to-end run measures it.
    pub const ALL: Planes = Planes { placement: true, learning: true, trust: true };
    /// The ladder, bottom rung first; its last rung is [`Planes::ALL`].
    pub const LADDER: [Planes; 4] = [
        Planes { placement: false, learning: false, trust: false },
        Planes { placement: true, learning: false, trust: false },
        Planes { placement: true, learning: true, trust: false },
        Planes::ALL,
    ];
}

/// How one repetition runs.
#[derive(Clone, Copy)]
pub struct RunOpts<'a> {
    /// Worker threads.
    pub threads: usize,
    /// Planes armed (`fleet-control` only).
    pub planes: Planes,
    /// Where to record spans; `None` runs with tracing off.
    pub sink: Option<&'a Arc<TraceSink>>,
}

/// One finished repetition.
pub struct Outcome {
    /// The fleet's report.
    pub report: FleetReport,
    /// Wall time of the `run*` call alone.
    pub wall: Duration,
    /// Process CPU seconds (user + system, every thread) across that call.
    pub cpu: f64,
}

/// One workload with its inputs generated.
pub trait Workload {
    /// Its shape.
    fn spec(&self) -> &Spec;

    /// Runs one repetition — a fresh `FleetRuntime::run*` call — and applies
    /// the workload's own checks to what comes back.
    ///
    /// # Errors
    ///
    /// The run's error or the first failed check, as a message.
    fn run(&self, opts: &RunOpts<'_>) -> Result<Outcome, String>;

    /// Runs node `index` alone on the calling thread, timing it.
    ///
    /// # Errors
    ///
    /// The run's error, as a message.
    fn run_node(&self, index: usize) -> Result<(FleetNodeReport, Duration), String>;

    /// Stamps every node of the fleet once through the recipe and drops it.
    fn stamp_all(&self);

    /// The nodes whose learner exports are poisoned (none, by default).
    fn victims(&self) -> &[usize] {
        &[]
    }
}

/// Generates `name`'s inputs from `seed` and assembles it: everything
/// `setup_s` covers except the stamp pass.
///
/// # Errors
///
/// An unknown name, or a fleet config the runtime rejects.
pub fn build(name: &str, seed: u64, size: Size) -> Result<Box<dyn Workload>, String> {
    let full = size == Size::Full;
    let spec = |name, (nodes, secs): (usize, u64), threads, epoch_ms| Spec {
        name,
        nodes,
        threads,
        epoch: SimDuration::from_millis(epoch_ms),
        horizon: SimDuration::from_secs(secs),
        planes: false,
    };
    match name {
        "fleet-steady" => assemble(
            spec("fleet-steady", if full { (256, 60) } else { (4, 2) }, 1, 1_000),
            seed,
            colocated_recipe(ColocationConfig::default()).recipe,
            Steady,
        ),
        "three-agents" => assemble(
            spec("three-agents", if full { (32, 60) } else { (4, 2) }, 1, 1_000),
            seed,
            three_agents_recipe(ThreeAgentConfig::default()).recipe,
            Observed,
        ),
        "many-agents" => {
            let spec = spec("many-agents", if full { (256, 60) } else { (4, 2) }, 1, 1_000);
            let recipe = many_agents_recipe(spec.horizon, None);
            assemble(spec, seed, recipe, NoOps)
        }
        "fleet-control" => {
            let shape = spec("fleet-control", if full { (2_048, 120) } else { (64, 20) }, 2, 100);
            let spec = Spec { planes: true, ..shape };
            let control = Control::generate(seed, &spec);
            let recipe = control_recipe(control.poison.clone(), None);
            assemble(spec, seed, recipe, control)
        }
        other => Err(format!("unknown workload {other:?}; expected one of {NAMES:?}")),
    }
}

/// An independent input seed per consumer, so adding an input never shifts
/// the others.
fn input_seed(seed: u64, consumer: u64) -> u64 {
    splitmix64(seed ^ splitmix64(consumer))
}

const INPUT_FLEET: u64 = 1;
const INPUT_POISON: u64 = 2;
const INPUT_ARRIVALS: u64 = 3;
const INPUT_FAULTS: u64 = 4;

/// Up to four node indices spread over the fleet: the nodes that carry
/// in-tick probes, and the ones `fleet-steady` replays alone.
pub fn sampled_nodes(nodes: usize) -> Vec<usize> {
    let mut picks: Vec<usize> = (0..4).map(|k| (2 * k + 1) * nodes / 8).collect();
    picks.dedup();
    picks
}

fn message(error: RuntimeError) -> String {
    error.to_string()
}

/// What the four workloads share — the shape, the end-to-end run's recipe
/// and a fleet over it (for `run_node` and the node seeds) — around what
/// they do not: their inputs, and how one repetition runs on them.
struct Assembled<E: Environment + 'static, I> {
    spec: Spec,
    recipe: ScenarioRecipe<E>,
    fleet: FleetRuntime<E>,
    inputs: I,
}

/// One workload's generated inputs, and one repetition over them.
trait Inputs<E: Environment + 'static>: Sized {
    /// The planes the workload arms, as the fields of a [`FleetConfig`].
    fn planes(&self, _planes: Planes) -> FleetConfig {
        FleetConfig::default()
    }

    /// Runs and checks one repetition; `config` is the fleet's shape with
    /// the repetition's threads and planes filled in.
    fn run(
        workload: &Assembled<E, Self>,
        config: FleetConfig,
        opts: &RunOpts<'_>,
    ) -> Result<Outcome, String>;

    /// The nodes whose learner exports are poisoned.
    fn victims(&self) -> &[usize] {
        &[]
    }
}

fn assemble<E, I>(
    spec: Spec,
    seed: u64,
    recipe: ScenarioRecipe<E>,
    inputs: I,
) -> Result<Box<dyn Workload>, String>
where
    E: Environment + Send + 'static,
    I: Inputs<E> + 'static,
{
    let config = FleetConfig {
        nodes: spec.nodes,
        threads: spec.threads,
        epoch: spec.epoch,
        seed: input_seed(seed, INPUT_FLEET),
        ..inputs.planes(Planes::ALL)
    };
    let fleet = FleetRuntime::new(recipe.clone(), config).map_err(message)?;
    Ok(Box::new(Assembled { spec, recipe, fleet, inputs }))
}

impl<E: Environment + Send + 'static, I: Inputs<E>> Workload for Assembled<E, I> {
    fn spec(&self) -> &Spec {
        &self.spec
    }

    fn run(&self, opts: &RunOpts<'_>) -> Result<Outcome, String> {
        let shape = self.fleet.config();
        let config = FleetConfig {
            nodes: shape.nodes,
            threads: opts.threads,
            epoch: shape.epoch,
            seed: shape.seed,
            ..self.inputs.planes(opts.planes)
        };
        I::run(self, config, opts)
    }

    fn run_node(&self, index: usize) -> Result<(FleetNodeReport, Duration), String> {
        let start = Instant::now();
        let report = self.fleet.run_node(index, self.spec.horizon).map_err(message)?;
        Ok((report, start.elapsed()))
    }

    fn stamp_all(&self) {
        for index in 0..self.spec.nodes {
            drop(std::hint::black_box(self.recipe.instantiate(&self.fleet.node_seed(index))));
        }
    }

    fn victims(&self) -> &[usize] {
        self.inputs.victims()
    }
}

/// One repetition: a fresh fleet, the `run*` call timed alone, and — with a
/// sink — the controller wrapped so the repetition leaves coarse spans.
fn drive<E: Environment + Send + 'static>(
    recipe: ScenarioRecipe<E>,
    config: FleetConfig,
    horizon: SimDuration,
    controller: &mut dyn FleetController,
    faults: Option<FaultPlan>,
    sink: Option<&Arc<TraceSink>>,
) -> Result<Outcome, String> {
    let fleet = FleetRuntime::new(recipe, config).map_err(message)?;
    let run = |controller: &mut dyn FleetController| match faults {
        Some(faults) => fleet.run_with_faults(controller, faults, horizon),
        None => fleet.run_with(controller, horizon),
    };
    let cpu_before = process_cpu_seconds();
    let (result, wall) = match sink {
        None => {
            let start = Instant::now();
            let result = run(controller);
            (result, start.elapsed())
        }
        Some(sink) => {
            let mut traced = TracedController::begin(controller, sink);
            let start = Instant::now();
            let result = run(&mut traced);
            let wall = start.elapsed();
            traced.finish();
            (result, wall)
        }
    };
    let cpu = process_cpu_seconds() - cpu_before;
    Ok(Outcome { report: result.map_err(message)?, wall, cpu })
}

/// Every agent on every node got somewhere: `reached` reads the counter
/// that says so, `what` names it in the failure.
fn every_agent(
    report: &FleetReport,
    what: &str,
    reached: impl Fn(&AgentStats) -> u64,
) -> Result<(), String> {
    for node in &report.nodes {
        if let Some(agent) = node.agents.iter().find(|agent| reached(&agent.stats) == 0) {
            return Err(format!("node {}: {} {what}", node.node, agent.name));
        }
    }
    Ok(())
}

/// `fleet-steady`: the flagship two-agent node under the do-nothing
/// controller — the `BENCH_fleet.json` cell nodes=256/threads=1.
struct Steady;

impl Inputs<MultiNode> for Steady {
    fn run(
        workload: &Assembled<MultiNode, Self>,
        config: FleetConfig,
        opts: &RunOpts<'_>,
    ) -> Result<Outcome, String> {
        let horizon = workload.spec.horizon;
        let outcome = match opts.sink {
            None => {
                drive(workload.recipe.clone(), config, horizon, &mut NullController, None, None)
            }
            Some(sink) => {
                let mirror = colocated_mirror(ColocationConfig::default(), Some(Arc::clone(sink)));
                drive(mirror, config, horizon, &mut NullController, None, Some(sink))
            }
        }?;
        every_agent(&outcome.report, "completed no learning epoch", |s| s.model.epochs_completed)?;
        // Fleet aggregation is exactly the fold of per-node runs. Only the
        // untraced run is held to it: the traced mirror may drift from a
        // later preset, which voids its shares, not the run.
        if opts.sink.is_none() {
            for index in sampled_nodes(workload.spec.nodes) {
                if workload.run_node(index)?.0 != outcome.report.nodes[index] {
                    return Err(format!("run_node({index}) differs from the fleet's node {index}"));
                }
            }
        }
        Ok(outcome)
    }
}

/// A controller that wants the per-node view and plans nothing: every
/// barrier extracts telemetry and diffs it, and nothing else happens.
#[derive(Default)]
struct Observer {
    plans: u64,
    nodes_observed: u64,
}

impl FleetController for Observer {
    fn plan(&mut self, view: &FleetView) -> PlacementPlan {
        self.plans += 1;
        self.nodes_observed +=
            view.nodes.iter().filter(|n| !n.agents.is_empty() && !n.telemetry.is_empty()).count()
                as u64;
        PlacementPlan::new()
    }
}

/// `three-agents`: all three paper agents per node under an observing
/// controller — substrate-dominated, and the one workload that *reads* the
/// latency windows at every barrier.
struct Observed;

impl Inputs<MultiNode> for Observed {
    fn run(
        workload: &Assembled<MultiNode, Self>,
        config: FleetConfig,
        opts: &RunOpts<'_>,
    ) -> Result<Outcome, String> {
        let spec = &workload.spec;
        let mut observer = Observer::default();
        let outcome = match opts.sink {
            None => drive(workload.recipe.clone(), config, spec.horizon, &mut observer, None, None),
            Some(sink) => {
                let mirror =
                    three_agents_mirror(ThreeAgentConfig::default(), Some(Arc::clone(sink)));
                drive(mirror, config, spec.horizon, &mut observer, None, Some(sink))
            }
        }?;
        let views = spec.epochs() * spec.nodes as u64;
        if observer.plans != spec.epochs() || observer.nodes_observed != views {
            return Err(format!(
                "observer saw {} plans and {} node views, expected {} and {views}",
                observer.plans,
                observer.nodes_observed,
                spec.epochs()
            ));
        }
        // SmartMemory's learning epoch is 38.4 virtual s; a toy horizon ends
        // before the first one, so only its samples are required.
        every_agent(&outcome.report, "committed no sample", |s| s.model.samples_committed)?;
        Ok(outcome)
    }
}

/// `many-agents`: 16 no-op agents per node on no substrate — the wheel,
/// dispatch and the loops with everything else removed.
struct NoOps;

impl Inputs<TracedEnv<NullEnvironment>> for NoOps {
    fn run(
        workload: &Assembled<TracedEnv<NullEnvironment>, Self>,
        config: FleetConfig,
        opts: &RunOpts<'_>,
    ) -> Result<Outcome, String> {
        let horizon = workload.spec.horizon;
        let recipe = match opts.sink {
            None => workload.recipe.clone(),
            Some(sink) => many_agents_recipe(horizon, Some(Arc::clone(sink))),
        };
        let outcome = drive(recipe, config, horizon, &mut NullController, None, opts.sink)?;
        // The slow cadences neither finish a learning epoch nor come due for
        // an action inside a toy horizon; every agent must at least have
        // sampled, and the fastest one acted.
        every_agent(&outcome.report, "never sampled", |s| s.model.samples_committed)?;
        match outcome.report.nodes.iter().find(|n| n.agents[0].stats.actions_taken() == 0) {
            Some(node) => Err(format!("node {}: {} never acted", node.node, node.agents[0].name)),
            None => Ok(outcome),
        }
    }
}

/// `fleet-control`: light nodes under every plane the barrier has — packer,
/// fault plan, learning exchange, trust scoring — on two workers. The
/// coordinator's serial work is most of the wall time.
struct Control {
    poison: PoisonPlan,
    arrivals: ArrivalTrace,
    faults: FaultPlan,
}

/// Barriers between exchange rounds: with 100 ms epochs, one round per
/// virtual second, the cadence at which the SmartOverclock learner moves.
const EXCHANGE_EVERY: u64 = 10;

impl Control {
    /// An eighth of the fleet poisoned, four arrivals per node, a sixteenth
    /// crashed, a sixteenth joined, a thirty-second drained.
    fn generate(seed: u64, spec: &Spec) -> Self {
        let nodes = spec.nodes;
        let poison = PoisonPlan::generate(input_seed(seed, INPUT_POISON), nodes, nodes / 8);
        let arrivals = ArrivalTrace::generate(
            input_seed(seed, INPUT_ARRIVALS),
            &ArrivalTraceConfig {
                workloads: 4 * nodes,
                span: spec.horizon,
                ..ArrivalTraceConfig::default()
            },
        );
        let faults = honest_fault_plan(
            input_seed(seed, INPUT_FAULTS),
            &poison,
            &FaultPlanConfig {
                crashes: nodes / 16,
                joins: nodes / 16,
                drains: nodes / 32,
                span: spec.horizon,
            },
            nodes,
        );
        Control { poison, arrivals, faults }
    }

    fn check(&self, spec: &Spec, report: &FleetReport) -> Result<(), String> {
        let rounds = spec.epochs() / EXCHANGE_EVERY;
        if report.learning.rounds != rounds {
            return Err(format!("{} learning rounds, expected {rounds}", report.learning.rounds));
        }
        if report.learning.rejected != 0 {
            return Err(format!("{} learned states rejected", report.learning.rejected));
        }
        for node in &report.nodes {
            let quarantined = node.trust.verdict == TrustVerdict::Quarantined;
            if self.poison.is_poisoned(node.node) != quarantined {
                return Err(format!(
                    "node {} (poisoned: {}) ended {:?}",
                    node.node,
                    self.poison.is_poisoned(node.node),
                    node.trust.verdict
                ));
            }
        }
        Ok(())
    }
}

impl Inputs<TracedEnv<Shared<CpuNode>>> for Control {
    fn planes(&self, planes: Planes) -> FleetConfig {
        FleetConfig {
            learning: planes.learning.then_some(LearningPlane {
                exchange_every: EXCHANGE_EVERY,
                rule: AggregationRule::CoordinateWiseMedian,
                blend: BlendPolicy::Replace,
            }),
            trust: planes.trust.then(TrustPolicy::default),
            ..FleetConfig::default()
        }
    }

    fn run(
        workload: &Assembled<TracedEnv<Shared<CpuNode>>, Self>,
        config: FleetConfig,
        opts: &RunOpts<'_>,
    ) -> Result<Outcome, String> {
        let (spec, control) = (&workload.spec, &workload.inputs);
        let recipe = match opts.sink {
            None => workload.recipe.clone(),
            Some(sink) => control_recipe(control.poison.clone(), Some(Arc::clone(sink))),
        };
        let outcome = if opts.planes.placement {
            let mut packer = GreedyPacker::new(control.arrivals.clone());
            let faults = Some(control.faults.clone());
            drive(recipe, config, spec.horizon, &mut packer, faults, opts.sink)?
        } else {
            drive(recipe, config, spec.horizon, &mut NullController, None, opts.sink)?
        };
        if opts.planes == Planes::ALL {
            control.check(spec, &outcome.report)?;
        }
        Ok(outcome)
    }

    fn victims(&self) -> &[usize] {
        self.poison.victims()
    }
}

/// A fault plan whose crash and drain targets are honest nodes only.
///
/// `FaultPlan::generate` samples targets from the whole fleet, and a crash
/// or drain landing on a node the trust plane already drained is an illegal
/// lifecycle transition that aborts the run (see the README's findings), so
/// the targets are drawn here, without replacement, from the non-victims.
fn honest_fault_plan(
    seed: u64,
    poison: &PoisonPlan,
    config: &FaultPlanConfig,
    nodes: usize,
) -> FaultPlan {
    let draw = |salt: u64| splitmix64(seed.wrapping_add(splitmix64(salt)));
    let mut honest: Vec<usize> = (0..nodes).filter(|&n| !poison.is_poisoned(n)).collect();
    let targeted = config.crashes + config.drains;
    assert!(targeted <= honest.len(), "more crash/drain targets than honest nodes");
    for i in 0..targeted {
        let j = i + (draw(i as u64) as usize) % (honest.len() - i);
        honest.swap(i, j);
    }
    let at = |salt: u64| {
        let frac = (draw(salt) >> 11) as f64 / (1u64 << 53) as f64;
        Timestamp::from_nanos(((config.span.as_nanos() as f64 * frac) as u64).max(1))
    };
    let events = (0..targeted + config.joins)
        .map(|i| FaultEvent {
            at: at(1_000_000 + i as u64),
            event: match i {
                i if i < config.crashes => LifecycleEvent::Crash { node: honest[i] },
                i if i < targeted => LifecycleEvent::Drain { node: honest[i] },
                _ => LifecycleEvent::Join,
            },
        })
        .collect();
    FaultPlan::from_events(events)
}
