//! The fleet report and its fold: what one node's run boils down to
//! ([`summarize`]), and how the nodes' summaries fold into the fleet-level
//! dashboards ([`aggregate`]) once the last barrier is through.

use crate::error::RuntimeError;
use crate::runtime::builder::ScenarioRecipe;
use crate::runtime::fleet::NodeSeed;
use crate::runtime::learning::LearningStats;
use crate::runtime::lifecycle::{NodeRecord, NodeState};
use crate::runtime::node::{AgentId, NodeRuntime};
use crate::runtime::placement::WorkloadUnit;
use crate::runtime::trust::{NodeTrustRecord, TrustStats};
use crate::runtime::Environment;
use crate::stats::AgentStats;
use crate::time::Timestamp;

/// Final counters of one agent on one fleet node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAgentReport {
    /// The name the agent was registered under (identical across nodes).
    pub name: String,
    /// The agent's final runtime counters.
    pub stats: AgentStats,
}

/// Outcome of one node of a fleet run: per-agent counters plus the named
/// environment metrics the recipe extracted before the node was discarded.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetNodeReport {
    /// The node's index in the fleet.
    pub node: usize,
    /// The derived seed the node was stamped out with.
    pub seed: u64,
    /// Per-agent outcomes, in registration order (the same order on every
    /// node, so position == role).
    pub agents: Vec<FleetAgentReport>,
    /// Environment metrics extracted by the recipe's
    /// [`with_metrics`](ScenarioRecipe::with_metrics) closure.
    pub metrics: Vec<(String, f64)>,
    /// Workload units resident on the node when it stopped (empty for
    /// environments without placeable slots).
    pub workloads: Vec<WorkloadUnit>,
    /// The node's final lifecycle record: its state when the run ended (or
    /// when it retired), the record version, and the join/update epochs.
    /// [`NodeRecord::initial`] for a node that saw no lifecycle events.
    pub lifecycle: NodeRecord,
    /// The node's final trust record: accumulated suspicion, divergence
    /// counters, and the verdict the trust plane ended on.
    /// [`NodeTrustRecord::initial`] for a run without a
    /// [`TrustPolicy`](super::FleetConfig::trust).
    pub trust: NodeTrustRecord,
    /// The virtual time at which the node stopped. For a crashed or drained
    /// node this is the boundary at which it retired, measured on the node's
    /// own clock (which starts at zero when the node joins).
    pub ended_at: Timestamp,
    /// Bytes of simulation state the node held when it stopped — the
    /// runtime's agent wake vector and intervention queue plus whatever the
    /// environment reports through [`Environment::mem_bytes`] (nothing, for
    /// environments that do not implement the accounting hook).
    pub mem_bytes: usize,
}

/// Nearest-rank percentiles over one per-node statistic of an agent role.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Smallest per-node value.
    pub min: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 90th percentile (nearest-rank).
    pub p90: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
    /// Largest per-node value.
    pub max: f64,
}

impl Percentiles {
    /// The all-zero distribution: what [`of`](Self::of) returns for an empty
    /// slice.
    pub const ZEROED: Percentiles =
        Percentiles { min: 0.0, p50: 0.0, p90: 0.0, p99: 0.0, max: 0.0 };

    /// Computes nearest-rank percentiles; `values` need not be sorted.
    ///
    /// An empty slice yields [`Percentiles::ZEROED`] — there is no data to
    /// rank, and a zeroed row keeps aggregate reports total rather than
    /// panicking deep inside a fleet fold.
    pub fn of(values: &[f64]) -> Percentiles {
        if values.is_empty() {
            return Percentiles::ZEROED;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let rank = |p: f64| {
            let n = sorted.len();
            let r = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
            sorted[r.min(n) - 1]
        };
        Percentiles {
            min: sorted[0],
            p50: rank(50.0),
            p90: rank(90.0),
            p99: rank(99.0),
            max: sorted[sorted.len() - 1],
        }
    }
}

/// Fleet-wide aggregate for one agent role (one registration position of the
/// recipe), the unit of the safety dashboard.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleAggregate {
    /// The name the role's agents were registered under.
    pub name: String,
    /// Number of nodes contributing to this aggregate.
    pub nodes: usize,
    /// Field-wise sum of every node's [`AgentStats`] for this role.
    pub totals: AgentStats,
    /// Fraction of nodes on which a safeguard activated at least once
    /// (an Actuator safeguard trip or a Model prediction interception).
    pub safeguard_activation_rate: f64,
    /// Per-node distribution of completed learning epochs.
    pub epochs_completed: Percentiles,
    /// Per-node distribution of actions taken.
    pub actions_taken: Percentiles,
    /// Per-node distribution of Actuator safeguard trips.
    pub safeguard_triggers: Percentiles,
}

/// Fleet-wide summary of one named environment metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSummary {
    /// Metric name, as reported by the recipe's metrics closure.
    pub name: String,
    /// Number of nodes that reported the metric.
    pub nodes: usize,
    /// Sum across nodes (e.g. total SLO violations in the fleet).
    pub total: f64,
    /// Mean across nodes.
    pub mean: f64,
    /// Smallest per-node value.
    pub min: f64,
    /// Largest per-node value.
    pub max: f64,
}

/// Fleet-wide placement outcomes of one run: what the
/// [`FleetController`](crate::runtime::placement::FleetController) asked
/// for and what actually happened.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementStats {
    /// Everything the run was asked to do, across all epoch boundaries: the
    /// controller's placement commands and lifecycle events, plus every
    /// [`FaultPlan`](crate::runtime::lifecycle::FaultPlan) event that came
    /// due — skipped ones included. The trust plane's quarantine drains are
    /// not counted.
    pub commands: u64,
    /// Workload units successfully admitted.
    pub admitted: u64,
    /// Workload units successfully departed (drained).
    pub departed: u64,
    /// Workload units successfully migrated between nodes.
    pub migrated: u64,
    /// Commands that failed against the hosting environment: rejected
    /// admissions (capacity, unsupported environment, duplicate id, or a
    /// non-`Active` target node), detaches of unknown units, migrations
    /// whose either half failed — plus, at the end of the run, one count for
    /// every crash-displaced unit that was never re-placed.
    pub failed_placements: u64,
    /// Workload units displaced by node crashes.
    pub displaced: u64,
    /// Displaced units successfully re-placed onto a live node (a subset of
    /// [`admitted`](Self::admitted)).
    pub replaced: u64,
    /// Distribution over nodes of each node's mean occupancy (used fraction
    /// of its placeable capacity, averaged over the epoch barriers).
    /// [`Percentiles::ZEROED`] when no environment has placeable capacity.
    pub occupancy: Percentiles,
    /// Mean over epoch barriers of (fleet-wide resident cores) /
    /// (fleet-wide placeable capacity); 0 when nothing is placeable.
    pub packing_efficiency: f64,
}

impl Default for PlacementStats {
    fn default() -> Self {
        PlacementStats {
            commands: 0,
            admitted: 0,
            departed: 0,
            migrated: 0,
            failed_placements: 0,
            displaced: 0,
            replaced: 0,
            occupancy: Percentiles::ZEROED,
            packing_efficiency: 0.0,
        }
    }
}

/// Results of a completed fleet run: per-node outcomes in index order plus
/// the fleet-level dashboards.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Per-node outcomes, sorted by node index.
    pub nodes: Vec<FleetNodeReport>,
    /// Per-role aggregates, in agent registration order. Index with the
    /// [`AgentHandle`](crate::runtime::builder::AgentHandle)s the recipe's
    /// builder returned, via [`role`](Self::role). Crashed nodes are
    /// excluded from the fold (their partial counters would skew the safety
    /// dashboard); their stats remain visible in [`nodes`](Self::nodes)
    /// under the node's final lifecycle state.
    pub roles: Vec<RoleAggregate>,
    /// Summaries of the recipe-extracted environment metrics, in first-seen
    /// order. Crashed nodes are excluded, as for [`roles`](Self::roles).
    pub metrics: Vec<MetricSummary>,
    /// Placement outcomes (all-zero for a
    /// [`NullController`](crate::runtime::placement::NullController) run over
    /// capacity-free environments).
    pub placement: PlacementStats,
    /// Learning-plane outcomes (all-zero when
    /// [`FleetConfig::learning`](super::FleetConfig::learning) is `None`).
    pub learning: LearningStats,
    /// Trust-plane outcomes (all-zero when
    /// [`FleetConfig::trust`](super::FleetConfig::trust) is `None`).
    /// Per-node scores and verdicts live on each [`FleetNodeReport::trust`].
    pub trust: TrustStats,
    /// The virtual time at which the fleet stopped (identical on every node).
    pub ended_at: Timestamp,
    /// Number of epoch-boundary synchronizations the run performed (the
    /// controller is invoked once per boundary).
    pub epochs: u64,
    /// The largest per-node [`FleetNodeReport::mem_bytes`] in the fleet — the
    /// per-node budget a host must provision to run this configuration. A
    /// max (not a mean) because every node must fit; deterministic because
    /// each node's footprint is a pure function of its trajectory.
    pub mem_bytes_per_node: usize,
}

impl FleetReport {
    /// The aggregate for one agent role, keyed by the
    /// [`AgentHandle`](crate::runtime::builder::AgentHandle) (or [`AgentId`])
    /// the recipe's builder returned.
    ///
    /// # Panics
    ///
    /// Panics if the handle's position is out of range for the recipe's agent
    /// population.
    pub fn role(&self, handle: impl Into<AgentId>) -> &RoleAggregate {
        let id = handle.into();
        self.roles
            .get(id.index())
            .unwrap_or_else(|| panic!("{id} not in report (foreign id or already taken)"))
    }

    /// The summary of one recipe-extracted environment metric, by name.
    pub fn metric(&self, name: &str) -> Option<&MetricSummary> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Finishes one node and boils its report down to the `Send`-able summary
/// the coordinator aggregates (stats + recipe-extracted metrics).
pub fn summarize<E: Environment + 'static>(
    recipe: &ScenarioRecipe<E>,
    seed: NodeSeed,
    runtime: NodeRuntime<E>,
) -> FleetNodeReport {
    let workloads = runtime.placement().resident;
    let mem_bytes = runtime.mem_bytes();
    let report = runtime.finish();
    let metrics = recipe.extract_metrics(&report);
    let agents = report
        .agents
        .iter()
        .map(|a| FleetAgentReport { name: a.name.clone(), stats: a.stats.clone() })
        .collect();
    FleetNodeReport {
        node: seed.index() as usize,
        seed: seed.seed(),
        agents,
        metrics,
        workloads,
        // The initial record; the fleet coordinator stamps the registry's
        // final record over it, which is byte-identical for a node that saw
        // no lifecycle events — keeping [`FleetRuntime::run_node`] exact.
        lifecycle: NodeRecord::initial(seed.index() as usize),
        // Same contract as `lifecycle`: the coordinator stamps the trust
        // plane's final record over this when one is configured.
        trust: NodeTrustRecord::initial(seed.index() as usize),
        ended_at: report.ended_at,
        mem_bytes,
    }
}

/// A node's agent names and metric names, in order: what every node of one
/// fleet must agree on.
fn names(node: &FleetNodeReport) -> [Vec<&String>; 2] {
    [
        node.agents.iter().map(|agent| &agent.name).collect(),
        node.metrics.iter().map(|(name, _)| name).collect(),
    ]
}

/// Folds per-node reports (already in index order) into the fleet dashboard.
///
/// Crashed nodes are validated like every other node but excluded from the
/// role aggregates and metric summaries — a crash truncates the node's
/// trajectory at an arbitrary boundary, so folding its stats in would skew
/// the surviving fleet's dashboard. Their full reports remain in
/// [`FleetReport::nodes`]. `ended_at` is the fleet clock's final boundary,
/// passed in explicitly because node 0 may itself have retired early.
pub fn aggregate(
    nodes: Vec<FleetNodeReport>,
    epochs: u64,
    placement: PlacementStats,
    learning: LearningStats,
    trust: TrustStats,
    ended_at: Timestamp,
) -> Result<FleetReport, RuntimeError> {
    let first = &nodes[0];
    let expected = names(first);
    for node in &nodes[1..] {
        // Metric summaries are fleet-wide means/totals, so a node silently
        // dropping a metric would skew them; fail as loudly as a population
        // mismatch does.
        let kinds = ["agent populations", "metric sets"].into_iter();
        for ((kind, want), got) in kinds.zip(&expected).zip(names(node)) {
            if *want != got {
                return Err(RuntimeError::InvalidConfig(format!(
                    "recipe produced differing {kind}: node 0 has {want:?}, node {} has {got:?}",
                    node.node
                )));
            }
        }
    }

    let contributors: Vec<&FleetNodeReport> =
        nodes.iter().filter(|n| n.lifecycle.state != NodeState::Crashed).collect();
    // `max(1)` guards the all-crashed fleet: rates read 0 instead of NaN.
    let denominator = contributors.len().max(1) as f64;

    let roles = (0..first.agents.len())
        .map(|role| {
            let mut totals = AgentStats::default();
            let mut activated = 0usize;
            let mut epochs_completed = Vec::with_capacity(contributors.len());
            let mut actions = Vec::with_capacity(contributors.len());
            let mut triggers = Vec::with_capacity(contributors.len());
            for node in &contributors {
                let stats = &node.agents[role].stats;
                totals.accumulate(stats);
                if stats.actuator.safeguard_triggers > 0 || stats.model.intercepted_predictions > 0
                {
                    activated += 1;
                }
                epochs_completed.push(stats.model.epochs_completed as f64);
                actions.push(stats.actions_taken() as f64);
                triggers.push(stats.actuator.safeguard_triggers as f64);
            }
            RoleAggregate {
                name: first.agents[role].name.clone(),
                nodes: contributors.len(),
                totals,
                safeguard_activation_rate: activated as f64 / denominator,
                epochs_completed: Percentiles::of(&epochs_completed),
                actions_taken: Percentiles::of(&actions),
                safeguard_triggers: Percentiles::of(&triggers),
            }
        })
        .collect();

    // Metric summaries in the recipe's emission order; every node reports
    // the same names at the same positions (validated above), and values are
    // folded in node order so the layout is scheduling-independent.
    let metrics = first
        .metrics
        .iter()
        .enumerate()
        .map(|(i, (name, _))| {
            let values: Vec<f64> = contributors.iter().map(|n| n.metrics[i].1).collect();
            let total: f64 = values.iter().sum();
            let (min, max) = if values.is_empty() {
                (0.0, 0.0)
            } else {
                (
                    values.iter().copied().fold(f64::INFINITY, f64::min),
                    values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                )
            };
            MetricSummary {
                name: name.clone(),
                nodes: values.len(),
                total,
                mean: total / denominator,
                min,
                max,
            }
        })
        .collect();

    let mem_bytes_per_node = nodes.iter().map(|n| n.mem_bytes).max().unwrap_or(0);
    Ok(FleetReport {
        nodes,
        roles,
        metrics,
        placement,
        learning,
        trust,
        ended_at,
        epochs,
        mem_bytes_per_node,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let p = Percentiles::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(p.min, 1.0);
        assert_eq!(p.p50, 2.0);
        assert_eq!(p.p90, 4.0);
        assert_eq!(p.max, 4.0);
        let single = Percentiles::of(&[5.0]);
        assert_eq!(single.p50, 5.0);
        assert_eq!(single.p99, 5.0);
    }

    #[test]
    fn percentiles_of_empty_slice_are_zeroed() {
        // The documented empty-slice contract: `of` yields the all-zero
        // distribution, so fleet folds over zero-capacity placements never
        // panic.
        assert_eq!(Percentiles::of(&[]), Percentiles::ZEROED);
    }
}
