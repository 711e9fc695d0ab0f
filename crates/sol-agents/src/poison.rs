//! Adversarial learners for exercising the fleet learning plane.
//!
//! The learning plane's robust aggregation rules
//! ([`AggregationRule`](sol_ml::exchange::AggregationRule)) exist because a
//! fleet cannot assume every node publishes honest learned state: a node with
//! corrupted telemetry, a buggy rollout, or a compromised agent ships whatever
//! its local learner converged to. This module provides the adversary half of
//! that story:
//!
//! * [`PoisonedLearner`] wraps any [`Model`] and corrupts **only** the state
//!   it exports to the fleet ([`Model::export_learned`]); the local control
//!   loop and the import path are untouched, so a poisoned node behaves
//!   normally except for what it tells its peers.
//! * [`PoisonAttack`] selects the corruption: [`PoisonAttack::SignFlip`]
//!   negates and amplifies every parameter (turning "learned to avoid X" into
//!   an emphatic "do X"), [`PoisonAttack::Noise`] adds seeded deterministic
//!   noise, [`PoisonAttack::Intermittent`] sign-flips only every k-th export
//!   (an on-off adversary probing detectors that forget), and
//!   [`PoisonAttack::Stealth`] applies a small multiplicative drift that
//!   stays inside the trimmed-aggregation bounds. [`PoisonAttack::Honest`]
//!   passes state through unchanged so clean and poisoned fleets stamp out
//!   structurally identical nodes.
//! * [`PoisonPlan`] picks distinct victim nodes as a pure function of a seed,
//!   mirroring [`FaultPlan::generate`](sol_core::runtime::lifecycle::FaultPlan::generate).
//! * [`poisoned_overclock_recipe`] packages the canonical demonstration: a
//!   fleet of SmartOverclock agents on disk-bound workloads (where honest
//!   learners learn *not* to overclock) with a seeded minority of sign-flip
//!   poisoners pushing the aggregate toward overclocking.
//!
//! Everything here is deterministic: the same seeds yield the same victims
//! and the same corrupted bytes, so fleet reports stay byte-identical across
//! worker-thread counts even under attack.

use std::cell::Cell;

use sol_core::error::DataError;
use sol_core::model::{Model, ModelAssessment};
use sol_core::prediction::Prediction;
use sol_core::runtime::builder::ScenarioRecipe;
use sol_core::runtime::fleet::{splitmix64, NodeSeed, GAMMA};
use sol_core::runtime::node::NodeRuntime;
use sol_core::time::Timestamp;
use sol_ml::exchange::{ExchangeError, LearnedState};
use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
use sol_node_sim::shared::Shared;
use sol_node_sim::workload::OverclockWorkloadKind;

use crate::overclock::{overclock_schedule, smart_overclock, OverclockConfig};

/// Maps a u64 to the unit interval `[0, 1)` with 53 bits of precision.
fn unit(x: u64) -> f64 {
    (x >> 11) as f64 / 9_007_199_254_740_992.0
}

/// How a poisoned node corrupts the learned state it publishes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PoisonAttack {
    /// No corruption: exports pass through unchanged. Using `Honest` for
    /// non-victims keeps clean and poisoned fleets structurally identical
    /// (every node hosts the same wrapper type), so comparisons isolate the
    /// attack itself.
    Honest,
    /// Negates and amplifies every parameter: `v ↦ -gain · v`. Against a
    /// value-shaped learner (Q-tables, linear weights) this inverts the
    /// learned preferences — the strongest "confidently wrong" adversary.
    SignFlip {
        /// Amplification factor (1.0 = pure negation).
        gain: f64,
    },
    /// Adds seeded deterministic noise: `v ↦ v + scale · u_i` where `u_i` is
    /// a per-index uniform draw from `[-1, 1)`. Models a corrupted-telemetry
    /// node rather than a deliberate adversary.
    Noise {
        /// Noise amplitude.
        scale: f64,
    },
    /// Pure negation (`v ↦ -v`), but only on every `every_k`-th export; the
    /// rest pass through honestly. An on-off adversary that probes detectors
    /// with short memories: each poisoned round is separated by enough honest
    /// ones that naive "last round looked fine" logic forgives it. The export
    /// counter lives on the wrapper, so the firing pattern is a pure function
    /// of how many exports the node has produced — deterministic across
    /// worker-thread counts.
    Intermittent {
        /// Firing period in exports: the k-th, 2k-th, … exports are
        /// corrupted. `0` is treated as `1` (every export fires).
        every_k: u64,
    },
    /// Scales every parameter by a small multiplicative `gain` close to 1.
    /// Unlike [`PoisonAttack::SignFlip`] this keeps each coordinate inside
    /// (or near) the honest spread, so trimmed aggregation does not discard
    /// it as an outlier — the attack relies on persistent low-magnitude drift
    /// rather than one large lie.
    Stealth {
        /// Multiplicative gain (1.0 = honest passthrough).
        gain: f64,
    },
}

impl PoisonAttack {
    /// Whether this attack actually corrupts exports.
    pub fn is_honest(&self) -> bool {
        matches!(self, PoisonAttack::Honest)
    }
}

/// A [`Model`] wrapper that corrupts the learned state the inner model
/// exports to the fleet, leaving every other behaviour — including imports —
/// untouched.
///
/// The wrapper is transparent to the control loop: predictions, safeguards,
/// and telemetry all come from the inner model. Only
/// [`Model::export_learned`] is intercepted, which is exactly the surface a
/// Byzantine node controls in a state-exchange protocol.
///
/// # Examples
///
/// ```
/// use sol_agents::poison::{PoisonAttack, PoisonedLearner};
/// use sol_agents::overclock::{smart_overclock, OverclockConfig};
/// use sol_core::model::Model;
/// use sol_node_sim::cpu_node::{CpuNode, CpuNodeConfig};
/// use sol_node_sim::shared::Shared;
/// use sol_node_sim::workload::OverclockWorkloadKind;
///
/// let node = Shared::new(CpuNode::new(
///     OverclockWorkloadKind::DiskSpeed.build(8),
///     CpuNodeConfig::default(),
/// ));
/// let (model, _actuator) = smart_overclock(&node, OverclockConfig::default());
/// let honest = model.export_learned().expect("Q-learner always exports");
///
/// let poisoned = PoisonedLearner::new(model, PoisonAttack::SignFlip { gain: 2.0 }, 7);
/// let corrupt = poisoned.export_learned().expect("corruption preserves shape");
/// assert_eq!(corrupt.shape(), honest.shape());
/// assert!(honest
///     .values()
///     .iter()
///     .zip(corrupt.values())
///     .all(|(h, c)| *c == -2.0 * *h));
/// ```
#[derive(Debug)]
pub struct PoisonedLearner<M> {
    inner: M,
    attack: PoisonAttack,
    salt: u64,
    /// Exports produced so far, driving [`PoisonAttack::Intermittent`]'s
    /// firing pattern. A `Cell` because [`Model::export_learned`] takes
    /// `&self`; exports happen at deterministic simulation points, so the
    /// count (and thus the pattern) is thread-schedule independent.
    exports: Cell<u64>,
}

impl<M> PoisonedLearner<M> {
    /// Wraps `inner`. `salt` seeds the [`PoisonAttack::Noise`] stream (it is
    /// unused by the other attacks but always kept, so switching attacks
    /// never changes a scenario's structure).
    pub fn new(inner: M, attack: PoisonAttack, salt: u64) -> Self {
        PoisonedLearner { inner, attack, salt, exports: Cell::new(0) }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The configured attack.
    pub fn attack(&self) -> PoisonAttack {
        self.attack
    }

    fn corrupt(&self, state: LearnedState) -> Option<LearnedState> {
        let values: Vec<f64> = match self.attack {
            PoisonAttack::Honest => return Some(state),
            PoisonAttack::SignFlip { gain } => state.values().iter().map(|v| -gain * v).collect(),
            PoisonAttack::Noise { scale } => {
                let root = splitmix64(self.salt);
                state
                    .values()
                    .iter()
                    .enumerate()
                    .map(|(i, v)| {
                        let draw = splitmix64(root.wrapping_add((i as u64).wrapping_mul(GAMMA)));
                        v + scale * (2.0 * unit(draw) - 1.0)
                    })
                    .collect()
            }
            PoisonAttack::Intermittent { every_k } => {
                let produced = self.exports.get() + 1;
                self.exports.set(produced);
                if !produced.is_multiple_of(every_k.max(1)) {
                    return Some(state);
                }
                state.values().iter().map(|v| -v).collect()
            }
            PoisonAttack::Stealth { gain } => state.values().iter().map(|v| gain * v).collect(),
        };
        // An attack that overflows to a non-finite value would be rejected by
        // the aggregation layer anyway; dropping the export keeps the wrapper
        // panic-free for any inner state.
        LearnedState::new(state.kind(), state.shape().to_vec(), values).ok()
    }
}

impl<M: Model> Model for PoisonedLearner<M> {
    type Data = M::Data;
    type Pred = M::Pred;

    fn collect_data(&mut self, now: Timestamp) -> Result<Self::Data, DataError> {
        self.inner.collect_data(now)
    }

    fn validate_data(&self, data: &Self::Data) -> bool {
        self.inner.validate_data(data)
    }

    fn commit_data(&mut self, now: Timestamp, data: Self::Data) {
        self.inner.commit_data(now, data)
    }

    fn update_model(&mut self, now: Timestamp) {
        self.inner.update_model(now)
    }

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<Self::Pred>> {
        self.inner.predict(now)
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<Self::Pred> {
        self.inner.default_predict(now)
    }

    fn assess_model(&mut self, now: Timestamp) -> ModelAssessment {
        self.inner.assess_model(now)
    }

    fn request_default(&self) -> bool {
        self.inner.request_default()
    }

    /// Exports the inner model's state through the configured corruption.
    fn export_learned(&self) -> Option<LearnedState> {
        self.inner.export_learned().and_then(|state| self.corrupt(state))
    }

    /// Imports are delegated unchanged: a poisoning node lies to the fleet
    /// but still applies whatever aggregate comes back (which is what makes
    /// a successful attack visible in the attacker's own peers).
    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        self.inner.import_learned(state)
    }
}

/// A seeded, deterministic choice of distinct poisoned nodes — the adversary
/// analogue of [`FaultPlan::generate`](sol_core::runtime::lifecycle::FaultPlan::generate).
///
/// The plan is a pure function of `(seed, nodes, victims)`, so a scenario's
/// victim set is reproducible and independent of worker-thread scheduling.
///
/// # Examples
///
/// ```
/// use sol_agents::poison::PoisonPlan;
///
/// let plan = PoisonPlan::generate(42, 8, 3);
/// assert_eq!(plan.victims().len(), 3);
/// assert_eq!(plan, PoisonPlan::generate(42, 8, 3));
/// assert_eq!((0..8).filter(|&n| plan.is_poisoned(n)).count(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoisonPlan {
    victims: Vec<usize>,
}

impl PoisonPlan {
    /// A plan with no victims: every node is honest.
    pub fn empty() -> PoisonPlan {
        PoisonPlan { victims: Vec::new() }
    }

    /// Samples `victims` distinct nodes from `0..nodes` via a partial
    /// Fisher–Yates shuffle.
    ///
    /// # Panics
    ///
    /// Panics if `victims > nodes`.
    pub fn generate(seed: u64, nodes: usize, victims: usize) -> PoisonPlan {
        assert!(
            victims <= nodes,
            "poison plan wants {victims} victims but the fleet has {nodes} nodes"
        );
        // Domain separation from NodeSeed::derive, the arrival trace, and the
        // fault plan.
        const POISON_DOMAIN: u64 = 0x4241_445f_4752_4144; // "BAD_GRAD"
        let root = splitmix64(seed ^ POISON_DOMAIN);
        let mut pool: Vec<usize> = (0..nodes).collect();
        for i in 0..victims {
            let draw = splitmix64(root.wrapping_add((i as u64).wrapping_mul(GAMMA)));
            let j = i + (draw as usize) % (nodes - i);
            pool.swap(i, j);
        }
        let mut chosen: Vec<usize> = pool[..victims].to_vec();
        chosen.sort_unstable();
        PoisonPlan { victims: chosen }
    }

    /// The poisoned node indices, sorted ascending.
    pub fn victims(&self) -> &[usize] {
        &self.victims
    }

    /// Whether `node` is a victim under this plan.
    pub fn is_poisoned(&self, node: usize) -> bool {
        self.victims.binary_search(&node).is_ok()
    }

    /// `attack` for victims, [`PoisonAttack::Honest`] for everyone else.
    pub fn attack_for(&self, node: usize, attack: PoisonAttack) -> PoisonAttack {
        if self.is_poisoned(node) {
            attack
        } else {
            PoisonAttack::Honest
        }
    }
}

// Seed streams for the poisoned-overclock recipe. Distinct from the
// colocation recipes' streams by convention (those use 0..=3).
const STREAM_LEARNER: u64 = 0;
const STREAM_CPU_NODE: u64 = 1;
const STREAM_POISON_SALT: u64 = 16;

/// Workload hosted on every node of [`poisoned_overclock_recipe`]:
/// [`OverclockWorkloadKind::DiskSpeed`] is the scenario where honest learners
/// converge on *not* overclocking — so a poisoner pushing the aggregate
/// toward overclocking is maximally harmful.
const WORKLOAD: OverclockWorkloadKind = OverclockWorkloadKind::DiskSpeed;
/// Cores per node.
const CORES: usize = 8;
/// Seed of the victim-selection plan (independent of the fleet seed so the
/// same fleet can be re-run under different attacks).
const POISON_SEED: u64 = 0xB105;

/// Configuration for [`poisoned_overclock_recipe`].
#[derive(Debug, Clone)]
pub struct PoisonedOverclockConfig {
    /// Fleet size the victim plan is drawn over. Must match the
    /// `FleetConfig::nodes` the recipe is run with for the victim count to be
    /// exact (joined nodes beyond this range are always honest).
    pub nodes: usize,
    /// Number of poisoned nodes.
    pub victims: usize,
    /// Corruption applied on victim nodes.
    pub attack: PoisonAttack,
}

impl Default for PoisonedOverclockConfig {
    fn default() -> Self {
        PoisonedOverclockConfig {
            nodes: 8,
            victims: 0,
            attack: PoisonAttack::SignFlip { gain: 3.0 },
        }
    }
}

/// A fleet-ready poisoned-overclock scenario: the [`ScenarioRecipe`] plus the
/// victim plan it was stamped from (so dashboards and tests can tell victim
/// nodes from honest ones).
pub struct PoisonedOverclockRecipe {
    /// The replayable node assembly; pass to
    /// [`FleetRuntime::new`](sol_core::runtime::fleet::FleetRuntime::new).
    pub recipe: ScenarioRecipe<Shared<CpuNode>>,
    /// Which nodes corrupt their exports.
    pub plan: PoisonPlan,
}

/// A fleet recipe of single-agent SmartOverclock nodes on a disk-bound
/// workload, with a seeded minority of poisoners corrupting what they export
/// to the learning plane.
///
/// Honest nodes on [`OverclockWorkloadKind::DiskSpeed`] learn that
/// overclocking burns power for no speedup; a
/// [`PoisonAttack::SignFlip`] victim exports the *inverted* Q-table, telling
/// the fleet that overclocking is great. Under
/// [`AggregationRule::Mean`](sol_ml::exchange::AggregationRule::Mean) the
/// poison survives averaging and honest nodes start overclocking (visible as
/// model-safeguard interceptions and higher power draw); under
/// [`AggregationRule::CoordinateWiseMedian`](sol_ml::exchange::AggregationRule::CoordinateWiseMedian)
/// or trimmed mean the minority is voted down. The recipe reports
/// `perf_score` and `avg_power_watts` as fleet metrics.
pub fn poisoned_overclock_recipe(base: PoisonedOverclockConfig) -> PoisonedOverclockRecipe {
    let plan = PoisonPlan::generate(POISON_SEED, base.nodes, base.victims);
    let build_plan = plan.clone();
    let recipe = ScenarioRecipe::new(move |seed: &NodeSeed| {
        let node = Shared::new(CpuNode::new(
            WORKLOAD.build(CORES),
            CpuNodeConfig { cores: CORES, ..CpuNodeConfig::default() }
                .with_seed(seed.stream(STREAM_CPU_NODE)),
        ));
        let config =
            OverclockConfig { seed: seed.stream(STREAM_LEARNER), ..OverclockConfig::default() };
        let (model, actuator) = smart_overclock(&node, config);
        let attack = build_plan.attack_for(seed.index() as usize, base.attack);
        let model = PoisonedLearner::new(model, attack, seed.stream(STREAM_POISON_SALT));
        let mut builder = NodeRuntime::builder(node.clone());
        builder.agent("smart-overclock", model, actuator, overclock_schedule());
        builder.build()
    })
    .with_metrics(|report| {
        let node = &report.environment;
        let (perf, power) = node.with(|n| (n.performance().score, n.average_power_watts()));
        vec![("perf_score".into(), perf), ("avg_power_watts".into(), power)]
    });
    PoisonedOverclockRecipe { recipe, plan }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_core::model::Model;
    use sol_core::time::SimDuration;
    use sol_ml::exchange::{AggregationRule, StateKind};

    fn model() -> crate::overclock::OverclockModel {
        let node = Shared::new(CpuNode::new(
            OverclockWorkloadKind::DiskSpeed.build(8),
            CpuNodeConfig::default(),
        ));
        smart_overclock(&node, OverclockConfig::default()).0
    }

    /// A model whose only interesting behaviour is exporting a fixed
    /// [`LearnedState`] — lets attack tests pick distinctive values instead
    /// of relying on whatever a freshly seeded Q-learner happens to hold.
    struct FixedExport(LearnedState);

    impl Model for FixedExport {
        type Data = f64;
        type Pred = f64;

        fn collect_data(&mut self, _now: Timestamp) -> Result<f64, DataError> {
            Ok(0.0)
        }
        fn validate_data(&self, _sample: &f64) -> bool {
            true
        }
        fn commit_data(&mut self, _now: Timestamp, _sample: f64) {}
        fn update_model(&mut self, _now: Timestamp) {}
        fn predict(&mut self, _now: Timestamp) -> Option<Prediction<f64>> {
            None
        }
        fn default_predict(&self, now: Timestamp) -> Prediction<f64> {
            Prediction::fallback(0.0, now, now + SimDuration::from_secs(1))
        }
        fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
            ModelAssessment::Healthy
        }
        fn export_learned(&self) -> Option<LearnedState> {
            Some(self.0.clone())
        }
    }

    fn fixed(values: Vec<f64>) -> FixedExport {
        let shape = vec![values.len()];
        FixedExport(LearnedState::new(StateKind::QTable, shape, values).unwrap())
    }

    #[test]
    fn honest_wrapper_is_transparent() {
        let inner = model();
        let honest = inner.export_learned().unwrap();
        let wrapped = PoisonedLearner::new(model(), PoisonAttack::Honest, 9);
        assert_eq!(wrapped.export_learned().unwrap(), honest);
        assert!(wrapped.attack().is_honest());
    }

    #[test]
    fn sign_flip_negates_and_amplifies() {
        let honest = model().export_learned().unwrap();
        let wrapped = PoisonedLearner::new(model(), PoisonAttack::SignFlip { gain: 3.0 }, 9);
        let corrupt = wrapped.export_learned().unwrap();
        assert_eq!(corrupt.kind(), honest.kind());
        assert_eq!(corrupt.shape(), honest.shape());
        assert!(honest.values().iter().zip(corrupt.values()).all(|(h, c)| *c == -3.0 * *h));
    }

    #[test]
    fn noise_is_deterministic_in_the_salt() {
        let a = PoisonedLearner::new(model(), PoisonAttack::Noise { scale: 0.5 }, 1234);
        let b = PoisonedLearner::new(model(), PoisonAttack::Noise { scale: 0.5 }, 1234);
        let c = PoisonedLearner::new(model(), PoisonAttack::Noise { scale: 0.5 }, 4321);
        assert_eq!(a.export_learned(), b.export_learned());
        assert_ne!(a.export_learned(), c.export_learned());
    }

    #[test]
    fn imports_pass_through_uncorrupted() {
        let honest = model().export_learned().unwrap();
        let mut wrapped = PoisonedLearner::new(model(), PoisonAttack::SignFlip { gain: 3.0 }, 9);
        wrapped.import_learned(&honest).unwrap();
        // The import landed verbatim: exporting again corrupts the *honest*
        // table, not a doubly-corrupted one.
        let roundtrip = wrapped.export_learned().unwrap();
        assert!(honest.values().iter().zip(roundtrip.values()).all(|(h, c)| *c == -3.0 * *h));
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let plan = PoisonPlan::generate(7, 64, 16);
        assert_eq!(plan, PoisonPlan::generate(7, 64, 16));
        assert_ne!(plan, PoisonPlan::generate(8, 64, 16));
        assert_eq!(plan.victims().len(), 16);
        let mut sorted = plan.victims().to_vec();
        sorted.dedup();
        assert_eq!(sorted.len(), 16, "victims are distinct");
        assert!(plan.victims().windows(2).all(|w| w[0] < w[1]), "victims are sorted");
        assert!(PoisonPlan::empty().victims().is_empty());
        assert_eq!(PoisonPlan::generate(7, 8, 8).victims().len(), 8);
    }

    #[test]
    fn attack_for_spares_non_victims() {
        let plan = PoisonPlan::generate(3, 8, 2);
        let attack = PoisonAttack::SignFlip { gain: 2.0 };
        for node in 0..8 {
            let assigned = plan.attack_for(node, attack);
            assert_eq!(assigned.is_honest(), !plan.is_poisoned(node));
        }
        // Joiners past the planned population are always honest.
        assert!(plan.attack_for(100, attack).is_honest());
    }

    #[test]
    fn intermittent_fires_on_every_kth_export() {
        let attack = PoisonAttack::Intermittent { every_k: 3 };
        assert!(!attack.is_honest());
        let honest = vec![1.0, -2.0, 0.5];
        let wrapped = PoisonedLearner::new(fixed(honest.clone()), attack, 9);
        for round in 1..=9u64 {
            let exported = wrapped.export_learned().unwrap();
            let expect: Vec<f64> =
                if round % 3 == 0 { honest.iter().map(|v| -v).collect() } else { honest.clone() };
            assert_eq!(exported.values(), &expect[..], "export #{round}");
        }
        // A zero period degrades to "every export fires" instead of a
        // division by zero.
        let always = PoisonedLearner::new(
            fixed(honest.clone()),
            PoisonAttack::Intermittent { every_k: 0 },
            9,
        );
        let exported = always.export_learned().unwrap();
        assert!(honest.iter().zip(exported.values()).all(|(h, c)| *c == -h));
    }

    #[test]
    fn stealth_scales_every_parameter() {
        let attack = PoisonAttack::Stealth { gain: 1.05 };
        assert!(!attack.is_honest());
        let honest = vec![1.0, -2.0, 0.5];
        let wrapped = PoisonedLearner::new(fixed(honest.clone()), attack, 9);
        let exported = wrapped.export_learned().unwrap();
        assert_eq!(exported.kind(), StateKind::QTable);
        assert!(honest.iter().zip(exported.values()).all(|(h, c)| *c == 1.05 * h));
        // The attack is stationary: every export carries the same drift.
        assert_eq!(wrapped.export_learned(), wrapped.export_learned());
    }

    /// Regression: with a strict honest majority, coordinate-wise median
    /// aggregation contains both new attack modes — the aggregate stays
    /// inside the honest spread on every coordinate, in both an intermittent
    /// poisoner's firing round and under persistent stealth drift.
    #[test]
    fn median_contains_intermittent_and_stealth_minorities() {
        let honest: Vec<Vec<f64>> =
            (0..5).map(|i| vec![1.0 + 0.01 * i as f64, -2.0 - 0.01 * i as f64]).collect();
        // `every_k: 1` pins the intermittent attacker to its worst case
        // (firing this round); stealth drifts persistently either way.
        let attackers =
            [PoisonAttack::Intermittent { every_k: 1 }, PoisonAttack::Stealth { gain: 1.5 }];
        let mut exports: Vec<LearnedState> =
            honest.iter().map(|v| fixed(v.clone()).export_learned().unwrap()).collect();
        for (i, attack) in attackers.into_iter().enumerate() {
            let wrapped = PoisonedLearner::new(fixed(honest[i].clone()), attack, 9);
            exports.push(wrapped.export_learned().unwrap());
        }
        for rule in [AggregationRule::CoordinateWiseMedian, AggregationRule::TrimmedMean { k: 2 }] {
            let aggregate = rule.aggregate(&exports).unwrap();
            for (coord, agg) in aggregate.values().iter().enumerate() {
                let column: Vec<f64> = honest.iter().map(|v| v[coord]).collect();
                let lo = column.iter().copied().fold(f64::INFINITY, f64::min);
                let hi = column.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                assert!(
                    (lo..=hi).contains(agg),
                    "{rule:?} coordinate {coord}: aggregate {agg} escaped honest [{lo}, {hi}]"
                );
            }
        }
    }
}
