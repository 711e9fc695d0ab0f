//! Cross-crate properties of the fleet learning plane.
//!
//! * The robust aggregation rules must match straightforward scalar
//!   references, coordinate by coordinate, for any peer count and shape.
//! * Export → import must round-trip byte-identically for every exchangeable
//!   learner: a warm-started node computes exactly what the exporter knew.
//! * A poisoned fleet under churn must stay a pure function of its seeds:
//!   byte-identical `FleetReport`s across 1, 2, and 8 worker threads.
//! * The headline claims are pinned: sign-flip poisoning degrades a
//!   mean-aggregating fleet but not a median/trimmed one, and a warm-started
//!   joiner trips its model safeguard strictly less than a cold one.

use proptest::prelude::*;

use sol_agents::poison::{poisoned_overclock_recipe, PoisonAttack, PoisonedOverclockConfig};
use sol_core::prelude::*;
use sol_ml::exchange::{AggregationRule, BlendPolicy, LearnedExchange, LearnedState, StateKind};
use sol_ml::linear::OnlineLinearRegression;
use sol_ml::qlearning::{QConfig, QLearner};
use sol_ml::thompson::ThompsonSampler;

// ---------------------------------------------------------------------------
// Aggregation rules vs scalar references
// ---------------------------------------------------------------------------

fn mean_ref(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn median_ref(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn trimmed_ref(xs: &[f64], k: usize) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let k = k.min((s.len() - 1) / 2);
    let kept = &s[k..s.len() - k];
    kept.iter().sum::<f64>() / kept.len() as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Each rule equals its scalar reference applied per coordinate.
    #[test]
    fn aggregation_rules_match_scalar_references(
        n_peers in 1usize..8,
        len in 1usize..12,
        pool in proptest::collection::vec(-1e6f64..1e6, 96..97),
        k in 0usize..4,
    ) {
        // The vendored proptest has no flat_map, so peer vectors are sliced
        // out of one fixed-size pool.
        let peers: Vec<Vec<f64>> =
            (0..n_peers).map(|p| pool[p * len..(p + 1) * len].to_vec()).collect();
        let states: Vec<LearnedState> = peers
            .iter()
            .map(|v| {
                LearnedState::new(StateKind::LinearWeights, vec![v.len()], v.clone()).unwrap()
            })
            .collect();
        let len = peers[0].len();
        for (rule, reference) in [
            (AggregationRule::Mean, Box::new(mean_ref) as Box<dyn Fn(&[f64]) -> f64>),
            (AggregationRule::CoordinateWiseMedian, Box::new(median_ref)),
            (AggregationRule::TrimmedMean { k }, Box::new(move |xs: &[f64]| trimmed_ref(xs, k))),
        ] {
            let aggregate = rule.aggregate(&states).unwrap();
            prop_assert_eq!(aggregate.shape(), &[len]);
            for i in 0..len {
                let column: Vec<f64> = peers.iter().map(|v| v[i]).collect();
                let expected = reference(&column);
                prop_assert!(
                    (aggregate.values()[i] - expected).abs() <= 1e-9 * expected.abs().max(1.0),
                    "rule {:?} coordinate {} got {} want {}",
                    rule, i, aggregate.values()[i], expected
                );
            }
        }
    }

    /// The k-clamp, pinned: once `n <= 2k`, [`AggregationRule::TrimmedMean`]
    /// clamps `k` to `(n - 1) / 2` and degrades exactly — bit for bit — to
    /// the coordinate-wise median (one surviving value for odd `n`, the
    /// averaged middle pair for even `n`). The trust plane's consensus math
    /// (`robust_z_scores`) leans on this: its median/MAD centre is the same
    /// `CoordinateWiseMedian::combine` this property pins.
    #[test]
    fn trimmed_mean_degrades_to_the_median_when_k_saturates(
        pool in proptest::collection::vec(-1e9f64..1e9, 1..12),
        extra_k in 0usize..8,
    ) {
        let n = pool.len();
        // Smallest k with n <= 2k, plus arbitrary slack: every such k must
        // clamp to the same survivor set.
        let k = n.div_ceil(2) + extra_k;
        prop_assert!(n <= 2 * k);
        let trimmed = AggregationRule::TrimmedMean { k }.combine(&mut pool.clone());
        let median = AggregationRule::CoordinateWiseMedian.combine(&mut pool.clone());
        prop_assert_eq!(trimmed, median);
    }

    /// Even-count medians average the two middle values and land between
    /// them; no element of the sample below the lower middle or above the
    /// upper one can move the result.
    #[test]
    fn even_count_median_averages_the_middle_pair(
        pool in proptest::collection::vec(-1e9f64..1e9, 2..13),
    ) {
        let n = pool.len() & !1; // truncate to an even count (>= 2)
        let mut column = pool[..n].to_vec();
        let median = AggregationRule::CoordinateWiseMedian.combine(&mut column);
        let mut sorted = pool[..n].to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = (sorted[n / 2 - 1], sorted[n / 2]);
        prop_assert_eq!(median, (lo + hi) / 2.0);
        prop_assert!((lo..=hi).contains(&median), "median {} outside [{}, {}]", median, lo, hi);
    }

    /// Robustness bound: with a minority of arbitrarily poisoned peers, the
    /// median stays within the honest value range.
    #[test]
    fn median_is_bounded_by_honest_values(
        honest in 3usize..8,
        poison in proptest::collection::vec(-1e12f64..1e12, 1..3),
        value in -100.0f64..100.0,
    ) {
        // poison.len() <= 2 < 3 <= honest: always a strict honest majority.
        let mut states: Vec<LearnedState> = (0..honest)
            .map(|_| LearnedState::new(StateKind::QTable, vec![1], vec![value]).unwrap())
            .collect();
        for p in &poison {
            states.push(LearnedState::new(StateKind::QTable, vec![1], vec![*p]).unwrap());
        }
        let aggregate = AggregationRule::CoordinateWiseMedian.aggregate(&states).unwrap();
        let lo = value.min(poison.iter().cloned().fold(value, f64::min));
        let hi = value.max(poison.iter().cloned().fold(value, f64::max));
        prop_assert!((lo..=hi).contains(&aggregate.values()[0]));
        // A strict majority of honest peers pins the median exactly.
        prop_assert_eq!(aggregate.values()[0], value);
    }

    /// Export → import → export round-trips byte-identically for all three
    /// exchangeable learners, after arbitrary training histories.
    #[test]
    fn exports_round_trip_byte_identically(
        seed in any::<u64>(),
        rewards in prop::collection::vec(-1.0f64..1.0, 1..40),
    ) {
        // Q-learner: train on a random reward stream.
        let config = QConfig::new(3, 4);
        let mut q = QLearner::with_seed(config.clone(), seed);
        for (i, r) in rewards.iter().enumerate() {
            let s = i % 3;
            let a = q.choose_action(s).action;
            q.update(s, a, *r, (i + 1) % 3);
        }
        let exported = q.export_learned();
        let mut fresh = QLearner::with_seed(config, seed.wrapping_add(1));
        fresh.import_learned(&exported).unwrap();
        prop_assert_eq!(fresh.export_learned(), exported);

        // Online linear regression.
        let mut lin = OnlineLinearRegression::new(3, 0.05);
        for (i, r) in rewards.iter().enumerate() {
            lin.update(&[i as f64 % 5.0, *r, 1.0 - r], r * 2.0);
        }
        let exported = lin.export_learned();
        let mut fresh = OnlineLinearRegression::new(3, 0.05);
        fresh.import_learned(&exported).unwrap();
        prop_assert_eq!(fresh.export_learned(), exported);

        // Thompson sampler.
        let mut ts = ThompsonSampler::with_seed(4, seed);
        for (i, r) in rewards.iter().enumerate() {
            ts.record(i % 4, *r > 0.0);
        }
        let exported = ts.export_learned();
        let mut fresh = ThompsonSampler::with_seed(4, seed.wrapping_add(1));
        fresh.import_learned(&exported).unwrap();
        prop_assert_eq!(fresh.export_learned(), exported);
    }
}

// ---------------------------------------------------------------------------
// Fleet-level pinned claims
// ---------------------------------------------------------------------------

const NODES: usize = 8;
const VICTIMS: usize = 2;
const HORIZON: SimDuration = SimDuration::from_secs(240);
const FLEET_SEED: u64 = 0x1EA2;

fn poisoned_fleet(
    victims: usize,
    learning: Option<LearningPlane>,
    threads: usize,
) -> FleetRuntime<sol_node_sim::shared::Shared<sol_node_sim::cpu_node::CpuNode>> {
    let preset = poisoned_overclock_recipe(PoisonedOverclockConfig {
        victims,
        attack: PoisonAttack::SignFlip { gain: 4.0 },
        nodes: NODES,
        ..PoisonedOverclockConfig::default()
    });
    let config =
        FleetConfig { nodes: NODES, threads, seed: FLEET_SEED, learning, ..FleetConfig::default() };
    FleetRuntime::new(preset.recipe, config).unwrap()
}

fn plane(rule: AggregationRule) -> LearningPlane {
    LearningPlane { exchange_every: 5, rule, blend: BlendPolicy::Replace }
}

fn interceptions(report: &FleetReport) -> u64 {
    report.roles[0].totals.model.intercepted_predictions
}

/// The robustness claim, pinned: a two-node sign-flip minority degrades a
/// mean-aggregating fleet's safeguard rate well past the clean baseline,
/// while the median and trimmed-mean fleets stay near it.
#[test]
fn robust_rules_contain_poisoning_where_mean_degrades() {
    let clean = interceptions(
        &poisoned_fleet(0, Some(plane(AggregationRule::Mean)), 4).run(HORIZON).unwrap(),
    );
    let mean = interceptions(
        &poisoned_fleet(VICTIMS, Some(plane(AggregationRule::Mean)), 4).run(HORIZON).unwrap(),
    );
    let median = interceptions(
        &poisoned_fleet(VICTIMS, Some(plane(AggregationRule::CoordinateWiseMedian)), 4)
            .run(HORIZON)
            .unwrap(),
    );
    let trimmed = interceptions(
        &poisoned_fleet(VICTIMS, Some(plane(AggregationRule::TrimmedMean { k: VICTIMS })), 4)
            .run(HORIZON)
            .unwrap(),
    );

    // Mean lets the poison through: at least 50% more safeguard interceptions
    // than the unpoisoned baseline.
    assert!(
        mean as f64 >= clean as f64 * 1.5,
        "poisoned mean fleet must degrade: clean {clean}, mean {mean}"
    );
    // The robust rules hold the line: within 25% of the clean baseline and
    // strictly better than the mean.
    for (label, robust) in [("median", median), ("trimmed", trimmed)] {
        assert!(robust < mean, "{label} must beat the poisoned mean: {robust} vs {mean}");
        assert!(
            (robust as f64) <= clean as f64 * 1.25,
            "{label} must stay near the clean baseline: {robust} vs clean {clean}"
        );
    }
}

fn three_joins() -> FaultPlan {
    FaultPlan::from_events(
        [120u64, 150, 180]
            .iter()
            .map(|&secs| FaultEvent {
                at: Timestamp::ZERO + SimDuration::from_secs(secs),
                event: LifecycleEvent::Join,
            })
            .collect(),
    )
}

fn joined_interceptions(learning: Option<LearningPlane>) -> (u64, u64) {
    let fleet = poisoned_fleet(0, learning, 4);
    let report = fleet.run_with_faults(&mut NullController, three_joins(), HORIZON).unwrap();
    let joined: Vec<_> = report.nodes.iter().filter(|n| n.lifecycle.joined_epoch > 0).collect();
    assert_eq!(joined.len(), 3, "all three joins must land");
    let total = joined.iter().map(|n| n.agents[0].stats.model.intercepted_predictions).sum();
    (total, report.learning.warm_starts)
}

/// The warm-start claim, pinned: joiners that import the fleet aggregate trip
/// their model safeguard strictly less than cold-started joiners in the
/// otherwise-identical fleet.
#[test]
fn warm_started_joiners_trip_fewer_safeguards_than_cold_ones() {
    let (cold, cold_warm_starts) = joined_interceptions(None);
    let (warm, warm_starts) = joined_interceptions(Some(LearningPlane {
        exchange_every: 1,
        rule: AggregationRule::CoordinateWiseMedian,
        blend: BlendPolicy::Replace,
    }));
    assert_eq!(cold_warm_starts, 0, "no learning plane, no warm starts");
    assert_eq!(warm_starts, 3, "every joiner must warm-start");
    assert!(
        warm < cold,
        "warm-started joiners must trip fewer safeguards: warm {warm} vs cold {cold}"
    );
}

/// Determinism under the works: a poisoned fleet with a learning plane AND
/// churn (crash + joins) must produce byte-identical reports across 1, 2,
/// and 8 worker threads.
#[test]
fn poisoned_churning_learning_fleet_is_byte_identical_across_thread_counts() {
    let horizon = SimDuration::from_secs(90);
    let faults = || {
        FaultPlan::generate(
            0xFEED,
            NODES,
            &FaultPlanConfig { crashes: 1, joins: 2, drains: 0, span: horizon },
        )
    };
    let learning = Some(LearningPlane {
        exchange_every: 2,
        rule: AggregationRule::TrimmedMean { k: 1 },
        blend: BlendPolicy::Mix { weight: 0.5 },
    });
    let run = |threads: usize| {
        let fleet = poisoned_fleet(VICTIMS, learning, threads);
        let report = fleet.run_with_faults(&mut NullController, faults(), horizon).unwrap();
        format!("{report:#?}")
    };
    let one = run(1);
    let two = run(2);
    let eight = run(8);
    assert_eq!(one, two, "1-thread and 2-thread reports must be byte-identical");
    assert_eq!(one, eight, "1-thread and 8-thread reports must be byte-identical");

    // The learning plane actually ran: rounds fired and state moved.
    let fleet = poisoned_fleet(VICTIMS, learning, 4);
    let report = fleet.run_with_faults(&mut NullController, faults(), horizon).unwrap();
    assert!(report.learning.rounds > 0, "learning rounds must fire");
    assert!(report.learning.participants > 0, "nodes must export state");
    assert!(report.learning.redistributed > 0, "aggregates must be redistributed");
    assert!(report.learning.bytes_exchanged > 0, "exchange must move bytes");
    assert!(report.learning.warm_starts > 0, "joiners must warm-start");
}

/// Quiet learners ship nothing: a fleet whose models never export (the toy
/// models of the fleet tests have no learned state) runs a learning plane
/// with zero traffic and zero redistribution.
#[test]
fn quiet_models_produce_empty_learning_rounds() {
    use sol_core::error::DataError;

    struct SilentModel;
    impl Model for SilentModel {
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

    struct SilentActuator;
    impl Actuator for SilentActuator {
        type Pred = f64;
        fn take_action(&mut self, _now: Timestamp, _pred: Option<&Prediction<f64>>) {}
        fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
            ActuatorAssessment::Acceptable
        }
        fn mitigate(&mut self, _now: Timestamp) {}
        fn clean_up(&mut self, _now: Timestamp) {}
    }

    let recipe = ScenarioRecipe::new(|_seed: &NodeSeed| {
        let mut builder = NodeRuntime::builder(NullEnvironment);
        let schedule = Schedule::builder()
            .data_per_epoch(2)
            .data_collect_interval(SimDuration::from_millis(100))
            .max_epoch_time(SimDuration::from_secs(1))
            .build()
            .unwrap();
        builder.agent("silent", SilentModel, SilentActuator, schedule);
        builder.build()
    });
    let config = FleetConfig {
        nodes: 4,
        threads: 2,
        learning: Some(LearningPlane::default()),
        ..FleetConfig::default()
    };
    let report = FleetRuntime::new(recipe, config).unwrap().run(SimDuration::from_secs(5)).unwrap();
    assert!(report.learning.rounds > 0, "rounds still fire on cadence");
    assert_eq!(report.learning.participants, 0, "quiet learners ship nothing");
    assert_eq!(report.learning.bytes_exchanged, 0);
    assert_eq!(report.learning.redistributed, 0);
    assert_eq!(report.learning.rejected, 0);
}
