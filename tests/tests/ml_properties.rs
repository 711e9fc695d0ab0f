//! Property-based tests of the ML substrate invariants.

use proptest::prelude::*;

use sol_ml::cost_sensitive::CostSensitiveExample;
use sol_ml::features::DistributionalFeatures;
use sol_ml::online_stats::SlidingWindow;
use sol_ml::qlearning::{QConfig, QLearner};
use sol_ml::sampling::{seeded_rng, Zipf};
use sol_ml::thompson::ThompsonSampler;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Sliding-window quantiles are monotone in the quantile level and bounded
    /// by the window's extremes.
    #[test]
    fn window_quantiles_are_monotone(
        xs in prop::collection::vec(-1e3f64..1e3, 1..100),
        qs in prop::collection::vec(0.0f64..=1.0, 2..6),
    ) {
        let mut w = SlidingWindow::new(xs.len());
        for &x in &xs {
            w.push(x);
        }
        let mut sorted_q = qs.clone();
        sorted_q.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = f64::NEG_INFINITY;
        for q in sorted_q {
            let v = w.quantile(q);
            prop_assert!(v >= last - 1e-9);
            prop_assert!(v >= w.quantile(0.0) - 1e-9 && v <= w.quantile(1.0) + 1e-9);
            last = v;
        }
    }

    /// Distributional features are permutation-sensitive only in the trend and
    /// last-value slots; the order statistics are permutation invariant.
    #[test]
    fn feature_order_statistics_are_permutation_invariant(
        mut xs in prop::collection::vec(0.0f64..100.0, 2..50),
    ) {
        let original = DistributionalFeatures::extract(&xs);
        xs.reverse();
        let reversed = DistributionalFeatures::extract(&xs);
        // mean, std, min, max, P50, P90, P99 (indices 0..=6) must match.
        for i in 0..=6 {
            prop_assert!((original.values()[i] - reversed.values()[i]).abs() < 1e-9);
        }
    }

    /// Q-values stay bounded by the reward range / (1 - discount).
    #[test]
    fn q_values_stay_bounded(
        rewards in prop::collection::vec(-1.0f64..1.0, 10..300),
        states in 1usize..5,
        actions in 1usize..4,
    ) {
        let mut config = QConfig::new(states, actions);
        config.discount = 0.5;
        let mut q = QLearner::with_seed(config, 3);
        let bound = 1.0 / (1.0 - 0.5) + 1e-9;
        for (i, &r) in rewards.iter().enumerate() {
            let s = i % states;
            let a = q.choose_action(s).action;
            q.update(s, a, r, (i + 1) % states);
            for s in 0..states {
                for a in 0..actions {
                    prop_assert!(q.q_value(s, a).abs() <= bound);
                }
            }
        }
    }

    /// Thompson-sampling posteriors always hold exactly the observed evidence
    /// plus the uniform prior.
    #[test]
    fn thompson_posteriors_track_evidence(outcomes in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut bandit = ThompsonSampler::with_seed(3, 9);
        let mut successes = 0.0;
        let mut failures = 0.0;
        for &o in &outcomes {
            let arm = bandit.select();
            if arm == 1 {
                // Only feed arm 1 so we can track its posterior exactly.
                bandit.record(1, o);
                if o { successes += 1.0 } else { failures += 1.0 }
            }
        }
        let arm = bandit.arm(1);
        prop_assert!((arm.alpha() - (1.0 + successes)).abs() < 1e-9);
        prop_assert!((arm.beta() - (1.0 + failures)).abs() < 1e-9);
    }

    /// Ordinal cost vectors are minimized exactly at the true class.
    #[test]
    fn ordinal_costs_minimized_at_truth(truth in 0usize..9, classes in 10usize..12) {
        let e = CostSensitiveExample::from_ordinal_truth(vec![1.0], truth, classes, 5.0, 1.0);
        let min_idx = e
            .costs
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| i)
            .unwrap();
        prop_assert_eq!(min_idx, truth);
    }

    /// Zipf sampling only produces valid ranks and favours the head.
    #[test]
    fn zipf_samples_are_in_range(n in 2usize..200, skew in 0.1f64..2.0) {
        let zipf = Zipf::new(n, skew);
        let mut rng = seeded_rng(5);
        let mut head = 0u32;
        for _ in 0..500 {
            let r = zipf.sample(&mut rng);
            prop_assert!(r < n);
            if r < n.div_ceil(2) {
                head += 1;
            }
        }
        prop_assert!(head >= 250, "at least half the draws land in the more popular half");
    }
}
