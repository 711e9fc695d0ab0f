//! Beta-Bernoulli Thompson sampling for multi-armed bandits.
//!
//! SmartMemory uses Thompson sampling with a Beta-distribution prior to learn
//! the best access-bit scanning frequency for each 2 MB memory region
//! (paper §5.3): each candidate frequency is an arm, the reward is "the region
//! was well sampled at this frequency", and the bandit converges on the lowest
//! frequency that does not under-sample the region.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Posterior state of one arm: a Beta(α, β) distribution over its success
/// probability.
#[derive(Debug, Clone, PartialEq)]
pub struct BetaArm {
    alpha: f64,
    beta: f64,
}

impl BetaArm {
    /// Creates an arm with a uniform Beta(1, 1) prior.
    pub fn uniform() -> Self {
        BetaArm { alpha: 1.0, beta: 1.0 }
    }

    /// α parameter (successes + prior).
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// β parameter (failures + prior).
    pub fn beta(&self) -> f64 {
        self.beta
    }

    /// Posterior mean success probability.
    pub fn mean(&self) -> f64 {
        self.alpha / (self.alpha + self.beta)
    }

    /// Records a success (reward 1).
    pub fn record_success(&mut self) {
        self.alpha += 1.0;
    }

    /// Records a failure (reward 0).
    pub fn record_failure(&mut self) {
        self.beta += 1.0;
    }

    /// Draws one sample from the posterior.
    pub fn sample(&self, rng: &mut StdRng) -> f64 {
        sample_beta(rng, self.alpha, self.beta)
    }
}

impl Default for BetaArm {
    fn default() -> Self {
        Self::uniform()
    }
}

/// A Thompson-sampling bandit over a fixed set of arms.
///
/// # Examples
///
/// ```
/// use sol_ml::thompson::ThompsonSampler;
///
/// let mut bandit = ThompsonSampler::with_seed(3, 42);
/// for _ in 0..400 {
///     let arm = bandit.select();
///     // Arm 2 succeeds 90% of the time, the others 10%.
///     let success = if arm == 2 { true } else { false };
///     bandit.record(arm, success);
/// }
/// assert_eq!(bandit.best_arm(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct ThompsonSampler {
    arms: Vec<BetaArm>,
    rng: StdRng,
    selections: u64,
}

impl ThompsonSampler {
    /// Creates a bandit with `arms` arms, all starting from a uniform prior,
    /// and a fixed RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `arms` is zero.
    pub fn with_seed(arms: usize, seed: u64) -> Self {
        assert!(arms > 0, "bandit needs at least one arm");
        ThompsonSampler {
            arms: vec![BetaArm::uniform(); arms],
            rng: StdRng::seed_from_u64(seed),
            selections: 0,
        }
    }

    /// Number of arms.
    pub fn arms(&self) -> usize {
        self.arms.len()
    }

    /// Number of selections made so far.
    pub fn selections(&self) -> u64 {
        self.selections
    }

    /// Read access to an arm's posterior.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn arm(&self, arm: usize) -> &BetaArm {
        &self.arms[arm]
    }

    /// All arm posteriors, in arm order.
    ///
    /// # Examples
    ///
    /// ```
    /// use sol_ml::thompson::ThompsonSampler;
    ///
    /// let mut bandit = ThompsonSampler::with_seed(2, 1);
    /// bandit.record(1, true);
    /// let posteriors = bandit.posteriors();
    /// assert_eq!(posteriors.len(), 2);
    /// assert!(posteriors[1].mean() > posteriors[0].mean());
    /// ```
    pub fn posteriors(&self) -> &[BetaArm] {
        &self.arms
    }

    /// Selects an arm by sampling each posterior and picking the best draw.
    pub fn select(&mut self) -> usize {
        self.selections += 1;
        let mut best = 0;
        let mut best_draw = f64::NEG_INFINITY;
        for (i, arm) in self.arms.iter().enumerate() {
            let draw = arm.sample(&mut self.rng);
            if draw > best_draw {
                best_draw = draw;
                best = i;
            }
        }
        best
    }

    /// Records a binary outcome for `arm`.
    ///
    /// # Panics
    ///
    /// Panics if `arm` is out of range.
    pub fn record(&mut self, arm: usize, success: bool) {
        if success {
            self.arms[arm].record_success();
        } else {
            self.arms[arm].record_failure();
        }
    }

    /// The arm with the highest posterior mean (no sampling).
    pub fn best_arm(&self) -> usize {
        self.arms
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.mean().partial_cmp(&b.1.mean()).expect("no NaN means"))
            .map(|(i, _)| i)
            .expect("at least one arm")
    }
}

/// Samples from a Beta(α, β) distribution via two Gamma draws.
fn sample_beta(rng: &mut StdRng, alpha: f64, beta: f64) -> f64 {
    let x = sample_gamma(rng, alpha);
    let y = sample_gamma(rng, beta);
    if x + y == 0.0 {
        0.5
    } else {
        x / (x + y)
    }
}

/// Samples from a Gamma(shape, 1) distribution using the Marsaglia–Tsang
/// method, with the standard boost for shape < 1.
fn sample_gamma(rng: &mut StdRng, shape: f64) -> f64 {
    if shape < 1.0 {
        // Gamma(a) = Gamma(a + 1) * U^(1/a)
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        return sample_gamma(rng, shape + 1.0) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        // Standard normal via Box-Muller.
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let v = (1.0 + c * z).powi(3);
        if v <= 0.0 {
            continue;
        }
        let u: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        if u.ln() < 0.5 * z * z + d - d * v + d * v.ln() {
            return d * v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beta_arm_posterior_updates() {
        let mut arm = BetaArm::uniform();
        assert!((arm.mean() - 0.5).abs() < 1e-12);
        for _ in 0..8 {
            arm.record_success();
        }
        for _ in 0..2 {
            arm.record_failure();
        }
        // Posterior mean of Beta(9, 3) = 0.75.
        assert!((arm.mean() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn beta_samples_are_in_unit_interval_and_track_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        // Beta(20, 5): the uniform prior plus 19 successes and 4 failures.
        let mut arm = BetaArm::uniform();
        (0..19).for_each(|_| arm.record_success());
        (0..4).for_each(|_| arm.record_failure());
        let mut sum = 0.0;
        let n = 5000;
        for _ in 0..n {
            let s = arm.sample(&mut rng);
            assert!((0.0..=1.0).contains(&s));
            sum += s;
        }
        let empirical = sum / n as f64;
        assert!((empirical - 0.8).abs() < 0.02, "empirical mean {empirical} should be near 0.8");
    }

    #[test]
    fn gamma_sampler_matches_expected_mean() {
        let mut rng = StdRng::seed_from_u64(2);
        for &shape in &[0.5, 1.0, 2.5, 10.0] {
            let n = 20_000;
            let mean: f64 = (0..n).map(|_| sample_gamma(&mut rng, shape)).sum::<f64>() / n as f64;
            assert!(
                (mean - shape).abs() < 0.1 * shape.max(1.0),
                "Gamma({shape}) empirical mean {mean}"
            );
        }
    }

    #[test]
    fn bandit_finds_best_arm() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut bandit = ThompsonSampler::with_seed(4, 99);
        let probabilities = [0.1, 0.3, 0.8, 0.5];
        for _ in 0..2000 {
            let arm = bandit.select();
            let success = rng.gen::<f64>() < probabilities[arm];
            bandit.record(arm, success);
        }
        assert_eq!(bandit.best_arm(), 2);
        // Exploitation should concentrate pulls on the best arm.
        let pulls_best = bandit.arm(2).alpha() + bandit.arm(2).beta();
        let pulls_worst = bandit.arm(0).alpha() + bandit.arm(0).beta();
        assert!(pulls_best > 4.0 * pulls_worst);
    }

    #[test]
    fn bandit_is_deterministic_for_fixed_seed() {
        let run = || {
            let mut b = ThompsonSampler::with_seed(3, 7);
            let mut picks = Vec::new();
            for i in 0..100 {
                let arm = b.select();
                picks.push(arm);
                b.record(arm, i % 3 == arm);
            }
            picks
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "at least one arm")]
    fn rejects_zero_arms() {
        let _ = ThompsonSampler::with_seed(0, 1);
    }
}
