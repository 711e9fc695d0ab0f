//! # sol-ml — online learning primitives for on-node agents
//!
//! The ML substrate for the SOL reproduction. The paper's agents rely on three
//! families of lightweight online learners, all of which are implemented here
//! from scratch so the reproduction has no external ML dependencies:
//!
//! * [`qlearning`] — tabular Q-learning with ε-greedy exploration
//!   (SmartOverclock, paper §5.1);
//! * [`cost_sensitive`] — cost-sensitive one-against-all classification built
//!   on [`linear`] online regressors (SmartHarvest, paper §5.2, standing in
//!   for VowpalWabbit's `csoaa`);
//! * [`thompson`] — Beta-Bernoulli Thompson sampling bandits (SmartMemory,
//!   paper §5.3).
//!
//! Supporting modules provide streaming statistics ([`online_stats`]),
//! distributional feature extraction ([`features`]), deterministic sampling
//! utilities ([`sampling`]), memory accounting for large fleet grids
//! ([`footprint`]), and the fleet learning plane's exchange surface
//! ([`exchange`]): the Q-learner exports/imports its table as a tagged
//! flat-`f64` [`exchange::LearnedState`] that robust aggregation rules
//! (coordinate-wise median, trimmed mean) can combine across nodes. It is the
//! one learner any workload exchanges; a learner that joins the plane adds its
//! export together with the workload that first runs it.
//!
//! Everything is deterministic given a seed, allocation-light, and designed to
//! run inside resource-constrained agent control loops.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cost_sensitive;
pub mod exchange;
pub mod features;
pub mod footprint;
pub mod linear;
pub mod online_stats;
pub mod qlearning;
pub mod sampling;
pub mod thompson;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::cost_sensitive::{CostSensitiveClassifier, CostSensitiveExample};
    pub use crate::exchange::{
        AggregationRule, BlendPolicy, ExchangeError, LearnedState, StateKind,
    };
    pub use crate::features::{DistributionalFeatures, FeatureVector};
    pub use crate::footprint::MemoryFootprint;
    pub use crate::linear::OnlineLinearRegression;
    pub use crate::online_stats::{Ewma, RunWindow, SlidingWindow};
    pub use crate::qlearning::{ActionKind, ChosenAction, QConfig, QLearner};
    pub use crate::sampling::{seeded_rng, Zipf};
    pub use crate::thompson::{BetaArm, ThompsonSampler};
}
