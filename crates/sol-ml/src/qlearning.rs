//! Tabular Q-learning with ε-greedy exploration.
//!
//! SmartOverclock uses Q-learning, a simple form of reinforcement learning, to
//! decide when to overclock a VM: at the end of every learning epoch it
//! computes the current state and reward from observed counters, updates the
//! policy, and picks the frequency for the next epoch, following the learned
//! policy 90% of the time and exploring randomly 10% of the time (paper §5.1).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exchange::{ExchangeError, LearnedState, StateKind};

/// Initial Q-value for all state/action pairs.
const INITIAL_VALUE: f64 = 0.0;
/// Learning rate α in `(0, 1]`.
const LEARNING_RATE: f64 = 0.5;

/// Configuration for a [`QLearner`].
#[derive(Debug, Clone, PartialEq)]
pub struct QConfig {
    /// Number of discrete states.
    pub states: usize,
    /// Number of discrete actions.
    pub actions: usize,
    /// Discount factor γ in `[0, 1]`.
    pub discount: f64,
    /// Exploration probability ε in `[0, 1]` (the paper's agent uses 0.1).
    pub exploration: f64,
}

impl QConfig {
    /// Creates a configuration with the paper's defaults (α = 0.5, γ = 0.6,
    /// ε = 0.1) for the given table size.
    pub fn new(states: usize, actions: usize) -> Self {
        QConfig { states, actions, discount: 0.6, exploration: 0.1 }
    }

    fn validate(&self) {
        assert!(self.states > 0, "Q-table needs at least one state");
        assert!(self.actions > 0, "Q-table needs at least one action");
        assert!((0.0..=1.0).contains(&self.discount), "discount must be in [0, 1]");
        assert!((0.0..=1.0).contains(&self.exploration), "exploration must be in [0, 1]");
    }
}

/// How an action was chosen, so the caller can distinguish policy decisions
/// from exploration (SmartOverclock keeps exploring even while its model
/// safeguard overrides the exploited action).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// The greedy action according to the current Q-table.
    Exploit,
    /// A uniformly random action taken for exploration.
    Explore,
}

/// A chosen action and how it was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChosenAction {
    /// Index of the chosen action.
    pub action: usize,
    /// Whether it was an exploit or explore decision.
    pub kind: ActionKind,
}

/// A tabular Q-learning agent.
///
/// # Examples
///
/// Learning a trivial two-state problem where action 1 is always better:
///
/// ```
/// use sol_ml::qlearning::{QConfig, QLearner};
///
/// let mut q = QLearner::with_seed(QConfig::new(1, 2), 7);
/// for _ in 0..200 {
///     let a = q.choose_action(0).action;
///     let reward = if a == 1 { 1.0 } else { 0.0 };
///     q.update(0, a, reward, 0);
/// }
/// assert_eq!(q.best_action(0), 1);
/// ```
#[derive(Debug, Clone)]
pub struct QLearner {
    config: QConfig,
    table: Vec<f64>,
    updates: u64,
    rng: StdRng,
}

impl QLearner {
    /// Creates a learner with a fixed RNG seed (deterministic experiments).
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (zero states/actions, rates out
    /// of range).
    pub fn with_seed(config: QConfig, seed: u64) -> Self {
        config.validate();
        let table = vec![INITIAL_VALUE; config.states * config.actions];
        QLearner { config, table, updates: 0, rng: StdRng::seed_from_u64(seed) }
    }

    /// The configuration this learner was built with.
    pub fn config(&self) -> &QConfig {
        &self.config
    }

    /// Number of updates applied so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Current Q-value for `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `state` or `action` is out of range.
    pub fn q_value(&self, state: usize, action: usize) -> f64 {
        self.table[self.index(state, action)]
    }

    /// The full Q-table, row-major: entry `state * actions + action`.
    ///
    /// # Examples
    ///
    /// ```
    /// use sol_ml::qlearning::{QConfig, QLearner};
    ///
    /// let mut q = QLearner::with_seed(QConfig::new(2, 2), 0);
    /// q.update(1, 0, 4.0, 1);
    /// assert_eq!(q.table().len(), 4);
    /// assert_eq!(q.table()[2], q.q_value(1, 0));
    /// ```
    pub fn table(&self) -> &[f64] {
        &self.table
    }

    /// The greedy (highest-Q) action in `state`.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn best_action(&self, state: usize) -> usize {
        let row = &self.table[state * self.config.actions..(state + 1) * self.config.actions];
        row.iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN Q-values"))
            .map(|(i, _)| i)
            .expect("at least one action")
    }

    /// Chooses an action for `state` using ε-greedy exploration.
    ///
    /// # Panics
    ///
    /// Panics if `state` is out of range.
    pub fn choose_action(&mut self, state: usize) -> ChosenAction {
        assert!(state < self.config.states, "state out of range");
        if self.rng.gen::<f64>() < self.config.exploration {
            ChosenAction {
                action: self.rng.gen_range(0..self.config.actions),
                kind: ActionKind::Explore,
            }
        } else {
            ChosenAction { action: self.best_action(state), kind: ActionKind::Exploit }
        }
    }

    /// Applies the Q-learning update for taking `action` in `state`, observing
    /// `reward`, and transitioning to `next_state`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range or `reward` is not finite.
    pub fn update(&mut self, state: usize, action: usize, reward: f64, next_state: usize) {
        assert!(reward.is_finite(), "reward must be finite");
        assert!(next_state < self.config.states, "next_state out of range");
        let best_next = self.q_value(next_state, self.best_action(next_state));
        let idx = self.index(state, action);
        let old = self.table[idx];
        let target = reward + self.config.discount * best_next;
        self.table[idx] = old + LEARNING_RATE * (target - old);
        self.updates += 1;
    }

    /// Exports the Q-table as [`StateKind::QTable`] with shape
    /// `[states, actions]`.
    pub fn export_learned(&self) -> LearnedState {
        LearnedState::new(
            StateKind::QTable,
            vec![self.config.states, self.config.actions],
            self.table.clone(),
        )
        .expect("Q-table values are finite")
    }

    /// Overwrites the Q-table. RNG state, update counter, and configuration
    /// are untouched, so the exploration stream is unperturbed. A state of
    /// another kind or shape is refused and leaves the table unchanged.
    pub fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        if state.kind() != StateKind::QTable {
            return Err(ExchangeError::KindMismatch {
                expected: StateKind::QTable,
                found: state.kind(),
            });
        }
        let expected = [self.config.states, self.config.actions];
        if state.shape() != expected {
            return Err(ExchangeError::ShapeMismatch {
                expected: expected.to_vec(),
                found: state.shape().to_vec(),
            });
        }
        self.table.copy_from_slice(state.values());
        Ok(())
    }

    fn index(&self, state: usize, action: usize) -> usize {
        assert!(state < self.config.states, "state out of range");
        assert!(action < self.config.actions, "action out of range");
        state * self.config.actions + action
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_simple_bandit() {
        let mut q = QLearner::with_seed(QConfig::new(1, 3), 42);
        for _ in 0..500 {
            let a = q.choose_action(0).action;
            let reward = match a {
                2 => 1.0,
                1 => 0.3,
                _ => 0.0,
            };
            q.update(0, a, reward, 0);
        }
        assert_eq!(q.best_action(0), 2);
        assert!(q.q_value(0, 2) > q.q_value(0, 0));
    }

    #[test]
    fn learns_state_dependent_policy() {
        // State 0 prefers action 0, state 1 prefers action 1.
        let mut q = QLearner::with_seed(QConfig::new(2, 2), 1);
        for i in 0..2000 {
            let s = i % 2;
            let a = q.choose_action(s).action;
            let reward = if a == s { 1.0 } else { -1.0 };
            q.update(s, a, reward, (s + 1) % 2);
        }
        assert_eq!(q.best_action(0), 0);
        assert_eq!(q.best_action(1), 1);
    }

    #[test]
    fn exploration_rate_is_respected() {
        let mut config = QConfig::new(1, 4);
        config.exploration = 0.5;
        // Make action 3 clearly the greedy one.
        let mut q = QLearner::with_seed(config, 9);
        for _ in 0..50 {
            q.update(0, 3, 1.0, 0);
        }
        let mut explores = 0;
        let n = 2000;
        for _ in 0..n {
            if q.choose_action(0).kind == ActionKind::Explore {
                explores += 1;
            }
        }
        let frac = explores as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.08, "exploration fraction {frac} far from 0.5");
    }

    #[test]
    fn zero_exploration_is_always_greedy() {
        let mut config = QConfig::new(1, 2);
        config.exploration = 0.0;
        let mut q = QLearner::with_seed(config, 3);
        q.update(0, 1, 5.0, 0);
        for _ in 0..100 {
            let c = q.choose_action(0);
            assert_eq!(c.kind, ActionKind::Exploit);
            assert_eq!(c.action, 1);
        }
    }

    #[test]
    fn deterministic_given_same_seed() {
        let run = |seed| {
            let mut q = QLearner::with_seed(QConfig::new(3, 3), seed);
            let mut actions = Vec::new();
            for i in 0..100 {
                let s = i % 3;
                let a = q.choose_action(s).action;
                actions.push(a);
                q.update(s, a, (a as f64) - (s as f64), (i + 1) % 3);
            }
            actions
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    #[should_panic(expected = "state out of range")]
    fn rejects_out_of_range_state() {
        let mut q = QLearner::with_seed(QConfig::new(2, 2), 0);
        let _ = q.choose_action(5);
    }
}
