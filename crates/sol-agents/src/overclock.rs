//! SmartOverclock: a Q-learning CPU overclocking agent (paper §5.1).
//!
//! The agent monitors the average Instructions Per Second (IPS) counter of a
//! VM's cores and learns when overclocking pays off. At the end of every
//! one-second learning epoch it computes the RL state and reward from the
//! observed IPS and current frequency, updates its Q-learning policy, and
//! picks the frequency for the next epoch (90% exploitation, 10% exploration).
//!
//! Safeguards (paper §5.1):
//! * **Data validation** — IPS readings outside `[0, max_freq * max_IPC]` are
//!   discarded.
//! * **Model safeguard** — if the average reward advantage of overclocking
//!   over the nominal frequency (Δr) across the last 10 epochs falls below a
//!   threshold, predictions are intercepted and the nominal frequency is used.
//! * **Non-blocking Actuator** — if no fresh prediction arrives within 5
//!   seconds, cores return to the nominal frequency.
//! * **Actuator safeguard** — the P90 of α = (unhalted − stalled) / total
//!   cycles over the last 100 seconds must stay above a threshold; otherwise
//!   overclocking is disabled entirely until activity resumes.

use std::collections::VecDeque;

use sol_core::actuator::{Actuator, ActuatorAssessment};
use sol_core::error::DataError;
use sol_core::model::{Model, ModelAssessment};
use sol_core::prediction::Prediction;
use sol_core::schedule::Schedule;
use sol_core::time::{SimDuration, Timestamp};
use sol_ml::exchange::{ExchangeError, LearnedState};
use sol_ml::online_stats::SlidingWindow;
use sol_ml::qlearning::{QConfig, QLearner};
use sol_node_sim::counters::CounterSample;
use sol_node_sim::cpu_node::CpuNode;
use sol_node_sim::power::NOMINAL_FREQUENCY_GHZ;
use sol_node_sim::shared::Shared;

/// Number of α bins used to build the RL state.
const ALPHA_BINS: usize = 4;
/// Performance weight in the reward function.
const REWARD_PERF_WEIGHT: f64 = 10.0;
/// Power-premium weight in the reward function.
const REWARD_POWER_WEIGHT: f64 = 2.0;
/// Δr threshold below which the model safeguard trips.
const REWARD_DELTA_THRESHOLD: f64 = -0.1;
/// Number of epochs over which Δr is averaged (10 in the paper).
const REWARD_DELTA_WINDOW: usize = 10;
/// Number of recent α observations considered by the Actuator safeguard
/// (the paper uses the past 100 seconds with 1-second actions).
const ALPHA_WINDOW: usize = 100;
/// α threshold for the Actuator safeguard.
const ALPHA_THRESHOLD: f64 = 0.05;
/// How long a prediction stays valid.
const PREDICTION_VALIDITY: SimDuration = SimDuration::from_secs(2);

/// Configuration for the SmartOverclock agent.
#[derive(Debug, Clone)]
pub struct OverclockConfig {
    /// Enable the data-validation safeguard (range checks on IPS).
    pub validate_data: bool,
    /// Enable the model safeguard (Δr interception).
    pub model_safeguard: bool,
    /// Enable the Actuator safeguard (α P90 check).
    pub actuator_safeguard: bool,
    /// Fault injection: the model is broken and always selects the highest
    /// frequency (paper §6.2 "Inaccurate model").
    pub broken_model: bool,
    /// ε-greedy exploration probability (0.1 in the paper).
    pub exploration: f64,
    /// RNG seed for the Q-learner.
    pub seed: u64,
}

impl Default for OverclockConfig {
    fn default() -> Self {
        OverclockConfig {
            validate_data: true,
            model_safeguard: true,
            actuator_safeguard: true,
            broken_model: false,
            exploration: 0.1,
            seed: 17,
        }
    }
}

impl OverclockConfig {
    /// A configuration with every safeguard disabled (the "unchecked" baseline
    /// used by the failure-injection experiments).
    pub fn without_safeguards() -> Self {
        OverclockConfig {
            validate_data: false,
            model_safeguard: false,
            actuator_safeguard: false,
            ..OverclockConfig::default()
        }
    }
}

/// The frequency decision flowing from the Model to the Actuator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyDecision {
    /// The frequency the VM's cores should run at, in GHz.
    pub frequency_ghz: f64,
    /// Whether this was an exploration step (useful for diagnostics).
    pub exploration: bool,
}

/// The SmartOverclock learning model.
pub struct OverclockModel {
    node: Shared<CpuNode>,
    config: OverclockConfig,
    learner: QLearner,
    frequencies: &'static [f64],
    max_plausible_ips: f64,
    epoch_samples: Vec<CounterSample>,
    prev_state: Option<usize>,
    prev_action: Option<usize>,
    reward_deltas: VecDeque<f64>,
    epochs: u64,
}

impl std::fmt::Debug for OverclockModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverclockModel")
            .field("epochs", &self.epochs)
            .field("frequencies", &self.frequencies)
            .finish()
    }
}

impl OverclockModel {
    /// Creates the model for a node handle.
    pub fn new(node: Shared<CpuNode>, config: OverclockConfig) -> Self {
        let (frequencies, max_ips) =
            node.with(|n| (n.available_frequencies_ghz(), n.max_plausible_ips()));
        let states = ALPHA_BINS * frequencies.len();
        let mut qconfig = QConfig::new(states, frequencies.len());
        qconfig.exploration = config.exploration;
        let learner = QLearner::with_seed(qconfig, config.seed);
        OverclockModel {
            node,
            config,
            learner,
            frequencies,
            max_plausible_ips: max_ips,
            epoch_samples: Vec::new(),
            prev_state: None,
            prev_action: None,
            reward_deltas: VecDeque::new(),
            epochs: 0,
        }
    }

    /// Number of learning epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Read access to the Q-learner (for diagnostics and tests).
    pub fn learner(&self) -> &QLearner {
        &self.learner
    }

    fn alpha_bin(alpha: f64) -> usize {
        if alpha < 0.1 {
            0
        } else if alpha < 0.3 {
            1
        } else if alpha < 0.6 {
            2
        } else {
            3
        }
    }

    fn freq_index(&self, ghz: f64) -> usize {
        self.frequencies.iter().position(|f| (f - ghz).abs() < 1e-9).unwrap_or(0)
    }

    fn state(&self, alpha: f64, freq_ghz: f64) -> usize {
        Self::alpha_bin(alpha) * self.frequencies.len() + self.freq_index(freq_ghz)
    }

    /// Reward of running the epoch at `freq_ghz` while observing `ips`.
    fn reward(&self, ips: f64, freq_ghz: f64) -> f64 {
        let perf = (ips / self.max_plausible_ips).clamp(0.0, 1.0) * REWARD_PERF_WEIGHT;
        let power_premium =
            (freq_ghz - NOMINAL_FREQUENCY_GHZ) / NOMINAL_FREQUENCY_GHZ * REWARD_POWER_WEIGHT;
        perf - power_premium
    }

    /// Δr: the advantage of the epoch's overclocking decision over staying at
    /// the nominal frequency, assuming IPS scales at most linearly with
    /// frequency (paper §5.1 "Assessing the model").
    fn reward_delta(&self, ips: f64, freq_ghz: f64) -> f64 {
        if freq_ghz <= NOMINAL_FREQUENCY_GHZ {
            return 0.0;
        }
        let observed = self.reward(ips, freq_ghz);
        let nominal_ips = ips * NOMINAL_FREQUENCY_GHZ / freq_ghz;
        let expected_nominal = self.reward(nominal_ips, NOMINAL_FREQUENCY_GHZ);
        observed - expected_nominal
    }

    fn highest_frequency(&self) -> f64 {
        self.frequencies.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
    }
}

impl Model for OverclockModel {
    type Data = CounterSample;
    type Pred = FrequencyDecision;

    fn collect_data(&mut self, _now: Timestamp) -> Result<CounterSample, DataError> {
        self.node.with(|n| n.take_counter_sample())
    }

    fn validate_data(&self, sample: &CounterSample) -> bool {
        if !self.config.validate_data {
            return true;
        }
        sample.ips.is_finite()
            && sample.ips >= 0.0
            && sample.ips <= self.max_plausible_ips
            && (0.0..=1.0).contains(&sample.alpha)
    }

    fn commit_data(&mut self, _now: Timestamp, sample: CounterSample) {
        self.epoch_samples.push(sample);
    }

    fn update_model(&mut self, _now: Timestamp) {
        if self.epoch_samples.is_empty() {
            return;
        }
        let n = self.epoch_samples.len() as f64;
        let avg_ips = self.epoch_samples.iter().map(|s| s.ips).sum::<f64>() / n;
        let avg_alpha = self.epoch_samples.iter().map(|s| s.alpha).sum::<f64>() / n;
        let freq = self.epoch_samples.last().expect("non-empty").frequency_ghz;

        let state = self.state(avg_alpha, freq);
        let reward = self.reward(avg_ips, freq);
        if let (Some(ps), Some(pa)) = (self.prev_state, self.prev_action) {
            self.learner.update(ps, pa, reward, state);
        }
        self.prev_state = Some(state);

        // Track Δr for the model safeguard.
        self.reward_deltas.push_back(self.reward_delta(avg_ips, freq));
        while self.reward_deltas.len() > REWARD_DELTA_WINDOW {
            self.reward_deltas.pop_front();
        }

        self.epochs += 1;
        self.epoch_samples.clear();
    }

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<FrequencyDecision>> {
        let state = self.prev_state?;
        let (action, exploration) = if self.config.broken_model {
            (self.freq_index(self.highest_frequency()), false)
        } else {
            let chosen = self.learner.choose_action(state);
            (chosen.action, chosen.kind == sol_ml::qlearning::ActionKind::Explore)
        };
        self.prev_action = Some(action);
        let decision = FrequencyDecision { frequency_ghz: self.frequencies[action], exploration };
        Some(Prediction::model(decision, now, now + PREDICTION_VALIDITY))
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<FrequencyDecision> {
        Prediction::fallback(
            FrequencyDecision { frequency_ghz: NOMINAL_FREQUENCY_GHZ, exploration: false },
            now,
            now + PREDICTION_VALIDITY,
        )
    }

    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        if !self.config.model_safeguard || self.reward_deltas.is_empty() {
            return ModelAssessment::Healthy;
        }
        let avg: f64 = self.reward_deltas.iter().sum::<f64>() / self.reward_deltas.len() as f64;
        if avg < REWARD_DELTA_THRESHOLD {
            ModelAssessment::Failing
        } else {
            ModelAssessment::Healthy
        }
    }

    fn export_learned(&self) -> Option<LearnedState> {
        Some(self.learner.export_learned())
    }

    fn import_learned(&mut self, state: &LearnedState) -> Result<(), ExchangeError> {
        self.learner.import_learned(state)
    }
}

/// The SmartOverclock actuator: applies frequency decisions and enforces the
/// α-based end-to-end safeguard.
pub struct OverclockActuator {
    node: Shared<CpuNode>,
    config: OverclockConfig,
    alpha_window: SlidingWindow,
}

impl std::fmt::Debug for OverclockActuator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverclockActuator")
            .field("alpha_samples", &self.alpha_window.len())
            .finish()
    }
}

impl OverclockActuator {
    /// Creates the actuator for a node handle.
    pub fn new(node: Shared<CpuNode>, config: OverclockConfig) -> Self {
        let alpha_window = SlidingWindow::new(ALPHA_WINDOW);
        OverclockActuator { node, config, alpha_window }
    }

    /// P90 of the α observations currently in the safeguard window.
    pub fn alpha_p90(&self) -> f64 {
        self.alpha_window.quantile(0.9)
    }
}

impl Actuator for OverclockActuator {
    type Pred = FrequencyDecision;

    fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<FrequencyDecision>>) {
        self.node.with(|n| match pred {
            Some(p) => n.set_frequency_ghz(p.value().frequency_ghz),
            // No fresh prediction: take the safe default action.
            None => n.restore_nominal_frequency(),
        });
    }

    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        // α is sampled here (once per safeguard interval) rather than in
        // `take_action` so the window keeps filling while the Actuator is
        // halted — that is what lets the safeguard re-enable the agent
        // quickly when activity resumes (Figure 5).
        self.alpha_window.push(self.node.with(|n| n.current_alpha()));
        if !self.config.actuator_safeguard || !self.alpha_window.is_full() {
            return ActuatorAssessment::Acceptable;
        }
        ActuatorAssessment::from_acceptable(self.alpha_p90() >= ALPHA_THRESHOLD)
    }

    fn mitigate(&mut self, _now: Timestamp) {
        self.node.with(|n| n.restore_nominal_frequency());
    }

    fn clean_up(&mut self, _now: Timestamp) {
        self.node.with(|n| n.restore_nominal_frequency());
    }
}

/// The schedule SmartOverclock runs with: 100 ms counter samples, 1-second
/// learning epochs, a 5-second maximum actuation delay, and a 1-second
/// Actuator safeguard interval (paper §5.1).
pub fn overclock_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(10)
        .data_collect_interval(SimDuration::from_millis(100))
        .max_epoch_time(SimDuration::from_millis(1500))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_secs(5))
        .assess_actuator_interval(SimDuration::from_secs(1))
        .build()
        .expect("static schedule is valid")
}

/// The schedule for the *blocking* Actuator baseline of Figure 4: the
/// Actuator waits indefinitely for a prediction instead of falling back to the
/// nominal frequency after 5 seconds.
pub fn blocking_overclock_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(10)
        .data_collect_interval(SimDuration::from_millis(100))
        .max_epoch_time(SimDuration::from_millis(1500))
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_secs(100_000))
        .assess_actuator_interval(SimDuration::from_secs(1))
        .build()
        .expect("static schedule is valid")
}

/// Convenience constructor: builds the model/actuator pair for a shared node.
pub fn smart_overclock(
    node: &Shared<CpuNode>,
    config: OverclockConfig,
) -> (OverclockModel, OverclockActuator) {
    (
        OverclockModel::new(node.clone(), config.clone()),
        OverclockActuator::new(node.clone(), config),
    )
}

/// The SmartOverclock agent packaged for
/// [`ScenarioBuilder::register`](sol_core::runtime::builder::ScenarioBuilder::register):
/// name `"smart-overclock"`, the model/actuator pair for `node`, and the
/// paper's schedule.
pub fn overclock_blueprint(
    node: &Shared<CpuNode>,
    config: OverclockConfig,
) -> sol_core::runtime::builder::AgentBlueprint<OverclockModel, OverclockActuator> {
    let (model, actuator) = smart_overclock(node, config);
    sol_core::runtime::builder::AgentBlueprint::new(
        "smart-overclock",
        model,
        actuator,
        overclock_schedule(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_core::prelude::*;
    use sol_node_sim::cpu_node::CpuNodeConfig;
    use sol_node_sim::workload::OverclockWorkloadKind;

    fn shared_node(kind: OverclockWorkloadKind) -> Shared<CpuNode> {
        Shared::new(CpuNode::new(kind.build(8), CpuNodeConfig { cores: 8, ..Default::default() }))
    }

    fn run(
        kind: OverclockWorkloadKind,
        config: OverclockConfig,
        secs: u64,
    ) -> (Shared<CpuNode>, AgentStats) {
        let node = shared_node(kind);
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(overclock_blueprint(&node, config));
        let mut report = builder.build().run_for(SimDuration::from_secs(secs)).unwrap();
        (node, report.take(agent).stats)
    }

    #[test]
    fn learns_to_overclock_cpu_bound_workload() {
        let (node, stats) =
            run(OverclockWorkloadKind::ObjectStore, OverclockConfig::default(), 300);
        assert!(stats.model.epochs_completed > 200);
        // The learned policy should outperform a static nominal run.
        let baseline = shared_node(OverclockWorkloadKind::ObjectStore);
        baseline.with(|n| n.advance_to(Timestamp::from_secs(300)));
        let agent_score = node.with(|n| n.performance().score);
        let baseline_score = baseline.with(|n| n.performance().score);
        assert!(
            agent_score > baseline_score * 1.2,
            "agent {agent_score} vs nominal {baseline_score}"
        );
    }

    #[test]
    fn avoids_overclocking_disk_bound_workload() {
        let (node, _) = run(OverclockWorkloadKind::DiskSpeed, OverclockConfig::default(), 300);
        let static_turbo = shared_node(OverclockWorkloadKind::DiskSpeed);
        static_turbo.with(|n| {
            n.set_frequency_ghz(2.3);
            n.advance_to(Timestamp::from_secs(300));
        });
        let agent_power = node.with(|n| n.average_power_watts());
        let turbo_power = static_turbo.with(|n| n.average_power_watts());
        assert!(
            agent_power < turbo_power * 0.9,
            "agent should use much less power than static overclock: {agent_power} vs {turbo_power}"
        );
    }

    #[test]
    fn data_validation_discards_out_of_range_ips() {
        let node = shared_node(OverclockWorkloadKind::Synthetic);
        node.with(|n| n.set_bad_ips_probability(0.3));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
        let report = builder.build().run_for(SimDuration::from_secs(60)).unwrap();
        let stats = report.agent(agent).stats();
        assert!(stats.model.samples_discarded > 50);
        assert!(stats.model.samples_committed > 0);
    }

    #[test]
    fn broken_model_is_intercepted_by_model_safeguard() {
        let config = OverclockConfig { broken_model: true, ..OverclockConfig::default() };
        let (_, stats) = run(OverclockWorkloadKind::DiskSpeed, config, 120);
        assert!(
            stats.model.intercepted_predictions > 0,
            "model safeguard should intercept the broken model"
        );
        assert!(stats.model.model_assessment_failures > 0);
    }

    #[test]
    fn broken_model_without_safeguard_is_not_intercepted() {
        let config =
            OverclockConfig { broken_model: true, ..OverclockConfig::without_safeguards() };
        let (_, stats) = run(OverclockWorkloadKind::DiskSpeed, config, 120);
        assert_eq!(stats.model.intercepted_predictions, 0);
    }

    #[test]
    fn actuator_safeguard_disables_overclocking_during_idle() {
        // A tiny batch followed by a very long idle phase.
        use sol_node_sim::workload::SyntheticBatch;
        let workload = SyntheticBatch::new(SimDuration::from_secs(10_000), 40.0, 8.0);
        let node = Shared::new(CpuNode::new(
            Box::new(workload),
            CpuNodeConfig { cores: 8, ..Default::default() },
        ));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(overclock_blueprint(&node, OverclockConfig::default()));
        let report = builder.build().run_for(SimDuration::from_secs(400)).unwrap();
        assert!(
            report.agent(agent).stats().actuator.safeguard_triggers >= 1,
            "idle workload should trip the alpha safeguard"
        );
        // Node ends at the nominal frequency.
        assert_eq!(node.with(|n| n.frequency_ghz()), 1.5);
    }

    #[test]
    fn cleanup_restores_nominal_frequency() {
        let node = shared_node(OverclockWorkloadKind::ObjectStore);
        let (_, mut actuator) = smart_overclock(&node, OverclockConfig::default());
        node.with(|n| n.set_frequency_ghz(2.3));
        actuator.clean_up(Timestamp::from_secs(1));
        assert_eq!(node.with(|n| n.frequency_ghz()), 1.5);
        // Idempotent.
        actuator.clean_up(Timestamp::from_secs(2));
        assert_eq!(node.with(|n| n.frequency_ghz()), 1.5);
    }
}
