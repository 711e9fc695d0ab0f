//! SmartHarvest: a CPU-harvesting agent (paper §5.2, originally from
//! EuroSys'21 \[37\]).
//!
//! The agent opportunistically "harvests" CPU cores that were allocated to a
//! primary VM but are currently idle, loaning them to an ElasticVM and
//! returning them as soon as the primary needs them. It samples the primary
//! VM's CPU usage through the hypervisor, computes distributional features
//! over each 25 ms learning epoch, and uses a cost-sensitive classifier to
//! predict the maximum number of cores the primary will need next epoch.
//!
//! Safeguards (paper §5.2):
//! * **Data validation** — samples taken while the primary VM uses all its
//!   allocated cores are discarded (true demand is unobservable then), plus
//!   range checks.
//! * **Model safeguard** — the fraction of time model predictions leave the
//!   primary VM with no idle core is tracked; when it grows too high, default
//!   (conservative) predictions are used instead.
//! * **Non-blocking Actuator** — if no fresh prediction arrives within 100 ms,
//!   every core is returned to the primary VM.
//! * **Actuator safeguard** — the P99 of the primary VM's vCPU wait time must
//!   stay under a threshold; otherwise harvesting is disabled.

use std::collections::VecDeque;

use sol_core::actuator::{Actuator, ActuatorAssessment};
use sol_core::error::DataError;
use sol_core::model::{Model, ModelAssessment};
use sol_core::prediction::Prediction;
use sol_core::schedule::Schedule;
use sol_core::time::{SimDuration, Timestamp};
use sol_ml::cost_sensitive::{CostSensitiveClassifier, CostSensitiveExample};
use sol_ml::features::DistributionalFeatures;
use sol_node_sim::harvest_node::{HarvestNode, UsageSample};
use sol_node_sim::shared::Shared;

/// Extra cores added on top of the predicted demand as a safety buffer.
const SAFETY_BUFFER_CORES: usize = 2;
/// Cost of under-predicting demand by one core (relative to 1.0 for
/// over-predicting by one core).
const UNDER_PREDICTION_PENALTY: f64 = 8.0;
/// Classifier learning rate.
const LEARNING_RATE: f64 = 0.05;
/// Fraction of model-driven epochs that may leave the primary VM without an
/// idle core before the model safeguard trips.
const STARVATION_FRACTION_THRESHOLD: f64 = 0.1;
/// Number of epochs over which the starvation fraction is computed.
const STARVATION_WINDOW: usize = 40;
/// How long a prediction stays valid.
const PREDICTION_VALIDITY: SimDuration = SimDuration::from_millis(100);
/// P99 vCPU wait-time threshold (milliseconds) for the Actuator safeguard.
const WAIT_P99_THRESHOLD_MS: f64 = 0.2;

/// Configuration for the SmartHarvest agent.
#[derive(Debug, Clone)]
pub struct HarvestConfig {
    /// Enable the data-validation safeguard (discard saturated samples).
    pub validate_data: bool,
    /// Enable the model safeguard (starvation-fraction check).
    pub model_safeguard: bool,
    /// Enable the Actuator safeguard (P99 vCPU wait check).
    pub actuator_safeguard: bool,
    /// Fault injection: the model is broken and always predicts the minimum
    /// core demand (consistent under-prediction, paper §6.3).
    pub broken_model: bool,
}

impl Default for HarvestConfig {
    fn default() -> Self {
        HarvestConfig {
            validate_data: true,
            model_safeguard: true,
            actuator_safeguard: true,
            broken_model: false,
        }
    }
}

impl HarvestConfig {
    /// A configuration with every safeguard disabled.
    pub fn without_safeguards() -> Self {
        HarvestConfig {
            validate_data: false,
            model_safeguard: false,
            actuator_safeguard: false,
            ..HarvestConfig::default()
        }
    }
}

/// The core-demand prediction flowing from the Model to the Actuator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreDemandPrediction {
    /// Number of cores the primary VM is predicted to need next epoch
    /// (including the safety buffer).
    pub cores_needed: usize,
}

/// The SmartHarvest learning model.
pub struct HarvestModel {
    node: Shared<HarvestNode>,
    config: HarvestConfig,
    classifier: CostSensitiveClassifier,
    total_cores: usize,
    epoch_usage: Vec<f64>,
    epoch_saw_saturation_while_harvesting: bool,
    prev_features: Option<Vec<f64>>,
    recent_max_usage: VecDeque<f64>,
    starvation_history: VecDeque<bool>,
    epochs: u64,
}

impl std::fmt::Debug for HarvestModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarvestModel").field("epochs", &self.epochs).finish()
    }
}

impl HarvestModel {
    /// Creates the model for a node handle.
    pub fn new(node: Shared<HarvestNode>, config: HarvestConfig) -> Self {
        let total_cores = node.with(|n| n.total_cores());
        let classifier = CostSensitiveClassifier::new(
            DistributionalFeatures::LEN,
            total_cores + 1,
            LEARNING_RATE,
        );
        HarvestModel {
            node,
            config,
            classifier,
            total_cores,
            epoch_usage: Vec::new(),
            epoch_saw_saturation_while_harvesting: false,
            prev_features: None,
            recent_max_usage: VecDeque::new(),
            starvation_history: VecDeque::new(),
            epochs: 0,
        }
    }

    /// Number of learning epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Fraction of recent epochs in which model-driven harvesting left the
    /// primary VM without idle cores (the model safeguard signal).
    pub fn starvation_fraction(&self) -> f64 {
        if self.starvation_history.is_empty() {
            return 0.0;
        }
        let bad = self.starvation_history.iter().filter(|&&b| b).count();
        bad as f64 / self.starvation_history.len() as f64
    }

    fn conservative_estimate(&self) -> usize {
        // The default prediction keeps every core with the primary VM: zero
        // impact on customer QoS at the cost of harvesting nothing while the
        // model cannot be trusted (paper §4.1: default predictions favour
        // safety over efficiency). It also restores visibility into the
        // primary VM's true demand, which is what lets the model recover.
        self.total_cores
    }
}

impl Model for HarvestModel {
    type Data = UsageSample;
    type Pred = CoreDemandPrediction;

    fn collect_data(&mut self, _now: Timestamp) -> Result<UsageSample, DataError> {
        let sample = self.node.with(|n| n.sample_primary_usage());
        // The model safeguard signal (did harvesting leave the primary VM
        // without idle cores?) is tracked at collection time, before
        // validation: saturated samples are exactly the ones validation will
        // discard, yet they are the evidence the safeguard needs.
        if sample.is_saturated() && sample.allocated_cores < self.total_cores as f64 {
            self.epoch_saw_saturation_while_harvesting = true;
        }
        Ok(sample)
    }

    fn validate_data(&self, sample: &UsageSample) -> bool {
        if !self.config.validate_data {
            return true;
        }
        let in_range = sample.used_cores.is_finite()
            && sample.used_cores >= 0.0
            && sample.used_cores <= self.total_cores as f64 + 1e-9;
        // During periods of full utilization it is impossible to tell whether
        // the VM needed exactly its allocation or more; learning from those
        // samples biases the model towards under-prediction (paper §5.2).
        in_range && !sample.is_saturated()
    }

    fn commit_data(&mut self, _now: Timestamp, sample: UsageSample) {
        self.epoch_usage.push(sample.used_cores);
    }

    fn update_model(&mut self, _now: Timestamp) {
        if self.epoch_usage.is_empty() {
            return;
        }
        let max_usage = self.epoch_usage.iter().cloned().fold(0.0f64, f64::max);
        let truth = (max_usage.ceil() as usize).min(self.total_cores);

        // Train on the previous epoch's features with this epoch's demand as
        // the label (predict-the-next-epoch formulation).
        if let Some(prev) = self.prev_features.take() {
            let example = CostSensitiveExample::from_ordinal_truth(
                prev,
                truth,
                self.total_cores + 1,
                UNDER_PREDICTION_PENALTY,
                1.0,
            );
            self.classifier.update(&example);
        }
        self.prev_features = Some(DistributionalFeatures::extract(&self.epoch_usage).into_values());

        self.recent_max_usage.push_back(max_usage);
        while self.recent_max_usage.len() > 8 {
            self.recent_max_usage.pop_front();
        }
        self.starvation_history.push_back(self.epoch_saw_saturation_while_harvesting);
        while self.starvation_history.len() > STARVATION_WINDOW {
            self.starvation_history.pop_front();
        }

        self.epoch_usage.clear();
        self.epoch_saw_saturation_while_harvesting = false;
        self.epochs += 1;
    }

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<CoreDemandPrediction>> {
        let features = self.prev_features.as_deref()?;
        let cores = if self.config.broken_model { 0 } else { self.classifier.predict(features) };
        let cores_needed = (cores + SAFETY_BUFFER_CORES).min(self.total_cores).max(1);
        Some(Prediction::model(
            CoreDemandPrediction { cores_needed },
            now,
            now + PREDICTION_VALIDITY,
        ))
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<CoreDemandPrediction> {
        Prediction::fallback(
            CoreDemandPrediction { cores_needed: self.conservative_estimate() },
            now,
            now + PREDICTION_VALIDITY,
        )
    }

    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        if !self.config.model_safeguard || self.starvation_history.len() < STARVATION_WINDOW / 2 {
            return ModelAssessment::Healthy;
        }
        let fraction = self.starvation_fraction();
        if fraction > STARVATION_FRACTION_THRESHOLD {
            ModelAssessment::Failing
        } else {
            ModelAssessment::Healthy
        }
    }
}

/// The SmartHarvest actuator: assigns cores between the primary VM and the
/// ElasticVM and enforces the vCPU-wait safeguard.
pub struct HarvestActuator {
    node: Shared<HarvestNode>,
    config: HarvestConfig,
}

impl std::fmt::Debug for HarvestActuator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HarvestActuator").finish_non_exhaustive()
    }
}

impl HarvestActuator {
    /// Creates the actuator for a node handle.
    pub fn new(node: Shared<HarvestNode>, config: HarvestConfig) -> Self {
        HarvestActuator { node, config }
    }
}

impl Actuator for HarvestActuator {
    type Pred = CoreDemandPrediction;

    fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<CoreDemandPrediction>>) {
        self.node.with(|n| match pred {
            Some(p) => n.set_primary_cores(p.value().cores_needed),
            // No fresh prediction: return every core to the primary VM.
            None => n.return_all_cores(),
        });
    }

    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        if !self.config.actuator_safeguard {
            return ActuatorAssessment::Acceptable;
        }
        let p99_wait = self.node.with(|n| n.p99_wait_ms());
        ActuatorAssessment::from_acceptable(p99_wait <= WAIT_P99_THRESHOLD_MS)
    }

    fn mitigate(&mut self, _now: Timestamp) {
        self.node.with(|n| n.return_all_cores());
    }

    fn clean_up(&mut self, _now: Timestamp) {
        self.node.with(|n| n.return_all_cores());
    }
}

/// The schedule SmartHarvest runs with. The paper samples CPU usage every
/// 50 µs and takes a harvesting decision every 25 ms; the simulator samples
/// every 1 ms (25 samples per 25 ms epoch), which preserves the control-loop
/// structure at ~20× lower simulation cost. The Actuator waits at most 100 ms
/// (4 learning epochs) for a prediction, as in the paper.
pub fn harvest_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(25)
        .data_collect_interval(SimDuration::from_millis(1))
        .max_epoch_time(SimDuration::from_millis(40))
        .min_data_per_epoch(10)
        .assess_model_every_epochs(4)
        .max_actuation_delay(SimDuration::from_millis(100))
        .assess_actuator_interval(SimDuration::from_millis(250))
        .build()
        .expect("static schedule is valid")
}

/// The schedule for the *blocking* Actuator baseline (Figure 6, right): the
/// Actuator waits indefinitely for a prediction instead of returning cores
/// after 100 ms.
pub fn blocking_harvest_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(25)
        .data_collect_interval(SimDuration::from_millis(1))
        .max_epoch_time(SimDuration::from_millis(40))
        .min_data_per_epoch(10)
        .assess_model_every_epochs(4)
        .max_actuation_delay(SimDuration::from_secs(100_000))
        .assess_actuator_interval(SimDuration::from_millis(250))
        .build()
        .expect("static schedule is valid")
}

/// Convenience constructor: builds the model/actuator pair for a shared node.
pub fn smart_harvest(
    node: &Shared<HarvestNode>,
    config: HarvestConfig,
) -> (HarvestModel, HarvestActuator) {
    (HarvestModel::new(node.clone(), config.clone()), HarvestActuator::new(node.clone(), config))
}

/// The SmartHarvest agent packaged for
/// [`ScenarioBuilder::register`](sol_core::runtime::builder::ScenarioBuilder::register):
/// name `"smart-harvest"`, the model/actuator pair for `node`, and the
/// paper's schedule.
pub fn harvest_blueprint(
    node: &Shared<HarvestNode>,
    config: HarvestConfig,
) -> sol_core::runtime::builder::AgentBlueprint<HarvestModel, HarvestActuator> {
    let (model, actuator) = smart_harvest(node, config);
    sol_core::runtime::builder::AgentBlueprint::new(
        "smart-harvest",
        model,
        actuator,
        harvest_schedule(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_core::prelude::*;
    use sol_node_sim::harvest_node::{BurstyService, HarvestNodeConfig};

    fn shared_node(service: BurstyService) -> Shared<HarvestNode> {
        Shared::new(HarvestNode::new(service, HarvestNodeConfig::default()))
    }

    fn run(
        service: BurstyService,
        config: HarvestConfig,
        secs: u64,
    ) -> (Shared<HarvestNode>, AgentStats) {
        let node = shared_node(service);
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(harvest_blueprint(&node, config));
        let mut report = builder.build().run_for(SimDuration::from_secs(secs)).unwrap();
        (node, report.take(agent).stats)
    }

    #[test]
    fn harvests_cores_with_small_latency_impact() {
        let service = BurstyService::image_dnn();
        let base_latency = service.base_latency_ms;
        let (node, stats) = run(service, HarvestConfig::default(), 60);
        let harvested = node.with(|n| n.harvested_core_seconds());
        let p99 = node.with(|n| n.p99_latency_ms());
        assert!(stats.model.epochs_completed > 500);
        assert!(harvested > 30.0, "should harvest idle capacity, got {harvested} core-seconds");
        assert!(
            p99 < 4.0 * base_latency,
            "P99 latency {p99} should stay close to the baseline {base_latency}"
        );
    }

    #[test]
    fn broken_model_is_caught_by_model_safeguard() {
        let config = HarvestConfig { broken_model: true, ..HarvestConfig::default() };
        let (_, stats) = run(BurstyService::moses(), config, 30);
        assert!(stats.model.intercepted_predictions > 0);
    }

    #[test]
    fn broken_model_without_safeguards_hurts_latency_more() {
        let service = BurstyService::image_dnn();
        let unsafe_config =
            HarvestConfig { broken_model: true, ..HarvestConfig::without_safeguards() };
        let safe_config = HarvestConfig { broken_model: true, ..HarvestConfig::default() };
        let (unsafe_node, _) = run(service.clone(), unsafe_config, 30);
        let (safe_node, _) = run(service, safe_config, 30);
        // The P99 saturates at the worst-case value for both configurations
        // (a single starved control interval is enough), so compare the mean
        // latency and the fraction of time the primary VM was starved.
        let unsafe_mean = unsafe_node.with(|n| n.mean_latency_ms());
        let safe_mean = safe_node.with(|n| n.mean_latency_ms());
        assert!(
            unsafe_mean > safe_mean * 1.3,
            "safeguards should reduce latency impact: {unsafe_mean} vs {safe_mean}"
        );
        let unsafe_starved = unsafe_node.with(|n| n.starvation_fraction());
        let safe_starved = safe_node.with(|n| n.starvation_fraction());
        assert!(
            unsafe_starved > 2.0 * safe_starved,
            "safeguards should cut starvation: {unsafe_starved} vs {safe_starved}"
        );
    }

    #[test]
    fn saturated_samples_are_discarded_by_validation() {
        let node = shared_node(BurstyService::image_dnn());
        // Force saturation by starving the primary before the agent starts.
        node.with(|n| n.set_primary_cores(1));
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(harvest_blueprint(&node, HarvestConfig::default()));
        let report = builder.build().run_for(SimDuration::from_secs(10)).unwrap();
        assert!(report.agent(agent).stats().model.samples_discarded > 0);
    }

    #[test]
    fn actuator_without_prediction_returns_all_cores() {
        let node = shared_node(BurstyService::moses());
        node.with(|n| n.set_primary_cores(2));
        let (_, mut actuator) = smart_harvest(&node, HarvestConfig::default());
        actuator.take_action(Timestamp::from_millis(1), None);
        assert_eq!(node.with(|n| n.primary_cores()), 8);
    }

    #[test]
    fn cleanup_and_mitigate_return_cores() {
        let node = shared_node(BurstyService::moses());
        node.with(|n| n.set_primary_cores(3));
        let (_, mut actuator) = smart_harvest(&node, HarvestConfig::default());
        actuator.mitigate(Timestamp::from_millis(1));
        assert_eq!(node.with(|n| n.primary_cores()), 8);
        node.with(|n| n.set_primary_cores(3));
        actuator.clean_up(Timestamp::from_millis(2));
        assert_eq!(node.with(|n| n.primary_cores()), 8);
    }
}
