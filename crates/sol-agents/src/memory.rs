//! SmartMemory: page classification for two-tiered memory systems
//! (paper §5.3).
//!
//! The agent learns, per 2 MB batch of memory, the lowest access-bit scanning
//! frequency that does not under-sample the batch, using Thompson sampling
//! with a Beta prior (one bandit per batch over the candidate scan intervals
//! 300 ms … 9.6 s). Every 38.4-second learning epoch it labels each batch as
//! over-, under-, or well-sampled, updates the bandits, estimates the minimal
//! set of batches that contributed 80% of accesses (hot), and proposes the
//! rest as warm candidates for second-tier memory. Batches untouched for more
//! than 3 minutes are cold.
//!
//! Safeguards (paper §5.3):
//! * **Data validation** — scans that return driver errors fail the sample.
//! * **Model safeguard** — 10% of batches are ground-truth sampled at the
//!   maximum frequency; if the model-recommended rates miss more than 25% of
//!   their accesses, predictions are intercepted and a conservative default
//!   (only the coldest 5% of batches offloaded) is used.
//! * **Stale predictions** — no immediate action is needed; batches stay where
//!   they are and the Actuator safeguard handles any resulting SLO violation.
//! * **Actuator safeguard** — if the fraction of remote accesses over the
//!   recent window exceeds the SLO (20%), the hottest remote batches are
//!   migrated back to the first tier immediately.

use sol_core::actuator::{Actuator, ActuatorAssessment};
use sol_core::error::DataError;
use sol_core::model::{Model, ModelAssessment};
use sol_core::prediction::Prediction;
use sol_core::schedule::Schedule;
use sol_core::time::{SimDuration, Timestamp};
use sol_ml::thompson::ThompsonSampler;
use sol_node_sim::memory_node::MemoryNode;
use sol_node_sim::shared::Shared;

/// Candidate scan intervals, from the maximum frequency (300 ms) to the
/// minimum (9.6 s); each is double the previous (paper §5.3).
pub const SCAN_INTERVALS: [SimDuration; 6] = [
    SimDuration::from_millis(300),
    SimDuration::from_millis(600),
    SimDuration::from_millis(1_200),
    SimDuration::from_millis(2_400),
    SimDuration::from_millis(4_800),
    SimDuration::from_millis(9_600),
];

/// Fraction of total estimated accesses the hot set must cover. The paper
/// targets the SLO value (0.8); this reproduction adds a small margin because
/// the rate estimates behind the classification are noisier than the paper's
/// per-page counters, and classifying exactly at the SLO makes the Actuator
/// safeguard flap.
const HOT_ACCESS_FRACTION: f64 = 0.88;
/// Batches considered cold after this much time without an access
/// (3 minutes).
const COLD_AFTER: SimDuration = SimDuration::from_secs(180);
/// Number of hottest remote batches migrated back on mitigation (100).
const MITIGATION_BATCHES: usize = 100;
/// How long a prediction stays valid.
const PREDICTION_VALIDITY: SimDuration = SimDuration::from_secs(80);
/// One batch in this many is ground-truth sampled at the maximum frequency
/// for the model safeguard (a fraction of 0.1).
const GROUND_TRUTH_EVERY: usize = 10;
/// Missed-access fraction above which the model is deemed to be
/// undersampling (0.25).
const MISSED_ACCESS_THRESHOLD: f64 = 0.25;
/// Fraction of the coldest batches offloaded by the conservative default
/// prediction (0.05).
const DEFAULT_OFFLOAD_FRACTION: f64 = 0.05;

/// Configuration for the SmartMemory agent.
#[derive(Debug, Clone)]
pub struct MemoryConfig {
    /// Enable the model safeguard (ground-truth undersampling check).
    pub model_safeguard: bool,
    /// Enable the Actuator safeguard (remote-access SLO check).
    pub actuator_safeguard: bool,
    /// Target fraction of accesses that must stay local (0.8 in the paper,
    /// i.e. at most 20% remote).
    pub local_access_slo: f64,
    /// RNG seed for the Thompson samplers.
    pub seed: u64,
}

impl Default for MemoryConfig {
    fn default() -> Self {
        MemoryConfig {
            model_safeguard: true,
            actuator_safeguard: true,
            local_access_slo: 0.8,
            seed: 23,
        }
    }
}

impl MemoryConfig {
    /// A configuration with every safeguard disabled.
    pub fn without_safeguards() -> Self {
        MemoryConfig {
            model_safeguard: false,
            actuator_safeguard: false,
            ..MemoryConfig::default()
        }
    }

    /// A configuration with only the Actuator safeguard enabled (used by the
    /// Figure 8 ablation).
    pub fn actuator_safeguard_only() -> Self {
        MemoryConfig { model_safeguard: false, ..MemoryConfig::default() }
    }
}

/// How a batch should be placed, as decided by the Model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchClass {
    /// Keep in (or migrate to) first-tier DRAM.
    Hot,
    /// Candidate for second-tier memory.
    Warm,
    /// Untouched for a long time; also kept in second-tier memory.
    Cold,
}

/// The placement plan flowing from the Model to the Actuator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TieringPlan {
    /// Per-batch classification, indexed by batch id.
    pub classes: Vec<BatchClass>,
}

/// One round of access-bit scans (the Model's data sample type).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ScanRound {
    /// `(batch, pages_with_access_bit_set, accessed)` for each batch scanned
    /// this round.
    pub scans: Vec<(usize, u32, bool)>,
    /// Batches whose scan failed with a driver error.
    pub failures: u32,
}

#[derive(Debug, Clone)]
struct BatchState {
    bandit: ThompsonSampler,
    arm: usize,
    next_scan: Timestamp,
    scans_this_epoch: u32,
    set_scans_this_epoch: u32,
    pages_seen_this_epoch: u64,
    last_seen_accessed: Timestamp,
    ground_truth: bool,
}

/// The SmartMemory learning model.
pub struct MemoryModel {
    node: Shared<MemoryNode>,
    config: MemoryConfig,
    batches: Vec<BatchState>,
    epoch_index: u64,
    missed_fraction: f64,
    /// Number of consecutive epochs whose missed-access estimate exceeded the
    /// threshold; the safeguard requires two in a row so a single noisy
    /// ground-truth estimate does not wipe out a good placement.
    consecutive_missed_epochs: u32,
    /// Per-batch access-rate estimates from the last completed epoch,
    /// computed before the bandits pick new arms so the estimates match the
    /// intervals the scans actually used.
    rate_estimates: Vec<f64>,
    last_plan: Option<Vec<BatchClass>>,
}

impl std::fmt::Debug for MemoryModel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryModel")
            .field("batches", &self.batches.len())
            .field("epochs", &self.epoch_index)
            .finish()
    }
}

impl MemoryModel {
    /// Creates the model for a node handle.
    pub fn new(node: Shared<MemoryNode>, config: MemoryConfig) -> Self {
        let count = node.with(|n| n.batch_count());
        let batches = (0..count)
            .map(|i| BatchState {
                bandit: ThompsonSampler::with_seed(SCAN_INTERVALS.len(), config.seed ^ i as u64),
                // Start at the maximum frequency so early epochs do not
                // under-sample while the bandits are still uninformed.
                arm: 0,
                next_scan: Timestamp::ZERO,
                scans_this_epoch: 0,
                set_scans_this_epoch: 0,
                pages_seen_this_epoch: 0,
                last_seen_accessed: Timestamp::ZERO,
                ground_truth: i % GROUND_TRUTH_EVERY == 0,
            })
            .collect();
        MemoryModel {
            node,
            config,
            batches,
            epoch_index: 0,
            missed_fraction: 0.0,
            consecutive_missed_epochs: 0,
            rate_estimates: Vec::new(),
            last_plan: None,
        }
    }

    /// Number of learning epochs completed.
    pub fn epochs(&self) -> u64 {
        self.epoch_index
    }

    /// The fraction of ground-truth accesses missed by the model-recommended
    /// scan rates in the last epoch (the model safeguard signal).
    pub fn missed_fraction(&self) -> f64 {
        self.missed_fraction
    }

    /// Estimated access activity per batch: the estimates stored by the last
    /// completed epoch when available, otherwise a live computation over the
    /// current epoch's partial scans.
    fn estimated_rates(&self) -> Vec<f64> {
        if !self.rate_estimates.is_empty() {
            return self.rate_estimates.clone();
        }
        self.live_rates()
    }

    /// Live per-batch rate proxy: the average number of page access bits found
    /// set per scan, divided by the scan interval. Using per-page counts (512
    /// pages per 2 MB batch) rather than the single batch bit gives enough
    /// resolution to rank batches even when every batch is touched at least
    /// once per scan; dividing by the interval makes estimates comparable
    /// across scan frequencies.
    fn live_rates(&self) -> Vec<f64> {
        self.batches
            .iter()
            .map(|b| {
                if b.scans_this_epoch == 0 {
                    0.0
                } else {
                    let pages_per_scan = b.pages_seen_this_epoch as f64 / b.scans_this_epoch as f64;
                    let interval = SCAN_INTERVALS[b.arm].as_secs_f64();
                    pages_per_scan / interval
                }
            })
            .collect()
    }

    fn classify(&self, now: Timestamp, rates: &[f64]) -> Vec<BatchClass> {
        let mut order: Vec<usize> = (0..rates.len()).collect();
        order.sort_by(|&a, &b| rates[b].partial_cmp(&rates[a]).expect("no NaN rates"));
        let total: f64 = rates.iter().sum();
        let mut classes = vec![BatchClass::Warm; rates.len()];
        let mut covered = 0.0;
        for &idx in &order {
            if total > 0.0 && covered / total >= HOT_ACCESS_FRACTION {
                break;
            }
            classes[idx] = BatchClass::Hot;
            covered += rates[idx];
        }
        for (i, b) in self.batches.iter().enumerate() {
            if now.duration_since(b.last_seen_accessed) > COLD_AFTER {
                classes[i] = BatchClass::Cold;
            }
        }
        classes
    }
}

impl Model for MemoryModel {
    type Data = ScanRound;
    type Pred = TieringPlan;

    fn collect_data(&mut self, now: Timestamp) -> Result<ScanRound, DataError> {
        let mut round = ScanRound::default();
        let due: Vec<usize> = self
            .batches
            .iter()
            .enumerate()
            .filter(|(_, b)| now >= b.next_scan)
            .map(|(i, _)| i)
            .collect();
        for i in due {
            // Ground-truth batches are always scanned at the maximum
            // frequency; the others follow their bandit-chosen interval.
            let interval = if self.batches[i].ground_truth && self.config.model_safeguard {
                SCAN_INTERVALS[0]
            } else {
                SCAN_INTERVALS[self.batches[i].arm]
            };
            match self.node.with(|n| n.scan_batch(i)) {
                Ok(scan) => {
                    round.scans.push((i, scan.pages_set, scan.accessed));
                    self.batches[i].next_scan = now + interval;
                }
                Err(_) => {
                    round.failures += 1;
                    // Retry the failed batch on the next collection.
                    self.batches[i].next_scan = now + SCAN_INTERVALS[0];
                }
            }
        }
        if round.failures > 0 && round.scans.is_empty() {
            return Err(DataError::SourceUnavailable("all access-bit scans failed".into()));
        }
        Ok(round)
    }

    fn validate_data(&self, round: &ScanRound) -> bool {
        // The scanning driver reports failures explicitly; a round is valid
        // only if no scan in it failed (paper §5.3, "Validating data").
        round.failures == 0
    }

    fn commit_data(&mut self, now: Timestamp, round: ScanRound) {
        for (batch, pages_set, accessed) in round.scans {
            let state = &mut self.batches[batch];
            state.scans_this_epoch += 1;
            state.pages_seen_this_epoch += u64::from(pages_set);
            if accessed {
                state.set_scans_this_epoch += 1;
                state.last_seen_accessed = now;
            }
        }
    }

    fn update_model(&mut self, _now: Timestamp) {
        self.epoch_index += 1;
        // Freeze the rate estimates before new arms are chosen: the estimates
        // must be interpreted against the intervals the scans actually used.
        self.rate_estimates = self.live_rates();

        // Reward each batch's chosen interval based on how full its access
        // bits were when scanned (the per-page occupancy). Nearly saturated
        // bits mean the batch is under-sampled at this interval and should be
        // scanned faster; nearly empty bits mean it is over-sampled and can be
        // scanned slower; in between the interval is right. The fastest and
        // slowest intervals are treated as "right" when there is no faster or
        // slower arm to move to. This reproduces the paper's
        // over/under/well-sampled feedback with Beta-Bernoulli arms.
        let mut ground_truth_pages = 0u64;
        let mut model_rate_pages = 0u64;
        for state in &mut self.batches {
            if state.scans_this_epoch == 0 {
                continue;
            }
            let pages_per_scan = state.pages_seen_this_epoch as f64 / state.scans_this_epoch as f64;
            let occupancy = pages_per_scan / 512.0;
            if occupancy >= 0.6 {
                // Under-sampled: the current interval is too slow.
                if state.arm == 0 {
                    state.bandit.record(0, true);
                } else {
                    state.bandit.record(state.arm, false);
                    state.bandit.record(state.arm - 1, true);
                }
            } else if occupancy <= 0.05 {
                // Over-sampled: the current interval is needlessly fast.
                if state.arm + 1 == SCAN_INTERVALS.len() {
                    state.bandit.record(state.arm, true);
                } else {
                    state.bandit.record(state.arm, false);
                    state.bandit.record(state.arm + 1, true);
                }
            } else {
                state.bandit.record(state.arm, true);
            }
            if state.ground_truth {
                // Ground-truth batches are scanned at the maximum frequency;
                // estimate how many access bits the model-chosen (slower)
                // rate would have observed instead. Pages that are re-touched
                // within the slower interval saturate (one set bit covers many
                // accesses), so the estimate inverts the occupancy formula
                // rather than scaling linearly.
                let pages = 512.0;
                let pages_per_fast_scan =
                    state.pages_seen_this_epoch as f64 / state.scans_this_epoch.max(1) as f64;
                let occupancy = (pages_per_fast_scan / pages).min(0.999);
                let accesses_per_fast = -pages * (1.0 - occupancy).ln();
                let slowdown =
                    SCAN_INTERVALS[state.arm].as_secs_f64() / SCAN_INTERVALS[0].as_secs_f64();
                let pages_per_slow_scan =
                    pages * (1.0 - (-accesses_per_fast * slowdown / pages).exp());
                // Compare bits observed per unit time.
                ground_truth_pages += state.pages_seen_this_epoch;
                model_rate_pages += ((pages_per_slow_scan / slowdown)
                    * state.scans_this_epoch as f64)
                    .round() as u64;
            }
            // Choose the arm for the next epoch.
            state.arm = state.bandit.select();
        }
        self.missed_fraction = if ground_truth_pages == 0 {
            0.0
        } else {
            1.0 - (model_rate_pages as f64 / ground_truth_pages as f64).min(1.0)
        };
    }

    fn predict(&mut self, now: Timestamp) -> Option<Prediction<TieringPlan>> {
        let rates = self.estimated_rates();
        let classes = self.classify(now, &rates);
        // Epoch counters are reset after classification so the next epoch
        // starts fresh.
        for state in &mut self.batches {
            state.scans_this_epoch = 0;
            state.set_scans_this_epoch = 0;
            state.pages_seen_this_epoch = 0;
        }
        self.last_plan = Some(classes.clone());
        Some(Prediction::model(TieringPlan { classes }, now, now + PREDICTION_VALIDITY))
    }

    fn default_predict(&self, now: Timestamp) -> Prediction<TieringPlan> {
        // Conservative fallback: downsample everything to a comparable rate
        // and offload only the coldest few percent of batches (paper §5.3).
        let rates = self.estimated_rates();
        let mut order: Vec<usize> = (0..rates.len()).collect();
        order.sort_by(|&a, &b| rates[a].partial_cmp(&rates[b]).expect("no NaN rates"));
        let offload = ((rates.len() as f64) * DEFAULT_OFFLOAD_FRACTION).floor() as usize;
        let mut classes = vec![BatchClass::Hot; rates.len()];
        for &idx in order.iter().take(offload) {
            classes[idx] = BatchClass::Warm;
        }
        Prediction::fallback(TieringPlan { classes }, now, now + PREDICTION_VALIDITY)
    }

    fn assess_model(&mut self, _now: Timestamp) -> ModelAssessment {
        if !self.config.model_safeguard {
            return ModelAssessment::Healthy;
        }
        if self.missed_fraction > MISSED_ACCESS_THRESHOLD {
            self.consecutive_missed_epochs += 1;
        } else {
            self.consecutive_missed_epochs = 0;
        }
        if self.consecutive_missed_epochs >= 2 {
            ModelAssessment::Failing
        } else {
            ModelAssessment::Healthy
        }
    }
}

/// The SmartMemory actuator: applies placement plans and enforces the
/// remote-access SLO safeguard.
pub struct MemoryActuator {
    node: Shared<MemoryNode>,
    config: MemoryConfig,
}

impl std::fmt::Debug for MemoryActuator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryActuator").finish_non_exhaustive()
    }
}

impl MemoryActuator {
    /// Creates the actuator for a node handle.
    pub fn new(node: Shared<MemoryNode>, config: MemoryConfig) -> Self {
        MemoryActuator { node, config }
    }
}

impl Actuator for MemoryActuator {
    type Pred = TieringPlan;

    fn take_action(&mut self, _now: Timestamp, pred: Option<&Prediction<TieringPlan>>) {
        // With no (or a stale) prediction the pages simply stay where they
        // are (paper §5.3, "Handling stale predictions").
        let Some(pred) = pred else { return };
        self.node.with(|n| {
            for (batch, class) in pred.value().classes.iter().enumerate() {
                match class {
                    BatchClass::Hot => n.migrate_to_local(batch),
                    BatchClass::Warm | BatchClass::Cold => n.migrate_to_remote(batch),
                }
            }
        });
    }

    fn assess_performance(&mut self, _now: Timestamp) -> ActuatorAssessment {
        if !self.config.actuator_safeguard {
            return ActuatorAssessment::Acceptable;
        }
        let remote_fraction = self.node.with(|n| n.recent_remote_fraction());
        ActuatorAssessment::from_acceptable(remote_fraction <= 1.0 - self.config.local_access_slo)
    }

    fn mitigate(&mut self, _now: Timestamp) {
        // Immediately migrate the hottest remote batches back to the first
        // tier, starting with the hottest.
        self.node.with(|n| {
            let hottest = n.hottest_batches();
            let mut moved = 0;
            for batch in hottest {
                if moved >= MITIGATION_BATCHES {
                    break;
                }
                if n.tier(batch) == sol_node_sim::memory_node::Tier::Remote {
                    n.migrate_to_local(batch);
                    moved += 1;
                }
            }
        });
    }

    fn clean_up(&mut self, _now: Timestamp) {
        self.node.with(|n| n.restore_all_local(None));
    }
}

/// The schedule SmartMemory runs with: scans are orchestrated every 300 ms
/// (the maximum scan frequency), learning epochs last 38.4 s (128 collection
/// rounds, 4× the slowest scan period), and the Actuator safeguard is checked
/// every 2 s.
pub fn memory_schedule() -> Schedule {
    Schedule::builder()
        .data_per_epoch(128)
        .data_collect_interval(SimDuration::from_millis(300))
        .max_epoch_time(SimDuration::from_millis(38_400))
        .min_data_per_epoch(64)
        .assess_model_every_epochs(1)
        .max_actuation_delay(SimDuration::from_secs(10))
        .assess_actuator_interval(SimDuration::from_secs(2))
        .build()
        .expect("static schedule is valid")
}

/// Convenience constructor: builds the model/actuator pair for a shared node.
pub fn smart_memory(
    node: &Shared<MemoryNode>,
    config: MemoryConfig,
) -> (MemoryModel, MemoryActuator) {
    (MemoryModel::new(node.clone(), config.clone()), MemoryActuator::new(node.clone(), config))
}

/// The SmartMemory agent packaged for
/// [`ScenarioBuilder::register`](sol_core::runtime::builder::ScenarioBuilder::register):
/// name `"smart-memory"`, the model/actuator pair for `node`, and the paper's
/// schedule.
pub fn memory_blueprint(
    node: &Shared<MemoryNode>,
    config: MemoryConfig,
) -> sol_core::runtime::builder::AgentBlueprint<MemoryModel, MemoryActuator> {
    let (model, actuator) = smart_memory(node, config);
    sol_core::runtime::builder::AgentBlueprint::new(
        "smart-memory",
        model,
        actuator,
        memory_schedule(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sol_core::prelude::*;
    use sol_node_sim::memory_node::{MemoryNodeConfig, MemoryWorkloadKind};

    fn shared_node(kind: MemoryWorkloadKind) -> Shared<MemoryNode> {
        let config = MemoryNodeConfig {
            batches: 128,
            accesses_per_sec: 20_000.0,
            ..MemoryNodeConfig::default()
        };
        Shared::new(MemoryNode::new(kind, config))
    }

    fn run(
        kind: MemoryWorkloadKind,
        config: MemoryConfig,
        secs: u64,
    ) -> (Shared<MemoryNode>, AgentStats) {
        let node = shared_node(kind);
        let mut builder = NodeRuntime::builder(node.clone());
        let agent = builder.register(memory_blueprint(&node, config));
        let mut report = builder.build().run_for(SimDuration::from_secs(secs)).unwrap();
        (node, report.take(agent).stats)
    }

    #[test]
    fn offloads_cold_memory_while_meeting_slo() {
        let (node, stats) = run(MemoryWorkloadKind::ObjectStore, MemoryConfig::default(), 400);
        assert!(stats.model.epochs_completed >= 8);
        let remote = node.with(|n| n.remote_batch_count());
        let slo = node.with(|n| n.slo_attainment(0.8));
        assert!(remote > 20, "should offload a sizable fraction of batches, got {remote}");
        assert!(slo > 0.8, "SLO attainment {slo} should stay high");
    }

    #[test]
    fn adaptive_scanning_resets_fewer_access_bits_than_max_frequency() {
        let (smart_node, _) = run(MemoryWorkloadKind::SpecJbb, MemoryConfig::default(), 300);
        // Baseline: scan every batch at the maximum frequency for the same
        // duration.
        let baseline = shared_node(MemoryWorkloadKind::SpecJbb);
        let mut t = Timestamp::ZERO;
        while t < Timestamp::from_secs(300) {
            t += SimDuration::from_millis(300);
            baseline.with(|n| {
                n.advance_to(t);
                for b in 0..n.batch_count() {
                    let _ = n.scan_batch(b);
                }
            });
        }
        let smart_resets = smart_node.with(|n| n.access_bit_resets());
        let max_resets = baseline.with(|n| n.access_bit_resets());
        assert!(
            (smart_resets as f64) < 0.9 * max_resets as f64,
            "adaptive scanning should reset fewer bits: {smart_resets} vs {max_resets}"
        );
    }

    #[test]
    fn actuator_safeguard_recovers_from_slo_violations() {
        let node = shared_node(MemoryWorkloadKind::ObjectStore);
        // Sabotage placement: move the entire hot set remote before starting.
        node.with(|n| {
            n.advance_to(Timestamp::from_secs(5));
            let hottest: Vec<usize> = n.hottest_batches().into_iter().take(32).collect();
            for b in hottest {
                n.migrate_to_remote(b);
            }
        });
        let (_, mut actuator) = smart_memory(&node, MemoryConfig::default());
        // Let the bad placement show up in the counters.
        node.with(|n| n.advance_to(Timestamp::from_secs(20)));
        assert!(!actuator.assess_performance(Timestamp::from_secs(20)).is_acceptable());
        actuator.mitigate(Timestamp::from_secs(20));
        node.with(|n| n.advance_to(Timestamp::from_secs(60)));
        assert!(
            node.with(|n| n.recent_remote_fraction()) < 0.2,
            "mitigation should restore the SLO"
        );
    }

    #[test]
    fn default_prediction_offloads_only_coldest_batches() {
        let node = shared_node(MemoryWorkloadKind::Sql);
        let (mut model, _) = smart_memory(&node, MemoryConfig::default());
        node.with(|n| n.advance_to(Timestamp::from_secs(10)));
        // Populate estimates with one round of scans.
        let round = model.collect_data(Timestamp::from_secs(10)).unwrap();
        model.commit_data(Timestamp::from_secs(10), round);
        let default = model.default_predict(Timestamp::from_secs(10));
        let classes = &default.value().classes;
        let count = |class| classes.iter().filter(|c| **c == class).count();
        assert!(count(BatchClass::Warm) <= classes.len() / 10);
        assert_eq!(count(BatchClass::Cold), 0);
    }

    #[test]
    fn cleanup_restores_every_batch_to_local() {
        let node = shared_node(MemoryWorkloadKind::ObjectStore);
        node.with(|n| {
            n.migrate_to_remote(0);
            n.migrate_to_remote(1);
        });
        let (_, mut actuator) = smart_memory(&node, MemoryConfig::default());
        actuator.clean_up(Timestamp::from_secs(1));
        assert_eq!(node.with(|n| n.remote_batch_count()), 0);
    }

    #[test]
    fn stale_prediction_leaves_placement_unchanged() {
        let node = shared_node(MemoryWorkloadKind::ObjectStore);
        node.with(|n| n.migrate_to_remote(5));
        let (_, mut actuator) = smart_memory(&node, MemoryConfig::default());
        actuator.take_action(Timestamp::from_secs(1), None);
        assert_eq!(node.with(|n| n.remote_batch_count()), 1);
    }
}
