//! The simulated node used by the SmartHarvest experiments (paper §5.2, §6.3).
//!
//! A [`HarvestNode`] hosts a latency-sensitive primary VM and an ElasticVM
//! that receives harvested cores. The agent samples the primary VM's CPU usage
//! through the hypervisor, predicts how many cores the primary will need in
//! the next 25 ms, and loans the rest to the ElasticVM — returning them as
//! soon as the primary needs them. The node tracks the primary's vCPU wait
//! time (the Actuator safeguard signal) and request latency (the evaluation
//! metric), plus how many core-seconds the ElasticVM actually received.

use sol_core::runtime::Environment;
use sol_core::time::{SimDuration, Timestamp};
use sol_ml::footprint::MemoryFootprint;
use sol_ml::online_stats::RunWindow;

/// How long demand takes to ramp from the baseline to the burst level.
/// Real services ramp up as requests queue; the ramp is also what makes
/// the next-epoch demand learnable from short-horizon telemetry.
const RAMP: SimDuration = SimDuration::from_millis(400);

/// A latency-sensitive service with bursty CPU demand, standing in for the
/// TailBench workloads (`image-dnn`, `moses`) the paper uses as primary VMs.
///
/// Demand alternates deterministically between a low baseline and periodic
/// bursts, so experiments can align fault injection with demand increases.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstyService {
    name: &'static str,
    /// Cores used between bursts.
    pub baseline_cores: f64,
    /// Cores used during a burst.
    pub burst_cores: f64,
    /// Time between burst starts.
    pub burst_period: SimDuration,
    /// Burst duration.
    pub burst_length: SimDuration,
    /// Request latency when the VM has all the cores it wants, in ms.
    pub base_latency_ms: f64,
    /// How strongly starvation inflates latency.
    pub starvation_penalty: f64,
}

impl BurstyService {
    /// The `image-dnn` image-recognition service from TailBench: long bursts
    /// of heavy CPU use.
    pub fn image_dnn() -> Self {
        BurstyService {
            name: "image-dnn",
            baseline_cores: 1.5,
            burst_cores: 6.0,
            burst_period: SimDuration::from_millis(2_000),
            burst_length: SimDuration::from_millis(900),
            base_latency_ms: 20.0,
            starvation_penalty: 8.0,
        }
    }

    /// The `moses` language-translation service from TailBench: shorter, more
    /// frequent bursts.
    pub fn moses() -> Self {
        BurstyService {
            name: "moses",
            baseline_cores: 1.0,
            burst_cores: 5.0,
            burst_period: SimDuration::from_millis(1_600),
            burst_length: SimDuration::from_millis(700),
            base_latency_ms: 12.0,
            starvation_penalty: 10.0,
        }
    }

    /// Workload name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// CPU demand (cores) at `now`.
    pub fn demand(&self, now: Timestamp) -> f64 {
        let phase = now.as_nanos() % self.burst_period.as_nanos().max(1);
        let ramp = RAMP.as_nanos();
        if phase < self.burst_length.as_nanos() {
            if phase < ramp {
                let progress = phase as f64 / ramp as f64;
                self.baseline_cores + progress * (self.burst_cores - self.baseline_cores)
            } else {
                self.burst_cores
            }
        } else {
            self.baseline_cores
        }
    }
}

/// One hypervisor CPU-usage sample for the primary VM.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UsageSample {
    /// When the sample was taken.
    pub at: Timestamp,
    /// Cores the primary VM actually used during the last step.
    pub used_cores: f64,
    /// Cores currently allocated to the primary VM.
    pub allocated_cores: f64,
}

impl UsageSample {
    /// Whether the primary VM used (essentially) all its allocated cores —
    /// the ambiguous case SmartHarvest's data validation discards (paper
    /// §5.2: during full utilization it is impossible to distinguish true
    /// demand from under-provisioning).
    pub fn is_saturated(&self) -> bool {
        self.used_cores >= self.allocated_cores - 1e-9
    }
}

/// Minimum cores that must always stay with the primary VM.
const MIN_PRIMARY_CORES: usize = 1;

/// Window length for the P99 wait-time safeguard signal.
const WAIT_WINDOW: usize = 2_000;

/// Integration step (the paper samples usage every 50 µs; the simulator
/// uses 1 ms, which preserves the burst dynamics at ~40× lower simulation
/// cost).
const STEP: SimDuration = SimDuration::from_millis(1);

/// Configuration for a [`HarvestNode`].
#[derive(Debug, Clone)]
pub struct HarvestNodeConfig {
    /// Total physical cores shared by the primary VM and the ElasticVM.
    pub total_cores: usize,
    /// Window length for the P99 request-latency signal. The default (4096)
    /// matches the historical hardcoded window. Both windows are
    /// [`RunWindow`]s — the simulated latency and wait time hold their value
    /// between bursts — and reserve 10 bytes per 8 samples of length.
    pub latency_window: usize,
}

impl Default for HarvestNodeConfig {
    fn default() -> Self {
        HarvestNodeConfig { total_cores: 8, latency_window: 4_096 }
    }
}

/// A simulated node hosting a primary VM plus an ElasticVM fed by harvested
/// cores.
#[derive(Debug, Clone)]
pub struct HarvestNode {
    config: HarvestNodeConfig,
    service: BurstyService,
    /// Relative speed of the node's cores (1.0 = nominal). When a co-located
    /// overclocking agent raises the frequency, the same work occupies fewer
    /// core-seconds, so the primary VM's core demand shrinks by this factor.
    core_speed_factor: f64,
    primary_cores: usize,
    now: Timestamp,
    last_used_cores: f64,
    latencies: RunWindow,
    latency_sum: f64,
    latency_count: u64,
    wait_window: RunWindow,
    total_wait: SimDuration,
    harvested_core_seconds: f64,
    starved_steps: u64,
    total_steps: u64,
}

impl HarvestNode {
    /// Creates a node running `service` as the primary VM. The primary starts
    /// with all cores (nothing harvested).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has fewer cores than `MIN_PRIMARY_CORES`.
    pub fn new(service: BurstyService, config: HarvestNodeConfig) -> Self {
        assert!(config.total_cores >= MIN_PRIMARY_CORES, "node needs cores");
        let primary = config.total_cores;
        HarvestNode {
            latencies: RunWindow::new(config.latency_window),
            wait_window: RunWindow::new(WAIT_WINDOW),
            config,
            service,
            core_speed_factor: 1.0,
            primary_cores: primary,
            now: Timestamp::ZERO,
            last_used_cores: 0.0,
            latency_sum: 0.0,
            latency_count: 0,
            total_wait: SimDuration::ZERO,
            harvested_core_seconds: 0.0,
            starved_steps: 0,
            total_steps: 0,
        }
    }

    /// Total physical cores on the node.
    pub fn total_cores(&self) -> usize {
        self.config.total_cores
    }

    /// Cores currently allocated to the primary VM.
    pub fn primary_cores(&self) -> usize {
        self.primary_cores
    }

    /// Cores currently loaned to the ElasticVM.
    pub fn harvested_cores(&self) -> usize {
        self.config.total_cores - self.primary_cores
    }

    /// Assigns `cores` to the primary VM (the rest go to the ElasticVM).
    /// Values are clamped to `[MIN_PRIMARY_CORES, total_cores]`.
    pub fn set_primary_cores(&mut self, cores: usize) {
        self.primary_cores = cores.clamp(MIN_PRIMARY_CORES, self.config.total_cores);
    }

    /// Returns every core to the primary VM (mitigation / clean-up).
    pub fn return_all_cores(&mut self) {
        self.primary_cores = self.config.total_cores;
    }

    /// Sets the relative core speed (1.0 = nominal), clamped to `[0.1, 10]`.
    ///
    /// Co-location plumbing: when an overclocking agent shares the node, the
    /// primary VM's work completes faster on faster cores, so its core demand
    /// scales by `1 / factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite.
    pub fn set_core_speed_factor(&mut self, factor: f64) {
        assert!(factor.is_finite(), "core speed factor must be finite");
        self.core_speed_factor = factor.clamp(0.1, 10.0);
    }

    /// The current relative core speed.
    pub fn core_speed_factor(&self) -> f64 {
        self.core_speed_factor
    }

    /// Takes one hypervisor usage sample for the primary VM.
    pub fn sample_primary_usage(&self) -> UsageSample {
        UsageSample {
            at: self.now,
            used_cores: self.last_used_cores,
            allocated_cores: self.primary_cores as f64,
        }
    }

    /// P99 of the per-step vCPU wait time over the recent window, in
    /// milliseconds (the Actuator safeguard signal).
    pub fn p99_wait_ms(&self) -> f64 {
        self.wait_window.quantile(0.99)
    }

    /// P99 request latency of the primary VM over the recent window, in ms.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latencies.quantile(0.99)
    }

    /// Mean request latency of the primary VM over the whole run, in ms.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum / self.latency_count as f64
        }
    }

    /// Total vCPU wait time accumulated by the primary VM.
    pub fn total_wait(&self) -> SimDuration {
        self.total_wait
    }

    /// Core-seconds delivered to the ElasticVM so far (the benefit of
    /// harvesting).
    pub fn harvested_core_seconds(&self) -> f64 {
        self.harvested_core_seconds
    }

    /// Fraction of steps in which the primary VM was starved of cores.
    pub fn starvation_fraction(&self) -> f64 {
        if self.total_steps == 0 {
            0.0
        } else {
            self.starved_steps as f64 / self.total_steps as f64
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    fn step_once(&mut self, dt: SimDuration) {
        let now = self.now;
        let demand = self.service.demand(now) / self.core_speed_factor;
        let allocated = self.primary_cores as f64;
        let used = demand.min(allocated);
        let shortfall = (demand - allocated).max(0.0);

        self.last_used_cores = used;
        self.total_steps += 1;

        // vCPU wait: virtual cores that wanted to run but had no physical core.
        let wait_ms =
            if demand > 0.0 { (shortfall / demand) * dt.as_secs_f64() * 1e3 } else { 0.0 };
        self.wait_window.push(wait_ms);
        if shortfall > 0.0 {
            self.starved_steps += 1;
            self.total_wait += SimDuration::from_secs_f64(wait_ms / 1e3);
        }

        // Request latency inflates when the VM is starved during a burst.
        let starvation = if demand > 0.0 { shortfall / demand } else { 0.0 };
        let latency =
            self.service.base_latency_ms * (1.0 + self.service.starvation_penalty * starvation);
        self.latencies.push(latency);
        self.latency_sum += latency;
        self.latency_count += 1;

        // The ElasticVM soaks up every core not allocated to the primary.
        let harvested = (self.config.total_cores - self.primary_cores) as f64;
        self.harvested_core_seconds += harvested * dt.as_secs_f64();

        self.now = now + dt;
    }
}

impl Environment for HarvestNode {
    fn advance_to(&mut self, now: Timestamp) {
        while self.now < now {
            let remaining = now.duration_since(self.now);
            let dt = remaining.min(STEP);
            self.step_once(dt);
        }
    }

    fn mem_bytes(&self) -> usize {
        MemoryFootprint::mem_bytes(self)
    }
}

impl MemoryFootprint for HarvestNode {
    fn mem_bytes(&self) -> usize {
        // The two windows' runs are the node's only heap buffers.
        std::mem::size_of::<Self>()
            + (self.latencies.mem_bytes() - std::mem::size_of::<RunWindow>())
            + (self.wait_window.mem_bytes() - std::mem::size_of::<RunWindow>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursty_service_alternates_demand() {
        let s = BurstyService::image_dnn();
        // During the ramp demand rises towards the burst level.
        let ramping = s.demand(Timestamp::from_millis(75));
        assert!(ramping > s.baseline_cores && ramping < s.burst_cores);
        assert_eq!(s.demand(Timestamp::from_millis(500)), 6.0);
        assert_eq!(s.demand(Timestamp::from_millis(1_000)), 1.5);
        // Periodic: the next burst starts one period later.
        assert_eq!(s.demand(Timestamp::from_millis(2_500)), 6.0);
    }

    #[test]
    fn no_harvesting_means_no_latency_impact() {
        let mut node = HarvestNode::new(BurstyService::moses(), HarvestNodeConfig::default());
        node.advance_to(Timestamp::from_secs(20));
        assert_eq!(node.harvested_cores(), 0);
        assert!((node.p99_latency_ms() - BurstyService::moses().base_latency_ms).abs() < 1e-9);
        assert_eq!(node.p99_wait_ms(), 0.0);
        assert_eq!(node.starvation_fraction(), 0.0);
    }

    #[test]
    fn over_harvesting_starves_bursts_and_inflates_latency() {
        let mut node = HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default());
        // Leave the primary only 2 cores: bursts need 6.
        node.set_primary_cores(2);
        node.advance_to(Timestamp::from_secs(20));
        assert!(node.p99_latency_ms() > 2.0 * BurstyService::image_dnn().base_latency_ms);
        assert!(node.p99_wait_ms() > 0.0);
        assert!(node.harvested_core_seconds() > 0.0);
        assert!(node.starvation_fraction() > 0.2);
    }

    #[test]
    fn perfect_prediction_harvests_without_latency_impact() {
        let service = BurstyService::image_dnn();
        let mut node = HarvestNode::new(service.clone(), HarvestNodeConfig::default());
        let step = SimDuration::from_millis(25);
        let mut t = Timestamp::ZERO;
        while t < Timestamp::from_secs(20) {
            let next = t + step;
            // Provision exactly the demand over the next control interval.
            let worst = (0..25)
                .map(|ms| service.demand(t + SimDuration::from_millis(ms)))
                .fold(0.0f64, f64::max);
            node.set_primary_cores(worst.ceil() as usize);
            node.advance_to(next);
            t = next;
        }
        assert!(node.harvested_core_seconds() > 20.0, "should harvest idle capacity");
        assert!(
            node.p99_latency_ms() < 1.05 * service.base_latency_ms,
            "perfect prediction should not hurt latency: {}",
            node.p99_latency_ms()
        );
    }

    #[test]
    fn usage_samples_report_saturation() {
        let mut node = HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default());
        node.set_primary_cores(2);
        node.advance_to(Timestamp::from_millis(100));
        let s = node.sample_primary_usage();
        assert!(s.is_saturated(), "burst of 6 cores on 2 allocated is saturated");
        node.return_all_cores();
        node.advance_to(Timestamp::from_millis(1_000));
        let s = node.sample_primary_usage();
        assert!(!s.is_saturated());
        assert_eq!(s.allocated_cores, 8.0);
    }

    #[test]
    fn faster_cores_shrink_primary_demand() {
        let mut slow = HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default());
        let mut fast = HarvestNode::new(BurstyService::image_dnn(), HarvestNodeConfig::default());
        fast.set_core_speed_factor(1.5);
        // Starve both: bursts need 6 cores at nominal speed, 4 when 1.5x.
        slow.set_primary_cores(2);
        fast.set_primary_cores(2);
        slow.advance_to(Timestamp::from_secs(20));
        fast.advance_to(Timestamp::from_secs(20));
        assert!(fast.p99_latency_ms() < slow.p99_latency_ms());
        assert!(fast.total_wait() < slow.total_wait());
        // A nonsense factor is clamped, not applied raw.
        fast.set_core_speed_factor(1e9);
        assert_eq!(fast.core_speed_factor(), 10.0);
    }

    #[test]
    fn set_primary_cores_is_clamped() {
        let mut node = HarvestNode::new(BurstyService::moses(), HarvestNodeConfig::default());
        node.set_primary_cores(0);
        assert_eq!(node.primary_cores(), 1);
        node.set_primary_cores(100);
        assert_eq!(node.primary_cores(), 8);
    }
}
