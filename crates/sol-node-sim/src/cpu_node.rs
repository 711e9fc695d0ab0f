//! The simulated node used by the SmartOverclock experiments.
//!
//! A [`CpuNode`] hosts one opaque VM running a [`CpuWorkload`], exposes the
//! hypervisor-level counters the agent reads (IPS, α), lets the agent change
//! the core frequency, and meters power with the DVFS model. Fault injection
//! (out-of-range IPS readings, per paper §6.2 "Invalid data") is built in.

use rand::Rng;

use sol_core::error::DataError;
use sol_core::runtime::placement::{NodePlacement, PlacementError, WorkloadId, WorkloadUnit};
use sol_core::runtime::Environment;
use sol_core::time::{SimDuration, Timestamp};
use sol_ml::footprint::MemoryFootprint;
use sol_ml::sampling::seeded_rng;

use crate::counters::{CounterSample, CpuCounters};
use crate::power::{node_power_watts, EnergyMeter, FREQUENCY_LEVELS_GHZ, NOMINAL_FREQUENCY_GHZ};
use crate::workload::{CpuWorkload, PerfReport};

/// Instructions per cycle achieved by fully productive (non-stalled) cycles.
const BASE_IPC: f64 = 2.0;
/// Internal integration step.
const STEP: SimDuration = SimDuration::from_millis(25);

/// Configuration for a [`CpuNode`].
#[derive(Debug, Clone)]
pub struct CpuNodeConfig {
    /// Number of physical cores visible to the VM (the paper's server has 26
    /// per socket).
    pub cores: usize,
    /// RNG seed for fault injection.
    pub seed: u64,
    /// Cores' worth of dynamically placeable workload slots (for fleet-level
    /// placement: VM arrivals, departures, migrations). `0.0` — the default —
    /// means the node hosts no placeable work and every
    /// [`CpuNode::attach_workload`] fails with
    /// [`PlacementError::Unsupported`]. Placed VMs contend with the primary
    /// workload for the node's physical cores (the primary has priority), so
    /// overcommitting `placeable_cores` beyond the node's idle capacity is
    /// how placement pressure becomes interference.
    pub placeable_cores: f64,
}

impl Default for CpuNodeConfig {
    fn default() -> Self {
        CpuNodeConfig { cores: 26, seed: 42, placeable_cores: 0.0 }
    }
}

impl CpuNodeConfig {
    /// Returns the config with its fault-injection RNG reseeded — the hook
    /// fleet recipes use to give every simulated server an independent
    /// random stream (per-node seed derivation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with the given placeable-slot capacity (see
    /// [`placeable_cores`](Self::placeable_cores)).
    pub fn with_placeable_cores(mut self, cores: f64) -> Self {
        self.placeable_cores = cores;
        self
    }
}

/// One point of the frequency/power trace kept for time-series figures
/// (Figure 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuTracePoint {
    /// Time of the sample.
    pub at: Timestamp,
    /// Frequency in GHz at that time.
    pub frequency_ghz: f64,
    /// Instantaneous node power in watts.
    pub power_watts: f64,
    /// Instantaneous α.
    pub alpha: f64,
}

/// A simulated server node hosting one VM, with frequency control.
pub struct CpuNode {
    config: CpuNodeConfig,
    workload: Box<dyn CpuWorkload>,
    current_ghz: f64,
    counters: CpuCounters,
    last_sample_counters: CpuCounters,
    last_sample_at: Timestamp,
    energy: EnergyMeter,
    now: Timestamp,
    rng: rand::rngs::StdRng,
    /// Probability that a counter sample returns an out-of-range IPS reading
    /// (fault injection for Figure 2); only
    /// [`set_bad_ips_probability`](Self::set_bad_ips_probability) moves it.
    bad_ips_probability: f64,
    trace: Vec<CpuTracePoint>,
    trace_enabled: bool,
    last_alpha: f64,
    frequency_changes: u64,
    placed: Vec<WorkloadUnit>,
    placed_core_seconds: f64,
}

impl std::fmt::Debug for CpuNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CpuNode")
            .field("workload", &self.workload.name())
            .field("now", &self.now)
            .field("current_ghz", &self.current_ghz)
            .field("avg_power_watts", &self.energy.average_watts())
            .finish()
    }
}

impl CpuNode {
    /// Creates a node running `workload` with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has no cores.
    pub fn new(workload: Box<dyn CpuWorkload>, config: CpuNodeConfig) -> Self {
        assert!(config.cores > 0, "node needs at least one core");
        let rng = seeded_rng(config.seed);
        CpuNode {
            config,
            workload,
            current_ghz: NOMINAL_FREQUENCY_GHZ,
            counters: CpuCounters::default(),
            last_sample_counters: CpuCounters::default(),
            last_sample_at: Timestamp::ZERO,
            energy: EnergyMeter::new(),
            now: Timestamp::ZERO,
            rng,
            bad_ips_probability: 0.0,
            trace: Vec::new(),
            trace_enabled: false,
            last_alpha: 0.0,
            frequency_changes: 0,
            placed: Vec::new(),
            placed_core_seconds: 0.0,
        }
    }

    /// Attaches a dynamically placed VM to the node's placeable slots.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Unsupported`] when the node has no placeable
    /// slots ([`CpuNodeConfig::placeable_cores`] is zero),
    /// [`PlacementError::DuplicateWorkload`] when a unit with the same id is
    /// already resident, and [`PlacementError::CapacityExceeded`] when the
    /// unit does not fit the remaining slot capacity.
    pub fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        if self.config.placeable_cores <= 0.0 {
            return Err(PlacementError::Unsupported);
        }
        if self.placed.iter().any(|vm| vm.id == unit.id) {
            return Err(PlacementError::DuplicateWorkload(unit.id));
        }
        let used: f64 = self.placed.iter().map(|vm| vm.cores).sum();
        let free = self.config.placeable_cores - used;
        if unit.cores > free + 1e-9 {
            return Err(PlacementError::CapacityExceeded { requested: unit.cores, free });
        }
        self.placed.push(unit);
        Ok(())
    }

    /// Detaches a placed VM, returning its descriptor so a migration can
    /// re-attach it elsewhere.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::UnknownWorkload`] when no resident VM has
    /// the id.
    pub fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        match self.placed.iter().position(|vm| vm.id == id) {
            Some(pos) => Ok(self.placed.remove(pos)),
            None => Err(PlacementError::UnknownWorkload(id)),
        }
    }

    /// The node's current placeable state: slot capacity and resident VMs in
    /// admission order.
    pub fn placement(&self) -> NodePlacement {
        NodePlacement { capacity: self.config.placeable_cores, resident: self.placed.clone() }
    }

    /// Frequency-scaled core-seconds delivered to placed VMs over the whole
    /// run, including VMs that have since departed.
    pub fn placed_core_seconds(&self) -> f64 {
        self.placed_core_seconds
    }

    /// Enables recording of a (time, frequency, power, α) trace.
    pub fn enable_trace(&mut self) {
        self.trace_enabled = true;
    }

    /// The recorded trace (empty unless [`enable_trace`](Self::enable_trace)
    /// was called).
    pub fn trace(&self) -> &[CpuTracePoint] {
        &self.trace
    }

    /// Number of cores on the node.
    pub fn cores(&self) -> usize {
        self.config.cores
    }

    /// Frequencies the agent may select.
    pub fn available_frequencies_ghz(&self) -> &'static [f64] {
        &FREQUENCY_LEVELS_GHZ
    }

    /// The currently configured core frequency in GHz.
    pub fn frequency_ghz(&self) -> f64 {
        self.current_ghz
    }

    /// Sets the core frequency for the VM's cores.
    ///
    /// # Panics
    ///
    /// Panics if `ghz` is not one of the available frequencies.
    pub fn set_frequency_ghz(&mut self, ghz: f64) {
        assert!(
            FREQUENCY_LEVELS_GHZ.iter().any(|f| (f - ghz).abs() < 1e-9),
            "frequency {ghz} GHz is not available on this node"
        );
        if (ghz - self.current_ghz).abs() > 1e-9 {
            self.frequency_changes += 1;
        }
        self.current_ghz = ghz;
    }

    /// Restores the nominal frequency (used by `Mitigate` and `CleanUp`).
    pub fn restore_nominal_frequency(&mut self) {
        self.current_ghz = NOMINAL_FREQUENCY_GHZ;
    }

    /// Number of times the frequency setting changed.
    pub fn frequency_changes(&self) -> u64 {
        self.frequency_changes
    }

    /// Sets the probability of returning an out-of-range IPS reading.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 1]`.
    pub fn set_bad_ips_probability(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "probability must be in [0, 1]");
        self.bad_ips_probability = p;
    }

    /// Takes a counter sample covering the interval since the previous call.
    /// With fault injection enabled, the IPS value may be corrupted to an
    /// out-of-range value; the sample itself is still returned so the agent's
    /// data validation can catch it.
    ///
    /// # Errors
    ///
    /// Never fails in the current model; the `Result` mirrors the production
    /// interface where counter reads can fail outright.
    pub fn take_counter_sample(&mut self) -> Result<CounterSample, DataError> {
        let delta = self.counters.delta_since(&self.last_sample_counters);
        let interval = self.now.duration_since(self.last_sample_at);
        self.last_sample_counters = self.counters;
        self.last_sample_at = self.now;
        let mut sample = CounterSample::from_delta(self.now, interval, &delta, self.current_ghz);
        if self.bad_ips_probability > 0.0 && self.rng.gen::<f64>() < self.bad_ips_probability {
            // A corrupted reading far outside the physically possible range
            // (max_freq * max_IPC * cores), as injected in paper §6.2.
            sample.ips = self.max_plausible_ips() * (10.0 + self.rng.gen::<f64>() * 10.0);
        }
        Ok(sample)
    }

    /// The largest physically plausible IPS value for this node
    /// (`max_freq * max_IPC * cores`), used by the agent's data validation.
    pub fn max_plausible_ips(&self) -> f64 {
        let max_freq = FREQUENCY_LEVELS_GHZ.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        max_freq * 1e9 * BASE_IPC * self.config.cores as f64
    }

    /// The α value over the last integration step.
    pub fn current_alpha(&self) -> f64 {
        self.last_alpha
    }

    /// Average node power since the start of the run, in watts.
    pub fn average_power_watts(&self) -> f64 {
        self.energy.average_watts()
    }

    /// Total energy consumed, in joules.
    pub fn energy_joules(&self) -> f64 {
        self.energy.joules()
    }

    /// Performance report from the hosted workload.
    pub fn performance(&self) -> PerfReport {
        self.workload.performance()
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    fn step_once(&mut self, dt: SimDuration) {
        let now = self.now;
        let demand = self.workload.demand(now);
        let granted = demand.cores.min(self.config.cores as f64);
        let freq_factor = self.current_ghz / NOMINAL_FREQUENCY_GHZ;
        self.workload.deliver(now, dt, granted, freq_factor);

        let secs = dt.as_secs_f64();
        let hz = self.current_ghz * 1e9;

        // Placed VMs run on whatever the primary workload leaves idle (the
        // primary has priority); an overcommitted slot budget therefore
        // starves the placed VMs rather than the primary. The guard keeps
        // the float arithmetic byte-identical to the placement-free node
        // when nothing is placed.
        let mut placed_granted = 0.0;
        let mut placed_unhalted = 0.0;
        let mut placed_stalled = 0.0;
        if !self.placed.is_empty() {
            let leftover = (self.config.cores as f64 - granted).max(0.0);
            let placed_demand: f64 = self.placed.iter().map(|vm| vm.cores).sum();
            let share = if placed_demand > leftover { leftover / placed_demand } else { 1.0 };
            for vm in &self.placed {
                let vm_granted = vm.cores * share;
                self.placed_core_seconds += vm_granted * freq_factor * secs;
                let vm_unhalted = vm_granted * hz * secs;
                placed_granted += vm_granted;
                placed_unhalted += vm_unhalted;
                placed_stalled += vm_unhalted * (1.0 - vm.cpu_bound_fraction);
            }
        }

        // Counters (primary + placed VMs).
        let total_cycles = self.config.cores as f64 * hz * secs;
        let primary_unhalted = granted * hz * secs;
        let unhalted = primary_unhalted + placed_unhalted;
        let stalled = primary_unhalted * (1.0 - demand.cpu_bound_fraction) + placed_stalled;
        let instructions = (unhalted - stalled) * BASE_IPC;
        let delta = CpuCounters {
            instructions,
            unhalted_cycles: unhalted,
            stalled_cycles: stalled,
            total_cycles,
        };
        self.last_alpha = delta.alpha();
        self.counters.accumulate(&delta);

        // Power.
        let utilization = ((granted + placed_granted) / self.config.cores as f64).clamp(0.0, 1.0);
        let watts = node_power_watts(self.current_ghz, utilization, self.config.cores);
        self.energy.record(watts, dt);

        if self.trace_enabled {
            self.trace.push(CpuTracePoint {
                at: now,
                frequency_ghz: self.current_ghz,
                power_watts: watts,
                alpha: self.last_alpha,
            });
        }

        self.now = now + dt;
    }
}

impl MemoryFootprint for CpuNode {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.trace.capacity() * std::mem::size_of::<CpuTracePoint>()
            + self.placed.capacity() * std::mem::size_of::<WorkloadUnit>()
            + std::mem::size_of::<Box<dyn CpuWorkload>>()
            + self.workload.mem_bytes()
    }
}

impl Environment for CpuNode {
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

    fn attach_workload(&mut self, unit: WorkloadUnit) -> Result<(), PlacementError> {
        CpuNode::attach_workload(self, unit)
    }

    fn detach_workload(&mut self, id: WorkloadId) -> Result<WorkloadUnit, PlacementError> {
        CpuNode::detach_workload(self, id)
    }

    fn placement(&self) -> NodePlacement {
        CpuNode::placement(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{OverclockWorkloadKind, SyntheticBatch};

    fn node(kind: OverclockWorkloadKind) -> CpuNode {
        CpuNode::new(kind.build(8), CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() })
    }

    #[test]
    fn advancing_meters_power_and_counters() {
        let mut n = node(OverclockWorkloadKind::ObjectStore);
        n.advance_to(Timestamp::from_secs(10));
        assert!(n.average_power_watts() > 0.0);
        let sample = n.take_counter_sample().unwrap();
        assert!(sample.ips > 0.0);
        assert!(sample.alpha > 0.5, "ObjectStore is CPU-bound, alpha = {}", sample.alpha);
        assert!(sample.ips <= n.max_plausible_ips());
    }

    #[test]
    fn overclocking_raises_power_and_ips_for_cpu_bound_workload() {
        let mut nominal = node(OverclockWorkloadKind::ObjectStore);
        let mut turbo = node(OverclockWorkloadKind::ObjectStore);
        turbo.set_frequency_ghz(2.3);
        nominal.advance_to(Timestamp::from_secs(20));
        turbo.advance_to(Timestamp::from_secs(20));
        assert!(turbo.average_power_watts() > nominal.average_power_watts() * 1.3);
        let ips_nominal = nominal.take_counter_sample().unwrap().ips;
        let ips_turbo = turbo.take_counter_sample().unwrap().ips;
        assert!(ips_turbo > ips_nominal * 1.4);
        assert!(turbo.performance().score > nominal.performance().score);
    }

    #[test]
    fn disk_bound_workload_has_low_alpha_and_flat_performance() {
        let mut nominal = node(OverclockWorkloadKind::DiskSpeed);
        let mut turbo = node(OverclockWorkloadKind::DiskSpeed);
        turbo.set_frequency_ghz(2.3);
        nominal.advance_to(Timestamp::from_secs(20));
        turbo.advance_to(Timestamp::from_secs(20));
        let s = nominal.take_counter_sample().unwrap();
        assert!(s.alpha < 0.2, "DiskSpeed alpha should be low, got {}", s.alpha);
        let ratio = turbo.performance().score / nominal.performance().score;
        assert!((ratio - 1.0).abs() < 0.02, "throughput must not scale with frequency");
        assert!(turbo.average_power_watts() > nominal.average_power_watts());
    }

    #[test]
    fn synthetic_idle_phase_has_low_alpha() {
        // A small batch finishes quickly, then the node idles.
        let workload = SyntheticBatch::new(SimDuration::from_secs(1000), 8.0, 8.0);
        let mut n = CpuNode::new(
            Box::new(workload),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() },
        );
        n.advance_to(Timestamp::from_secs(5));
        let _ = n.take_counter_sample().unwrap();
        n.advance_to(Timestamp::from_secs(60));
        let idle = n.take_counter_sample().unwrap();
        assert!(idle.alpha < 0.05, "idle alpha should be tiny, got {}", idle.alpha);
    }

    #[test]
    fn bad_ips_injection_produces_out_of_range_samples() {
        let mut n = node(OverclockWorkloadKind::ObjectStore);
        n.set_bad_ips_probability(1.0);
        n.advance_to(Timestamp::from_secs(1));
        let s = n.take_counter_sample().unwrap();
        assert!(s.ips > n.max_plausible_ips());
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn rejects_bad_ips_probability_above_one() {
        node(OverclockWorkloadKind::Synthetic).set_bad_ips_probability(1.5);
    }

    #[test]
    #[should_panic(expected = "probability must be in [0, 1]")]
    fn rejects_nan_bad_ips_probability() {
        node(OverclockWorkloadKind::Synthetic).set_bad_ips_probability(f64::NAN);
    }

    #[test]
    fn frequency_setting_is_validated_and_counted() {
        let mut n = node(OverclockWorkloadKind::Synthetic);
        n.set_frequency_ghz(1.9);
        n.set_frequency_ghz(1.9);
        n.set_frequency_ghz(2.3);
        assert_eq!(n.frequency_changes(), 2);
        n.restore_nominal_frequency();
        assert_eq!(n.frequency_ghz(), 1.5);
    }

    #[test]
    #[should_panic(expected = "not available")]
    fn rejects_unknown_frequency() {
        let mut n = node(OverclockWorkloadKind::Synthetic);
        n.set_frequency_ghz(3.6);
    }

    #[test]
    fn placement_is_rejected_without_placeable_slots() {
        let mut n = node(OverclockWorkloadKind::Synthetic);
        let unit = WorkloadUnit::new(WorkloadId(0), 1.0);
        assert_eq!(n.attach_workload(unit), Err(PlacementError::Unsupported));
        assert_eq!(n.placement(), NodePlacement::none());
    }

    fn placeable_node(kind: OverclockWorkloadKind, placeable: f64) -> CpuNode {
        CpuNode::new(
            kind.build(8),
            CpuNodeConfig { cores: 8, ..CpuNodeConfig::default() }.with_placeable_cores(placeable),
        )
    }

    #[test]
    fn attach_detach_respects_capacity_and_identity() {
        let mut n = placeable_node(OverclockWorkloadKind::Synthetic, 4.0);
        let a = WorkloadUnit::new(WorkloadId(1), 2.5);
        let b = WorkloadUnit::new(WorkloadId(2), 2.5);
        n.attach_workload(a).unwrap();
        assert_eq!(n.attach_workload(a), Err(PlacementError::DuplicateWorkload(a.id)));
        assert!(matches!(n.attach_workload(b), Err(PlacementError::CapacityExceeded { .. })));
        let placement = n.placement();
        assert_eq!(placement.capacity, 4.0);
        assert_eq!(placement.resident, vec![a]);
        // Detaching frees the capacity and returns the descriptor intact.
        assert_eq!(n.detach_workload(a.id), Ok(a));
        assert_eq!(n.detach_workload(a.id), Err(PlacementError::UnknownWorkload(a.id)));
        n.attach_workload(b).unwrap();
        assert!(n.placement().hosts(b.id));
    }

    #[test]
    fn placed_vms_consume_cores_and_make_progress() {
        // DiskSpeed leaves most of the node idle, so a placed VM runs at its
        // full demand and shows up in utilization, power, and counters.
        let mut idle = placeable_node(OverclockWorkloadKind::DiskSpeed, 4.0);
        let mut hosting = placeable_node(OverclockWorkloadKind::DiskSpeed, 4.0);
        let vm = WorkloadUnit::new(WorkloadId(7), 4.0).with_cpu_bound_fraction(0.9);
        hosting.attach_workload(vm).unwrap();
        idle.advance_to(Timestamp::from_secs(10));
        hosting.advance_to(Timestamp::from_secs(10));
        assert!((hosting.placed_core_seconds() - 40.0).abs() < 1e-6);
        assert!(hosting.average_power_watts() > idle.average_power_watts());
        let idle_sample = idle.take_counter_sample().unwrap();
        let hosting_sample = hosting.take_counter_sample().unwrap();
        assert!(hosting_sample.ips > idle_sample.ips * 2.0);
        assert!(hosting_sample.alpha > idle_sample.alpha);
    }

    #[test]
    fn primary_workload_has_priority_over_placed_vms() {
        // ObjectStore wants 6.8 of 8 cores; a 4-core placed VM only gets the
        // ~1.2 idle cores, so its progress is throttled while the primary's
        // performance stays untouched.
        let mut alone = placeable_node(OverclockWorkloadKind::ObjectStore, 4.0);
        let mut contended = placeable_node(OverclockWorkloadKind::ObjectStore, 4.0);
        contended.attach_workload(WorkloadUnit::new(WorkloadId(3), 4.0)).unwrap();
        alone.advance_to(Timestamp::from_secs(10));
        contended.advance_to(Timestamp::from_secs(10));
        let progress = contended.placed_core_seconds();
        assert!(progress > 0.0 && progress < 20.0, "placed VM must be starved, got {progress}");
        assert_eq!(alone.performance().score, contended.performance().score);
    }

    #[test]
    fn node_without_placed_vms_is_byte_identical_to_pre_placement_model() {
        // The placement plumbing must not perturb a single float of the
        // classic node: zero placeable slots and empty slots behave the same.
        let mut classic = node(OverclockWorkloadKind::ObjectStore);
        let mut placeable = placeable_node(OverclockWorkloadKind::ObjectStore, 4.0);
        // Equalize the only intended config difference: core counts match.
        classic.advance_to(Timestamp::from_secs(20));
        placeable.advance_to(Timestamp::from_secs(20));
        assert_eq!(classic.energy_joules().to_bits(), placeable.energy_joules().to_bits());
        assert_eq!(
            classic.take_counter_sample().unwrap().ips.to_bits(),
            placeable.take_counter_sample().unwrap().ips.to_bits()
        );
    }

    #[test]
    fn trace_records_frequency_changes() {
        let mut n = node(OverclockWorkloadKind::ObjectStore);
        n.enable_trace();
        n.advance_to(Timestamp::from_secs(1));
        n.set_frequency_ghz(2.3);
        n.advance_to(Timestamp::from_secs(2));
        let freqs: Vec<f64> = n.trace().iter().map(|p| p.frequency_ghz).collect();
        assert!(freqs.contains(&1.5) && freqs.contains(&2.3));
    }
}
