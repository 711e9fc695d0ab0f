//! CPU workload models for the overclocking experiments (paper §6.2).
//!
//! Three workloads drive Figures 1–5:
//!
//! * [`SyntheticBatch`] — a server that periodically receives a batch of
//!   compute-intensive requests, processes them as fast as possible, then
//!   idles until the next batch. It benefits from overclocking only during its
//!   processing phases.
//! * [`ObjectStore`] — a distributed key-value server running at high load
//!   that always benefits from overclocking; performance is P99 latency.
//! * [`DiskSpeed`] — a disk-bound workload whose throughput does not improve
//!   with CPU frequency.
//!
//! The models are *fluid*: each simulation step the workload declares a CPU
//! demand and a CPU-bound fraction, the node grants cores and a frequency, and
//! the workload converts the delivered compute into progress and latency
//! metrics. This reproduces the dynamics the agent learns from (phases, idle
//! periods, frequency sensitivity) without simulating individual instructions.

use sol_core::time::{SimDuration, Timestamp};
use sol_ml::footprint::MemoryFootprint;
use sol_ml::online_stats::SlidingWindow;

/// The CPU demand a workload places on the node during one step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadDemand {
    /// Cores' worth of compute the workload wants right now.
    pub cores: f64,
    /// Fraction of busy cycles that are productive (not stalled on memory or
    /// IO). High for compute-bound phases, near zero for disk-bound ones.
    pub cpu_bound_fraction: f64,
}

/// A workload performance summary (higher `score` is better).
#[derive(Debug, Clone, PartialEq)]
pub struct PerfReport {
    /// Workload name.
    pub workload: String,
    /// Primary scalar performance metric; higher is better.
    pub score: f64,
    /// What the score measures (for printing in experiment tables).
    pub metric: &'static str,
    /// P99 latency in milliseconds, when the workload is latency-sensitive.
    pub p99_latency_ms: Option<f64>,
}

/// A CPU workload running inside an opaque VM.
pub trait CpuWorkload: Send {
    /// Workload name (as printed in the paper's figures).
    fn name(&self) -> &'static str;

    /// The demand the workload places on the CPU at `now`.
    fn demand(&mut self, now: Timestamp) -> WorkloadDemand;

    /// Delivers compute to the workload: `granted_cores` cores ran at
    /// `freq_factor` (current frequency / nominal frequency) for `dt`.
    fn deliver(&mut self, now: Timestamp, dt: SimDuration, granted_cores: f64, freq_factor: f64);

    /// Performance achieved so far.
    fn performance(&self) -> PerfReport;

    /// Heap bytes retained by the workload's own buffers (its inline size is
    /// accounted by whoever boxes it). The default reports 0.
    fn mem_bytes(&self) -> usize {
        0
    }
}

/// Periodic compute-intensive batch workload (paper §6.2 "Synthetic").
///
/// Every `period` a batch of `batch_work` core-seconds (at nominal frequency)
/// arrives; the workload uses every core it can get until the batch is done,
/// then idles.
#[derive(Debug, Clone)]
pub struct SyntheticBatch {
    period: SimDuration,
    batch_work: f64,
    max_cores: f64,
    remaining: f64,
    batch_started: Option<Timestamp>,
    next_arrival: Timestamp,
    completions: Vec<SimDuration>,
    work_done: f64,
}

impl SyntheticBatch {
    /// Creates the workload used in the paper's experiments: a batch arrives
    /// every 100 s and takes roughly 40 s of all-core processing at the
    /// nominal frequency.
    pub fn paper_default(cores: usize) -> Self {
        Self::new(SimDuration::from_secs(100), 40.0 * cores as f64, cores as f64)
    }

    /// Creates a batch workload with an arbitrary period and batch size
    /// (`batch_work` is in core-seconds at nominal frequency).
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero, or `batch_work`/`max_cores` are not
    /// positive.
    pub fn new(period: SimDuration, batch_work: f64, max_cores: f64) -> Self {
        assert!(!period.is_zero(), "period must be non-zero");
        assert!(batch_work > 0.0 && max_cores > 0.0, "work and cores must be positive");
        SyntheticBatch {
            period,
            batch_work,
            max_cores,
            remaining: 0.0,
            batch_started: None,
            next_arrival: Timestamp::ZERO,
            completions: Vec::new(),
            work_done: 0.0,
        }
    }

    /// Number of batches completed so far.
    pub fn batches_completed(&self) -> usize {
        self.completions.len()
    }

    /// Mean batch completion time, if any batch completed.
    pub fn mean_completion(&self) -> Option<SimDuration> {
        if self.completions.is_empty() {
            None
        } else {
            let total: u64 = self.completions.iter().map(|d| d.as_nanos()).sum();
            Some(SimDuration::from_nanos(total / self.completions.len() as u64))
        }
    }

    /// Whether the workload is currently in a processing phase.
    pub fn is_processing(&self) -> bool {
        self.remaining > 0.0
    }

    fn maybe_start_batch(&mut self, now: Timestamp) {
        while now >= self.next_arrival {
            if self.remaining <= 0.0 {
                self.remaining = self.batch_work;
                self.batch_started = Some(self.next_arrival);
            }
            // Arrivals are strictly periodic; if a batch is still running the
            // new arrival's work piles on top (back-to-back batches).
            self.next_arrival += self.period;
        }
    }
}

impl CpuWorkload for SyntheticBatch {
    fn name(&self) -> &'static str {
        "Synthetic"
    }

    fn demand(&mut self, now: Timestamp) -> WorkloadDemand {
        self.maybe_start_batch(now);
        if self.remaining > 0.0 {
            WorkloadDemand { cores: self.max_cores, cpu_bound_fraction: 0.92 }
        } else {
            WorkloadDemand { cores: 0.02 * self.max_cores, cpu_bound_fraction: 0.10 }
        }
    }

    fn deliver(&mut self, now: Timestamp, dt: SimDuration, granted_cores: f64, freq_factor: f64) {
        if self.remaining <= 0.0 {
            return;
        }
        // Compute-bound work scales with frequency.
        let rate = granted_cores * freq_factor;
        let done = rate * dt.as_secs_f64();
        self.work_done += done.min(self.remaining);
        self.remaining -= done;
        if self.remaining <= 0.0 {
            self.remaining = 0.0;
            if let Some(start) = self.batch_started.take() {
                let end = now + dt;
                self.completions.push(end.duration_since(start));
            }
        }
    }

    fn performance(&self) -> PerfReport {
        // Performance is the inverse of the mean time to complete a batch
        // (the paper reports total time for a fixed number of batches).
        let score = match self.mean_completion() {
            Some(d) if d.as_secs_f64() > 0.0 => 1.0 / d.as_secs_f64(),
            _ => 0.0,
        };
        PerfReport {
            workload: self.name().to_string(),
            score,
            metric: "1 / mean batch completion time (1/s)",
            p99_latency_ms: None,
        }
    }

    fn mem_bytes(&self) -> usize {
        self.completions.capacity() * std::mem::size_of::<SimDuration>()
    }
}

/// A distributed key-value store at high load (paper §6.2 "ObjectStore").
///
/// Always CPU-bound; request latency improves with frequency. Performance is
/// reported as P99 latency.
#[derive(Debug, Clone)]
pub struct ObjectStore {
    cores: f64,
    load: f64,
    base_latency_ms: f64,
    latencies: SlidingWindow,
    latency_sum: f64,
    latency_count: u64,
    requests_served: f64,
}

impl ObjectStore {
    /// Creates an ObjectStore VM using `cores` cores at roughly 85 % load,
    /// with the default 4096-sample P99 latency window.
    pub fn new(cores: usize) -> Self {
        Self::with_window(cores, 4096)
    }

    /// Like [`new`](Self::new) with an explicit latency-window capacity. The
    /// window is the workload's only heap buffer; large fleet grids shrink
    /// it to cut per-node memory.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(cores: usize, window: usize) -> Self {
        ObjectStore {
            cores: cores as f64,
            load: 0.85,
            base_latency_ms: 2.0,
            latencies: SlidingWindow::new(window),
            latency_sum: 0.0,
            latency_count: 0,
            requests_served: 0.0,
        }
    }

    /// P99 request latency over the recent window, in milliseconds.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latencies.quantile(0.99)
    }

    /// Mean request latency over the whole run, in milliseconds.
    pub fn mean_latency_ms(&self) -> f64 {
        if self.latency_count == 0 {
            0.0
        } else {
            self.latency_sum / self.latency_count as f64
        }
    }
}

impl CpuWorkload for ObjectStore {
    fn name(&self) -> &'static str {
        "ObjectStore"
    }

    fn demand(&mut self, _now: Timestamp) -> WorkloadDemand {
        WorkloadDemand { cores: self.load * self.cores, cpu_bound_fraction: 0.95 }
    }

    fn deliver(&mut self, now: Timestamp, dt: SimDuration, granted_cores: f64, freq_factor: f64) {
        let wanted = self.load * self.cores;
        let supply = (granted_cores / wanted).min(1.0);
        // Service time shrinks with frequency; starvation inflates it.
        let speedup = freq_factor * supply.max(1e-3);
        // A mild queueing term keeps P99 above the mean and adds sensitivity
        // to sustained overload. Deterministic jitter stands in for request
        // size variation.
        let jitter = 1.0 + 0.3 * ((now.as_secs_f64() * 7.3).sin().abs());
        let latency = self.base_latency_ms * jitter / speedup;
        self.latencies.push(latency);
        self.latency_sum += latency;
        self.latency_count += 1;
        self.requests_served += 1000.0 * dt.as_secs_f64() * supply * freq_factor;
    }

    fn performance(&self) -> PerfReport {
        // The score is based on the mean latency so that the agent's
        // intentional exploration epochs (a few percent of the time at lower
        // frequencies) do not dominate the metric; the P99 over the recent
        // window is still reported alongside it.
        let mean = self.mean_latency_ms();
        PerfReport {
            workload: self.name().to_string(),
            score: if mean > 0.0 { 1.0 / mean } else { 0.0 },
            metric: "1 / mean latency (1/ms)",
            p99_latency_ms: Some(self.p99_latency_ms()),
        }
    }

    fn mem_bytes(&self) -> usize {
        self.latencies.mem_bytes() - std::mem::size_of::<SlidingWindow>()
    }
}

/// A disk-bound workload whose throughput is limited by the storage device,
/// not the CPU (paper §6.2 "DiskSpeed").
#[derive(Debug, Clone)]
pub struct DiskSpeed {
    cores: f64,
    disk_requests_per_sec: f64,
    served: f64,
    elapsed: SimDuration,
}

impl DiskSpeed {
    /// Creates a DiskSpeed VM with the given core count.
    pub fn new(cores: usize) -> Self {
        DiskSpeed {
            cores: cores as f64,
            disk_requests_per_sec: 5_000.0,
            served: 0.0,
            elapsed: SimDuration::ZERO,
        }
    }

    /// Throughput achieved so far in requests per second.
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.served / secs
        } else {
            0.0
        }
    }
}

impl CpuWorkload for DiskSpeed {
    fn name(&self) -> &'static str {
        "DiskSpeed"
    }

    fn demand(&mut self, _now: Timestamp) -> WorkloadDemand {
        // A third of the cores shuffle buffers; almost all their cycles stall
        // on the disk.
        WorkloadDemand { cores: 0.3 * self.cores, cpu_bound_fraction: 0.06 }
    }

    fn deliver(&mut self, _now: Timestamp, dt: SimDuration, granted_cores: f64, _freq_factor: f64) {
        self.elapsed += dt;
        // The disk is the bottleneck: as long as a minimal amount of CPU is
        // available the device runs at its native rate.
        let cpu_ok = granted_cores >= 0.05 * self.cores;
        if cpu_ok {
            self.served += self.disk_requests_per_sec * dt.as_secs_f64();
        } else {
            self.served += self.disk_requests_per_sec * dt.as_secs_f64() * 0.5;
        }
    }

    fn performance(&self) -> PerfReport {
        PerfReport {
            workload: self.name().to_string(),
            score: self.throughput(),
            metric: "disk requests per second",
            p99_latency_ms: None,
        }
    }
}

/// Which of the paper's three overclocking workloads to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OverclockWorkloadKind {
    /// Periodic compute batches ([`SyntheticBatch`]).
    Synthetic,
    /// Key-value store at high load ([`ObjectStore`]).
    ObjectStore,
    /// Disk-bound workload ([`DiskSpeed`]).
    DiskSpeed,
}

impl OverclockWorkloadKind {
    /// All three workloads, in the order Figure 1 lists them.
    pub const ALL: [OverclockWorkloadKind; 3] = [
        OverclockWorkloadKind::Synthetic,
        OverclockWorkloadKind::ObjectStore,
        OverclockWorkloadKind::DiskSpeed,
    ];

    /// Instantiates the workload on a node with `cores` cores.
    pub fn build(self, cores: usize) -> Box<dyn CpuWorkload> {
        match self {
            OverclockWorkloadKind::Synthetic => Box::new(SyntheticBatch::paper_default(cores)),
            OverclockWorkloadKind::ObjectStore => Box::new(ObjectStore::new(cores)),
            OverclockWorkloadKind::DiskSpeed => Box::new(DiskSpeed::new(cores)),
        }
    }

    /// Like [`build`](Self::build) with an explicit latency-window capacity
    /// for the workloads that keep one ([`ObjectStore`]); the others ignore
    /// it. `build` is `build_with_window(cores, 4096)`.
    pub fn build_with_window(self, cores: usize, window: usize) -> Box<dyn CpuWorkload> {
        match self {
            OverclockWorkloadKind::ObjectStore => Box::new(ObjectStore::with_window(cores, window)),
            other => other.build(cores),
        }
    }

    /// The workload's display name.
    pub fn name(self) -> &'static str {
        match self {
            OverclockWorkloadKind::Synthetic => "Synthetic",
            OverclockWorkloadKind::ObjectStore => "ObjectStore",
            OverclockWorkloadKind::DiskSpeed => "DiskSpeed",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_workload(w: &mut dyn CpuWorkload, secs: u64, freq_factor: f64, cores: f64) {
        let dt = SimDuration::from_millis(10);
        let steps = secs * 100;
        for i in 0..steps {
            let now = Timestamp::from_millis(i * 10);
            let d = w.demand(now);
            let granted = d.cores.min(cores);
            w.deliver(now, dt, granted, freq_factor);
        }
    }

    #[test]
    fn synthetic_batch_alternates_processing_and_idle() {
        let mut w = SyntheticBatch::paper_default(8);
        // At nominal frequency a 320 core-second batch on 8 cores takes ~40 s.
        run_workload(&mut w, 100, 1.0, 8.0);
        assert_eq!(w.batches_completed(), 1);
        let completion = w.mean_completion().unwrap().as_secs_f64();
        assert!((completion - 40.0).abs() < 1.5, "completion {completion}");
        assert!(!w.is_processing(), "should be idle before the next arrival");
    }

    #[test]
    fn synthetic_batch_speeds_up_with_frequency() {
        let mut slow = SyntheticBatch::paper_default(8);
        let mut fast = SyntheticBatch::paper_default(8);
        run_workload(&mut slow, 300, 1.0, 8.0);
        run_workload(&mut fast, 300, 2.3 / 1.5, 8.0);
        assert!(fast.performance().score > slow.performance().score * 1.3);
    }

    #[test]
    fn object_store_latency_improves_with_frequency() {
        let mut slow = ObjectStore::new(8);
        let mut fast = ObjectStore::new(8);
        run_workload(&mut slow, 30, 1.0, 8.0);
        run_workload(&mut fast, 30, 2.3 / 1.5, 8.0);
        assert!(fast.p99_latency_ms() < slow.p99_latency_ms() * 0.8);
    }

    #[test]
    fn object_store_latency_degrades_when_starved() {
        let mut full = ObjectStore::new(8);
        let mut starved = ObjectStore::new(8);
        run_workload(&mut full, 30, 1.0, 8.0);
        run_workload(&mut starved, 30, 1.0, 2.0);
        assert!(starved.p99_latency_ms() > 2.0 * full.p99_latency_ms());
    }

    #[test]
    fn disk_speed_is_frequency_insensitive() {
        let mut slow = DiskSpeed::new(8);
        let mut fast = DiskSpeed::new(8);
        run_workload(&mut slow, 30, 1.0, 8.0);
        run_workload(&mut fast, 30, 2.3 / 1.5, 8.0);
        let ratio = fast.performance().score / slow.performance().score;
        assert!((ratio - 1.0).abs() < 0.01, "throughput should not change: {ratio}");
    }

    #[test]
    fn workload_kinds_build_expected_names() {
        for kind in OverclockWorkloadKind::ALL {
            let w = kind.build(4);
            assert_eq!(w.name(), kind.name());
        }
    }

    #[test]
    fn synthetic_demand_is_low_when_idle_high_when_processing() {
        let mut w = SyntheticBatch::new(SimDuration::from_secs(100), 80.0, 8.0);
        let busy = w.demand(Timestamp::ZERO);
        assert_eq!(busy.cores, 8.0);
        // Finish the batch quickly, then check idle demand.
        w.deliver(Timestamp::ZERO, SimDuration::from_secs(20), 8.0, 1.0);
        let idle = w.demand(Timestamp::from_secs(30));
        assert!(idle.cores < 1.0);
        assert!(idle.cpu_bound_fraction < 0.5);
    }
}
