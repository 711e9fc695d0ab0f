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

use std::collections::VecDeque;

use sol_core::time::{SimDuration, Timestamp};
use sol_ml::online_stats::quantile_in_place;

use crate::start_runs::StartRuns;

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
    completions: u64,
    /// Completion times summed, in nanoseconds.
    completion_nanos: u64,
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
            completions: 0,
            completion_nanos: 0,
            work_done: 0.0,
        }
    }

    /// Number of batches completed so far.
    pub fn batches_completed(&self) -> usize {
        self.completions as usize
    }

    /// Mean batch completion time, if any batch completed.
    pub fn mean_completion(&self) -> Option<SimDuration> {
        self.completion_nanos.checked_div(self.completions).map(SimDuration::from_nanos)
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
                self.completions += 1;
                self.completion_nanos += end.duration_since(start).as_nanos();
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
}

/// One ObjectStore request latency in milliseconds: `base_ms` with a
/// deterministic jitter standing in for request size variation, divided by
/// the speedup the step delivered.
fn latency_ms(base_ms: f64, now: Timestamp, speedup: f64) -> f64 {
    let jitter = 1.0 + 0.3 * ((now.as_secs_f64() * 7.3).sin().abs());
    base_ms * jitter / speedup
}

/// The last `capacity` ObjectStore latencies, kept as the inputs each was
/// computed from — the step's start and its speedup — and turned back into
/// samples by [`latency_ms`] when a quantile is read. `len` and `quantile`
/// return what a `SlidingWindow` of the same capacity fed the latencies
/// returns, to the bit.
///
/// Every sample differs (the jitter follows the clock), but its inputs do
/// not: a node advanced on a regular grid holds one run of starts, and the
/// speedup moves only when the frequency or the supply does. A full window
/// is a handful of runs where the samples take 32 KB. The worst case, a
/// speedup that changes on every sample, is a 10-byte run per sample where
/// `SlidingWindow` pays 8.
#[derive(Debug, Clone)]
struct LatencyWindow {
    capacity: usize,
    len: usize,
    starts: StartRuns,
    /// The speedups' values, oldest run first.
    speedups: VecDeque<f64>,
    /// Their run lengths, beside `speedups` (apart from it so a run costs 10
    /// bytes, not a padded 16). A stretch longer than `u16::MAX` is several
    /// runs.
    counts: VecDeque<u16>,
}

impl LatencyWindow {
    /// Samples of capacity per start run reserved at the first sample: 4 in
    /// a 4096-sample window, where a node advanced on its grid holds 1.
    const SAMPLES_PER_START_RUN: usize = 1024;
    /// Samples of capacity per speedup run reserved at the first sample: 16
    /// in a 4096-sample window, where a preset node, its agent moving the
    /// frequency at most once a ~1 s epoch, holds at most 6. Within both, a
    /// preset node's footprint is one number whatever its trajectory.
    const SAMPLES_PER_SPEEDUP_RUN: usize = 256;

    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        LatencyWindow {
            capacity,
            len: 0,
            starts: StartRuns::default(),
            speedups: VecDeque::new(),
            counts: VecDeque::new(),
        }
    }

    /// Books the sample of a step that started at `start` and ran at
    /// `speedup`, evicting the oldest if the window is full.
    fn push(&mut self, start: Timestamp, speedup: f64) {
        if self.len == self.capacity {
            self.starts.pop_front();
            let oldest = self.counts.front_mut().expect("a full window holds a run");
            *oldest -= 1;
            if *oldest == 0 {
                self.speedups.pop_front();
                self.counts.pop_front();
            }
            self.len -= 1;
        }
        if self.len == 0 {
            // Here and not in `new`: stamping a node allocates nothing.
            self.starts.reserve_exact(self.capacity.div_ceil(Self::SAMPLES_PER_START_RUN));
            let runs = self.capacity.div_ceil(Self::SAMPLES_PER_SPEEDUP_RUN);
            self.speedups.reserve_exact(runs);
            self.counts.reserve_exact(runs);
        }
        self.starts.push(start);
        match (self.speedups.back(), self.counts.back_mut()) {
            (Some(last), Some(count))
                if last.to_bits() == speedup.to_bits() && *count < u16::MAX =>
            {
                *count += 1
            }
            _ => {
                self.speedups.push_back(speedup);
                self.counts.push_back(1);
            }
        }
        self.len += 1;
    }

    /// Exact quantile `q` of the samples, as `SlidingWindow::quantile`
    /// computes it over the same samples in the same order.
    fn quantile(&self, base_ms: f64, q: f64) -> f64 {
        let speedups = self
            .speedups
            .iter()
            .zip(&self.counts)
            .flat_map(|(&speedup, &count)| std::iter::repeat_n(speedup, count.into()));
        let mut samples = Vec::with_capacity(self.len);
        samples.extend(
            self.starts
                .iter()
                .zip(speedups)
                .map(|(start, speedup)| latency_ms(base_ms, start, speedup)),
        );
        quantile_in_place(&mut samples, q)
    }

    fn heap_bytes(&self) -> usize {
        self.starts.heap_bytes()
            + self.speedups.capacity() * std::mem::size_of::<f64>()
            + self.counts.capacity() * std::mem::size_of::<u16>()
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
    latencies: LatencyWindow,
    latency_sum: f64,
    latency_count: u64,
}

impl ObjectStore {
    /// Creates an ObjectStore VM using `cores` cores at roughly 85 % load,
    /// with the default 4096-sample P99 latency window.
    pub fn new(cores: usize) -> Self {
        Self::with_window(cores, 4096)
    }

    /// Like [`new`](Self::new) with an explicit latency-window capacity: the
    /// number of recent samples the P99 is taken over. The window stores
    /// each sample's inputs as runs, so its size barely moves the
    /// footprint.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(cores: usize, window: usize) -> Self {
        ObjectStore {
            cores: cores as f64,
            load: 0.85,
            base_latency_ms: 2.0,
            latencies: LatencyWindow::new(window),
            latency_sum: 0.0,
            latency_count: 0,
        }
    }

    /// P99 request latency over the recent window, in milliseconds.
    pub fn p99_latency_ms(&self) -> f64 {
        self.latencies.quantile(self.base_latency_ms, 0.99)
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

    fn deliver(&mut self, now: Timestamp, _dt: SimDuration, granted_cores: f64, freq_factor: f64) {
        let wanted = self.load * self.cores;
        let supply = (granted_cores / wanted).min(1.0);
        // Service time shrinks with frequency; starvation inflates it.
        let speedup = freq_factor * supply.max(1e-3);
        let latency = latency_ms(self.base_latency_ms, now, speedup);
        self.latencies.push(now, speedup);
        self.latency_sum += latency;
        self.latency_count += 1;
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
        self.latencies.heap_bytes()
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
    /// — the number of recent samples the P99 is taken over — for the
    /// workloads that keep one ([`ObjectStore`]); the others ignore it.
    /// `build` is `build_with_window(cores, 4096)`.
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
    use sol_ml::online_stats::SlidingWindow;

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

    #[test]
    fn a_speedup_that_changes_every_sample_costs_ten_bytes_a_sample() {
        let mut window = LatencyWindow::new(4096);
        let mut plain = SlidingWindow::new(4096);
        for i in 0..2 * 4096 {
            let (now, speedup) = (Timestamp::from_millis(i), 1.0 + i as f64 * 1e-4);
            window.push(now, speedup);
            plain.push(latency_ms(2.0, now, speedup));
        }
        // A 10-byte speedup run per sample beside the 4 reserved start runs,
        // of which the grid uses one.
        let bytes = window.heap_bytes();
        assert!((4096 * 10..=4096 * 10 + 4 * 24).contains(&bytes), "{bytes} B");
        assert_eq!(window.quantile(2.0, 0.99).to_bits(), plain.quantile(0.99).to_bits());
    }

    #[test]
    fn cpu_workload_footprints_are_constant() {
        let mut store = ObjectStore::new(8);
        let mut batch = SyntheticBatch::new(SimDuration::from_secs(2), 4.0, 8.0);
        assert_eq!(store.mem_bytes(), 0);
        // 20 s on the 1 ms grid, the frequency moving every second: a full
        // window holds 5 speedup runs.
        for ms in 0..20_000 {
            let now = Timestamp::from_millis(ms);
            let freq_factor = [1.0, 1.2, 1.5][(ms / 1_000) as usize % 3];
            for w in [&mut store as &mut dyn CpuWorkload, &mut batch] {
                let granted = w.demand(now).cores;
                w.deliver(now, SimDuration::from_millis(1), granted, freq_factor);
            }
            // The reserved 4 start runs and 16 speedup runs, from the first
            // sample on.
            assert_eq!(store.mem_bytes(), 4 * 24 + 16 * 10);
        }
        assert_eq!(batch.batches_completed(), 10);
        assert_eq!(batch.mem_bytes(), 0);
    }

    mod latency_window {
        use proptest::prelude::*;

        use super::*;

        /// Speedups that recur, so equal ones meet both inside a run and
        /// across runs; the last is a starved step's.
        const SPEEDUPS: [f64; 5] = [1.0, 1.2, 2.3 / 1.5, 0.25, 1e-3];
        const STEP_NS: u64 = 1_000_000;

        #[derive(Debug, Clone)]
        enum Speedup {
            /// One speedup held: a single run.
            Hold(usize),
            /// Two speedups taking turns: a run per sample of few values.
            Alternate(usize, usize),
            /// A different speedup every sample: the 10 B/sample worst case.
            EverySample(f64),
        }

        /// How far a segment advances the clock, in nanoseconds, and the
        /// speedups its steps run at.
        fn segment() -> impl Strategy<Value = (u64, Speedup)> {
            let letter = || 0..SPEEDUPS.len();
            let advance = prop_oneof![
                3 => (1u64..=8).prop_map(|steps| steps * STEP_NS),
                2 => 1u64..8 * STEP_NS,
            ];
            let speedup = prop_oneof![
                3 => letter().prop_map(Speedup::Hold),
                1 => (letter(), letter()).prop_map(|(a, b)| Speedup::Alternate(a, b)),
                2 => (0.5f64..4.0).prop_map(Speedup::EverySample),
            ];
            (advance, speedup)
        }

        /// Advances the clock through `segments` the way `CpuNode` does —
        /// whole steps, then a partial one to an off-grid target — pushing
        /// every step into both windows and comparing `len` and four
        /// quantiles after each push, by their bits.
        fn check(capacity: usize, segments: Vec<(u64, Speedup)>) -> Result<(), TestCaseError> {
            let mut window = LatencyWindow::new(capacity);
            let mut plain = SlidingWindow::new(capacity);
            let mut now = Timestamp::ZERO;
            for (advance, speedup) in segments {
                let target = now + SimDuration::from_nanos(advance);
                let mut i = 0;
                while now < target {
                    let x = match speedup {
                        Speedup::Hold(a) => SPEEDUPS[a],
                        Speedup::Alternate(a, b) => SPEEDUPS[if i % 2 == 0 { a } else { b }],
                        Speedup::EverySample(from) => from + i as f64 * 0.125,
                    };
                    window.push(now, x);
                    plain.push(latency_ms(2.0, now, x));
                    prop_assert_eq!(window.len, plain.len());
                    for q in [0.0, 0.5, 0.99, 1.0] {
                        prop_assert_eq!(
                            window.quantile(2.0, q).to_bits(),
                            plain.quantile(q).to_bits()
                        );
                    }
                    now += target.duration_since(now).min(SimDuration::from_nanos(STEP_NS));
                    i += 1;
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The window is a `SlidingWindow` of the latencies in another
            /// layout: after every push — through fills, evictions that
            /// split and exhaust runs of both columns, partial steps that
            /// break the grid, and capacity 1 — `len` and every quantile
            /// agree to the bit.
            #[test]
            fn latency_window_matches_sliding_window(
                capacity in prop_oneof![7 => 1usize..=48, 1 => Just(1usize)],
                segments in proptest::collection::vec(segment(), 1..24),
            ) {
                check(capacity, segments)?;
            }
        }
    }
}
