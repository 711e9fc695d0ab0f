//! The simulated two-tier memory system used by the SmartMemory experiments
//! (paper §5.3, §6.4).
//!
//! Memory is divided into 2 MB *batches* of 512 4 KB pages. A fast local tier
//! (DRAM) fronts a slower remote tier (disaggregated / persistent memory).
//! Workload accesses follow a Zipf-skewed popularity distribution whose hot
//! set can shift over time. The agent scans per-batch access bits (each scan
//! clears the bits, costing TLB flushes), classifies batches as hot / warm /
//! cold, and migrates warm batches to the remote tier while keeping the
//! fraction of remote accesses under a service-level objective.

use rand::Rng;

use sol_core::error::DataError;
use sol_core::runtime::Environment;
use sol_core::time::{SimDuration, Timestamp};
use sol_ml::footprint::MemoryFootprint;
use sol_ml::sampling::{seeded_rng, Zipf};

use crate::recent_steps::RecentSteps;

/// Which memory tier a batch currently lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Fast, expensive first-tier DRAM.
    Local,
    /// Slower second-tier (remote / far) memory.
    Remote,
}

/// The result of scanning one batch's access bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanResult {
    /// Whether any page in the batch was accessed since the last scan.
    pub accessed: bool,
    /// Number of pages whose access bit was set (and therefore cleared,
    /// costing a TLB flush each).
    pub pages_set: u32,
    /// When the batch was last accessed (for cold detection).
    pub last_access: Option<Timestamp>,
}

/// Per-batch state the hit pass and the agent-facing calls touch. The
/// fractional carry, the share and the tier live apart from it, in the
/// batch's [`Chunk`].
#[derive(Debug, Clone)]
struct MemBatch {
    accesses_since_scan: f64,
    last_access: Option<Timestamp>,
    total_accesses: f64,
}

impl MemBatch {
    fn new() -> Self {
        MemBatch { accesses_since_scan: 0.0, last_access: None, total_accesses: 0.0 }
    }

    fn hit(&mut self, hits: f64, now: Timestamp) {
        self.accesses_since_scan += hits;
        self.total_accesses += hits;
        self.last_access = Some(now);
    }
}

/// Batches per [`Chunk`], one bit each in its masks.
const MASK_BITS: usize = u64::BITS as usize;

/// The dense tables of [`MASK_BITS`] consecutive batches, by batch index
/// within the chunk. Slots past the last batch hold a zero share and a zero
/// carry, so they never hit.
#[derive(Debug, Clone)]
struct Chunk {
    /// Fractional accesses each batch carries into the next step; in
    /// `[0, 1)` between steps.
    carry: [f64; MASK_BITS],
    /// Each batch's share of a step's accesses: batch `permutation[rank]`
    /// gets `expected_total * zipf.probability(rank)`.
    expected: [f64; MASK_BITS],
    /// The batches in the remote tier.
    remote: u64,
    /// The batches whose share is below `1.0`, rebuilt with `expected`.
    single: u64,
}

impl Chunk {
    const EMPTY: Chunk =
        Chunk { carry: [0.0; MASK_BITS], expected: [0.0; MASK_BITS], remote: 0, single: 0 };
}

/// `1 << k` for each slot `k` of a chunk.
const BITS: [u64; MASK_BITS] = {
    let mut bits = [0; MASK_BITS];
    let mut k = 0;
    while k < MASK_BITS {
        bits[k] = 1 << k;
        k += 1;
    }
    bits
};

/// One bit per value that passes `test`. Each value selects its bit from
/// [`BITS`] and the bits are or-ed eight at a time: there is no serial chain
/// of variable shifts, and the selects compile to packed compares and ands.
fn mask(values: &[f64; MASK_BITS], test: impl Fn(f64) -> bool) -> u64 {
    let mut lanes = [0u64; MASK_BITS];
    for ((lane, &v), &bit) in lanes.iter_mut().zip(values).zip(&BITS) {
        *lane = if test(v) { bit } else { 0 };
    }
    lanes.chunks_exact(8).fold(0, |bits, octet| bits | octet.iter().fold(0, |b, &lane| b | lane))
}

/// Adds each batch's share to its carry and returns the batches whose carry
/// reached a whole access.
fn add_shares(carry: &mut [f64; MASK_BITS], expected: &[f64; MASK_BITS]) -> u64 {
    for (c, e) in carry.iter_mut().zip(expected) {
        *c += e;
    }
    mask(carry, |c| c >= 1.0)
}

/// Takes the whole part of each `due` batch's carry as its hits and returns
/// their sum.
fn take_hits(
    carry: &mut [f64; MASK_BITS],
    batches: &mut [MemBatch],
    mut due: u64,
    now: Timestamp,
) -> f64 {
    let mut sum = 0.0;
    while due != 0 {
        let i = due.trailing_zeros() as usize;
        due &= due - 1;
        let hits = floor_non_negative(carry[i]);
        carry[i] -= hits;
        batches[i].hit(hits, now);
        sum += hits;
    }
    sum
}

/// `x.floor()` for `x >= 0.0`, without the libm call baseline x86-64 (no
/// `roundsd`) makes of it. Below 2^52 the value fits an `i64` and the cast
/// truncates toward zero, which is the floor of a non-negative; from 2^52 up
/// every `f64` is an integer and its own floor.
fn floor_non_negative(x: f64) -> f64 {
    const INTEGERS_FROM: f64 = (1u64 << (f64::MANTISSA_DIGITS - 1)) as f64;
    if x < INTEGERS_FROM {
        x as i64 as f64
    } else {
        x
    }
}

/// Which memory workload to simulate (paper §6.4 uses ObjectStore, SQL, and
/// SpecJBB, plus an intentionally difficult oscillating SpecJBB for Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemoryWorkloadKind {
    /// Key-value store: highly skewed accesses, stable hot set.
    ObjectStore,
    /// OLTP SQL server: moderately skewed accesses, slowly drifting hot set.
    Sql,
    /// SPECjbb-like Java server workload: flatter access distribution.
    SpecJbb,
    /// SpecJBB oscillating between 150 s of activity and 80 s of sleep, with
    /// the hot set shifting on every activation (Figure 8).
    OscillatingSpecJbb,
}

impl MemoryWorkloadKind {
    /// The three steady workloads of Figure 7.
    pub const FIG7: [MemoryWorkloadKind; 3] =
        [MemoryWorkloadKind::ObjectStore, MemoryWorkloadKind::Sql, MemoryWorkloadKind::SpecJbb];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            MemoryWorkloadKind::ObjectStore => "ObjectStore",
            MemoryWorkloadKind::Sql => "SQL",
            MemoryWorkloadKind::SpecJbb => "SpecJBB",
            MemoryWorkloadKind::OscillatingSpecJbb => "SpecJBB (oscillating)",
        }
    }

    fn zipf_skew(self) -> f64 {
        match self {
            MemoryWorkloadKind::ObjectStore => 1.2,
            MemoryWorkloadKind::Sql => 0.9,
            MemoryWorkloadKind::SpecJbb | MemoryWorkloadKind::OscillatingSpecJbb => 0.7,
        }
    }

    fn hot_set_shift_period(self) -> Option<SimDuration> {
        match self {
            MemoryWorkloadKind::ObjectStore => None,
            MemoryWorkloadKind::Sql => Some(SimDuration::from_secs(300)),
            MemoryWorkloadKind::SpecJbb => Some(SimDuration::from_secs(400)),
            // The oscillating workload shifts its hot set on every activation.
            MemoryWorkloadKind::OscillatingSpecJbb => None,
        }
    }

    fn activity_cycle(self) -> Option<(SimDuration, SimDuration)> {
        match self {
            MemoryWorkloadKind::OscillatingSpecJbb => {
                Some((SimDuration::from_secs(150), SimDuration::from_secs(80)))
            }
            _ => None,
        }
    }
}

/// Configuration for a [`MemoryNode`].
#[derive(Debug, Clone)]
pub struct MemoryNodeConfig {
    /// Number of 2 MB batches of memory managed by the agent.
    pub batches: usize,
    /// 4 KB pages per batch (512 in the paper).
    pub pages_per_batch: u32,
    /// Average memory accesses per second while the workload is active.
    pub accesses_per_sec: f64,
    /// Integration step.
    pub step: SimDuration,
    /// Probability that an access-bit scan fails with a driver error
    /// (fault injection for data validation).
    pub scan_failure_probability: f64,
    /// RNG seed.
    pub seed: u64,
    /// Window over which recent local/remote fractions are reported.
    pub recent_window: SimDuration,
}

impl Default for MemoryNodeConfig {
    fn default() -> Self {
        MemoryNodeConfig {
            batches: 256,
            pages_per_batch: 512,
            accesses_per_sec: 50_000.0,
            step: SimDuration::from_millis(100),
            scan_failure_probability: 0.0,
            seed: 7,
            recent_window: SimDuration::from_secs(30),
        }
    }
}

impl MemoryNodeConfig {
    /// Returns the config with its access-sampling RNG reseeded — the hook
    /// fleet recipes use to give every simulated server an independent
    /// random stream (per-node seed derivation).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// A per-second sample of the remote-access fraction, kept for time-series
/// figures (Figure 8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RemoteFractionSample {
    /// Timestamp of the end of the one-second bucket.
    pub at: Timestamp,
    /// Fraction of accesses in that second that hit the remote tier.
    pub remote_fraction: f64,
    /// Whether the workload was active during that second.
    pub active: bool,
}

/// The simulated two-tier memory node.
pub struct MemoryNode {
    config: MemoryNodeConfig,
    kind: MemoryWorkloadKind,
    batches: Vec<MemBatch>,
    /// Batch `i`'s carry, share and tier are slot `i % MASK_BITS` of chunk
    /// `i / MASK_BITS`: dense tables the per-step pass streams over.
    chunks: Vec<Chunk>,
    /// The step total the chunks' `expected` hold the shares of, compared by
    /// bits. `0.0` marks the tables stale: accesses are only applied for a
    /// total above it.
    expected_total: f64,
    zipf: Zipf,
    permutation: Vec<usize>,
    now: Timestamp,
    rng: rand::rngs::StdRng,
    /// Multiplier on the workload's access rate, driven by co-location
    /// couplings (faster cores issue more memory accesses per second).
    bandwidth_factor: f64,
    access_bit_resets: u64,
    scans: u64,
    migrations: u64,
    local_accesses: f64,
    remote_accesses: f64,
    /// Every step inside the recent window, kept for expiry only, with the
    /// running sums of its hits.
    recent: RecentSteps,
    second_local: f64,
    second_remote: f64,
    next_second: Timestamp,
    series: Vec<RemoteFractionSample>,
    next_shift: Option<Timestamp>,
    activation_index: u64,
}

impl std::fmt::Debug for MemoryNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryNode")
            .field("workload", &self.kind.name())
            .field("now", &self.now)
            .field("batches", &self.batches.len())
            .field("remote_batches", &self.remote_batch_count())
            .finish()
    }
}

impl MemoryNode {
    /// Creates a node running the given memory workload.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is degenerate (zero batches/pages, an
    /// access rate that is negative or not finite, a step of zero or longer
    /// than the one-second buckets of the remote-fraction series, or
    /// probabilities out of range).
    pub fn new(kind: MemoryWorkloadKind, config: MemoryNodeConfig) -> Self {
        assert!(config.batches > 0, "need at least one batch");
        assert!(config.pages_per_batch > 0, "need at least one page per batch");
        assert!(
            config.accesses_per_sec.is_finite() && config.accesses_per_sec >= 0.0,
            "access rate must be finite and non-negative"
        );
        assert!(!config.step.is_zero(), "step must be non-zero");
        // A step closes at most one per-second sample, so a longer one would
        // drop seconds from the series and skew `slo_attainment`.
        assert!(config.step <= SimDuration::from_secs(1), "step must not exceed one second");
        assert!(
            (0.0..=1.0).contains(&config.scan_failure_probability),
            "scan failure probability must be in [0, 1]"
        );
        let zipf = Zipf::new(config.batches, kind.zipf_skew());
        let mut rng = seeded_rng(config.seed);
        // Shuffle so a batch's index carries no information about its
        // popularity; only observation can reveal the hot set.
        let mut permutation: Vec<usize> = (0..config.batches).collect();
        for i in (1..permutation.len()).rev() {
            let j = rng.gen_range(0..=i);
            permutation.swap(i, j);
        }
        let next_shift = kind.hot_set_shift_period().map(|p| Timestamp::ZERO + p);
        MemoryNode {
            batches: vec![MemBatch::new(); config.batches],
            chunks: vec![Chunk::EMPTY; config.batches.div_ceil(MASK_BITS)],
            expected_total: 0.0,
            zipf,
            permutation,
            now: Timestamp::ZERO,
            rng,
            bandwidth_factor: 1.0,
            access_bit_resets: 0,
            scans: 0,
            migrations: 0,
            local_accesses: 0.0,
            remote_accesses: 0.0,
            recent: RecentSteps::default(),
            second_local: 0.0,
            second_remote: 0.0,
            next_second: Timestamp::from_secs(1),
            series: Vec::new(),
            next_shift,
            activation_index: 0,
            kind,
            config,
        }
    }

    /// The workload being simulated.
    pub fn workload(&self) -> MemoryWorkloadKind {
        self.kind
    }

    /// Number of 2 MB batches.
    pub fn batch_count(&self) -> usize {
        self.batches.len()
    }

    /// Pages per batch.
    pub fn pages_per_batch(&self) -> u32 {
        self.config.pages_per_batch
    }

    /// Number of batches currently in the local (first) tier.
    pub fn local_batch_count(&self) -> usize {
        self.batches.len() - self.remote_batch_count()
    }

    /// Number of batches currently in the remote (second) tier.
    pub fn remote_batch_count(&self) -> usize {
        self.chunks.iter().map(|c| c.remote.count_ones() as usize).sum()
    }

    /// The tier a batch currently lives in.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is out of range.
    pub fn tier(&self, batch: usize) -> Tier {
        let (chunk, bit) = self.locate(batch);
        if self.chunks[chunk].remote & bit == 0 {
            Tier::Local
        } else {
            Tier::Remote
        }
    }

    /// The chunk holding `batch` and the batch's bit in the chunk's masks.
    fn locate(&self, batch: usize) -> (usize, u64) {
        let n = self.batches.len();
        assert!(batch < n, "batch {batch} is out of range for {n} batches");
        (batch / MASK_BITS, 1 << (batch % MASK_BITS))
    }

    /// Moves a batch to `tier`, counting a migration if it was not there.
    fn move_to(&mut self, batch: usize, tier: Tier) {
        let (chunk, bit) = self.locate(batch);
        let remote = &mut self.chunks[chunk].remote;
        if (*remote & bit != 0) != (tier == Tier::Remote) {
            *remote ^= bit;
            self.migrations += 1;
        }
    }

    /// Whether the workload is currently in an active phase (always true for
    /// non-oscillating workloads).
    pub fn is_active(&self) -> bool {
        self.is_active_at(self.now)
    }

    fn is_active_at(&self, t: Timestamp) -> bool {
        match self.kind.activity_cycle() {
            None => true,
            Some((active, sleep)) => {
                let cycle = active + sleep;
                let phase = t.as_nanos() % cycle.as_nanos().max(1);
                phase < active.as_nanos()
            }
        }
    }

    /// Scans one batch's access bits, clearing them (each set bit cleared
    /// costs a TLB flush, which is what the agent tries to minimize).
    ///
    /// # Errors
    ///
    /// Returns [`DataError::SourceUnavailable`] with the configured
    /// probability, modeling the scanning driver failing to scan or reset
    /// access bits (paper §5.3, "Validating data").
    ///
    /// # Panics
    ///
    /// Panics if `batch` is out of range.
    pub fn scan_batch(&mut self, batch: usize) -> Result<ScanResult, DataError> {
        self.scans += 1;
        if self.config.scan_failure_probability > 0.0
            && self.rng.gen::<f64>() < self.config.scan_failure_probability
        {
            return Err(DataError::SourceUnavailable("access-bit scan failed".into()));
        }
        let pages = self.config.pages_per_batch as f64;
        let b = &mut self.batches[batch];
        // Approximate distinct pages touched from the access count with the
        // standard occupancy formula.
        let touched = pages * (1.0 - (-b.accesses_since_scan / pages).exp());
        let pages_set = touched.round() as u32;
        let accessed = b.accesses_since_scan > 0.5;
        let result = ScanResult { accessed, pages_set, last_access: b.last_access };
        self.access_bit_resets += u64::from(pages_set);
        b.accesses_since_scan = 0.0;
        Ok(result)
    }

    /// Moves a batch to the remote tier.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is out of range.
    pub fn migrate_to_remote(&mut self, batch: usize) {
        self.move_to(batch, Tier::Remote);
    }

    /// Moves a batch back to the local tier.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is out of range.
    pub fn migrate_to_local(&mut self, batch: usize) {
        self.move_to(batch, Tier::Local);
    }

    /// Restores every batch to the local tier (clean-up). Stops after
    /// `limit` migrations if the first tier were size-constrained; `None`
    /// restores everything.
    pub fn restore_all_local(&mut self, limit: Option<usize>) {
        let mut moved = 0;
        for i in 0..self.batches.len() {
            if self.tier(i) == Tier::Remote {
                if let Some(l) = limit {
                    if moved >= l {
                        break;
                    }
                }
                self.migrate_to_local(i);
                moved += 1;
            }
        }
    }

    /// Total number of access-bit resets (TLB flushes) caused by scanning.
    pub fn access_bit_resets(&self) -> u64 {
        self.access_bit_resets
    }

    /// Total number of scan operations issued.
    pub fn scans(&self) -> u64 {
        self.scans
    }

    /// Total number of batch migrations performed.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Cumulative number of accesses that hit the local tier.
    pub fn local_accesses(&self) -> f64 {
        self.local_accesses
    }

    /// Cumulative number of accesses that hit the remote tier.
    pub fn remote_accesses(&self) -> f64 {
        self.remote_accesses
    }

    /// Fraction of accesses over the recent window that hit the remote tier
    /// (the Actuator safeguard signal). Returns 0 when there were no recent
    /// accesses.
    pub fn recent_remote_fraction(&self) -> f64 {
        let (local, remote) = self.recent.sums();
        if local + remote == 0.0 {
            0.0
        } else {
            remote / (local + remote)
        }
    }

    /// Ranks batches by their total access count (hottest first), which
    /// experiments use as the oracle hot-set ordering.
    pub fn hottest_batches(&self) -> Vec<usize> {
        let mut idx: Vec<usize> = (0..self.batches.len()).collect();
        idx.sort_by(|&a, &b| {
            self.batches[b]
                .total_accesses
                .partial_cmp(&self.batches[a].total_accesses)
                .expect("no NaN access counts")
        });
        idx
    }

    /// The per-second remote-fraction time series recorded so far.
    pub fn remote_fraction_series(&self) -> &[RemoteFractionSample] {
        &self.series
    }

    /// Fraction of active seconds in which at least `slo_local` of accesses
    /// were local (the paper's SLO attainment metric; `slo_local` is 0.8 for
    /// an 80% local-access SLO).
    pub fn slo_attainment(&self, slo_local: f64) -> f64 {
        let (active, met) = self.series.iter().filter(|s| s.active).fold((0, 0), |(n, met), s| {
            (n + 1, met + usize::from(1.0 - s.remote_fraction >= slo_local - 1e-9))
        });
        if active == 0 {
            return 1.0;
        }
        met as f64 / active as f64
    }

    /// Sets the multiplier applied to the workload's access rate. Co-location
    /// couplings use this to model faster cores issuing more memory accesses
    /// per second (see `sol-node-sim`'s `multi_node` module); `1.0` is the
    /// uncoupled baseline.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn set_bandwidth_factor(&mut self, factor: f64) {
        assert!(factor.is_finite() && factor > 0.0, "bandwidth factor must be positive");
        self.bandwidth_factor = factor;
    }

    /// The current access-rate multiplier.
    pub fn bandwidth_factor(&self) -> f64 {
        self.bandwidth_factor
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.now
    }

    fn shift_hot_set(&mut self) {
        // Rotate the popularity permutation by a quarter of the batches so a
        // different subset becomes hot.
        let n = self.permutation.len();
        self.permutation.rotate_right(n / 4);
        self.expected_total = 0.0;
    }

    fn step_once(&mut self, dt: SimDuration) {
        let total = self.begin_step(dt);
        let (step_local, step_remote) =
            if total > 0.0 { self.apply_accesses(total) } else { (0.0, 0.0) };
        self.finish_step(dt, step_local, step_remote);
    }

    /// Applies the hot-set shifts due at the step's start and returns the
    /// number of accesses the workload issues over the step.
    fn begin_step(&mut self, dt: SimDuration) -> f64 {
        let now = self.now;
        // Hot-set shifts: periodic for SQL/SpecJBB, on every activation for
        // the oscillating workload.
        if let Some(at) = self.next_shift {
            if now >= at {
                self.shift_hot_set();
                self.next_shift = self.kind.hot_set_shift_period().map(|p| at + p);
            }
        }
        if self.kind == MemoryWorkloadKind::OscillatingSpecJbb {
            if let Some((active_len, sleep_len)) = self.kind.activity_cycle() {
                let cycle = active_len + sleep_len;
                let index = now.as_nanos() / cycle.as_nanos().max(1);
                if index != self.activation_index {
                    self.activation_index = index;
                    self.shift_hot_set();
                }
            }
        }

        let rate = if self.is_active_at(now) {
            self.config.accesses_per_sec * self.bandwidth_factor
        } else {
            0.0
        };
        rate * dt.as_secs_f64()
    }

    /// Spreads a step's `total > 0` accesses over the batches by popularity
    /// and returns the `(local, remote)` hits. Fractional accesses carry
    /// between steps so low-rate batches are still touched occasionally
    /// (deterministically).
    ///
    /// Per 64-batch chunk, a branch-free pass over the dense tables adds each
    /// batch's share to its carry, then a second one collects `carry >= 1`
    /// into a `due` mask, eight batches at a time. Only the set bits get hit
    /// bookkeeping — on a Zipf tail most batches get a hit once in many
    /// steps — and the chunk's masks split them with no per-hit branch:
    ///
    /// - `due & single` are batches whose share is below `1.0`. A carry
    ///   starts a step in `[0, 1)`, so theirs is now at most `2 - 2^-52` and
    ///   they hit exactly once: `carry -= 1.0`, and a popcount each of
    ///   `& !remote` and `& remote` sums the tiers' hits.
    /// - The rest take the `floor` of their carry, summed per tier from
    ///   `& !remote` and `& remote` separately. A share of exactly `1.0`
    ///   belongs here: `(1 - 2^-53) + 1.0` rounds to `2.0`.
    ///
    /// Each batch sees the same float operations on the same operands as a
    /// walk by rank would give it, and the hit sums are order-free
    /// (integer-valued, far below 2^53), so the results are those of that
    /// walk to the bit; the tests pin it against one.
    fn apply_accesses(&mut self, total: f64) -> (f64, f64) {
        let now = self.now;
        if total.to_bits() != self.expected_total.to_bits() {
            self.set_shares(total);
        }
        let mut step_local = 0.0;
        let mut step_remote = 0.0;
        for (chunk, batches) in self.chunks.iter_mut().zip(self.batches.chunks_mut(MASK_BITS)) {
            let due = add_shares(&mut chunk.carry, &chunk.expected);
            let once = due & chunk.single;
            step_local += f64::from((once & !chunk.remote).count_ones());
            step_remote += f64::from((once & chunk.remote).count_ones());
            let mut rest = once;
            while rest != 0 {
                let i = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                chunk.carry[i] -= 1.0;
                batches[i].hit(1.0, now);
            }
            let many = due & !chunk.single;
            step_local += take_hits(&mut chunk.carry, batches, many & !chunk.remote, now);
            step_remote += take_hits(&mut chunk.carry, batches, many & chunk.remote, now);
        }
        (step_local, step_remote)
    }

    /// Fills the chunks' `expected` with each batch's share of `total` and
    /// rebuilds their `single` masks.
    fn set_shares(&mut self, total: f64) {
        for (rank, &batch) in self.permutation.iter().enumerate() {
            self.chunks[batch / MASK_BITS].expected[batch % MASK_BITS] =
                total * self.zipf.probability(rank);
        }
        for chunk in &mut self.chunks {
            chunk.single = mask(&chunk.expected, |e| e < 1.0);
        }
        self.expected_total = total;
    }

    /// Books a step's hits into the totals, the recent window and the
    /// per-second series, and moves the clock to the step's end.
    fn finish_step(&mut self, dt: SimDuration, step_local: f64, step_remote: f64) {
        let now = self.now;
        self.local_accesses += step_local;
        self.remote_accesses += step_remote;

        self.recent.push(now, step_local, step_remote);
        self.recent.expire(now, self.config.recent_window);

        // Per-second series for SLO attainment.
        self.second_local += step_local;
        self.second_remote += step_remote;
        let end = now + dt;
        if end >= self.next_second {
            let total = self.second_local + self.second_remote;
            let remote_fraction = if total > 0.0 { self.second_remote / total } else { 0.0 };
            self.series.push(RemoteFractionSample {
                at: self.next_second,
                remote_fraction,
                active: self.is_active_at(self.next_second),
            });
            self.second_local = 0.0;
            self.second_remote = 0.0;
            self.next_second += SimDuration::from_secs(1);
        }

        self.now = end;
    }
}

impl Environment for MemoryNode {
    fn advance_to(&mut self, now: Timestamp) {
        while self.now < now {
            let remaining = now.duration_since(self.now);
            let dt = remaining.min(self.config.step);
            self.step_once(dt);
        }
    }

    fn mem_bytes(&self) -> usize {
        MemoryFootprint::mem_bytes(self)
    }
}

impl MemoryFootprint for MemoryNode {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.batches.capacity() * std::mem::size_of::<MemBatch>()
            + self.chunks.capacity() * std::mem::size_of::<Chunk>()
            + self.permutation.capacity() * std::mem::size_of::<usize>()
            + self.recent.heap_bytes()
            + self.series.capacity() * std::mem::size_of::<RemoteFractionSample>()
            + (MemoryFootprint::mem_bytes(&self.zipf) - std::mem::size_of::<Zipf>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> MemoryNodeConfig {
        MemoryNodeConfig {
            batches: 64,
            pages_per_batch: 512,
            accesses_per_sec: 10_000.0,
            ..MemoryNodeConfig::default()
        }
    }

    #[test]
    fn accesses_are_skewed_towards_hot_batches() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, small_config());
        node.advance_to(Timestamp::from_secs(30));
        let hottest = node.hottest_batches();
        let top = &node.batches[hottest[0]];
        let bottom = &node.batches[*hottest.last().unwrap()];
        assert!(top.total_accesses > 20.0 * bottom.total_accesses.max(1.0));
    }

    #[test]
    fn all_local_by_default_and_migration_changes_access_routing() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, small_config());
        assert_eq!(node.local_batch_count(), 64);
        node.advance_to(Timestamp::from_secs(10));
        assert_eq!(node.remote_accesses(), 0.0);
        // Move the hottest batch remote: remote accesses start accumulating.
        let hottest = node.hottest_batches()[0];
        node.migrate_to_remote(hottest);
        node.advance_to(Timestamp::from_secs(20));
        assert!(node.remote_accesses() > 0.0);
        assert!(node.recent_remote_fraction() > 0.0);
        assert_eq!(node.remote_batch_count(), 1);
        node.restore_all_local(None);
        assert_eq!(node.remote_batch_count(), 0);
    }

    #[test]
    fn scanning_reports_and_clears_access_bits() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, small_config());
        node.advance_to(Timestamp::from_secs(5));
        let hottest = node.hottest_batches()[0];
        let first = node.scan_batch(hottest).unwrap();
        assert!(first.accessed);
        assert!(first.pages_set > 0);
        assert!(node.access_bit_resets() >= u64::from(first.pages_set));
        // Immediately rescanning finds the bits cleared.
        let second = node.scan_batch(hottest).unwrap();
        assert!(!second.accessed);
        assert_eq!(second.pages_set, 0);
    }

    #[test]
    fn scan_failures_are_injected() {
        let mut config = small_config();
        config.scan_failure_probability = 1.0;
        let mut node = MemoryNode::new(MemoryWorkloadKind::Sql, config);
        node.advance_to(Timestamp::from_secs(1));
        assert!(node.scan_batch(0).is_err());
    }

    #[test]
    fn oscillating_workload_sleeps_and_shifts_hot_set() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::OscillatingSpecJbb, small_config());
        assert!(node.is_active());
        node.advance_to(Timestamp::from_secs(160));
        assert!(!node.is_active(), "should be sleeping at t=160s");
        let before = node.hottest_batches()[0];
        // Clear all access bits during the sleep phase so the next activation's
        // activity is measured in isolation.
        for i in 0..node.batch_count() {
            let _ = node.scan_batch(i);
        }
        node.advance_to(Timestamp::from_secs(400));
        // The second activation uses a shifted hot set, so the batch with the
        // most activity since the scan differs from the original hottest one.
        let recent_hot = (0..node.batch_count())
            .max_by(|&a, &b| {
                node.batches[a]
                    .accesses_since_scan
                    .partial_cmp(&node.batches[b].accesses_since_scan)
                    .unwrap()
            })
            .unwrap();
        assert_ne!(before, recent_hot, "hot set should shift across activations");
    }

    #[test]
    fn slo_attainment_reflects_remote_placement() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, small_config());
        // Everything local: SLO is trivially met.
        node.advance_to(Timestamp::from_secs(20));
        assert!((node.slo_attainment(0.8) - 1.0).abs() < 1e-9);
        // Move the entire hot set remote: the SLO collapses.
        let hottest: Vec<usize> = node.hottest_batches().into_iter().take(16).collect();
        for b in hottest {
            node.migrate_to_remote(b);
        }
        node.advance_to(Timestamp::from_secs(60));
        assert!(node.slo_attainment(0.8) < 0.9);
        assert!(node.recent_remote_fraction() > 0.5);
    }

    #[test]
    fn series_marks_sleep_seconds_inactive() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::OscillatingSpecJbb, small_config());
        node.advance_to(Timestamp::from_secs(200));
        let series = node.remote_fraction_series();
        assert!(series.iter().any(|s| s.active));
        assert!(series.iter().any(|s| !s.active));
    }

    #[test]
    fn window_sums_drain_to_exact_zero_when_a_sleep_outlasts_the_window() {
        let mut node = MemoryNode::new(MemoryWorkloadKind::OscillatingSpecJbb, small_config());
        node.advance_to(Timestamp::from_secs(10));
        for batch in node.hottest_batches().into_iter().take(8) {
            node.migrate_to_remote(batch);
        }
        node.advance_to(Timestamp::from_secs(150));
        let (local, remote) = node.recent.sums();
        assert!(local > 0.0 && remote > 0.0);
        assert!(node.recent_remote_fraction() > 0.0);
        // Asleep from 150 s; by 181 s every step with a hit has left the 30 s
        // window, and what was added has been subtracted again, exactly.
        node.advance_to(Timestamp::from_secs(181));
        assert!(!node.is_active());
        assert!(node.recent.len() > 0);
        let (local, remote) = node.recent.sums();
        assert_eq!(local.to_bits(), 0.0f64.to_bits());
        assert_eq!(remote.to_bits(), 0.0f64.to_bits());
        assert_eq!(node.recent_remote_fraction(), 0.0);
    }

    #[test]
    #[should_panic(expected = "access rate must be finite and non-negative")]
    fn negative_access_rate_is_rejected() {
        let config = MemoryNodeConfig { accesses_per_sec: -1.0, ..small_config() };
        let _ = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config);
    }

    #[test]
    #[should_panic(expected = "access rate must be finite and non-negative")]
    fn nan_access_rate_is_rejected() {
        let config = MemoryNodeConfig { accesses_per_sec: f64::NAN, ..small_config() };
        let _ = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config);
    }

    #[test]
    #[should_panic(expected = "step must not exceed one second")]
    fn step_longer_than_a_series_bucket_is_rejected() {
        let config = MemoryNodeConfig { step: SimDuration::from_millis(1_001), ..small_config() };
        let _ = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config);
    }

    #[test]
    fn one_second_steps_record_every_second() {
        let config = MemoryNodeConfig { step: SimDuration::from_secs(1), ..small_config() };
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config);
        node.advance_to(Timestamp::from_secs(12));
        let seconds: Vec<Timestamp> = node.remote_fraction_series().iter().map(|s| s.at).collect();
        assert_eq!(seconds, (1..=12).map(Timestamp::from_secs).collect::<Vec<_>>());
    }

    #[test]
    fn a_carry_of_exactly_one_is_a_hit() {
        // One batch takes every access: 0.25 a step, exactly 1.0 on the fourth.
        let config = MemoryNodeConfig {
            batches: 1,
            accesses_per_sec: 0.25,
            step: SimDuration::from_secs(1),
            ..MemoryNodeConfig::default()
        };
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config);
        node.advance_to(Timestamp::from_secs(3));
        assert_eq!((node.chunks[0].carry[0], node.local_accesses()), (0.75, 0.0));
        node.advance_to(Timestamp::from_secs(4));
        assert_eq!((node.chunks[0].carry[0], node.local_accesses()), (0.0, 1.0));
        assert_eq!(node.batches[0].last_access, Some(Timestamp::from_secs(3)));
    }

    /// `1 - 2^-53`, the largest carry below one.
    const LARGEST_CARRY: f64 = 1.0 - f64::EPSILON / 2.0;

    /// A one-batch node and its reference, both with `carry` carried in and
    /// a share of `share` a one-second step.
    fn one_batch(carry: f64, share: f64) -> (MemoryNode, Reference) {
        let config = MemoryNodeConfig {
            batches: 1,
            accesses_per_sec: share,
            step: SimDuration::from_secs(1),
            ..MemoryNodeConfig::default()
        };
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config.clone());
        let mut reference = Reference::new(MemoryWorkloadKind::ObjectStore, config);
        *carry_mut(&mut node, 0) = carry;
        *carry_mut(&mut reference.node, 0) = carry;
        (node, reference)
    }

    #[test]
    fn a_share_below_one_on_the_largest_carry_is_one_hit() {
        let (mut node, mut reference) = one_batch(LARGEST_CARRY, LARGEST_CARRY);
        node.advance_to(Timestamp::from_secs(1));
        reference.advance_to(Timestamp::from_secs(1));
        assert_eq!(node.chunks[0].single & 1, 1, "on the single-hit path");
        // (1 - 2^-53) + (1 - 2^-53) is 2 - 2^-52 exactly: one hit.
        assert_eq!(node.chunks[0].carry[0], 1.0 - f64::EPSILON);
        assert_eq!(node.local_accesses(), 1.0);
        assert_eq!(
            observe(&node, node.recent_remote_fraction()),
            observe(&reference.node, reference.recent_remote_fraction())
        );
    }

    #[test]
    fn a_share_of_exactly_one_on_the_largest_carry_is_two_hits() {
        let (mut node, mut reference) = one_batch(LARGEST_CARRY, 1.0);
        node.migrate_to_remote(0);
        reference.node.migrate_to_remote(0);
        node.advance_to(Timestamp::from_secs(1));
        reference.advance_to(Timestamp::from_secs(1));
        assert_eq!(node.chunks[0].single & 1, 0, "on the floor path");
        // (1 - 2^-53) + 1.0 rounds to 2.0: two hits, nothing carried.
        assert_eq!(node.chunks[0].carry[0].to_bits(), 0.0f64.to_bits());
        assert_eq!((node.local_accesses(), node.remote_accesses()), (0.0, 2.0));
        assert_eq!(
            observe(&node, node.recent_remote_fraction()),
            observe(&reference.node, reference.recent_remote_fraction())
        );
    }

    #[test]
    fn a_bandwidth_change_moves_batches_between_the_single_and_floor_paths() {
        // Two accesses a 100 ms step at factor 1: every share is below one.
        let config = MemoryNodeConfig { batches: 65, accesses_per_sec: 20.0, ..small_config() };
        let mut node = MemoryNode::new(MemoryWorkloadKind::ObjectStore, config.clone());
        let mut reference = Reference::new(MemoryWorkloadKind::ObjectStore, config);
        for batch in (0..65).step_by(3) {
            node.migrate_to_remote(batch);
            reference.node.migrate_to_remote(batch);
        }
        let singles = |node: &MemoryNode| node.chunks.iter().map(|c| c.single).collect::<Vec<_>>();
        let mut seen = Vec::new();
        for (secs, factor) in [(5, 1.0), (10, 4.0), (15, 1.0)] {
            node.set_bandwidth_factor(factor);
            reference.node.set_bandwidth_factor(factor);
            node.advance_to(Timestamp::from_secs(secs));
            reference.advance_to(Timestamp::from_secs(secs));
            assert_eq!(
                observe(&node, node.recent_remote_fraction()),
                observe(&reference.node, reference.recent_remote_fraction()),
                "at {secs} s"
            );
            seen.push(singles(&node));
        }
        // The hottest shares cross 1.0 at factor 4 and come back below it.
        assert_eq!(seen[0], seen[2]);
        assert!(seen[0].iter().zip(&seen[1]).any(|(before, after)| before & !after != 0));
        assert!(seen[1].iter().zip(&seen[2]).all(|(during, after)| during & !after == 0));
    }

    #[test]
    fn batch_counts_around_the_chunk_width_match_the_reference_with_mixed_tiers() {
        for batches in [63, 64, 65, 129] {
            // 50 accesses a 10 ms step: the head hits many times, the tail once.
            let config = MemoryNodeConfig {
                batches,
                accesses_per_sec: 5_000.0,
                step: SimDuration::from_millis(10),
                ..MemoryNodeConfig::default()
            };
            let mut node = MemoryNode::new(MemoryWorkloadKind::Sql, config.clone());
            let mut reference = Reference::new(MemoryWorkloadKind::Sql, config);
            for batch in (0..batches).step_by(3).chain([batches - 1]) {
                node.migrate_to_remote(batch);
                reference.node.migrate_to_remote(batch);
            }
            for (secs, factor) in [(2, 1.0), (4, 3.0), (6, 0.5)] {
                node.set_bandwidth_factor(factor);
                reference.node.set_bandwidth_factor(factor);
                node.advance_to(Timestamp::from_secs(secs));
                reference.advance_to(Timestamp::from_secs(secs));
                assert_eq!(
                    observe(&node, node.recent_remote_fraction()),
                    observe(&reference.node, reference.recent_remote_fraction()),
                    "{batches} batches at {secs} s"
                );
            }
            assert!(node.local_accesses() > 0.0 && node.remote_accesses() > 0.0);
            assert_eq!(node.remote_batch_count() + node.local_batch_count(), batches);
        }
    }

    #[test]
    fn every_carry_is_below_one_after_every_step() {
        let kinds = [
            MemoryWorkloadKind::ObjectStore,
            MemoryWorkloadKind::Sql,
            MemoryWorkloadKind::SpecJbb,
            MemoryWorkloadKind::OscillatingSpecJbb,
        ];
        for kind in kinds {
            let config = MemoryNodeConfig { batches: 129, ..small_config() };
            let mut node = MemoryNode::new(kind, config);
            // 310 s of 100 ms steps: past the sleep at 150 s, the activation
            // at 230 s and SQL's shift at 300 s, at three access rates.
            for step in 1..=3_100 {
                if step % 400 == 0 {
                    node.set_bandwidth_factor([0.25, 1.0, 4.0][step as usize / 400 % 3]);
                }
                node.advance_to(Timestamp::from_millis(step * 100));
                let carries = node.chunks.iter().flat_map(|c| c.carry);
                for (batch, carry) in carries.enumerate() {
                    assert!((0.0..1.0).contains(&carry), "{kind:?} batch {batch}: {carry}");
                }
            }
        }
    }

    #[test]
    fn floor_by_truncation_is_floor_for_non_negatives() {
        let integers_from = 4_503_599_627_370_496.0; // 2^52
        let cases = [
            0.0,
            0.25,
            1.0,
            1.5,
            7.999_999_999,
            1e9 + 0.5,
            integers_from - 0.5,
            integers_from,
            integers_from + 1.0,
            1e300,
            f64::INFINITY,
        ];
        for x in cases {
            assert_eq!(floor_non_negative(x).to_bits(), x.floor().to_bits(), "x = {x}");
        }
    }

    fn carry_mut(node: &mut MemoryNode, batch: usize) -> &mut f64 {
        &mut node.chunks[batch / MASK_BITS].carry[batch % MASK_BITS]
    }

    /// The access loop this module had before `apply_accesses`: a walk by
    /// popularity rank through `zipf.probability`, the permutation and libm's
    /// `floor`. Kept as the reference the table-driven kernel is held to.
    fn reference_apply_accesses(node: &mut MemoryNode, total: f64) -> (f64, f64) {
        let now = node.now;
        let mut step_local = 0.0;
        let mut step_remote = 0.0;
        for rank in 0..node.batches.len() {
            let expected = total * node.zipf.probability(rank);
            let idx = node.permutation[rank];
            let carry = carry_mut(node, idx);
            *carry += expected;
            let hits = carry.floor();
            *carry -= hits;
            if hits > 0.0 {
                let b = &mut node.batches[idx];
                b.accesses_since_scan += hits;
                b.total_accesses += hits;
                b.last_access = Some(now);
                match node.tier(idx) {
                    Tier::Local => step_local += hits,
                    Tier::Remote => step_remote += hits,
                }
            }
        }
        (step_local, step_remote)
    }

    /// A node stepped by the reference loop, beside the recent window as it
    /// was kept before [`RecentSteps`].
    struct Reference {
        node: MemoryNode,
        window: crate::recent_steps::PlainSteps,
    }

    impl Reference {
        fn new(kind: MemoryWorkloadKind, config: MemoryNodeConfig) -> Self {
            Reference { node: MemoryNode::new(kind, config), window: Default::default() }
        }

        /// `Environment::advance_to` with the reference loop in the kernel's
        /// place.
        fn advance_to(&mut self, to: Timestamp) {
            let node = &mut self.node;
            while node.now < to {
                let dt = to.duration_since(node.now).min(node.config.step);
                let total = node.begin_step(dt);
                let (step_local, step_remote) =
                    if total > 0.0 { reference_apply_accesses(node, total) } else { (0.0, 0.0) };
                self.window.push(node.now, step_local, step_remote);
                self.window.expire(node.now, node.config.recent_window);
                node.finish_step(dt, step_local, step_remote);
            }
        }

        fn recent_remote_fraction(&self) -> f64 {
            let (local, remote) = self.window.sums();
            if local + remote == 0.0 {
                0.0
            } else {
                remote / (local + remote)
            }
        }
    }

    /// Everything the kernel writes, floats by their bits.
    #[derive(Debug, PartialEq)]
    struct Observed {
        batches: Vec<(u64, u64, u64, Option<Timestamp>, Tier)>,
        accesses: (u64, u64),
        series: Vec<(Timestamp, u64, bool)>,
        recent_remote_fraction: u64,
    }

    fn observe(node: &MemoryNode, recent_remote_fraction: f64) -> Observed {
        Observed {
            batches: node
                .batches
                .iter()
                .zip(node.chunks.iter().flat_map(|c| c.carry))
                .enumerate()
                .map(|(i, (b, carry))| {
                    (
                        carry.to_bits(),
                        b.accesses_since_scan.to_bits(),
                        b.total_accesses.to_bits(),
                        b.last_access,
                        node.tier(i),
                    )
                })
                .collect(),
            accesses: (node.local_accesses.to_bits(), node.remote_accesses.to_bits()),
            series: node
                .series
                .iter()
                .map(|s| (s.at, s.remote_fraction.to_bits(), s.active))
                .collect(),
            recent_remote_fraction: recent_remote_fraction.to_bits(),
        }
    }

    mod equivalence {
        use proptest::prelude::*;

        use super::*;

        const KINDS: [MemoryWorkloadKind; 4] = [
            MemoryWorkloadKind::ObjectStore,
            MemoryWorkloadKind::Sql,
            MemoryWorkloadKind::SpecJbb,
            MemoryWorkloadKind::OscillatingSpecJbb,
        ];

        #[derive(Debug, Clone)]
        enum Op {
            /// Advance by this many thousandths of the configured step.
            Advance(u64),
            Bandwidth(f64),
            ToRemote(usize),
            ToLocal(usize),
            Scan(usize),
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                // Less than a step, a few uneven steps, and spans long enough
                // to cross the sleep at 150 s, the activation at 230 s and
                // SQL's shift at 300 s when the step is 100 ms or 1 s.
                3 => (1u64..1_000).prop_map(Op::Advance),
                3 => (1_000u64..20_000).prop_map(Op::Advance),
                3 => (20_000u64..600_000).prop_map(Op::Advance),
                2 => (0.25f64..4.0).prop_map(Op::Bandwidth),
                3 => any::<usize>().prop_map(Op::ToRemote),
                1 => any::<usize>().prop_map(Op::ToLocal),
                2 => any::<usize>().prop_map(Op::Scan),
            ]
        }

        fn config() -> impl Strategy<Value = MemoryNodeConfig> {
            let rate = prop_oneof![
                1 => Just(0.0),
                2 => 0.0f64..200.0,
                4 => 0.0f64..200_000.0,
            ];
            // 7 ms does not divide a second: series buckets close mid-step.
            let step_ms = prop_oneof![
                1 => Just(1u64),
                1 => Just(7u64),
                3 => Just(100u64),
                3 => Just(1_000u64),
            ];
            ((1usize..300, rate, step_ms), (1u64..60, any::<u64>())).prop_map(
                |((batches, accesses_per_sec, step_ms), (window_steps, seed))| MemoryNodeConfig {
                    batches,
                    accesses_per_sec,
                    step: SimDuration::from_millis(step_ms),
                    recent_window: SimDuration::from_millis(step_ms * window_steps),
                    seed,
                    ..MemoryNodeConfig::default()
                },
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// The table-driven kernel and the packed recent window with its
            /// running sums are observationally identical, to the bit, to
            /// the per-rank loop and the per-call pass over a plain deque
            /// they replaced — for every
            /// workload kind, batch counts on both sides of one 64-bit mask
            /// with ragged tails, and arbitrary interleavings of uneven
            /// advances with everything that touches the kernel's inputs:
            /// rate changes, migrations, scans and hot-set shifts.
            #[test]
            fn kernel_matches_reference_loop(
                kind in 0usize..KINDS.len(),
                config in config(),
                ops in proptest::collection::vec(op(), 1..60),
            ) {
                let mut node = MemoryNode::new(KINDS[kind], config.clone());
                let mut reference = Reference::new(KINDS[kind], config.clone());
                let mut to = Timestamp::ZERO;
                for op in ops {
                    match op {
                        Op::Advance(thousandths) => {
                            to += SimDuration::from_nanos(
                                config.step.as_nanos() / 1_000 * thousandths,
                            );
                            node.advance_to(to);
                            reference.advance_to(to);
                        }
                        Op::Bandwidth(factor) => {
                            node.set_bandwidth_factor(factor);
                            reference.node.set_bandwidth_factor(factor);
                        }
                        Op::ToRemote(batch) => {
                            node.migrate_to_remote(batch % config.batches);
                            reference.node.migrate_to_remote(batch % config.batches);
                        }
                        Op::ToLocal(batch) => {
                            node.migrate_to_local(batch % config.batches);
                            reference.node.migrate_to_local(batch % config.batches);
                        }
                        Op::Scan(batch) => {
                            prop_assert_eq!(
                                node.scan_batch(batch % config.batches).unwrap(),
                                reference.node.scan_batch(batch % config.batches).unwrap()
                            );
                        }
                    }
                    prop_assert_eq!(
                        observe(&node, node.recent_remote_fraction()),
                        observe(&reference.node, reference.recent_remote_fraction())
                    );
                }
            }
        }
    }
}
