//! Streaming statistics used by agents to summarize telemetry and by
//! safeguards to smooth noisy signals.
//!
//! Everything here is incremental and allocation-light so it can run inside
//! tight agent control loops (paper §2: agents run under strict compute and
//! memory constraints).

use std::collections::VecDeque;

/// Exponentially weighted moving average.
///
/// # Examples
///
/// ```
/// use sol_ml::online_stats::Ewma;
/// let mut e = Ewma::new(0.5);
/// e.push(10.0);
/// e.push(0.0);
/// assert!((e.value() - 5.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing factor `alpha` in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Ewma { alpha, value: None }
    }

    /// Adds a sample.
    pub fn push(&mut self, x: f64) {
        self.value = Some(match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        });
    }

    /// Current smoothed value (0 if no samples yet).
    pub fn value(&self) -> f64 {
        self.value.unwrap_or(0.0)
    }

    /// Whether any sample has been observed.
    pub fn is_initialized(&self) -> bool {
        self.value.is_some()
    }
}

/// Exact quantile `q` in `[0, 1]` of `samples`, using linear interpolation
/// between order statistics; 0 for no samples. Reorders `samples`.
///
/// This is [`SlidingWindow::quantile`] over a slice: a window kept in
/// another layout rebuilds its samples, oldest first, and gets the same bits.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn quantile_in_place(samples: &mut [f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
    if samples.is_empty() {
        return 0.0;
    }
    // Selection, not a full sort: callers query one quantile per call, so
    // an expected-O(n) selection replaces an O(n log n) sort. The two
    // order statistics interpolate exactly as a sorted array would, so
    // results are bit-identical to the sorting implementation. NaN samples
    // are not supported (the windows hold physical readings).
    let pos = q * (samples.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut lo_v, _) =
        samples.select_nth_unstable_by(lo, |a, b| a.partial_cmp(b).expect("no NaN samples"));
    if lo == hi {
        lo_v
    } else {
        // After selection the slice is partitioned around index `lo`, so
        // the hi-th order statistic is the minimum of the tail — rarely
        // more than a handful of elements for the high quantiles agents
        // ask for.
        let frac = pos - lo as f64;
        let hi_v = samples[lo + 1..].iter().copied().fold(f64::INFINITY, f64::min);
        lo_v * (1.0 - frac) + hi_v * frac
    }
}

/// A sliding window over the last `capacity` samples with exact quantiles.
///
/// Agents use this for safeguard signals such as "the P90 of α over the last
/// 100 seconds" (SmartOverclock) or "the P99 vCPU wait time" (SmartHarvest).
///
/// # Examples
///
/// ```
/// use sol_ml::online_stats::SlidingWindow;
/// let mut w = SlidingWindow::new(4);
/// for x in [1.0, 2.0, 3.0, 4.0, 100.0] {
///     w.push(x);
/// }
/// // Only the last four samples remain.
/// assert_eq!(w.len(), 4);
/// assert_eq!(w.quantile(0.5), 3.5);
/// assert_eq!(w.quantile(1.0), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SlidingWindow {
    capacity: usize,
    samples: VecDeque<f64>,
}

impl SlidingWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// The backing buffer grows on demand rather than being reserved up
    /// front, so short-lived or rarely-filled windows (fleet grids stamp out
    /// hundreds of thousands of them) cost only what they actually hold.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SlidingWindow { capacity, samples: VecDeque::new() }
    }

    /// The maximum number of samples the window retains.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(x);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Whether the window is at capacity.
    pub fn is_full(&self) -> bool {
        self.samples.len() == self.capacity
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.samples.clear();
    }

    /// Mean of the samples in the window (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Exact quantile `q` in `[0, 1]` using linear interpolation between
    /// order statistics. Returns 0 for an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let (front, back) = self.samples.as_slices();
        let mut scratch = Vec::with_capacity(self.samples.len());
        scratch.extend_from_slice(front);
        scratch.extend_from_slice(back);
        quantile_in_place(&mut scratch, q)
    }

    /// Iterates over the samples from oldest to newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.samples.iter().copied()
    }
}

impl crate::footprint::MemoryFootprint for SlidingWindow {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.samples.capacity() * std::mem::size_of::<f64>()
    }
}

/// A [`SlidingWindow`] stored as runs of equal consecutive samples.
///
/// `push`, `len` and `quantile` return what a `SlidingWindow` of the same
/// capacity fed the same samples returns, to the bit; only the storage
/// differs: a value and a 16-bit count — 10 bytes — per run instead of 8
/// bytes per sample, and `quantile` sorts the runs instead of copying and
/// selecting over the samples.
///
/// Pick it for a signal that holds its value for many samples in a row — a
/// simulated latency that sits at its base value between bursts, a wait time
/// that is zero unless starved: a 4096-sample window of those is tens of
/// runs, a few hundred at worst. Keep `SlidingWindow` for a signal where
/// every sample differs (anything jittered): that is the worst case here, a
/// run per sample — 10 bytes where `SlidingWindow` pays 8, and an
/// `O(n log n)` sort per quantile where it pays an `O(n)` selection.
///
/// Samples are told apart by their bits, so `-0.0` and `0.0` are separate
/// runs; both windows order them as equal, which is the one case where
/// `SlidingWindow::quantile` leaves unspecified which of the two it returns.
/// NaN samples are not supported.
///
/// # Examples
///
/// ```
/// use sol_ml::online_stats::{RunWindow, SlidingWindow};
/// let mut runs = RunWindow::new(4);
/// let mut plain = SlidingWindow::new(4);
/// for x in [20.0, 20.0, 20.0, 95.0, 20.0] {
///     runs.push(x);
///     plain.push(x);
/// }
/// assert_eq!(runs.len(), 4);
/// assert_eq!(runs.quantile(0.99), plain.quantile(0.99));
/// ```
#[derive(Debug, Clone)]
pub struct RunWindow {
    capacity: usize,
    len: usize,
    /// The closed runs' values, oldest run first.
    values: VecDeque<f64>,
    /// The closed runs' lengths, beside `values` (apart from it so a run
    /// costs 10 bytes, not a padded 16). A stretch longer than `u16::MAX` is
    /// several runs.
    counts: VecDeque<u16>,
    /// How much of the oldest closed run is still inside the window; its
    /// entry in `counts` is the length it was closed with.
    oldest_left: u16,
    /// The open run — the newest sample and how many times in a row it has
    /// come, zero only in an empty window. Kept out of the deques so that a
    /// sample that repeats the last one touches two fields and no buffer.
    newest: f64,
    newest_count: u16,
}

impl RunWindow {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// Like `SlidingWindow`, it allocates nothing until the first sample:
    /// stamping a node costs no allocation. The first sample reserves room
    /// for `capacity / 8` runs, once, and that grows only when a window
    /// holds more runs than that — so the footprint of a window that stays
    /// under it is one number from its first sample on, whatever the
    /// samples.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        RunWindow {
            capacity,
            len: 0,
            values: VecDeque::new(),
            counts: VecDeque::new(),
            oldest_left: 0,
            newest: 0.0,
            newest_count: 0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, x: f64) {
        if self.len == self.capacity {
            self.evict_oldest();
        }
        if self.newest.to_bits() == x.to_bits() && (1..u16::MAX).contains(&self.newest_count) {
            self.newest_count += 1;
        } else {
            if self.len == 0 {
                // Exact, so the footprint is the documented one.
                self.values.reserve_exact(self.capacity / 8);
                self.counts.reserve_exact(self.capacity / 8);
            }
            self.close_newest();
            self.newest = x;
            self.newest_count = 1;
        }
        self.len += 1;
    }

    fn evict_oldest(&mut self) {
        self.len -= 1;
        if self.values.is_empty() {
            // The whole window is the open run.
            self.newest_count -= 1;
            return;
        }
        self.oldest_left -= 1;
        if self.oldest_left == 0 {
            self.values.pop_front();
            self.counts.pop_front();
            self.oldest_left = self.counts.front().copied().unwrap_or(0);
        }
    }

    /// Moves the open run, if it holds anything, behind the closed ones.
    fn close_newest(&mut self) {
        if self.newest_count == 0 {
            return;
        }
        if self.values.is_empty() {
            self.oldest_left = self.newest_count;
        }
        self.values.push_back(self.newest);
        self.counts.push_back(self.newest_count);
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Exact quantile `q` in `[0, 1]` using linear interpolation between
    /// order statistics. Returns 0 for an empty window.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        if self.len == 0 {
            return 0.0;
        }
        let mut sorted: Vec<(f64, u16)> = Vec::with_capacity(self.values.len() + 1);
        sorted.extend(self.values.iter().copied().zip(self.counts.iter().copied()));
        if let Some(oldest) = sorted.first_mut() {
            oldest.1 = self.oldest_left;
        }
        sorted.push((self.newest, self.newest_count));
        sorted.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).expect("no NaN samples"));
        // The same arithmetic on the same two order statistics as
        // `SlidingWindow::quantile`.
        let pos = q * (self.len - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        // Walks the sorted runs forward to the one holding the sample of
        // this rank; ranks are asked for in ascending order.
        let mut runs = sorted.iter();
        let (mut value, mut walked) = (0.0, 0);
        let mut order_statistic = |rank: usize| {
            while walked <= rank {
                let &(v, count) = runs.next().expect("counts add up to len");
                value = v;
                walked += usize::from(count);
            }
            value
        };
        let lo_v = order_statistic(lo);
        if lo == hi {
            lo_v
        } else {
            let frac = pos - lo as f64;
            let hi_v = order_statistic(hi);
            lo_v * (1.0 - frac) + hi_v * frac
        }
    }
}

impl crate::footprint::MemoryFootprint for RunWindow {
    fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.values.capacity() * std::mem::size_of::<f64>()
            + self.counts.capacity() * std::mem::size_of::<u16>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::footprint::MemoryFootprint;

    /// Sort-based reference for the selection-based `SlidingWindow::quantile`.
    fn quantile_by_sort(samples: &[f64], q: f64) -> f64 {
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        if lo == hi {
            sorted[lo]
        } else {
            let frac = pos - lo as f64;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    #[test]
    fn window_quantile_matches_sorting_reference() {
        // Varied, mostly-constant, and duplicate-heavy distributions, plus a
        // wrapped ring buffer (push past capacity) so `as_slices` is
        // exercised with a genuinely split deque.
        let distributions: Vec<Vec<f64>> = vec![
            (0..2000).map(|i| (i as f64 * 7.3).sin().abs()).collect(),
            (0..1000).map(|i| if i % 40 == 0 { 20.0 + i as f64 } else { 20.0 }).collect(),
            vec![1.0; 64],
            (0..333).map(|i| f64::from(i % 7)).collect(),
            // SmartOverclock's α window: 100 samples, long idle runs of exact
            // 0.0 between busy values in [0.92, 1.0], clamped 1.0 included.
            (0..100)
                .map(|i| match i {
                    _ if (i / 10) % 3 == 1 => 0.0,
                    _ if i % 7 == 0 => 1.0,
                    _ => 0.92 + 0.08 * f64::from((i * 13) % 17) / 17.0,
                })
                .collect(),
        ];
        for data in distributions {
            let mut w = SlidingWindow::new(512);
            for &x in &data {
                w.push(x);
            }
            let kept: Vec<f64> = w.iter().collect();
            for q in [0.0, 0.01, 0.5, 0.9, 0.99, 1.0] {
                let got = w.quantile(q);
                let want = quantile_by_sort(&kept, q);
                assert_eq!(got.to_bits(), want.to_bits(), "q={q} over {} samples", kept.len());
            }
        }
    }

    #[test]
    fn window_allocates_lazily_and_reports_footprint() {
        let w = SlidingWindow::new(4096);
        assert_eq!(w.capacity(), 4096);
        // Nothing pushed yet: only the inline struct, no 32 KiB buffer.
        assert_eq!(w.mem_bytes(), std::mem::size_of::<SlidingWindow>());
        let mut w = w;
        for i in 0..8192 {
            w.push(i as f64);
        }
        assert_eq!(w.len(), 4096);
        let bytes = w.mem_bytes();
        assert!(
            bytes >= std::mem::size_of::<SlidingWindow>() + 4096 * 8,
            "full window must account for its buffer: {bytes}"
        );
    }

    #[test]
    fn run_window_reserves_its_runs_once() {
        let inline = std::mem::size_of::<RunWindow>();
        let mut w = RunWindow::new(4096);
        // Nothing pushed yet: only the inline struct.
        assert_eq!(w.mem_bytes(), inline);
        // The first sample reserves capacity / 8 runs of 10 bytes.
        w.push(0.0);
        let reserved = w.mem_bytes();
        assert_eq!(reserved, inline + 4096 / 8 * 10);
        // 16384 samples in runs of 16: 256 runs in a full window, under the
        // 512 reserved, so the footprint never moves.
        for i in 1..16_384 {
            w.push(f64::from(i / 16));
            assert_eq!(w.mem_bytes(), reserved);
        }
        assert_eq!((w.len(), w.values.len() + 1), (4096, 256));
        // Every sample distinct is the worst case: a run each, 10 bytes a
        // sample where `SlidingWindow` pays 8.
        for i in 0..4096 {
            w.push(f64::from(i));
        }
        assert_eq!((w.len(), w.values.len() + 1), (4096, 4096));
        assert!(w.mem_bytes() >= inline + 4095 * 10);
    }

    #[test]
    fn a_stretch_longer_than_a_count_holds_is_several_runs() {
        let capacity = 3 * usize::from(u16::MAX);
        let mut runs = RunWindow::new(capacity);
        let mut plain = SlidingWindow::new(capacity);
        for x in std::iter::repeat_n(7.5, capacity - 10).chain(std::iter::repeat_n(9.0, 40)) {
            runs.push(x);
            plain.push(x);
        }
        // 3 * 65535 - 40 sevens in three closed runs, thirty already evicted
        // out of the oldest, then the nines, still open.
        assert_eq!(runs.counts, [u16::MAX, u16::MAX, u16::MAX - 10]);
        assert_eq!(runs.oldest_left, u16::MAX - 30);
        assert_eq!((runs.newest, runs.newest_count), (9.0, 40));
        assert_eq!(runs.len(), plain.len());
        for q in [0.0, 0.5, 0.9998, 0.9999, 1.0] {
            assert_eq!(runs.quantile(q).to_bits(), plain.quantile(q).to_bits(), "q = {q}");
        }
    }

    mod run_window {
        use proptest::prelude::*;

        use super::*;

        /// Values that recur, so equal samples meet both inside a run and
        /// across runs. `-0.0` stays out: it orders equal to `0.0`, and which
        /// of the two a quantile landing on them returns is the one thing
        /// `SlidingWindow` leaves to its selection's visiting order.
        const ALPHABET: [f64; 6] = [0.0, 12.0, 20.0, 20.000_000_000_000_004, 95.5, -3.25];

        #[derive(Debug, Clone)]
        enum Segment {
            /// One value held: a single run.
            Hold(usize),
            /// Two values taking turns: many one-sample runs of few values.
            Alternate(usize, usize),
            /// Every sample different from its neighbours: a run per sample,
            /// the 10 B/sample worst case.
            Distinct(f64),
        }

        /// A segment and the fraction of its longest length it runs for.
        fn segment() -> impl Strategy<Value = (Segment, f64)> {
            let letter = || 0..ALPHABET.len();
            let kind = prop_oneof![
                4 => letter().prop_map(Segment::Hold),
                2 => (letter(), letter()).prop_map(|(a, b)| Segment::Alternate(a, b)),
                2 => (-1e3f64..1e3).prop_map(Segment::Distinct),
            ];
            (kind, 0.0f64..1.0)
        }

        /// `len` and five quantiles after every push, by their bits. Segments
        /// run up to `longest` samples.
        fn check(
            capacity: usize,
            longest: usize,
            segments: Vec<(Segment, f64)>,
        ) -> Result<(), TestCaseError> {
            let mut runs = RunWindow::new(capacity);
            let mut plain = SlidingWindow::new(capacity);
            for (segment, fraction) in segments {
                let samples = 1 + (fraction * longest as f64) as usize;
                for i in 0..samples {
                    let x = match segment {
                        Segment::Hold(a) => ALPHABET[a],
                        Segment::Alternate(a, b) => ALPHABET[if i % 2 == 0 { a } else { b }],
                        Segment::Distinct(from) => from + i as f64 * 0.125,
                    };
                    runs.push(x);
                    plain.push(x);
                    prop_assert_eq!(runs.len(), plain.len());
                    for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
                        prop_assert_eq!(runs.quantile(q).to_bits(), plain.quantile(q).to_bits());
                    }
                }
            }
            Ok(())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            /// `RunWindow` is `SlidingWindow` in another layout: after every
            /// push — through fills, evictions that split and exhaust runs,
            /// and capacity 1 — `len` and every quantile agree to the bit.
            /// Segments reach a third of the window, so a full one holds
            /// several and evictions eat through whole runs.
            #[test]
            fn run_window_matches_sliding_window(
                capacity in prop_oneof![7 => 1usize..=64, 1 => Just(1usize)],
                segments in proptest::collection::vec(segment(), 1..24),
            ) {
                check(capacity, capacity / 3 + 2, segments)?;
            }
        }

        proptest! {
            // One case: the reference copies and selects over 4096 samples
            // per quantile, five times a push.
            #![proptest_config(ProptestConfig::with_cases(1))]

            /// The same at the substrates' own capacity: a window that
            /// fills, then evicts through a few more segments.
            #[test]
            fn run_window_matches_sliding_window_at_4096(
                segments in proptest::collection::vec(segment(), 20..24),
            ) {
                let pushes: usize = segments.iter().map(|(_, f)| 1 + (f * 512.0) as usize).sum();
                prop_assert!(pushes > 4096 + 512, "the case must fill the window: {pushes}");
                check(4096, 512, segments)?;
            }
        }
    }

    #[test]
    fn ewma_converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.push(3.0);
        }
        assert!((e.value() - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn ewma_rejects_zero_alpha() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn sliding_window_evicts_oldest() {
        let mut w = SlidingWindow::new(3);
        for x in [1.0, 2.0, 3.0, 4.0] {
            w.push(x);
        }
        let collected: Vec<f64> = w.iter().collect();
        assert_eq!(collected, vec![2.0, 3.0, 4.0]);
        assert!(w.is_full());
    }

    #[test]
    fn sliding_window_quantiles() {
        let mut w = SlidingWindow::new(100);
        for i in 1..=100 {
            w.push(i as f64);
        }
        assert_eq!(w.quantile(0.0), 1.0);
        assert_eq!(w.quantile(1.0), 100.0);
        assert!((w.quantile(0.5) - 50.5).abs() < 1e-9);
        assert!((w.quantile(0.99) - 99.01).abs() < 1e-9);
    }
}
