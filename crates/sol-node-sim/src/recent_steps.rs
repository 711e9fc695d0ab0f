//! The steps inside [`MemoryNode`](crate::memory_node::MemoryNode)'s recent
//! window, packed.
//!
//! The node books one entry per integration step — when the step started and
//! how many accesses hit each tier — and keeps it only to subtract it again
//! once the step is older than the window. Under a runtime that ticks every
//! millisecond a 30 s window is 30,000 entries, 24 bytes each as a
//! `(Timestamp, f64, f64)` deque. Both columns compress exactly:
//!
//! * step starts advance by a fixed stride for long stretches, so they are
//!   stored as arithmetic runs (`StartRuns`) — 24 bytes per run, one run
//!   for as long as the caller advances on a regular grid;
//! * hit counts are whole numbers, stored as LEB128 bytes — one byte each
//!   below 128, so two bytes per step at tens of accesses a step.
//!
//! Steps leave in the order they came, and the running sums see the same
//! additions and subtractions of the same values in the same order as they
//! would over the plain deque, so they are equal to the bit.

use std::collections::VecDeque;

use sol_core::time::{SimDuration, Timestamp};

use crate::start_runs::StartRuns;

/// Whole `f64`s from here up are no longer consecutive: the bound below
/// which a hit count survives the trip through a `u64` and the running sums
/// stay exact.
const EXACT_BELOW: f64 = (1u64 << f64::MANTISSA_DIGITS) as f64;

/// A FIFO of `(step start, local hits, remote hits)` with running sums of
/// the two hit columns. See the [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct RecentSteps {
    starts: StartRuns,
    /// Two LEB128 counts per step, local then remote, oldest step first.
    hits: VecDeque<u8>,
    /// Sums over the steps held. Hit counts are whole and their sums stay
    /// below 2^53, so adding on push and subtracting on expiry is exact: the
    /// sums equal a fresh pass over the steps bit for bit, and drain to
    /// exactly `0.0`.
    local: f64,
    remote: f64,
}

impl RecentSteps {
    /// Books a step that started at `start`, later than every step held.
    ///
    /// # Panics
    ///
    /// Panics if a hit count is not a whole number in `[0, 2^53)`.
    pub(crate) fn push(&mut self, start: Timestamp, local: f64, remote: f64) {
        self.starts.push(start);
        for hits in [local, remote] {
            assert!(
                hits < EXACT_BELOW && hits as u64 as f64 == hits,
                "a step's hit count must be a whole number below 2^53, got {hits}"
            );
            let mut rest = hits as u64;
            while rest >= 0x80 {
                self.hits.push_back(rest as u8 | 0x80);
                rest >>= 7;
            }
            self.hits.push_back(rest as u8);
        }
        self.local += local;
        self.remote += remote;
    }

    /// Drops, oldest first, every step that started more than `window`
    /// before `now`.
    pub(crate) fn expire(&mut self, now: Timestamp, window: SimDuration) {
        while let Some(first) = self.starts.front() {
            if now.duration_since(first) <= window {
                break;
            }
            self.starts.pop_front();
            self.local -= self.pop_count();
            self.remote -= self.pop_count();
        }
    }

    fn pop_count(&mut self) -> f64 {
        let (mut count, mut shift) = (0u64, 0);
        loop {
            let byte = self.hits.pop_front().expect("two whole counts per step held");
            count |= u64::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return count as f64;
            }
            shift += 7;
        }
    }

    /// Number of steps held.
    #[cfg(test)]
    pub(crate) fn len(&self) -> u64 {
        self.starts.iter().count() as u64
    }

    /// `(local, remote)` hits summed over the steps held.
    pub(crate) fn sums(&self) -> (f64, f64) {
        (self.local, self.remote)
    }

    /// Heap bytes retained.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.starts.heap_bytes() + self.hits.capacity()
    }
}

/// The window as it was kept before it was packed — a plain deque, summed
/// afresh on every read: the reference [`RecentSteps`] is held to.
#[cfg(test)]
#[derive(Default)]
pub(crate) struct PlainSteps(VecDeque<(Timestamp, f64, f64)>);

#[cfg(test)]
impl PlainSteps {
    pub(crate) fn push(&mut self, start: Timestamp, local: f64, remote: f64) {
        self.0.push_back((start, local, remote));
    }

    pub(crate) fn expire(&mut self, now: Timestamp, window: SimDuration) {
        while self.0.front().is_some_and(|&(t, _, _)| now.duration_since(t) > window) {
            self.0.pop_front();
        }
    }

    pub(crate) fn sums(&self) -> (f64, f64) {
        self.0.iter().fold((0.0, 0.0), |(l, r), &(_, local, remote)| (l + local, r + remote))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_same(packed: &RecentSteps, plain: &PlainSteps) {
        assert_eq!(packed.len(), plain.0.len() as u64);
        let ((local, remote), (plain_local, plain_remote)) = (packed.sums(), plain.sums());
        assert_eq!(local.to_bits(), plain_local.to_bits());
        assert_eq!(remote.to_bits(), plain_remote.to_bits());
    }

    const MS: SimDuration = SimDuration::from_millis(1);

    #[test]
    fn counts_on_both_sides_of_every_byte_boundary_come_back_exactly() {
        let counts =
            [0.0, 1.0, 127.0, 128.0, 16_383.0, 16_384.0, 200_000.0, 2_097_151.0, 2_097_152.0];
        let mut packed = RecentSteps::default();
        let mut plain = PlainSteps::default();
        let mut now = Timestamp::ZERO;
        for (i, &local) in counts.iter().enumerate() {
            let remote = counts[counts.len() - 1 - i];
            packed.push(now, local, remote);
            plain.push(now, local, remote);
            assert_same(&packed, &plain);
            now += MS;
        }
        // One byte below 128, two below 16384, three for a 200,000-hit step;
        // each count appears twice.
        assert_eq!(packed.hits.len(), 2 * (3 + 2 * 2 + 3 * 3 + 4));
        // A window that shrinks by a step at a time hands them back one by
        // one, oldest first.
        for held in (0..counts.len() as u64).rev() {
            packed.expire(now, MS * held);
            plain.expire(now, MS * held);
            assert_eq!(packed.len(), held);
            assert_same(&packed, &plain);
        }
        assert!(packed.hits.is_empty() && packed.starts.front().is_none());
        assert_eq!(packed.sums(), (0.0, 0.0));
        // The largest count the sums can hold exactly: eight bytes.
        packed.push(now, EXACT_BELOW - 1.0, 0.0);
        assert_eq!((packed.hits.len(), packed.sums()), (9, (EXACT_BELOW - 1.0, 0.0)));
        packed.expire(now + MS, SimDuration::ZERO);
        assert_eq!((packed.hits.len(), packed.sums()), (0, (0.0, 0.0)));
    }

    #[test]
    fn a_stride_change_and_a_gap_each_open_a_run() {
        let mut packed = RecentSteps::default();
        let mut plain = PlainSteps::default();
        // Five steps a millisecond apart, a 0.4 ms partial step, five more on
        // the shifted grid, a gap (nothing booked for 70 ms), three more.
        let mut starts: Vec<Timestamp> = (0..5).map(Timestamp::from_millis).collect();
        starts.extend((0..5).map(|i| Timestamp::from_micros(4_400 + 1_000 * i)));
        starts.extend((0..3).map(|i| Timestamp::from_micros(78_400 + 1_000 * i)));
        for (i, &start) in starts.iter().enumerate() {
            packed.push(start, i as f64, 1.0);
            plain.push(start, i as f64, 1.0);
            assert_same(&packed, &plain);
        }
        // The partial step's start continues no run, and as a run of one it
        // takes whatever stride its successor gives it.
        let runs: Vec<(u64, u64, u64)> = packed
            .starts
            .runs()
            .map(|(first, stride, count)| {
                (first.as_nanos() / 1_000, stride.as_nanos() / 1_000, count)
            })
            .collect();
        assert_eq!(runs, [(0, 1_000, 5), (4_400, 1_000, 5), (78_400, 1_000, 3)]);
        // Expiry walks through the runs, across their seams, like the deque.
        let window = SimDuration::from_millis(3);
        for now_us in (4_000..90_000).step_by(700) {
            let now = Timestamp::from_micros(now_us);
            packed.expire(now, window);
            plain.expire(now, window);
            assert_same(&packed, &plain);
        }
        assert_eq!(packed.len(), 0);
    }

    #[test]
    fn sums_drain_to_exactly_zero() {
        let mut packed = RecentSteps::default();
        let window = SimDuration::from_millis(30);
        for ms in 0..100 {
            let now = Timestamp::from_millis(ms);
            // Hits for 40 ms, then none: the steps keep coming, empty.
            let (local, remote) = if ms < 40 { (37.0 + (ms % 3) as f64, 3.0) } else { (0.0, 0.0) };
            packed.push(now, local, remote);
            packed.expire(now, window);
        }
        assert_eq!(packed.len(), 31);
        let (local, remote) = packed.sums();
        assert_eq!((local.to_bits(), remote.to_bits()), (0.0f64.to_bits(), 0.0f64.to_bits()));
    }

    #[test]
    #[should_panic(expected = "whole number below 2^53")]
    fn a_count_too_large_to_be_exact_is_refused() {
        RecentSteps::default().push(Timestamp::ZERO, EXACT_BELOW, 0.0);
    }

    #[test]
    #[should_panic(expected = "whole number below 2^53")]
    fn a_fractional_count_is_refused() {
        RecentSteps::default().push(Timestamp::ZERO, 0.0, 2.5);
    }
}
