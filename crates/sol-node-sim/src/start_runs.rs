//! Step start times stored as arithmetic runs.
//!
//! A substrate advanced on a regular grid books one step start per step, and
//! the starts advance by a fixed stride for long stretches. They are stored
//! as runs `(first, stride, count)` — 24 bytes per run, one run for as long
//! as the caller advances on a regular grid — and hand back exactly the
//! timestamps that were pushed, oldest first.

use std::collections::VecDeque;

use sol_core::time::{SimDuration, Timestamp};

/// Step starts `first`, `first + stride`, … — `count >= 1` of them. The
/// stride of a one-step run is not known yet and reads zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct StartRun {
    first: Timestamp,
    stride: SimDuration,
    count: u64,
}

/// A FIFO of timestamps, packed as arithmetic runs. See the
/// [module docs](self).
#[derive(Debug, Clone, Default)]
pub(crate) struct StartRuns(VecDeque<StartRun>);

impl StartRuns {
    /// Appends `start` behind every start held.
    pub(crate) fn push(&mut self, start: Timestamp) {
        match self.0.back_mut() {
            // A start earlier than the run's first opens a run of its own:
            // the stride cannot go negative.
            Some(run) if run.count == 1 && start >= run.first => {
                run.stride = start.duration_since(run.first);
                run.count = 2;
            }
            Some(run) if run.first + run.stride * run.count == start => run.count += 1,
            _ => self.0.push_back(StartRun { first: start, stride: SimDuration::ZERO, count: 1 }),
        }
    }

    /// The oldest start held.
    pub(crate) fn front(&self) -> Option<Timestamp> {
        self.0.front().map(|run| run.first)
    }

    /// Drops the oldest start held, if any.
    pub(crate) fn pop_front(&mut self) {
        if let Some(run) = self.0.front_mut() {
            run.first += run.stride;
            run.count -= 1;
            if run.count == 0 {
                self.0.pop_front();
            }
        }
    }

    /// The starts held, oldest first.
    pub(crate) fn iter(&self) -> impl Iterator<Item = Timestamp> + '_ {
        self.0.iter().flat_map(|run| (0..run.count).map(move |i| run.first + run.stride * i))
    }

    /// Reserves room for exactly `runs` more runs.
    pub(crate) fn reserve_exact(&mut self, runs: usize) {
        self.0.reserve_exact(runs);
    }

    /// Heap bytes retained.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<StartRun>()
    }

    /// The runs held as `(first, stride, count)`, oldest first.
    #[cfg(test)]
    pub(crate) fn runs(&self) -> impl Iterator<Item = (Timestamp, SimDuration, u64)> + '_ {
        self.0.iter().map(|run| (run.first, run.stride, run.count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hands_back_every_start_pushed_in_order() {
        // A grid, a partial step, the shifted grid, a gap, a repeated start
        // and a start that goes back in time.
        let micros = [0, 1_000, 2_000, 2_400, 3_400, 4_400, 90_000, 90_000, 90_000, 500, 700];
        let starts: Vec<Timestamp> = micros.iter().map(|&us| Timestamp::from_micros(us)).collect();
        let mut runs = StartRuns::default();
        for &start in &starts {
            runs.push(start);
        }
        assert_eq!(runs.iter().collect::<Vec<_>>(), starts);
        let shape: Vec<(u64, u64, u64)> = runs
            .runs()
            .map(|(first, stride, count)| {
                (first.as_nanos() / 1_000, stride.as_nanos() / 1_000, count)
            })
            .collect();
        assert_eq!(shape, [(0, 1_000, 3), (2_400, 1_000, 3), (90_000, 0, 3), (500, 200, 2)]);
        for held in (0..starts.len()).rev() {
            runs.pop_front();
            assert_eq!(runs.iter().collect::<Vec<_>>(), starts[starts.len() - held..]);
            assert_eq!(runs.front(), starts.get(starts.len() - held).copied());
        }
        runs.pop_front();
        assert_eq!(runs.front(), None);
    }
}
