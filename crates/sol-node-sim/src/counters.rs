//! Hypervisor-level CPU performance counters.
//!
//! The SmartOverclock agent cannot see inside opaque VMs; it reads aggregate
//! counters through the hypervisor — instructions retired, unhalted cycles,
//! stalled cycles, total cycles — and derives Instructions Per Second (IPS)
//! and the α factor used by its Actuator safeguard:
//! `α = (unhalted_cycles - stalled_cycles) / total_cycles` (paper §5.1).

use sol_core::time::{SimDuration, Timestamp};

/// Cumulative CPU counters for a VM (monotonically increasing).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuCounters {
    /// Instructions retired.
    pub instructions: f64,
    /// Cycles during which at least the core was not halted (busy cycles).
    pub unhalted_cycles: f64,
    /// Busy cycles spent stalled (waiting on memory, IO, ...).
    pub stalled_cycles: f64,
    /// All cycles elapsed across the VM's cores (busy or idle).
    pub total_cycles: f64,
}

impl CpuCounters {
    /// Adds another counter block (used when accumulating per-step deltas).
    pub fn accumulate(&mut self, delta: &CpuCounters) {
        self.instructions += delta.instructions;
        self.unhalted_cycles += delta.unhalted_cycles;
        self.stalled_cycles += delta.stalled_cycles;
        self.total_cycles += delta.total_cycles;
    }

    /// Difference `self - earlier`, saturating at zero per field.
    pub fn delta_since(&self, earlier: &CpuCounters) -> CpuCounters {
        CpuCounters {
            instructions: (self.instructions - earlier.instructions).max(0.0),
            unhalted_cycles: (self.unhalted_cycles - earlier.unhalted_cycles).max(0.0),
            stalled_cycles: (self.stalled_cycles - earlier.stalled_cycles).max(0.0),
            total_cycles: (self.total_cycles - earlier.total_cycles).max(0.0),
        }
    }

    /// The α factor over this counter block: the fraction of all cycles that
    /// were busy and not stalled. Returns 0 when no cycles elapsed.
    pub fn alpha(&self) -> f64 {
        if self.total_cycles <= 0.0 {
            0.0
        } else {
            ((self.unhalted_cycles - self.stalled_cycles) / self.total_cycles).clamp(0.0, 1.0)
        }
    }
}

/// A timestamped counter reading, as returned to agents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CounterSample {
    /// When the sample was taken.
    pub at: Timestamp,
    /// Interval the sample covers.
    pub interval: SimDuration,
    /// Average instructions per second over the interval.
    pub ips: f64,
    /// α over the interval.
    pub alpha: f64,
    /// Current core frequency in GHz.
    pub frequency_ghz: f64,
}

impl CounterSample {
    /// Builds a sample from a counter delta over `interval`.
    pub fn from_delta(
        at: Timestamp,
        interval: SimDuration,
        delta: &CpuCounters,
        frequency_ghz: f64,
    ) -> Self {
        let secs = interval.as_secs_f64();
        let ips = if secs > 0.0 { delta.instructions / secs } else { 0.0 };
        CounterSample { at, interval, ips, alpha: delta.alpha(), frequency_ghz }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alpha_is_ratio_of_productive_cycles() {
        let c = CpuCounters {
            instructions: 100.0,
            unhalted_cycles: 80.0,
            stalled_cycles: 20.0,
            total_cycles: 100.0,
        };
        assert!((c.alpha() - 0.6).abs() < 1e-12);
        assert_eq!(CpuCounters::default().alpha(), 0.0);
    }

    #[test]
    fn delta_and_accumulate_are_inverses() {
        let mut a = CpuCounters::default();
        let d1 = CpuCounters {
            instructions: 5.0,
            unhalted_cycles: 4.0,
            stalled_cycles: 1.0,
            total_cycles: 10.0,
        };
        a.accumulate(&d1);
        let snapshot = a;
        a.accumulate(&d1);
        let delta = a.delta_since(&snapshot);
        assert!((delta.instructions - 5.0).abs() < 1e-12);
        assert!((delta.total_cycles - 10.0).abs() < 1e-12);
    }

    #[test]
    fn counter_sample_derives_ips() {
        let delta = CpuCounters {
            instructions: 3e9,
            unhalted_cycles: 1e9,
            stalled_cycles: 0.0,
            total_cycles: 2e9,
        };
        let s = CounterSample::from_delta(
            Timestamp::from_secs(1),
            SimDuration::from_secs(2),
            &delta,
            1.9,
        );
        assert!((s.ips - 1.5e9).abs() < 1.0);
        assert!((s.alpha - 0.5).abs() < 1e-12);
        assert_eq!(s.frequency_ghz, 1.9);
    }

    #[test]
    fn alpha_clamps_to_unit_interval() {
        let c = CpuCounters {
            instructions: 0.0,
            unhalted_cycles: 200.0,
            stalled_cycles: 0.0,
            total_cycles: 100.0,
        };
        assert_eq!(c.alpha(), 1.0);
    }
}
