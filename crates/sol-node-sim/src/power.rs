//! CPU frequency / power model.
//!
//! The paper's testbed is a two-socket Xeon 8171M whose cores can run at 1.5,
//! 1.9, or 2.3 GHz (§6.2). Since we have no power meter, this module provides
//! a standard DVFS power model: static (leakage) power per core plus dynamic
//! power that scales with utilization and super-linearly (cubically) with
//! frequency. Figures 1–5 depend only on the *relative* power of the
//! frequency settings, which this model preserves.

use sol_core::time::SimDuration;

/// The frequency levels the SmartOverclock agent can choose from (GHz),
/// matching §6.2: nominal 1.5 GHz and overclocked 1.9 / 2.3 GHz.
pub const FREQUENCY_LEVELS_GHZ: [f64; 3] = [1.5, 1.9, 2.3];

/// The nominal (safe default) frequency in GHz.
pub const NOMINAL_FREQUENCY_GHZ: f64 = 1.5;

/// Constant platform power (fans, uncore, DRAM) in watts.
const PLATFORM_WATTS: f64 = 20.0;

/// Static per-core power in watts at the nominal frequency (weakly frequency
/// dependent; scaled with the square of the frequency ratio).
const STATIC_CORE_WATTS: f64 = 1.0;

/// Dynamic per-core power at the nominal frequency and 100% utilization, in
/// watts.
const DYNAMIC_CORE_WATTS: f64 = 4.0;

/// Power drawn by one core at frequency `freq_ghz` (GHz) with utilization
/// `utilization` in `[0, 1]`: a simple per-core DVFS model.
///
/// With `r = freq_ghz / NOMINAL_FREQUENCY_GHZ`, the result is
/// `STATIC_CORE_WATTS * r^2 + DYNAMIC_CORE_WATTS * utilization * r^3` —
/// static power rises with the voltage needed for the higher frequency,
/// dynamic power with voltage squared times frequency.
///
/// # Panics
///
/// Panics if `freq_ghz` is not positive or `utilization` is outside
/// `[0, 1]`.
fn core_power_watts(freq_ghz: f64, utilization: f64) -> f64 {
    assert!(freq_ghz > 0.0, "frequency must be positive");
    assert!((0.0..=1.0 + 1e-9).contains(&utilization), "utilization must be in [0, 1]");
    let ratio = freq_ghz / NOMINAL_FREQUENCY_GHZ;
    STATIC_CORE_WATTS * ratio.powi(2) + DYNAMIC_CORE_WATTS * utilization * ratio.powi(3)
}

/// Power drawn by the whole node with `cores` cores all at `freq_ghz` and
/// average utilization `utilization`: the sum over cores plus a constant
/// platform overhead.
///
/// # Examples
///
/// ```
/// use sol_node_sim::power::node_power_watts;
///
/// let idle = node_power_watts(1.5, 0.0, 26);
/// let busy = node_power_watts(2.3, 1.0, 26);
/// assert!(busy > 2.0 * idle);
/// ```
pub fn node_power_watts(freq_ghz: f64, utilization: f64, cores: usize) -> f64 {
    PLATFORM_WATTS + cores as f64 * core_power_watts(freq_ghz, utilization)
}

/// Integrates power over time to produce energy and average power.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EnergyMeter {
    joules: f64,
    elapsed: SimDuration,
}

impl EnergyMeter {
    /// Creates an empty meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `watts` of power drawn for `dt`.
    pub fn record(&mut self, watts: f64, dt: SimDuration) {
        self.joules += watts * dt.as_secs_f64();
        self.elapsed += dt;
    }

    /// Total energy consumed in joules.
    pub fn joules(&self) -> f64 {
        self.joules
    }

    /// Average power over the recorded interval (0 if nothing recorded).
    pub fn average_watts(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.joules / secs
        }
    }

    /// Total time covered by the recordings.
    pub fn elapsed(&self) -> SimDuration {
        self.elapsed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_increases_superlinearly_with_frequency() {
        let p15 = node_power_watts(1.5, 1.0, 26);
        let p19 = node_power_watts(1.9, 1.0, 26);
        let p23 = node_power_watts(2.3, 1.0, 26);
        assert!(p15 < p19 && p19 < p23);
        // Dynamic component alone grows faster than frequency.
        let d15 = core_power_watts(1.5, 1.0) - core_power_watts(1.5, 0.0);
        let d23 = core_power_watts(2.3, 1.0) - core_power_watts(2.3, 0.0);
        assert!(d23 / d15 > 2.3 / 1.5);
    }

    #[test]
    fn idle_power_is_much_lower_than_busy_power() {
        assert!(node_power_watts(1.5, 0.05, 26) < 0.6 * node_power_watts(1.5, 1.0, 26));
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn rejects_bad_utilization() {
        let _ = core_power_watts(1.5, 1.5);
    }

    #[test]
    fn energy_meter_integrates() {
        let mut meter = EnergyMeter::new();
        meter.record(100.0, SimDuration::from_secs(2));
        meter.record(50.0, SimDuration::from_secs(2));
        assert!((meter.joules() - 300.0).abs() < 1e-9);
        assert!((meter.average_watts() - 75.0).abs() < 1e-9);
        assert_eq!(meter.elapsed(), SimDuration::from_secs(4));
    }

    #[test]
    fn empty_meter_reports_zero() {
        let meter = EnergyMeter::new();
        assert_eq!(meter.average_watts(), 0.0);
        assert_eq!(meter.joules(), 0.0);
    }
}
