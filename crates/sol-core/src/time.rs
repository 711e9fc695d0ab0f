//! Virtual time for SOL agents.
//!
//! All framework logic is expressed in terms of [`Timestamp`] and
//! [`SimDuration`], nanosecond-resolution newtypes. Every agent runs in
//! virtual time — a plain [`Timestamp`] the node runtime moves itself — so
//! runs are fast and fully deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in time, measured in nanoseconds since an arbitrary epoch.
///
/// # Examples
///
/// ```
/// use sol_core::time::{SimDuration, Timestamp};
///
/// let t = Timestamp::ZERO + SimDuration::from_millis(5);
/// assert_eq!(t.as_nanos(), 5_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(u64);

impl Timestamp {
    /// The origin of simulated time.
    pub const ZERO: Timestamp = Timestamp(0);

    /// The far end of simulated time, usable as a "never" sentinel (e.g. the
    /// wake time of an agent that has nothing left to do).
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    /// Creates a timestamp from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        Timestamp(nanos)
    }

    /// Creates a timestamp from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Timestamp(micros * 1_000)
    }

    /// Creates a timestamp from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Timestamp(millis * 1_000_000)
    }

    /// Creates a timestamp from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Timestamp(secs * 1_000_000_000)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the timestamp expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns the duration elapsed since `earlier`, saturating at zero.
    ///
    /// # Examples
    ///
    /// ```
    /// use sol_core::time::{SimDuration, Timestamp};
    /// let a = Timestamp::from_millis(10);
    /// let b = Timestamp::from_millis(4);
    /// assert_eq!(a.duration_since(b), SimDuration::from_millis(6));
    /// assert_eq!(b.duration_since(a), SimDuration::ZERO);
    /// ```
    pub fn duration_since(self, earlier: Timestamp) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl Add<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for Timestamp {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for Timestamp {
    type Output = Timestamp;
    fn sub(self, rhs: SimDuration) -> Timestamp {
        Timestamp(self.0.saturating_sub(rhs.0))
    }
}

/// A span of time, measured in nanoseconds.
///
/// # Examples
///
/// ```
/// use sol_core::time::SimDuration;
/// let d = SimDuration::from_millis(25) * 4;
/// assert_eq!(d, SimDuration::from_millis(100));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a duration from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "duration must be finite and non-negative");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Returns the raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the number of whole milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration expressed in (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns true if this duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl std::ops::Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl std::ops::Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamp_arithmetic_round_trips() {
        let t = Timestamp::from_millis(1500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!(t, Timestamp::from_micros(1_500_000));
        assert_eq!(t + SimDuration::from_millis(500), Timestamp::from_secs(2));
        assert_eq!(t - SimDuration::from_secs(10), Timestamp::ZERO);
    }

    #[test]
    fn duration_display_uses_readable_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(25).to_string(), "25.000ms");
        assert_eq!(SimDuration::from_micros(50).to_string(), "50.000us");
        assert_eq!(SimDuration::from_nanos(7).to_string(), "7ns");
    }

    #[test]
    fn duration_since_saturates() {
        let a = Timestamp::from_secs(1);
        let b = Timestamp::from_secs(3);
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(2));
    }

    #[test]
    fn duration_from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(0.0255), SimDuration::from_micros(25_500));
    }

    #[test]
    fn duration_min_max() {
        let a = SimDuration::from_millis(5);
        let b = SimDuration::from_millis(9);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
    }
}
