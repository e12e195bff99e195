//! Virtual time for discrete-event simulation.
//!
//! The paper's implementation reads the processor cycle counter (TSC) at every
//! vSCSI command and converts deltas to microseconds (§3.2). In this
//! reproduction all components share a *virtual* clock instead: [`SimTime`] is
//! an absolute instant and [`SimDuration`] a span, both with nanosecond
//! resolution, so microsecond-bucketed histograms lose nothing.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the simulation.
///
/// `SimTime` is totally ordered and starts at [`SimTime::ZERO`]. Subtracting
/// two instants yields a [`SimDuration`].
///
/// # Examples
///
/// ```
/// use simkit::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_micros(250);
/// assert_eq!(t1 - t0, SimDuration::from_micros(250));
/// assert!(t1 > t0);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time with nanosecond resolution.
///
/// # Examples
///
/// ```
/// use simkit::SimDuration;
///
/// let d = SimDuration::from_millis(3) + SimDuration::from_micros(500);
/// assert_eq!(d.as_micros(), 3_500);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after the simulation start.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant `micros` microseconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the underlying nanosecond counter.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the underlying nanosecond counter.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the underlying nanosecond counter.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000_000)
    }

    /// Nanoseconds since the simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the simulation start (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the simulation start (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the simulation start as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, saturating to zero if `earlier`
    /// is actually later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The instant `d` after `self`, saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `nanos` nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span of `micros` microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the underlying nanosecond counter.
    #[inline]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the underlying nanosecond counter.
    #[inline]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the value overflows the underlying nanosecond counter.
    #[inline]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// Creates a span from a float number of seconds, rounding to the nearest
    /// nanosecond and clamping negatives to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e9).round().min(u64::MAX as f64) as u64)
    }

    /// Creates a span from a float number of microseconds, rounding to the
    /// nearest nanosecond and clamping negatives to zero.
    #[inline]
    pub fn from_micros_f64(micros: f64) -> Self {
        Self::from_secs_f64(micros / 1e6)
    }

    /// The span in nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in whole microseconds (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in whole milliseconds (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in seconds as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `true` if the span is empty.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the span by a float factor, saturating and clamping
    /// negatives to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor <= 0.0 || !factor.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((self.0 as f64 * factor).min(u64::MAX as f64) as u64)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    /// The span between two instants.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when order is not guaranteed.
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_nanos(d.as_nanos())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_secs(5).as_millis(), 5_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_millis(7).as_micros(), 7_000);
        assert_eq!(SimDuration::from_secs(7).as_millis(), 7_000);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_micros(), 15);
        assert_eq!((t - SimTime::from_micros(3)).as_micros(), 12);
        assert_eq!((t - SimDuration::from_micros(5)).as_micros(), 10);

        let mut d = SimDuration::from_micros(1);
        d += SimDuration::from_micros(2);
        assert_eq!(d.as_micros(), 3);
        d -= SimDuration::from_micros(1);
        assert_eq!(d.as_micros(), 2);
        assert_eq!((d * 4).as_micros(), 8);
        assert_eq!((d / 2).as_micros(), 1);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_micros(1);
        let late = SimTime::from_micros(9);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early).as_micros(), 8);
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn float_conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1_500);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_micros_f64(2.5).as_nanos(), 2_500);
        let d = SimDuration::from_millis(250);
        assert!((d.as_secs_f64() - 0.25).abs() < 1e-12);
        assert_eq!(d.mul_f64(2.0).as_millis(), 500);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimTime::from_secs(1).to_string(), "t+1.000s");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total.as_micros(), 10);
    }

    #[test]
    fn std_duration_conversion() {
        let d: std::time::Duration = SimDuration::from_micros(123).into();
        assert_eq!(d.as_micros(), 123);
    }
}
