//! Virtual time types for the simulator.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant in virtual simulation time, measured in nanoseconds from the
/// start of the simulation.
///
/// `SimTime` is a thin newtype over `u64` so it is `Copy`, totally ordered and
/// hashable; arithmetic with [`SimDuration`] is provided via `+`/`-`.
///
/// # Example
/// ```
/// use aiacc_simnet::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_micros(3);
/// assert_eq!(t.as_nanos(), 3_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in nanoseconds.
///
/// # Example
/// ```
/// use aiacc_simnet::SimDuration;
/// assert_eq!(SimDuration::from_millis(2).as_secs_f64(), 0.002);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `nanos` nanoseconds after simulation start.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid sim time: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference between two instants.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `nanos` nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from (possibly fractional) seconds.
    ///
    /// # Panics
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// The duration in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration scaled by a non-negative factor, saturating at the largest
    /// representable duration.
    ///
    /// Saturation matters for exponential backoffs (the engine stall
    /// watchdog doubles its timeout per retry, up to 2^16×): a product
    /// beyond `u64::MAX` nanoseconds clamps instead of producing a bogus
    /// value, and adding the clamped duration to any [`SimTime`] saturates
    /// at [`SimTime::MAX`] rather than wrapping into the past.
    ///
    /// # Panics
    /// Panics if `factor` is negative or not finite.
    pub fn mul_f64(self, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(scaled.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        assert!(self.0 >= rhs.0, "sim time went backwards: {self} - {rhs}");
        SimDuration(self.0 - rhs.0)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_roundtrip_secs() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn add_duration_to_time() {
        let t = SimTime::from_nanos(100) + SimDuration::from_nanos(50);
        assert_eq!(t.as_nanos(), 150);
    }

    #[test]
    fn subtract_times_gives_duration() {
        let a = SimTime::from_nanos(500);
        let b = SimTime::from_nanos(200);
        assert_eq!((a - b).as_nanos(), 300);
    }

    #[test]
    #[should_panic(expected = "backwards")]
    fn subtract_backwards_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn saturating_since_never_panics() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a).as_nanos(), 1);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_secs_f64(0.001), SimDuration::from_millis(1));
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(SimDuration::from_nanos(100).mul_f64(2.5).as_nanos(), 250);
    }

    #[test]
    fn mul_f64_saturates_instead_of_wrapping() {
        // The stall-watchdog backoff multiplies a base timeout by up to
        // 2^16; a 10^9-second base (~31 years of sim time) overflows u64
        // nanoseconds and must clamp, not wrap.
        let base = SimDuration::from_secs_f64(1e9);
        let backoff = base.mul_f64(f64::from(1u32 << 16));
        assert_eq!(backoff.as_nanos(), u64::MAX);
        // Scheduling the clamped backoff lands at SimTime::MAX, never in
        // the past.
        assert_eq!(SimTime::ZERO + backoff, SimTime::MAX);
        assert_eq!(SimTime::from_secs_f64(5.0) + backoff, SimTime::MAX);
    }

    #[test]
    fn mul_f64_exact_at_boundary() {
        assert_eq!(SimDuration::from_nanos(u64::MAX).mul_f64(1.0).as_nanos(), u64::MAX);
        assert_eq!(SimDuration::from_nanos(u64::MAX).mul_f64(0.0).as_nanos(), 0);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(0.25)), "0.250000s");
    }
}
