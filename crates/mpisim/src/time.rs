//! Virtual time for the single-ported message-passing model.
//!
//! The paper analyses every algorithm in the α–β model (§II): sending a
//! message of `l` machine words takes `α + lβ`. The simulator threads a
//! per-rank virtual clock through every communication operation; [`Time`] is
//! the unit of that clock, stored as integer nanoseconds so that arithmetic
//! is exact and runs are comparable.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};
use std::sync::atomic::{AtomicU64, Ordering};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

impl Time {
    /// The zero instant / empty span.
    pub const ZERO: Time = Time(0);

    /// Construct from integer nanoseconds.
    pub fn from_nanos(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from integer microseconds.
    pub fn from_micros(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from integer milliseconds.
    pub fn from_millis(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from fractional seconds, rounded to the nearest nanosecond
    /// and clamped at zero.
    pub fn from_secs_f64(s: f64) -> Time {
        Time((s * 1e9).round().max(0.0) as u64)
    }

    /// The value in integer nanoseconds (exact).
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The value in fractional microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// The value in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The value in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants — the clock-merge operation of the model:
    /// a receive sets `clock = clock.max(arrival)`.
    pub fn max(self, other: Time) -> Time {
        Time(self.0.max(other.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: Time) -> Time {
        Time(self.0.min(other.0))
    }

    /// Subtraction clamped at zero instead of underflowing.
    pub fn saturating_sub(self, other: Time) -> Time {
        Time(self.0.saturating_sub(other.0))
    }

    /// Scale a span by a dimensionless factor (used by vendor cost profiles).
    pub fn scale(self, factor: f64) -> Time {
        Time((self.0 as f64 * factor).round().max(0.0) as u64)
    }
}

/// A shared-state virtual clock: per-rank simulated time that several
/// parties may advance — the rank's own operations, and the scheduler,
/// which moves a rank's clock forward
/// through the ready-queue when a wake-up delivers a message whose arrival
/// lies in the rank's future.
///
/// All operations are monotone except [`VirtualClock::set`], which
/// barrier-style resynchronisation uses deliberately.
#[derive(Debug, Default)]
pub struct VirtualClock(AtomicU64);

impl VirtualClock {
    /// A clock at virtual time zero.
    pub fn new() -> VirtualClock {
        VirtualClock(AtomicU64::new(0))
    }

    /// Current reading.
    pub fn now(&self) -> Time {
        Time(self.0.load(Ordering::Relaxed))
    }

    /// Advance by a span.
    pub fn advance(&self, dt: Time) {
        self.0.fetch_add(dt.as_nanos(), Ordering::Relaxed);
    }

    /// Merge with an event time: `clock = max(clock, t)` — the receive rule
    /// of the α–β model.
    pub fn advance_to(&self, t: Time) {
        self.0.fetch_max(t.as_nanos(), Ordering::Relaxed);
    }

    /// Overwrite the reading (barrier-style resynchronisation).
    pub fn set(&self, t: Time) {
        self.0.store(t.as_nanos(), Ordering::Relaxed);
    }
}

impl Add for Time {
    type Output = Time;
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    fn sub(self, rhs: Time) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    fn mul(self, rhs: u64) -> Time {
        Time(self.0 * rhs)
    }
}

impl Div<u64> for Time {
    type Output = Time;
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        Time(iter.map(|t| t.0).sum())
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ns", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.2}us", self.as_micros_f64())
        } else if self.0 < 1_000_000_000 {
            write!(f, "{:.2}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let a = Time::from_micros(10);
        let b = Time::from_nanos(500);
        assert_eq!((a + b).as_nanos(), 10_500);
        assert_eq!((a - b).as_nanos(), 9_500);
        assert_eq!((a * 3).as_nanos(), 30_000);
        assert_eq!((a / 2).as_nanos(), 5_000);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn conversions() {
        assert_eq!(Time::from_millis(2).as_nanos(), 2_000_000);
        assert!((Time::from_millis(2).as_millis_f64() - 2.0).abs() < 1e-12);
        assert!((Time::from_secs_f64(0.5).as_secs_f64() - 0.5).abs() < 1e-9);
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(Time(1000).scale(2.5).as_nanos(), 2500);
        assert_eq!(Time(1000).scale(0.0).as_nanos(), 0);
    }

    #[test]
    fn saturating() {
        assert_eq!(Time(5).saturating_sub(Time(10)), Time::ZERO);
        assert_eq!(Time(10).saturating_sub(Time(5)), Time(5));
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Time(12)), "12ns");
        assert_eq!(format!("{}", Time(12_000)), "12.00us");
        assert_eq!(format!("{}", Time(12_000_000)), "12.00ms");
        assert_eq!(format!("{}", Time(12_000_000_000)), "12.000s");
    }

    #[test]
    fn sum_iterator() {
        let total: Time = (1..=4).map(Time).sum();
        assert_eq!(total, Time(10));
    }
}
