//! Simulation time.
//!
//! The discrete-event substrate keeps time as an integer number of
//! **picoseconds**. Picosecond resolution is required because packet
//! serialization times at the bandwidths studied in the paper are fractions
//! of a nanosecond per byte (a 64-byte write at 3.2 Tbit/s serializes in
//! 160 ps), while the longest experiments span tens of seconds
//! (a 2 TiB message at 400 Gbit/s takes ~44 s ≈ 4.4e13 ps, comfortably
//! inside `u64`).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time (or a duration), in picoseconds.
///
/// `SimTime` is used for both instants and durations; the arithmetic is the
/// same and the discrete-event engine only ever compares and adds values.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// Picoseconds in one nanosecond.
pub const PS_PER_NS: u64 = 1_000;
/// Picoseconds in one microsecond.
pub const PS_PER_US: u64 = 1_000_000;
/// Picoseconds in one millisecond.
pub const PS_PER_MS: u64 = 1_000_000_000;
/// Picoseconds in one second.
pub const PS_PER_S: u64 = 1_000_000_000_000;

impl SimTime {
    /// Time zero — the start of every simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable time, used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// A duration of `ns` nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// A duration of `us` microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// A duration of `ms` milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// A duration of `s` whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_S)
    }

    /// Converts a floating-point number of seconds, rounding to the nearest
    /// picosecond. Negative and non-finite inputs saturate to zero.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return SimTime::ZERO;
        }
        SimTime((secs * PS_PER_S as f64).round() as u64)
    }

    /// This time expressed in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_S as f64
    }

    /// This time expressed in whole picoseconds.
    #[inline]
    pub const fn as_picos(self) -> u64 {
        self.0
    }

    /// Saturating subtraction: returns zero instead of underflowing.
    #[inline]
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at `SimTime::MAX`.
    #[inline]
    pub fn saturating_add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }

    /// Checked multiplication by an integer factor.
    #[inline]
    pub fn checked_mul(self, factor: u64) -> Option<SimTime> {
        self.0.checked_mul(factor).map(SimTime)
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps == 0 {
            write!(f, "0s")
        } else if ps.is_multiple_of(PS_PER_S) {
            write!(f, "{}s", ps / PS_PER_S)
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", ps as f64 / PS_PER_MS as f64)
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", ps as f64 / PS_PER_US as f64)
        } else if ps >= PS_PER_NS {
            write!(f, "{:.3}ns", ps as f64 / PS_PER_NS as f64)
        } else {
            write!(f, "{}ps", ps)
        }
    }
}

/// Serialization time for `bytes` at `bandwidth_bps` bits/second.
///
/// This is the paper's `T_INJ` for a chunk: chunk size divided by link
/// bandwidth (Section 4.2.1).
#[inline]
pub fn tx_time(bytes: u64, bandwidth_bps: f64) -> SimTime {
    debug_assert!(bandwidth_bps > 0.0, "bandwidth must be positive");
    SimTime::from_secs_f64(bytes as f64 * 8.0 / bandwidth_bps)
}

/// Speed of light used by the paper for distance → delay conversion.
///
/// The paper states that 3750 km corresponds to 25 ms RTT, i.e. delay is
/// computed with c = 3e8 m/s (not the slower speed of light in fiber);
/// we keep the same convention so message-size/distance crossovers land at
/// the paper's values.
pub const C_LIGHT_M_PER_S: f64 = 3.0e8;

/// One-way propagation delay for a cable of `km` kilometres.
#[inline]
pub fn propagation_delay_km(km: f64) -> SimTime {
    SimTime::from_secs_f64(km * 1_000.0 / C_LIGHT_M_PER_S)
}

/// Round-trip time for a one-way distance of `km` kilometres.
#[inline]
pub fn rtt_from_km(km: f64) -> SimTime {
    SimTime::from_secs_f64(2.0 * km * 1_000.0 / C_LIGHT_M_PER_S)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.0, 3 * PS_PER_S / 2);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_saturate_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
    }

    #[test]
    fn paper_distance_convention() {
        // 3750 km one-way distance must give a 25 ms RTT (Figure 3).
        let rtt = rtt_from_km(3750.0);
        assert_eq!(rtt, SimTime::from_millis(25));
        // And the motivation's "1000 km ≈ 6.5 ms added RTT" is ~6.7 ms at c.
        let added = rtt_from_km(1000.0);
        assert!((added.as_secs_f64() - 0.00667).abs() < 2e-4);
    }

    #[test]
    fn tx_time_matches_line_rate() {
        // 4 KiB at 400 Gbit/s = 4096*8/400e9 s = 81.92 ns.
        let t = tx_time(4096, 400e9);
        assert_eq!(t.0, 81_920);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(3);
        assert_eq!((a + b).0, 8_000);
        assert_eq!((a - b).0, 2_000);
        assert_eq!(a * 2, SimTime::from_nanos(10));
        assert_eq!(a / 5, SimTime::from_nanos(1));
        assert!(b < a);
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn display_picks_sane_units() {
        assert_eq!(SimTime::from_millis(25).to_string(), "25.000ms");
        assert_eq!(SimTime(500).to_string(), "500ps");
        assert_eq!(SimTime::from_secs(2).to_string(), "2s");
    }

    #[test]
    fn sum_of_times() {
        let total: SimTime = (1..=4).map(SimTime::from_nanos).sum();
        assert_eq!(total, SimTime::from_nanos(10));
    }
}
