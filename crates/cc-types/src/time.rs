//! Integer-microsecond simulation time.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the simulated trace.
///
/// `SimTime` is totally ordered and integral, which keeps the event queue
/// deterministic. Differences between instants are [`SimDuration`]s.
///
/// # Example
///
/// ```
/// use cc_types::{SimDuration, SimTime};
///
/// let t0 = SimTime::ZERO;
/// let t1 = t0 + SimDuration::from_secs(3);
/// assert_eq!(t1 - t0, SimDuration::from_secs(3));
/// assert!(t1 > t0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
///
/// # Example
///
/// ```
/// use cc_types::SimDuration;
///
/// let d = SimDuration::from_millis(1_500);
/// assert_eq!(d.as_secs_f64(), 1.5);
/// assert_eq!(d * 2, SimDuration::from_secs(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `micros` microseconds after the origin.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Returns the instant as microseconds since the origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the instant as (fractional) seconds since the origin.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration elapsed since `earlier`, saturating to zero if
    /// `earlier` is actually later than `self`.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the zero-based index of the optimization interval (of length
    /// `interval`) that contains this instant.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn interval_index(self, interval: SimDuration) -> u64 {
        assert!(interval.0 > 0, "interval must be non-zero");
        self.0 / interval.0
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the duration overflows `u64`
    /// microseconds.
    pub const fn from_millis(millis: u64) -> Self {
        match millis.checked_mul(1_000) {
            Some(micros) => SimDuration(micros),
            None => panic!("SimDuration::from_millis overflows u64 microseconds"),
        }
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the duration overflows `u64`
    /// microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        match secs.checked_mul(1_000_000) {
            Some(micros) => SimDuration(micros),
            None => panic!("SimDuration::from_secs overflows u64 microseconds"),
        }
    }

    /// Creates a duration from whole minutes.
    ///
    /// # Panics
    ///
    /// Panics, in every build, if the duration overflows `u64`
    /// microseconds; [`SimDuration::checked_from_mins`] refuses it
    /// instead.
    pub const fn from_mins(mins: u64) -> Self {
        match Self::checked_from_mins(mins) {
            Some(duration) => duration,
            None => panic!("SimDuration::from_mins overflows u64 microseconds"),
        }
    }

    /// Creates a duration from whole minutes, or `None` if it overflows
    /// `u64` microseconds.
    pub const fn checked_from_mins(mins: u64) -> Option<Self> {
        match mins.checked_mul(60_000_000) {
            Some(micros) => Some(SimDuration(micros)),
            None => None,
        }
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond and saturating negative values to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            return SimDuration::ZERO;
        }
        SimDuration((secs * 1e6).round() as u64)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Returns the duration as fractional minutes.
    pub fn as_mins_f64(self) -> f64 {
        self.0 as f64 / 60e6
    }

    /// Returns whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    /// Subtracts `other`, saturating to zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by a floating-point scale factor, rounding to
    /// the nearest microsecond (ties away from zero), with explicit
    /// saturation: non-finite and non-positive factors yield
    /// [`SimDuration::ZERO`], and products beyond `u64::MAX` microseconds
    /// clamp to `u64::MAX`.
    ///
    /// The product is computed in integer arithmetic on the factor's exact
    /// binary decomposition (`mantissa × 2^exponent`, u128 intermediate), so
    /// no precision is lost for large durations — the old
    /// `as_secs_f64() * factor` round-trip silently truncated durations
    /// beyond ~2⁵³ µs to the nearest representable `f64`.
    pub fn scale(self, factor: f64) -> SimDuration {
        if !factor.is_finite() || factor <= 0.0 {
            return SimDuration::ZERO;
        }
        // Exact decomposition of a positive finite f64: factor = mant × 2^exp
        // with mant < 2^53 (the sign bit is known to be clear).
        let bits = factor.to_bits();
        let exp_bits = ((bits >> 52) & 0x7ff) as i64;
        let frac = bits & ((1u64 << 52) - 1);
        let (mant, exp) = if exp_bits == 0 {
            (frac, -1074i64) // subnormal
        } else {
            (frac | (1u64 << 52), exp_bits - 1075)
        };
        // micros × mant ≤ (2^64−1) × (2^53−1) < 2^117: exact in u128.
        let prod = self.0 as u128 * mant as u128;
        if prod == 0 {
            return SimDuration::ZERO;
        }
        let scaled = if exp >= 0 {
            if exp >= 64 || prod > u128::from(u64::MAX) >> exp {
                u128::from(u64::MAX)
            } else {
                prod << exp
            }
        } else {
            let shift = -exp;
            if shift > 127 {
                0 // prod < 2^117, so even the rounding half cannot reach 1
            } else {
                // Round half away from zero: add half the divisor before
                // shifting. prod + 2^126 < 2^117 + 2^126 < 2^127: no overflow.
                (prod + (1u128 << (shift - 1))) >> shift
            }
        };
        SimDuration(u64::try_from(scaled).unwrap_or(u64::MAX))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime duration subtraction underflow"),
        )
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
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimDuration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        SimDuration(iter.map(|d| d.0).sum())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(
            SimDuration::from_mins(1),
            SimDuration::from_micros(60_000_000)
        );
        assert_eq!(SimDuration::from_secs_f64(1.5).as_millis(), 1500);
    }

    #[test]
    fn checked_minutes_stop_at_the_last_representable_one() {
        let last = u64::MAX / 60_000_000;
        assert_eq!(
            SimDuration::checked_from_mins(last),
            Some(SimDuration::from_micros(last * 60_000_000))
        );
        assert_eq!(SimDuration::checked_from_mins(last + 1), None);
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_millis overflows")]
    fn from_millis_refuses_overflow() {
        let _ = SimDuration::from_millis(std::hint::black_box(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_secs overflows")]
    fn from_secs_refuses_overflow() {
        let _ = SimDuration::from_secs(std::hint::black_box(u64::MAX / 1_000));
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_mins overflows")]
    fn from_mins_refuses_overflow() {
        let _ = SimDuration::from_mins(std::hint::black_box(u64::MAX / 60_000_000 + 1));
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(4);
        assert_eq!((t + d).as_micros(), 14);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn saturating_since_does_not_underflow() {
        let a = SimTime::from_micros(3);
        let b = SimTime::from_micros(9);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_micros(6));
    }

    #[test]
    fn interval_index_buckets() {
        let minute = SimDuration::from_mins(1);
        assert_eq!(SimTime::ZERO.interval_index(minute), 0);
        assert_eq!(SimTime::from_micros(59_999_999).interval_index(minute), 0);
        assert_eq!(SimTime::from_micros(60_000_000).interval_index(minute), 1);
    }

    #[test]
    #[should_panic(expected = "interval must be non-zero")]
    fn interval_index_rejects_zero() {
        let _ = SimTime::ZERO.interval_index(SimDuration::ZERO);
    }

    #[test]
    fn duration_scale_rounds() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.scale(0.25), SimDuration::from_millis(500));
        assert_eq!(d.scale(-1.0), SimDuration::ZERO);
        assert_eq!(d.scale(f64::NAN), SimDuration::ZERO);
        assert_eq!(d.scale(0.0), SimDuration::ZERO);
        // Ties round away from zero.
        assert_eq!(
            SimDuration::from_micros(3).scale(0.5),
            SimDuration::from_micros(2)
        );
    }

    /// Regression for the f64 round-trip: durations beyond 2⁵³ µs used to
    /// be truncated to the nearest f64-representable value, so scaling by
    /// exactly 1.0 (or any dyadic factor) lost the low bits.
    #[test]
    fn duration_scale_is_exact_beyond_f64_precision() {
        let boundary = (1u64 << 53) + 1;
        assert_eq!(
            SimDuration::from_micros(boundary).scale(1.0),
            SimDuration::from_micros(boundary),
            "identity scale must preserve every microsecond"
        );
        let big = (1u64 << 60) + 3;
        assert_eq!(
            SimDuration::from_micros(big).scale(0.5),
            // 2^59 + 1.5 rounds away from zero.
            SimDuration::from_micros((1u64 << 59) + 2)
        );
        assert_eq!(
            SimDuration::from_micros(big).scale(2.0),
            SimDuration::from_micros((1u64 << 61) + 6)
        );
    }

    #[test]
    fn duration_scale_saturates_explicitly() {
        let max = SimDuration::from_micros(u64::MAX);
        assert_eq!(max.scale(2.0), max, "overflow clamps to u64::MAX");
        assert_eq!(max.scale(f64::INFINITY), SimDuration::ZERO);
        assert_eq!(max.scale(1.0), max);
        // A huge factor on a small duration also clamps.
        assert_eq!(SimDuration::from_micros(2).scale(f64::MAX), max);
        // A subnormal factor underflows cleanly to zero.
        assert_eq!(max.scale(f64::from_bits(1)), SimDuration::ZERO);
        // A tiny-but-normal factor times a huge duration stays exact:
        // 2^63 × 2^-53 = 1024.
        assert_eq!(
            SimDuration::from_micros(1 << 63).scale(2f64.powi(-53)),
            SimDuration::from_micros(1024)
        );
    }

    #[test]
    fn duration_sum_and_ordering() {
        let total: SimDuration = [1u64, 2, 3]
            .iter()
            .map(|&s| SimDuration::from_secs(s))
            .sum();
        assert_eq!(total, SimDuration::from_secs(6));
        assert!(SimDuration::from_secs(1) < SimDuration::from_secs(2));
        assert_eq!(
            SimDuration::from_secs(1).max(SimDuration::from_secs(2)),
            SimDuration::from_secs(2)
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimDuration::from_millis(1500).to_string(), "1.500s");
        assert_eq!(SimTime::from_micros(250_000).to_string(), "0.250s");
    }
}
