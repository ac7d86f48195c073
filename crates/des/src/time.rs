//! Simulated time with nanosecond resolution.
//!
//! Wireless MAC timing (20 µs slots, 10 µs SIFS, ~90 ns bit times at
//! 11 Mbps) and robot motion (seconds to hours) live on wildly different
//! scales; `u64` nanoseconds covers both without rounding drift for
//! simulations of up to ~584 years.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An absolute instant on the simulated clock, in nanoseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely far"
    /// sentinel for timers that are disabled.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates an instant from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * 1_000)
    }

    /// Creates an instant from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000_000)
    }

    /// Creates an instant from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Returns the instant as whole nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the instant as fractional seconds since time zero.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Returns the span from `earlier` to `self`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: `earlier` is later than `self`"),
        )
    }

    /// Returns the span from `earlier` to `self`, or zero if `earlier` is
    /// in the future.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span from whole nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a span from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// Creates a span from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// Creates a span from (possibly fractional) seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, NaN, or too large to represent.
    pub fn from_secs(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Returns the span as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the span as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Multiplies the span by an integer factor, saturating on overflow.
    pub const fn saturating_mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "time in seconds must be finite and non-negative, got {secs}"
    );
    let nanos = secs * NANOS_PER_SEC as f64;
    assert!(
        nanos <= u64::MAX as f64,
        "time in seconds too large to represent: {secs}"
    );
    round_nanos(nanos)
}

/// `nanos.round() as u64` for `nanos` in `[0, 2^64]` (and `-0.0`),
/// without the software `round` call baseline x86-64 makes.
///
/// Exact: for `nanos >= 1` the truncation `w` lies in
/// `[nanos / 2, nanos]`, so `nanos - w` is exact (Sterbenz), and inputs
/// at or above `2^52` are already integers. Halves round away from
/// zero, as `f64::round` does.
fn round_nanos(nanos: f64) -> u64 {
    let w = nanos as u64;
    if nanos - w as f64 >= 0.5 {
        w + 1
    } else {
        w
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
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
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(1.0).as_nanos(), NANOS_PER_SEC);
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        assert_eq!(SimDuration::from_secs(0.5).as_nanos(), 500_000_000);
        assert!((SimTime::from_secs(12.25).as_secs_f64() - 12.25).abs() < 1e-12);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10.0);
        let d = SimDuration::from_secs(3.0);
        assert_eq!(t + d, SimTime::from_secs(13.0));
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
        assert_eq!(d * 2, SimDuration::from_secs(6.0));
        assert_eq!(d / 3, SimDuration::from_secs(1.0));
        assert_eq!(d + d - d, d);
    }

    #[test]
    fn duration_since_directions() {
        let a = SimTime::from_secs(1.0);
        let b = SimTime::from_secs(4.0);
        assert_eq!(b.duration_since(a), SimDuration::from_secs(3.0));
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_backwards() {
        let _ = SimTime::from_secs(1.0).duration_since(SimTime::from_secs(2.0));
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_rejected() {
        let _ = SimTime::from_secs(-1.0);
    }

    #[test]
    fn ordering_and_sentinels() {
        assert!(SimTime::ZERO < SimTime::from_nanos(1));
        assert!(SimTime::from_secs(1e9) < SimTime::MAX);
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
        assert_eq!(SimDuration::from_micros(250).to_string(), "0.000250s");
    }

    /// `round_nanos` equals `f64::round() as u64` on random bit patterns
    /// in `[0, 2^64]`, on every `k + 0.5` and the double just below it,
    /// on values at or above `2^52`, and on the edge values.
    #[test]
    fn round_nanos_matches_libm_round() {
        use crate::check::{self, Outcome};
        const TWO_52: f64 = 4_503_599_627_370_496.0;
        const TWO_64: f64 = 18_446_744_073_709_551_616.0;
        let edges = [
            -0.0,
            0.0,
            0.49999999999999994,
            0.5,
            1.5,
            2.5,
            TWO_52 - 0.5,
            TWO_52,
            TWO_52 + 1.0,
            2.0 * TWO_52,
            TWO_64,
        ];
        for x in edges {
            assert_eq!(round_nanos(x), x.round() as u64, "edge {x:?}");
        }
        check::forall_cases(
            "round_nanos_matches_libm_round",
            4096,
            &check::pair(check::u64s(0..4), check::u64_any()),
            |&(kind, bits)| {
                let x = match kind {
                    // Any bit pattern with the sign cleared.
                    0 => f64::from_bits(bits >> 1),
                    // k + 0.5, exact for every k < 2^52.
                    1 => (bits >> 12) as f64 + 0.5,
                    // The double just below k + 0.5.
                    2 => f64::from_bits(((bits >> 12) as f64 + 0.5).to_bits() - 1),
                    // [2^52, 2^64): exponent 52..=63, any mantissa.
                    _ => f64::from_bits(((1075 + (bits >> 60) % 12) << 52) | (bits >> 12)),
                };
                if x.is_nan() || x > TWO_64 {
                    return Outcome::Discard;
                }
                assert_eq!(
                    round_nanos(x),
                    x.round() as u64,
                    "{x:?} ({:#x})",
                    x.to_bits()
                );
                Outcome::Pass
            },
        );
    }

    #[test]
    fn saturating_mul_caps() {
        assert_eq!(SimDuration::MAX.saturating_mul(2), SimDuration::MAX);
        assert_eq!(
            SimDuration::from_nanos(7).saturating_mul(3),
            SimDuration::from_nanos(21)
        );
    }
}
