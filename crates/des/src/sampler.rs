//! Distribution samplers used by the simulation.
//!
//! Only the distributions the paper actually needs are implemented
//! (exponential lifetimes, uniform reals/integers), via inverse-CDF on
//! the in-tree [`crate::rng`] uniform source.

use crate::rng::Rng;

use crate::time::SimDuration;

/// Samples an exponentially distributed duration with the given mean.
///
/// Sensor lifetimes in the paper follow an exponential distribution with
/// expected value `T` (§2(a); `T` = 16000 s in §4.1).
///
/// # Panics
///
/// Panics if `mean` is zero.
pub fn exponential_duration<R: Rng + ?Sized>(rng: &mut R, mean: SimDuration) -> SimDuration {
    assert!(
        mean > SimDuration::ZERO,
        "exponential mean must be positive"
    );
    exponential_duration_of(rng.next_f64(), mean)
}

/// The exponential duration with the given mean that the uniform draw
/// `u` in `[0, 1)` stands for: `-mean · ln(1 − u)` by inverse CDF, as
/// [`exponential_duration`] computes it from its draw.
///
/// # Panics
///
/// Panics if `mean` is zero.
pub fn exponential_duration_of(u: f64, mean: SimDuration) -> SimDuration {
    let x = exponential_of(u, mean.as_secs_f64());
    // Cap at SimDuration::MAX rather than overflow for astronomically
    // unlikely draws.
    if x >= SimDuration::MAX.as_secs_f64() {
        SimDuration::MAX
    } else {
        SimDuration::from_secs(x)
    }
}

/// Samples an exponentially distributed real with the given mean.
///
/// # Panics
///
/// Panics if `mean` is not finite and positive.
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    exponential_of(rng.next_f64(), mean)
}

fn exponential_of(u: f64, mean: f64) -> f64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "exponential mean must be finite and positive, got {mean}"
    );
    // next_f64() is in [0, 1); use 1 - u in (0, 1] so ln never sees zero.
    -mean * (1.0 - u).ln()
}

/// Samples a uniform duration in `[0, max]` (inclusive of both ends at
/// nanosecond granularity). Used for jittering beacon phases so the whole
/// network does not beacon in lockstep.
pub fn uniform_duration<R: Rng + ?Sized>(rng: &mut R, max: SimDuration) -> SimDuration {
    SimDuration::from_nanos(rng.gen_range(0..=max.as_nanos()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256;

    fn rng() -> Xoshiro256 {
        Xoshiro256::seed_from_u64(12345)
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = rng();
        let n = 200_000;
        let mean = 16_000.0;
        let sum: f64 = (0..n).map(|_| exponential(&mut r, mean)).sum();
        let emp = sum / n as f64;
        assert!(
            (emp - mean).abs() / mean < 0.02,
            "empirical mean {emp} too far from {mean}"
        );
    }

    #[test]
    fn exponential_is_memoryless_in_distribution() {
        // P(X > 2T) should be ~ P(X > T)^2 = e^-2.
        let mut r = rng();
        let n = 100_000;
        let t = 1.0;
        let samples: Vec<f64> = (0..n).map(|_| exponential(&mut r, 1.0)).collect();
        let p1 = samples.iter().filter(|&&x| x > t).count() as f64 / n as f64;
        let p2 = samples.iter().filter(|&&x| x > 2.0 * t).count() as f64 / n as f64;
        assert!((p2 - p1 * p1).abs() < 0.01, "p1={p1} p2={p2}");
    }

    #[test]
    fn exponential_duration_positive_and_finite() {
        let mut r = rng();
        for _ in 0..1000 {
            let d = exponential_duration(&mut r, SimDuration::from_secs(10.0));
            assert!(d >= SimDuration::ZERO);
            assert!(d < SimDuration::MAX);
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mean_rejected() {
        let mut r = rng();
        exponential_duration(&mut r, SimDuration::ZERO);
    }

    #[test]
    fn uniform_duration_in_range() {
        let mut r = rng();
        let max = SimDuration::from_secs(10.0);
        for _ in 0..1000 {
            let d = uniform_duration(&mut r, max);
            assert!(d <= max);
        }
    }

    #[test]
    fn uniform_duration_covers_range() {
        let mut r = rng();
        let max = SimDuration::from_secs(10.0);
        let n = 10_000;
        let mean: f64 = (0..n)
            .map(|_| uniform_duration(&mut r, max).as_secs_f64())
            .sum::<f64>()
            / n as f64;
        assert!((mean - 5.0).abs() < 0.2, "uniform mean {mean} should be ~5");
    }
}
