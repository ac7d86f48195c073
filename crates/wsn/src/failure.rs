//! The sensor failure process.
//!
//! Paper §2(a): "The lifetime of a node is limited, and follows an
//! exponential distribution with an expected value of T". After a failed
//! node is replaced, the fresh node draws a fresh lifetime.

use robonet_des::rng::{Rng, Xoshiro256};
use robonet_des::{sampler, SimDuration, SimTime};

/// Draws independent exponential lifetimes for sensor nodes.
#[derive(Debug)]
pub struct FailureProcess {
    mean: SimDuration,
    rng: Xoshiro256,
}

impl FailureProcess {
    /// Creates a process with the given mean lifetime (the paper uses
    /// T = 16000 s) drawing from `rng`.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is zero.
    pub fn new(mean: SimDuration, rng: Xoshiro256) -> Self {
        assert!(mean > SimDuration::ZERO, "mean lifetime must be positive");
        FailureProcess { mean, rng }
    }

    /// The mean lifetime.
    pub fn mean(&self) -> SimDuration {
        self.mean
    }

    /// Samples the remaining lifetime of a node born (or replaced) now:
    /// [`FailureProcess::lifetime_of`] a fresh [`FailureProcess::draw`].
    pub fn sample_lifetime(&mut self) -> SimDuration {
        sampler::exponential_duration(&mut self.rng, self.mean)
    }

    /// Draws the uniform `u` in `[0, 1)` one lifetime is made from.
    pub fn draw(&mut self) -> f64 {
        self.rng.next_f64()
    }

    /// The lifetime the draw `u` stands for, by inverse CDF.
    pub fn lifetime_of(&self, u: f64) -> SimDuration {
        sampler::exponential_duration_of(u, self.mean)
    }

    /// The absolute failure time of a node born at `birth`.
    pub fn sample_failure_at(&mut self, birth: SimTime) -> SimTime {
        birth + self.sample_lifetime()
    }
}

/// The cutoff on `1 − u` below which the lifetime a draw `u` stands
/// for ([`FailureProcess::lifetime_of`] with this `mean`) is certainly
/// longer than `horizon`, for [`ends_past`].
///
/// A lifetime ends after `H` exactly when `-T ln(1 − u) > H`, that is
/// when `1 − u < exp(−H/T)`. The computed lifetime rounds `ln`, the
/// product and the conversion to whole nanoseconds, so draws near that
/// threshold may land either side of `H`. The cutoff therefore takes the
/// threshold at `H` stretched by `1e-9` of itself plus 1 µs, and shrinks
/// it by a relative `1e-9`: below it, the exact lifetime exceeds `H` by
/// more than 1 µs plus `1e-9` of `H` and of `T`, while the rounding
/// moves it by a few units in the last place (about `1e-15` of it) and
/// half a nanosecond. Draws inside the band take the exact path. A
/// horizon of [`SimDuration::MAX`] gets the cutoff 0: the longest
/// lifetimes are capped to exactly that span, which does not exceed it.
pub fn past_horizon_cutoff(mean: SimDuration, horizon: SimDuration) -> f64 {
    if horizon == SimDuration::MAX {
        return 0.0;
    }
    let h = horizon.as_secs_f64() * (1.0 + 1e-9) + 1e-6;
    (-h / mean.as_secs_f64()).exp() * (1.0 - 1e-9)
}

/// Whether the lifetime the draw `u` stands for is certainly longer
/// than the horizon `cutoff` was made for ([`past_horizon_cutoff`]), so
/// that it ends past that horizon whenever it starts: the test reads
/// the `1 − u` whose logarithm the lifetime takes. `false` decides
/// nothing.
pub fn ends_past(u: f64, cutoff: f64) -> bool {
    1.0 - u < cutoff
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(seed: u64) -> FailureProcess {
        FailureProcess::new(
            SimDuration::from_secs(16_000.0),
            Xoshiro256::seed_from_u64(seed),
        )
    }

    #[test]
    fn lifetimes_average_to_mean() {
        let mut p = process(1);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| p.sample_lifetime().as_secs_f64()).sum();
        let mean = sum / n as f64;
        assert!(
            (mean - 16_000.0).abs() / 16_000.0 < 0.03,
            "empirical mean {mean}"
        );
    }

    #[test]
    fn failure_time_is_after_birth() {
        let mut p = process(2);
        let birth = SimTime::from_secs(100.0);
        for _ in 0..100 {
            assert!(p.sample_failure_at(birth) >= birth);
        }
    }

    #[test]
    fn reproducible_for_same_seed() {
        let mut a = process(3);
        let mut b = process(3);
        for _ in 0..10 {
            assert_eq!(a.sample_lifetime(), b.sample_lifetime());
        }
    }

    /// Draws at the stream's resolution (multiples of 2^-53) whose
    /// `1 − u` lies within `steps` resolution units of `target`.
    fn draws_near(target: f64, steps: i64) -> impl Iterator<Item = f64> {
        let unit = (1u64 << 53) as f64;
        let m = ((1.0 - target) * unit).round() as i64;
        (m - steps..=m + steps)
            .filter(|&m| (0..1i64 << 53).contains(&m))
            .map(move |m| m as f64 / unit)
    }

    /// A draw the cutoff calls certainly past the horizon makes, on the
    /// exact path, a lifetime that ends after it; and the band left to
    /// the exact path is narrow. Draws are probed a few units either
    /// side of the ideal threshold `exp(−H/T)`, of that threshold moved
    /// by ±1e-9 of itself, of the cutoff, and just below the band.
    #[test]
    fn prop_certainly_past_draws_end_past_the_horizon() {
        use robonet_des::check::{self, Outcome};
        // (mean mode, mean s), (horizon mode, horizon s).
        let gen = check::pair(
            check::pair(check::usizes(0..3), check::f64s(1.0..100_000.0)),
            check::pair(check::usizes(0..5), check::f64s(0.001..1_000_000.0)),
        );
        check::forall_cases(
            "certainly-past draws end past the horizon",
            500,
            &gen,
            |&((t_mode, t), (h_mode, h))| {
                let mean = match t_mode {
                    0 => 16_000.0,
                    1 => 16_000.0 / 64.0,
                    _ => t,
                };
                let horizon = match h_mode {
                    0 => 1_000.0,
                    1 => 64_000.0,
                    2 => 11.0, // one beacon period and a second
                    3 => 10.000_000_001,
                    _ => h,
                };
                let (mean, horizon) = (
                    SimDuration::from_secs(mean),
                    SimDuration::from_secs(horizon),
                );
                let process = FailureProcess::new(mean, Xoshiro256::seed_from_u64(0));
                let cutoff = past_horizon_cutoff(mean, horizon);
                let ratio = horizon.as_secs_f64() / mean.as_secs_f64();
                let ideal = (-ratio).exp();
                let width = 2e-9 * (1.0 + ratio) + 2e-6 / mean.as_secs_f64();
                let narrow = ideal * (1.0 - width);
                let targets = [
                    ideal,
                    ideal * (1.0 + 1e-9),
                    ideal * (1.0 - 1e-9),
                    cutoff,
                    ideal * (1.0 - 2.0 * width),
                ];
                for u in targets.iter().flat_map(|&x| draws_near(x, 4)) {
                    let lifetime = process.lifetime_of(u);
                    if ends_past(u, cutoff) {
                        assert!(lifetime > horizon, "u = {u:e}: {lifetime:?} <= {horizon:?}");
                    } else {
                        assert!(1.0 - u >= narrow, "u = {u:e} left to the exact path");
                    }
                }
                Outcome::Pass
            },
        );
    }

    #[test]
    fn lifetime_of_a_draw_is_the_sampled_lifetime() {
        let mut a = process(5);
        let mut b = process(5);
        for _ in 0..1_000 {
            let u = b.draw();
            assert_eq!(a.sample_lifetime(), b.lifetime_of(u));
        }
    }

    #[test]
    fn expected_failures_in_sim_window() {
        // With T = 16000 s and a 64000 s window, a continuously replaced
        // node slot fails ~4 times on average. Simulate 2000 slots.
        let mut p = process(4);
        let horizon = 64_000.0;
        let slots = 2000;
        let mut failures = 0u64;
        for _ in 0..slots {
            let mut t = 0.0;
            loop {
                t += p.sample_lifetime().as_secs_f64();
                if t > horizon {
                    break;
                }
                failures += 1;
            }
        }
        let per_slot = failures as f64 / slots as f64;
        assert!((per_slot - 4.0).abs() < 0.2, "failures per slot {per_slot}");
    }
}
