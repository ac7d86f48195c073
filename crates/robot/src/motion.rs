//! Constant-speed straight-line motion legs.

use robonet_des::{SimDuration, SimTime};
use robonet_geom::Point;

/// One straight-line movement from a start point to a target at constant
/// speed, beginning at a known time.
///
/// The length and the arrival instant are computed once, when the leg is
/// made: robot positions are read on every report, and each read would
/// otherwise redo a square root, a division and a rounding.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Leg {
    from: Point,
    to: Point,
    start: SimTime,
    speed: f64,
    distance: f64,
    arrival: SimTime,
}

impl Leg {
    /// Creates a leg from `from` to `to` starting at `start`, travelled
    /// at `speed` metres per second.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive, or if the arrival
    /// instant is not representable as a [`SimTime`].
    pub fn new(from: Point, to: Point, start: SimTime, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        let distance = from.distance(to);
        Leg {
            from,
            to,
            start,
            speed,
            distance,
            arrival: start + SimDuration::from_secs(distance / speed),
        }
    }

    /// Start point.
    pub fn from(&self) -> Point {
        self.from
    }

    /// Target point.
    pub fn to(&self) -> Point {
        self.to
    }

    /// Departure time.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// Travel speed in m/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Total length in metres.
    pub fn distance(&self) -> f64 {
        self.distance
    }

    /// Travel time for the whole leg.
    pub fn duration(&self) -> SimDuration {
        self.arrival - self.start
    }

    /// Arrival time at the target.
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// Position at time `t`, clamped to the endpoints outside the
    /// travel window.
    pub fn position_at(&self, t: SimTime) -> Point {
        if t <= self.start {
            return self.from;
        }
        // Snap exactly at (or past) arrival: the arrival instant is
        // rounded to nanoseconds, so the interpolation below could land
        // a hair short of the target.
        if t >= self.arrival {
            return self.to;
        }
        let total = self.distance;
        if total <= f64::EPSILON {
            return self.to;
        }
        let travelled = t.duration_since(self.start).as_secs_f64() * self.speed;
        if travelled >= total {
            self.to
        } else {
            self.from.lerp(self.to, travelled / total)
        }
    }

    /// Times at which the robot is exactly `k × threshold` metres along
    /// the leg, for k = 1, 2, ... — the instants it must broadcast a
    /// location update (paper §4.2: threshold 20 m, "less than 1/3 of
    /// the sensors' transmission range ... to ensure that the robots can
    /// receive failure messages all the time").
    ///
    /// The arrival point itself is *not* included (arrival triggers its
    /// own update).
    pub fn update_times(&self, threshold: f64) -> Vec<SimTime> {
        assert!(
            threshold.is_finite() && threshold > 0.0,
            "threshold must be positive"
        );
        let total = self.distance;
        let mut out = Vec::new();
        let mut d = threshold;
        while d < total - 1e-9 {
            out.push(self.start + SimDuration::from_secs(d / self.speed));
            d += threshold;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn timing_at_one_meter_per_second() {
        let leg = Leg::new(p(0.0, 0.0), p(100.0, 0.0), t(10.0), 1.0);
        assert_eq!(leg.distance(), 100.0);
        assert_eq!(leg.duration(), SimDuration::from_secs(100.0));
        assert_eq!(leg.arrival(), t(110.0));
    }

    #[test]
    fn position_interpolates_and_clamps() {
        let leg = Leg::new(p(0.0, 0.0), p(100.0, 0.0), t(10.0), 2.0);
        assert_eq!(leg.position_at(t(0.0)), p(0.0, 0.0), "before start");
        assert_eq!(leg.position_at(t(10.0)), p(0.0, 0.0));
        assert_eq!(leg.position_at(t(35.0)), p(50.0, 0.0), "halfway");
        assert_eq!(leg.position_at(t(60.0)), p(100.0, 0.0));
        assert_eq!(leg.position_at(t(1000.0)), p(100.0, 0.0), "after arrival");
    }

    #[test]
    fn diagonal_leg_positions() {
        let leg = Leg::new(p(0.0, 0.0), p(30.0, 40.0), t(0.0), 1.0);
        assert_eq!(leg.distance(), 50.0);
        let mid = leg.position_at(t(25.0));
        assert!((mid.x - 15.0).abs() < 1e-9 && (mid.y - 20.0).abs() < 1e-9);
    }

    #[test]
    fn update_times_every_threshold() {
        // 100 m at 1 m/s with a 20 m threshold: updates at 20/40/60/80 m
        // (not at 100 m — arrival handles that).
        let leg = Leg::new(p(0.0, 0.0), p(100.0, 0.0), t(0.0), 1.0);
        let times = leg.update_times(20.0);
        assert_eq!(
            times,
            vec![t(20.0), t(40.0), t(60.0), t(80.0)],
            "one update per 20 m travelled"
        );
    }

    #[test]
    fn update_times_exact_multiple_excludes_arrival() {
        let leg = Leg::new(p(0.0, 0.0), p(40.0, 0.0), t(0.0), 1.0);
        assert_eq!(leg.update_times(20.0), vec![t(20.0)]);
    }

    #[test]
    fn short_leg_no_updates() {
        let leg = Leg::new(p(0.0, 0.0), p(10.0, 0.0), t(0.0), 1.0);
        assert!(leg.update_times(20.0).is_empty());
    }

    #[test]
    fn zero_length_leg() {
        let leg = Leg::new(p(5.0, 5.0), p(5.0, 5.0), t(3.0), 1.0);
        assert_eq!(leg.arrival(), t(3.0));
        assert_eq!(leg.position_at(t(10.0)), p(5.0, 5.0));
        assert!(leg.update_times(20.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let _ = Leg::new(p(0.0, 0.0), p(1.0, 0.0), t(0.0), 0.0);
    }
}
