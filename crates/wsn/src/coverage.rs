//! Sensing-coverage accounting.
//!
//! The point of sensor replacement is to "keep the coverage" (paper §1).
//! This module measures the fraction of the field within sensing range
//! of at least one alive sensor, so experiments can show coverage
//! degrading while failures are outstanding and recovering after
//! replacement.

use robonet_geom::spatial::GridIndex;
use robonet_geom::{Bounds, Point};

/// Sensing radius of one sensor, in metres, used by the simulators'
/// coverage gauge. Distinct from the radio range; the paper does not fix
/// it, and 63 m (the sensor transmission range) is a natural choice.
pub const SENSING_RANGE: f64 = 63.0;

/// Lattice points per axis of the simulators' coverage estimate.
pub const GRID_RESOLUTION: usize = 80;

/// Monte-Carlo-free grid estimate of covered area fraction.
///
/// Evaluates an `resolution × resolution` lattice of sample points and
/// reports the fraction within `sensing_range` of an alive sensor.
/// `alive` flags parallel `sensors`.
///
/// # Panics
///
/// Panics if the slices differ in length, `resolution` is zero, or
/// `sensing_range` is not positive.
pub fn coverage_fraction(
    bounds: &Bounds,
    sensors: &[Point],
    alive: &[bool],
    sensing_range: f64,
    resolution: usize,
) -> f64 {
    assert_eq!(
        sensors.len(),
        alive.len(),
        "sensors and alive flags must pair up"
    );
    assert!(resolution > 0, "resolution must be positive");
    assert!(
        sensing_range.is_finite() && sensing_range > 0.0,
        "sensing range must be positive"
    );
    let alive_points: Vec<Point> = sensors
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(&p, _)| p)
        .collect();
    if alive_points.is_empty() {
        return 0.0;
    }
    let index = GridIndex::build(*bounds, sensing_range, &alive_points);
    let mut covered = 0usize;
    let total = resolution * resolution;
    for iy in 0..resolution {
        for ix in 0..resolution {
            let sample = Point::new(
                bounds.min().x + (ix as f64 + 0.5) * bounds.width() / resolution as f64,
                bounds.min().y + (iy as f64 + 0.5) * bounds.height() / resolution as f64,
            );
            let mut hit = false;
            index.for_each_within(sample, sensing_range, |_| hit = true);
            if hit {
                covered += 1;
            }
        }
    }
    covered as f64 / total as f64
}

/// [`coverage_fraction`] kept up to date instead of recomputed: a count,
/// per lattice point, of the alive sensors covering it, adjusted when
/// one sensor fails or is replaced, so a reading is O(1).
///
/// It samples the same lattice and tests cover the same way
/// (`sensor.distance_sq(sample) <= range * range`), so every reading is
/// bit-identical to [`coverage_fraction`] over the same sensors.
#[derive(Debug, Clone)]
pub struct CoverageGauge {
    bounds: Bounds,
    sensing_range: f64,
    resolution: usize,
    /// Alive sensors covering each lattice point, row-major.
    cover: Vec<u32>,
    /// Lattice points with a non-zero count.
    covered: usize,
}

impl CoverageGauge {
    /// A gauge over `sensors`, of which those flagged in `alive` count
    /// (arguments as for [`coverage_fraction`]).
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length, `resolution` is zero, or
    /// `sensing_range` is not positive.
    pub fn new(
        bounds: &Bounds,
        sensors: &[Point],
        alive: &[bool],
        sensing_range: f64,
        resolution: usize,
    ) -> Self {
        assert_eq!(
            sensors.len(),
            alive.len(),
            "sensors and alive flags must pair up"
        );
        assert!(resolution > 0, "resolution must be positive");
        assert!(
            sensing_range.is_finite() && sensing_range > 0.0,
            "sensing range must be positive"
        );
        let mut gauge = CoverageGauge {
            bounds: *bounds,
            sensing_range,
            resolution,
            cover: vec![0; resolution * resolution],
            covered: 0,
        };
        for (&p, _) in sensors.iter().zip(alive).filter(|(_, &a)| a) {
            gauge.set_alive(p, true);
        }
        gauge
    }

    /// A sensor at `sensor` came up (`alive`) or went down: adjusts the
    /// count of every lattice point it covers.
    pub fn set_alive(&mut self, sensor: Point, alive: bool) {
        let r = self.sensing_range;
        let r_sq = r * r;
        let res = self.resolution;
        let (xs, ys) = (
            self.lattice_span(sensor.x, r, self.bounds.min().x, self.bounds.width()),
            self.lattice_span(sensor.y, r, self.bounds.min().y, self.bounds.height()),
        );
        for iy in ys {
            for ix in xs.clone() {
                if sensor.distance_sq(self.sample(ix, iy)) > r_sq {
                    continue;
                }
                let c = &mut self.cover[iy * res + ix];
                if alive {
                    *c += 1;
                    self.covered += usize::from(*c == 1);
                } else {
                    *c -= 1;
                    self.covered -= usize::from(*c == 0);
                }
            }
        }
    }

    /// The covered fraction of the lattice.
    pub fn fraction(&self) -> f64 {
        self.covered as f64 / (self.resolution * self.resolution) as f64
    }

    /// Lattice point `(ix, iy)`, computed as [`coverage_fraction`] does.
    fn sample(&self, ix: usize, iy: usize) -> Point {
        let b = &self.bounds;
        let res = self.resolution as f64;
        Point::new(
            b.min().x + (ix as f64 + 0.5) * b.width() / res,
            b.min().y + (iy as f64 + 0.5) * b.height() / res,
        )
    }

    /// Lattice indices along one axis whose samples may lie within `r`
    /// of coordinate `c`: a superset, one index wider on each side than
    /// the exact arithmetic needs, that the distance test then filters.
    fn lattice_span(&self, c: f64, r: f64, min: f64, width: f64) -> std::ops::Range<usize> {
        let step = width / self.resolution as f64;
        let lo = ((c - r - min) / step - 0.5).floor() - 1.0;
        let hi = ((c + r - min) / step - 0.5).ceil() + 1.0;
        let clamp = |v: f64| (v.max(0.0) as usize).min(self.resolution);
        clamp(lo)..clamp(hi + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coverage_with_dense_sensors() {
        let b = Bounds::square(100.0);
        // 5×5 grid of sensors with 20 m sensing range covers everything.
        let sensors: Vec<Point> = (0..25)
            .map(|i| Point::new(10.0 + (i % 5) as f64 * 20.0, 10.0 + (i / 5) as f64 * 20.0))
            .collect();
        let alive = vec![true; 25];
        let f = coverage_fraction(&b, &sensors, &alive, 20.0, 50);
        assert!(f > 0.99, "coverage {f}");
    }

    #[test]
    fn no_sensors_no_coverage() {
        let b = Bounds::square(100.0);
        assert_eq!(coverage_fraction(&b, &[], &[], 10.0, 10), 0.0);
    }

    #[test]
    fn dead_sensors_leave_holes() {
        let b = Bounds::square(100.0);
        let sensors: Vec<Point> = (0..25)
            .map(|i| Point::new(10.0 + (i % 5) as f64 * 20.0, 10.0 + (i / 5) as f64 * 20.0))
            .collect();
        let mut alive = vec![true; 25];
        let full = coverage_fraction(&b, &sensors, &alive, 15.0, 60);
        alive[12] = false; // kill the centre sensor
        let holed = coverage_fraction(&b, &sensors, &alive, 15.0, 60);
        assert!(holed < full, "killing a sensor must reduce coverage");
    }

    #[test]
    fn replacement_restores_coverage() {
        let b = Bounds::square(100.0);
        let sensors: Vec<Point> = (0..25)
            .map(|i| Point::new(10.0 + (i % 5) as f64 * 20.0, 10.0 + (i / 5) as f64 * 20.0))
            .collect();
        let mut alive = vec![true; 25];
        let before = coverage_fraction(&b, &sensors, &alive, 15.0, 60);
        alive[7] = false;
        alive[8] = false;
        assert!(coverage_fraction(&b, &sensors, &alive, 15.0, 60) < before);
        alive[7] = true;
        alive[8] = true;
        let after = coverage_fraction(&b, &sensors, &alive, 15.0, 60);
        assert_eq!(after, before, "same-location replacement restores exactly");
    }

    #[test]
    fn prop_gauge_equals_coverage_fraction() {
        // Random fields on the simulators' lattice and range, failed and
        // replaced one sensor at a time; sensor coordinates on a 0.5 m
        // grid put some lattice points exactly at the sensing range.
        use robonet_des::check::{self, Outcome};
        let coord = check::u32s(0..801).map(|&v| f64::from(v) * 0.5);
        let sensors = check::vec_of(check::pair(coord.clone(), coord), 1..40);
        let flips = check::vec_of(check::u32s(0..40), 0..60);
        check::forall_cases(
            "coverage_gauge_equals_coverage_fraction",
            64,
            &check::pair(sensors, flips),
            |(sensors, flips)| {
                let b = Bounds::square(400.0);
                let pts: Vec<Point> = sensors.iter().map(|&(x, y)| Point::new(x, y)).collect();
                let mut alive: Vec<bool> = (0..pts.len()).map(|i| i % 3 != 0).collect();
                let mut gauge =
                    CoverageGauge::new(&b, &pts, &alive, SENSING_RANGE, GRID_RESOLUTION);
                for &f in flips {
                    let i = f as usize % pts.len();
                    alive[i] = !alive[i];
                    gauge.set_alive(pts[i], alive[i]);
                    let want = coverage_fraction(&b, &pts, &alive, SENSING_RANGE, GRID_RESOLUTION);
                    assert_eq!(
                        gauge.fraction().to_bits(),
                        want.to_bits(),
                        "after flipping {i}"
                    );
                }
                Outcome::Pass
            },
        );
    }

    #[test]
    #[should_panic(expected = "pair up")]
    fn mismatched_slices_rejected() {
        let b = Bounds::square(10.0);
        coverage_fraction(&b, &[Point::ZERO], &[], 1.0, 4);
    }
}
