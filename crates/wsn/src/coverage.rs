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

/// The sample points of the coverage lattice that are *not* covered —
/// the holes, for visualisation.
pub fn coverage_holes(
    bounds: &Bounds,
    sensors: &[Point],
    alive: &[bool],
    sensing_range: f64,
    resolution: usize,
) -> Vec<Point> {
    assert_eq!(
        sensors.len(),
        alive.len(),
        "sensors and alive flags must pair up"
    );
    let alive_points: Vec<Point> = sensors
        .iter()
        .zip(alive)
        .filter(|(_, &a)| a)
        .map(|(&p, _)| p)
        .collect();
    let index = if alive_points.is_empty() {
        None
    } else {
        Some(GridIndex::build(
            *bounds,
            sensing_range.max(1.0),
            &alive_points,
        ))
    };
    let mut holes = Vec::new();
    for iy in 0..resolution {
        for ix in 0..resolution {
            let sample = Point::new(
                bounds.min().x + (ix as f64 + 0.5) * bounds.width() / resolution as f64,
                bounds.min().y + (iy as f64 + 0.5) * bounds.height() / resolution as f64,
            );
            let hit = index.as_ref().is_some_and(|idx| {
                let mut h = false;
                idx.for_each_within(sample, sensing_range, |_| h = true);
                h
            });
            if !hit {
                holes.push(sample);
            }
        }
    }
    holes
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
        assert!(coverage_holes(&b, &sensors, &alive, 20.0, 50).is_empty());
    }

    #[test]
    fn no_sensors_no_coverage() {
        let b = Bounds::square(100.0);
        assert_eq!(coverage_fraction(&b, &[], &[], 10.0, 10), 0.0);
        assert_eq!(coverage_holes(&b, &[], &[], 10.0, 10).len(), 100);
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
        let holes = coverage_holes(&b, &sensors, &alive, 15.0, 60);
        assert!(!holes.is_empty());
        // The hole is near the dead sensor (50, 50).
        let centre = Point::new(50.0, 50.0);
        assert!(holes.iter().any(|h| h.distance(centre) < 20.0));
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
    #[should_panic(expected = "pair up")]
    fn mismatched_slices_rejected() {
        let b = Bounds::square(10.0);
        coverage_fraction(&b, &[Point::ZERO], &[], 1.0, 4);
    }
}
