//! Property tests for robot motion and queueing.

use robonet_des::check::{self, Gen, Outcome};

use robonet_des::{NodeId, SimDuration, SimTime};
use robonet_geom::Point;
use robonet_robot::motion::Leg;
use robonet_robot::{ReplacementTask, RobotState};

fn point() -> Gen<Point> {
    check::pair(check::f64s(0.0..1000.0), check::f64s(0.0..1000.0)).map(|&(x, y)| Point::new(x, y))
}

/// The invariant checked by [`leg_position_monotone`], factored out so
/// the saved proptest regression below exercises the identical code.
fn check_leg_position_monotone(from: Point, to: Point, speed: f64) {
    let leg = Leg::new(from, to, SimTime::ZERO, speed);
    let total = leg.distance();
    let mut last_remaining = f64::INFINITY;
    for i in 0..=20 {
        let t = SimTime::from_secs(i as f64 * total / speed / 20.0 + 0.0);
        let p = leg.position_at(t);
        // On segment: dist(from, p) + dist(p, to) ≈ total.
        assert!((from.distance(p) + p.distance(to) - total).abs() < 1e-6);
        let remaining = p.distance(to);
        assert!(remaining <= last_remaining + 1e-9);
        last_remaining = remaining;
    }
    assert_eq!(leg.position_at(leg.arrival()), to);
}

/// Positions along a leg stay on the segment and progress
/// monotonically toward the target.
#[test]
fn leg_position_monotone() {
    check::forall(
        "leg_position_monotone",
        &check::triple(point(), point(), check::f64s(0.1..50.0)),
        |&(from, to, speed)| {
            check_leg_position_monotone(from, to, speed);
            Outcome::Pass
        },
    );
}

/// Regression: a long axis-aligned leg at the minimum speed, found by
/// the retired proptest harness (saved as
/// `prop_motion.proptest-regressions`). Rounding in `position_at` once
/// let the remaining distance tick upward near the arrival time.
#[test]
fn leg_position_monotone_regression_long_slow_leg() {
    check_leg_position_monotone(
        Point::new(810.0964138170168, 0.0),
        Point::new(0.0, 0.0),
        0.1,
    );
}

/// `Leg::position_at` computed from the leg's endpoints alone, with
/// nothing cached: the reference the cached leg must reproduce bit for
/// bit.
fn position_from_scratch(from: Point, to: Point, start: SimTime, speed: f64, t: SimTime) -> Point {
    if t <= start {
        return from;
    }
    let total = from.distance(to);
    if t >= start + SimDuration::from_secs(total / speed) {
        return to;
    }
    if total <= f64::EPSILON {
        return to;
    }
    let travelled = t.duration_since(start).as_secs_f64() * speed;
    if travelled >= total {
        to
    } else {
        from.lerp(to, travelled / total)
    }
}

/// The leg's cached length and arrival equal the from-scratch formulas,
/// and `position_at` equals the from-scratch position at random
/// instants, at the start and at the arrival — zero-length legs
/// included.
#[test]
fn leg_cache_matches_from_scratch() {
    check::forall(
        "leg_cache_matches_from_scratch",
        &check::quad(
            check::pair(point(), check::bools()),
            point(),
            check::pair(
                check::u64s(0..1_000_000_000_000_000),
                check::f64s(0.1..50.0),
            ),
            check::vec_of(check::f64s(0.0..1.2), 0..16),
        ),
        |&((from, zero_length), to, (start_ns, speed), ref fractions)| {
            let to = if zero_length { from } else { to };
            let start = SimTime::from_nanos(start_ns);
            let leg = Leg::new(from, to, start, speed);
            let d = from.distance(to);
            let duration = SimDuration::from_secs(d / speed);
            assert_eq!(leg.distance(), d);
            assert_eq!(leg.duration(), duration);
            assert_eq!(leg.arrival(), start + duration);
            let arrival = start + duration;
            let mut instants = vec![
                SimTime::ZERO,
                start,
                start + SimDuration::from_nanos(1),
                arrival,
                arrival + SimDuration::from_nanos(1),
            ];
            if arrival > start {
                instants.push(arrival - SimDuration::from_nanos(1));
            }
            instants.extend(
                fractions
                    .iter()
                    .map(|&f| start + SimDuration::from_secs(f * duration.as_secs_f64())),
            );
            for t in instants {
                assert_eq!(
                    leg.position_at(t),
                    position_from_scratch(from, to, start, speed, t),
                    "at {t}"
                );
            }
            Outcome::Pass
        },
    );
}

/// Threshold-update points are spaced exactly one threshold apart
/// along the leg and never include the endpoints.
#[test]
fn update_points_spacing() {
    check::forall(
        "update_points_spacing",
        &check::quad(
            point(),
            point(),
            check::f64s(1.0..100.0),
            check::f64s(0.5..10.0),
        ),
        |&(from, to, threshold, speed)| {
            let leg = Leg::new(from, to, SimTime::ZERO, speed);
            let times = leg.update_times(threshold);
            let total = leg.distance();
            let expected = if total <= threshold {
                0
            } else {
                ((total - 1e-9) / threshold).floor() as usize
            };
            assert_eq!(times.len(), expected, "total {total} threshold {threshold}");
            for (i, &t) in times.iter().enumerate() {
                assert!(t > leg.start());
                assert!(t < leg.arrival());
                let travelled = (i + 1) as f64 * threshold;
                let p = leg.position_at(t);
                assert!((from.distance(p) - travelled).abs() < 1e-6);
            }
            Outcome::Pass
        },
    );
}

/// FCFS: tasks complete in the order they were enqueued, and the
/// odometer equals the sum of the leg distances.
#[test]
fn fcfs_order_and_odometer() {
    check::forall(
        "fcfs_order_and_odometer",
        &check::vec_of(point(), 1..12),
        |tasks| {
            let mut robot = RobotState::new(NodeId::new(0), Point::new(500.0, 500.0), 1.0);
            let now = SimTime::ZERO;
            let mut legs = Vec::new();
            for (i, &loc) in tasks.iter().enumerate() {
                let task = ReplacementTask {
                    failed: NodeId::new(i as u32 + 1),
                    loc,
                    dispatched_at: now,
                };
                if let Some(leg) = robot.enqueue(task, now) {
                    legs.push(leg);
                }
            }
            let mut completed = Vec::new();
            let mut expected_dist = 0.0;
            while let Some(leg) = legs.pop() {
                expected_dist += leg.distance();
                let (task, next) = robot.arrive(leg.arrival());
                completed.push(task.failed.as_u32());
                if let Some(n) = next {
                    legs.push(n);
                }
            }
            let expected_order: Vec<u32> = (1..=tasks.len() as u32).collect();
            assert_eq!(completed, expected_order);
            assert!((robot.odometer() - expected_dist).abs() < 1e-9);
            assert!(robot.is_idle());
            Outcome::Pass
        },
    );
}
