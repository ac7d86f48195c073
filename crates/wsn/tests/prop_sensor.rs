//! Property tests for sensor protocol state.

use robonet_des::check::{self, Gen, Outcome};

use robonet_des::{NodeId, SimDuration, SimTime};
use robonet_geom::{Bounds, Point};
use robonet_wsn::coverage::coverage_fraction;
use robonet_wsn::SensorState;

fn point() -> Gen<Point> {
    check::pair(check::f64s(0.0..500.0), check::f64s(0.0..500.0)).map(|&(x, y)| Point::new(x, y))
}

/// The chosen guardian is the nearest neighbour among candidates —
/// never a filtered-out node, never farther than another candidate.
#[test]
fn guardian_is_nearest_candidate() {
    check::forall(
        "guardian_is_nearest_candidate",
        &check::triple(
            point(),
            check::vec_of(point(), 1..20),
            check::vec_of(check::bools(), 1..20),
        ),
        |(me, neighbors, banned_mask)| {
            let me = *me;
            let mut s = SensorState::new(NodeId::new(0), me);
            for (i, &loc) in neighbors.iter().enumerate() {
                s.hear(NodeId::new(i as u32 + 1), loc, SimTime::ZERO);
            }
            let banned: std::collections::HashSet<u32> = banned_mask
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i as u32 + 1)
                .collect();
            let pick = s.pick_guardian(SimTime::ZERO, |id| !banned.contains(&id.as_u32()));
            match pick {
                Some(g) => {
                    assert!(!banned.contains(&g.as_u32()));
                    let gd = neighbors[g.index() - 1].distance(me);
                    for (i, &loc) in neighbors.iter().enumerate() {
                        let id = i as u32 + 1;
                        if !banned.contains(&id) {
                            assert!(loc.distance(me) >= gd - 1e-9);
                        }
                    }
                }
                None => {
                    // Only possible when every neighbour is banned.
                    for i in 1..=neighbors.len() as u32 {
                        assert!(banned.contains(&i));
                    }
                }
            }
            Outcome::Pass
        },
    );
}

/// Guardee silence detection is exact: silent iff no beacon within
/// the timeout.
#[test]
fn silence_detection_exact() {
    check::forall(
        "silence_detection_exact",
        &check::triple(
            check::vec_of(check::f64s(0.0..100.0), 1..20),
            check::f64s(0.0..200.0),
            check::f64s(1.0..50.0),
        ),
        |(beacon_times, check_at, timeout_s)| {
            let (check_at, timeout_s) = (*check_at, *timeout_s);
            let mut s = SensorState::new(NodeId::new(0), Point::ZERO);
            let guardee = NodeId::new(7);
            s.add_guardee(guardee, SimTime::ZERO);
            let mut last = 0.0f64;
            let mut times = beacon_times.clone();
            times.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for &t in &times {
                if t <= check_at {
                    s.hear(guardee, Point::new(1.0, 1.0), SimTime::from_secs(t));
                    last = last.max(t);
                }
            }
            let now = SimTime::from_secs(check_at.max(last));
            let silent = s.silent_guardees(now, SimDuration::from_secs(timeout_s));
            let expected_silent = now.as_secs_f64() - last >= timeout_s - 1e-9;
            assert_eq!(silent.contains(&guardee), expected_silent);
            Outcome::Pass
        },
    );
}

/// myrobot is always the argmin of the remembered robot locations.
#[test]
fn myrobot_is_argmin() {
    check::forall(
        "myrobot_is_argmin",
        &check::pair(
            point(),
            check::vec_of(check::pair(check::u32s(0..6), point()), 1..40),
        ),
        |(me, updates)| {
            let me = *me;
            let mut s = SensorState::new(NodeId::new(0), me);
            let mut truth: std::collections::HashMap<u32, Point> = Default::default();
            for &(r, loc) in updates {
                s.consider_robot(NodeId::new(100 + r), loc);
                truth.insert(100 + r, loc);
            }
            let (my, _) = s.myrobot.expect("at least one robot known");
            let my_d = truth[&my.as_u32()].distance(me);
            for (_, &loc) in truth.iter() {
                assert!(loc.distance(me) >= my_d - 1e-9);
            }
            Outcome::Pass
        },
    );
}

/// Coverage is monotone in the alive set: killing sensors never
/// increases coverage; reviving restores it exactly.
#[test]
fn coverage_monotone() {
    check::forall(
        "coverage_monotone",
        &check::pair(check::vec_of(point(), 1..60), check::usizes(0..1 << 32)),
        |(sensors, kill)| {
            let b = Bounds::square(500.0);
            let alive = vec![true; sensors.len()];
            let full = coverage_fraction(&b, sensors, &alive, 63.0, 40);
            let mut one_dead = alive.clone();
            one_dead[kill % sensors.len()] = false;
            let reduced = coverage_fraction(&b, sensors, &one_dead, 63.0, 40);
            assert!(reduced <= full + 1e-12);
            let restored = coverage_fraction(&b, sensors, &alive, 63.0, 40);
            assert_eq!(restored, full);
            Outcome::Pass
        },
    );
}

/// Replacement resets protocol state but never identity/location.
#[test]
fn replacement_reset_is_complete() {
    check::forall(
        "replacement_reset_is_complete",
        &check::pair(point(), check::vec_of(point(), 1..10)),
        |(me, neighbors)| {
            let me = *me;
            let mut s = SensorState::new(NodeId::new(3), me);
            for (i, &loc) in neighbors.iter().enumerate() {
                s.hear(NodeId::new(i as u32 + 10), loc, SimTime::from_secs(1.0));
            }
            s.pick_guardian(SimTime::from_secs(1.0), |_| true);
            s.add_guardee(NodeId::new(10), SimTime::from_secs(1.0));
            s.consider_robot(NodeId::new(200), Point::ZERO);
            s.reset_for_replacement();
            assert_eq!(s.id, NodeId::new(3));
            assert_eq!(s.loc, me);
            assert!(s.neighbors.is_empty());
            assert!(s.guardian().is_none());
            assert!(s.guardees().is_empty());
            assert!(s.myrobot.is_none());
            assert!(s.robot_locs.is_empty());
            Outcome::Pass
        },
    );
}
