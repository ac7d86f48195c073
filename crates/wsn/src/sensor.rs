//! Per-sensor protocol state.
//!
//! Each sensor (paper §2–3) keeps: a beacon-maintained neighbour table;
//! a *guardian* (its nearest neighbour, which watches it) and a set of
//! *guardees* (neighbours it watches); the identity and last known
//! location of the robot it reports failures to (`myrobot`); and flood
//! deduplication state for robot location updates.

use robonet_des::{NodeId, SimDuration, SimTime};
use robonet_geom::Point;
use robonet_net::flood::DedupTable;
use robonet_net::{NeighborTable, SlotRefresh};

/// What re-evaluating guardian health produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GuardianEvent {
    /// The guardian is still beaconing (or none is assigned).
    Healthy,
    /// The guardian went silent; the sensor must select a new one
    /// ("if a guardee has not received any beacon from a guardian for a
    /// certain interval, it ... selects a new guardian from its one-hop
    /// neighbors", §3.1).
    GuardianLost(NodeId),
}

/// Protocol state of one sensor node.
#[derive(Debug, Clone)]
pub struct SensorState {
    /// This sensor's id.
    pub id: NodeId,
    /// Its (fixed) deployment location.
    pub loc: Point,
    /// One-hop neighbours and their advertised locations. Its watch
    /// marks track [`SensorState::guardian`] and
    /// [`SensorState::guardees`], which is why those two change only
    /// through this type's methods.
    pub neighbors: NeighborTable,
    /// The neighbour this sensor chose to watch it.
    guardian: Option<NodeId>,
    /// When the guardian was last heard.
    pub guardian_last_heard: Option<SimTime>,
    /// Nodes this sensor watches, with the time each was last heard,
    /// sorted by id (a sensor watches a handful of neighbours, so a
    /// sorted vec beats a tree on the per-beacon refresh path).
    guardees: Vec<(NodeId, SimTime)>,
    /// The robot this sensor reports failures to, with its last known
    /// location — always the closest robot among [`SensorState::robot_locs`].
    pub myrobot: Option<(NodeId, Point)>,
    /// Last known location of every robot this sensor has heard about
    /// (from location-update floods and robot hellos), sorted by robot
    /// id. The dynamic algorithm's `myrobot` is the closest of these,
    /// so a receding robot is replaced by a previously heard closer one.
    pub robot_locs: Vec<(NodeId, Point)>,
    /// The central manager's identity and location (centralized
    /// algorithm only).
    pub manager: Option<(NodeId, Point)>,
    /// Flood deduplication for robot location updates.
    pub dedup: DedupTable,
    /// Per-guardee report backoff: a failure already reported is not
    /// re-reported until this time, so an in-progress repair is not
    /// spammed but a lost report eventually retries.
    reported_until: Vec<(NodeId, SimTime)>,
    /// Per-guardee report attempt counts (only populated when the fault
    /// layer's bounded-retry protocol is active).
    report_attempts: Vec<(NodeId, u32)>,
}

impl SensorState {
    /// Creates a fresh sensor at `loc`.
    pub fn new(id: NodeId, loc: Point) -> Self {
        SensorState {
            id,
            loc,
            neighbors: NeighborTable::new(),
            guardian: None,
            guardian_last_heard: None,
            guardees: Vec::new(),
            myrobot: None,
            manager: None,
            dedup: DedupTable::new(),
            robot_locs: Vec::new(),
            reported_until: Vec::new(),
            report_attempts: Vec::new(),
        }
    }

    /// The neighbour this sensor chose to watch it.
    pub fn guardian(&self) -> Option<NodeId> {
        self.guardian
    }

    /// Nodes this sensor watches, with the time each was last heard,
    /// sorted by id.
    pub fn guardees(&self) -> &[(NodeId, SimTime)] {
        &self.guardees
    }

    /// Gives the neighbour table one slot per sensor in `ids` (the
    /// sensors within range, ascending; see
    /// [`NeighborTable::init_slots`]) and marks the watched ones.
    pub fn init_slots(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        self.neighbors.init_slots(ids);
        if let Some(g) = self.guardian {
            self.neighbors.set_watched(g, true);
        }
        for &(g, _) in &self.guardees {
            self.neighbors.set_watched(g, true);
        }
    }

    /// Re-derives `node`'s watch mark after the guardian or the guardee
    /// set changed.
    fn rewatch(&mut self, node: NodeId) {
        let watched = self.guardian == Some(node)
            || self
                .guardees
                .binary_search_by_key(&node, |&(id, _)| id)
                .is_ok();
        self.neighbors.set_watched(node, watched);
    }

    /// Records hearing `from` at `loc` (beacon or location broadcast).
    /// Refreshes the neighbour table, the guardee timer if `from` is a
    /// guardee, and the guardian timer if `from` is the guardian.
    pub fn hear(&mut self, from: NodeId, loc: Point, now: SimTime) {
        self.neighbors.update(from, loc, now);
        self.heard_watched(from, now);
    }

    /// [`SensorState::hear`] for a beacon from in-range sensor `from`,
    /// whose neighbour-table slot is `slot` (see
    /// [`NeighborTable::init_slots`]): a present slot is refreshed by
    /// its index, with the watch timers updated only if `from` is
    /// watched; an absent one takes the general path. Same effect as
    /// `hear`.
    pub fn hear_slot(&mut self, slot: usize, from: NodeId, loc: Point, now: SimTime) {
        match self.neighbors.refresh_slot(slot, loc, now) {
            SlotRefresh::Refreshed => {}
            SlotRefresh::Watched => self.heard_watched(from, now),
            SlotRefresh::Absent => self.hear(from, loc, now),
        }
    }

    /// The watch-timer part of hearing `from` at `now`: a guardee's
    /// last-heard time (clearing its report backoff and attempt count)
    /// and the guardian's.
    fn heard_watched(&mut self, from: NodeId, now: SimTime) {
        if let Ok(i) = self.guardees.binary_search_by_key(&from, |&(id, _)| id) {
            self.guardees[i].1 = now;
            if let Ok(j) = self
                .reported_until
                .binary_search_by_key(&from, |&(id, _)| id)
            {
                self.reported_until.remove(j);
            }
            if let Ok(j) = self
                .report_attempts
                .binary_search_by_key(&from, |&(id, _)| id)
            {
                self.report_attempts.remove(j);
            }
        }
        if self.guardian == Some(from) {
            self.guardian_last_heard = Some(now);
        }
    }

    /// Selects the nearest neighbour passing `filter` as the new
    /// guardian and returns it (§3.1: "picks its nearest neighbor as its
    /// guardian"). The caller is responsible for sending the
    /// confirmation message that makes this sensor the guardian's
    /// guardee.
    pub fn pick_guardian(
        &mut self,
        now: SimTime,
        filter: impl FnMut(NodeId) -> bool,
    ) -> Option<NodeId> {
        let pick = self.neighbors.nearest(self.loc, filter);
        let old = std::mem::replace(&mut self.guardian, pick);
        self.guardian_last_heard = pick.map(|_| now);
        for node in [old, pick].into_iter().flatten() {
            self.rewatch(node);
        }
        pick
    }

    /// Accepts a guardian-confirmation from `from`: this sensor now
    /// watches `from`.
    pub fn add_guardee(&mut self, from: NodeId, now: SimTime) {
        match self.guardees.binary_search_by_key(&from, |&(id, _)| id) {
            Ok(i) => self.guardees[i].1 = now,
            Err(i) => self.guardees.insert(i, (from, now)),
        }
        self.neighbors.set_watched(from, true);
    }

    /// Stops watching `node` (it failed and was reported, or re-homed).
    /// Returns `true` if it was a guardee.
    pub fn remove_guardee(&mut self, node: NodeId) -> bool {
        if let Ok(i) = self
            .reported_until
            .binary_search_by_key(&node, |&(id, _)| id)
        {
            self.reported_until.remove(i);
        }
        if let Ok(i) = self
            .report_attempts
            .binary_search_by_key(&node, |&(id, _)| id)
        {
            self.report_attempts.remove(i);
        }
        match self.guardees.binary_search_by_key(&node, |&(id, _)| id) {
            Ok(i) => {
                self.guardees.remove(i);
                self.rewatch(node);
                true
            }
            Err(_) => false,
        }
    }

    /// Returns `true` if a silent guardee should be reported now — i.e.
    /// it has not already been reported within the retry window.
    pub fn should_report(&self, guardee: NodeId, now: SimTime) -> bool {
        match self
            .reported_until
            .binary_search_by_key(&guardee, |&(id, _)| id)
        {
            Ok(i) => now >= self.reported_until[i].1,
            Err(_) => true,
        }
    }

    /// Records that `guardee`'s failure was reported; it will not be
    /// reported again before `now + retry`.
    pub fn mark_reported(&mut self, guardee: NodeId, now: SimTime, retry: SimDuration) {
        match self
            .reported_until
            .binary_search_by_key(&guardee, |&(id, _)| id)
        {
            Ok(i) => self.reported_until[i].1 = now + retry,
            Err(i) => self.reported_until.insert(i, (guardee, now + retry)),
        }
    }

    /// Increments and returns the 1-based report attempt count for
    /// `guardee` — the fault layer's bounded-retry bookkeeping. Cleared
    /// when the guardee is heard again, removed, or this sensor is
    /// replaced.
    pub fn note_report_attempt(&mut self, guardee: NodeId) -> u32 {
        match self
            .report_attempts
            .binary_search_by_key(&guardee, |&(id, _)| id)
        {
            Ok(i) => {
                self.report_attempts[i].1 += 1;
                self.report_attempts[i].1
            }
            Err(i) => {
                self.report_attempts.insert(i, (guardee, 1));
                1
            }
        }
    }

    /// Guardees whose beacons have been silent for at least `timeout`
    /// ("three beaconing periods in our study"). The caller reports each
    /// failure and then calls [`SensorState::remove_guardee`].
    pub fn silent_guardees(&self, now: SimTime, timeout: SimDuration) -> Vec<NodeId> {
        self.guardees
            .iter()
            .filter(|&&(_, last)| now.saturating_duration_since(last) >= timeout)
            .map(|&(id, _)| id)
            .collect()
    }

    /// Checks guardian health: lost if silent for `timeout`.
    pub fn check_guardian(&self, now: SimTime, timeout: SimDuration) -> GuardianEvent {
        match (self.guardian, self.guardian_last_heard) {
            (Some(g), Some(last)) if now.saturating_duration_since(last) >= timeout => {
                GuardianEvent::GuardianLost(g)
            }
            _ => GuardianEvent::Healthy,
        }
    }

    /// Processes a neighbour's confirmed failure: evicts it from the
    /// neighbour table ("when a node detects a neighbor sensor node's
    /// failure, it deletes the failed neighbor from its neighbor table",
    /// §4.2(a)), the guardee set, and — if it was the guardian — clears
    /// the guardian slot. Returns `true` if a new guardian is needed.
    pub fn forget_failed_neighbor(&mut self, node: NodeId) -> bool {
        self.neighbors.remove(node);
        if let Ok(i) = self.guardees.binary_search_by_key(&node, |&(id, _)| id) {
            self.guardees.remove(i);
        }
        if let Ok(i) = self
            .report_attempts
            .binary_search_by_key(&node, |&(id, _)| id)
        {
            self.report_attempts.remove(i);
        }
        let was_guardian = self.guardian == Some(node);
        if was_guardian {
            self.guardian = None;
            self.guardian_last_heard = None;
        }
        self.rewatch(node);
        was_guardian
    }

    /// Like [`SensorState::forget_failed_neighbor`] but *keeps watching*
    /// the failed node: it stays a guardee so the retry window can fire
    /// again if the report is lost. Used by the fault layer's bounded
    /// retry protocol; routing state (neighbour table, guardian slot) is
    /// scrubbed exactly as in the fault-free path. Returns `true` if a
    /// new guardian is needed.
    pub fn scrub_failed_neighbor(&mut self, node: NodeId) -> bool {
        self.neighbors.remove(node);
        if self.guardian == Some(node) {
            self.guardian = None;
            self.guardian_last_heard = None;
            self.rewatch(node);
            true
        } else {
            false
        }
    }

    /// Considers a robot location update: records `robot`'s new position
    /// and re-evaluates `myrobot` as the closest known robot ("the nodes
    /// update their myrobots dynamically to be the closest robot",
    /// §3.3). Returns `true` if the update is *relevant* to this sensor:
    /// `myrobot` changed, or the updating robot is (still) `myrobot` —
    /// exactly the cases in which the sensor must relay the update so
    /// the rest of the cell keeps tracking its manager.
    pub fn consider_robot(&mut self, robot: NodeId, loc: Point) -> bool {
        match self.robot_locs.binary_search_by_key(&robot, |&(id, _)| id) {
            Ok(i) => self.robot_locs[i].1 = loc,
            Err(i) => self.robot_locs.insert(i, (robot, loc)),
        }
        // `myrobot` is maintained incrementally: a full argmin scan is
        // only needed when the current myrobot itself recedes.
        let Some((cur_id, cur_loc)) = self.myrobot else {
            self.myrobot = Some((robot, loc));
            return true;
        };
        let d_new = self.loc.distance_sq(loc);
        if robot == cur_id {
            if d_new <= self.loc.distance_sq(cur_loc) {
                // Moved closer (or held): every other robot was already
                // farther than the old position, so it stays myrobot.
                self.myrobot = Some((robot, loc));
            } else {
                self.recompute_myrobot();
            }
            // The updating robot was myrobot (and may still be): the
            // update is relevant either way.
            return true;
        }
        let d_cur = self.loc.distance_sq(cur_loc);
        if d_new < d_cur || (d_new == d_cur && robot < cur_id) {
            self.myrobot = Some((robot, loc));
            return true;
        }
        // A robot that was not myrobot and did not beat it cannot change
        // the argmin.
        false
    }

    /// Forgets one robot (presumed broken down): removes it from the
    /// known locations and re-evaluates `myrobot` as the closest
    /// remaining robot. Returns `true` if `myrobot` changed.
    pub fn forget_robot(&mut self, robot: NodeId) -> bool {
        let Ok(i) = self.robot_locs.binary_search_by_key(&robot, |&(id, _)| id) else {
            return false;
        };
        self.robot_locs.remove(i);
        if self.myrobot.map(|(id, _)| id) == Some(robot) {
            self.recompute_myrobot();
            true
        } else {
            false
        }
    }

    /// `myrobot` := argmin over remembered robot locations (ties broken
    /// by id for determinism).
    fn recompute_myrobot(&mut self) {
        let me = self.loc;
        self.myrobot = self
            .robot_locs
            .iter()
            .min_by(|(a_id, a), (b_id, b)| {
                me.distance_sq(*a)
                    .partial_cmp(&me.distance_sq(*b))
                    .expect("finite robot location")
                    .then(a_id.cmp(b_id))
            })
            .copied();
    }

    /// Resets protocol state for a replacement node installed at the
    /// same location ("replacement nodes are at the same locations as
    /// the corresponding failed nodes", §2(d)). Identity and location
    /// are retained; everything learned is forgotten.
    pub fn reset_for_replacement(&mut self) {
        self.neighbors.clear();
        self.guardian = None;
        self.guardian_last_heard = None;
        self.guardees.clear();
        self.reported_until.clear();
        self.report_attempts.clear();
        self.myrobot = None;
        self.robot_locs.clear();
        self.manager = None;
        self.dedup.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn d(s: f64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn n(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn sensor_with_neighbors() -> SensorState {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        s.hear(n(1), p(10.0, 0.0), t(0.0));
        s.hear(n(2), p(5.0, 0.0), t(0.0));
        s.hear(n(3), p(50.0, 0.0), t(0.0));
        s
    }

    #[test]
    fn picks_nearest_neighbor_as_guardian() {
        let mut s = sensor_with_neighbors();
        assert_eq!(s.pick_guardian(t(1.0), |_| true), Some(n(2)));
        assert_eq!(s.guardian, Some(n(2)));
        assert_eq!(s.guardian_last_heard, Some(t(1.0)));
    }

    #[test]
    fn guardian_filter_respected() {
        let mut s = sensor_with_neighbors();
        // e.g. fixed algorithm: node 2 is across a subarea border.
        assert_eq!(s.pick_guardian(t(0.0), |id| id != n(2)), Some(n(1)));
    }

    #[test]
    fn guardee_timeout_detection() {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        s.add_guardee(n(5), t(0.0));
        s.add_guardee(n(6), t(0.0));
        // n(5) beacons at t=25, n(6) stays silent.
        s.hear(n(5), p(1.0, 1.0), t(25.0));
        assert!(s.silent_guardees(t(29.0), d(30.0)).is_empty());
        assert_eq!(s.silent_guardees(t(31.0), d(30.0)), vec![n(6)]);
        assert!(s.remove_guardee(n(6)));
        assert!(s.silent_guardees(t(31.0), d(30.0)).is_empty());
    }

    #[test]
    fn hearing_a_guardee_refreshes_its_timer() {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        s.add_guardee(n(5), t(0.0));
        for k in 1..10 {
            s.hear(n(5), p(1.0, 1.0), t(k as f64 * 10.0));
        }
        assert!(s.silent_guardees(t(95.0), d(30.0)).is_empty());
    }

    #[test]
    fn guardian_loss_detected_and_replaced() {
        let mut s = sensor_with_neighbors();
        s.pick_guardian(t(0.0), |_| true);
        assert_eq!(s.check_guardian(t(10.0), d(30.0)), GuardianEvent::Healthy);
        s.hear(n(2), p(5.0, 0.0), t(10.0)); // guardian beacon refreshes timer
        assert_eq!(s.check_guardian(t(39.0), d(30.0)), GuardianEvent::Healthy);
        assert_eq!(
            s.check_guardian(t(40.0), d(30.0)),
            GuardianEvent::GuardianLost(n(2))
        );
        // After forgetting the failed guardian, the next nearest becomes
        // the new guardian.
        assert!(s.forget_failed_neighbor(n(2)));
        assert_eq!(s.pick_guardian(t(40.0), |_| true), Some(n(1)));
    }

    #[test]
    fn forget_failed_neighbor_scrubs_state() {
        let mut s = sensor_with_neighbors();
        s.add_guardee(n(1), t(0.0));
        assert!(!s.forget_failed_neighbor(n(1)), "guardee, not guardian");
        assert!(!s.neighbors.contains(n(1)));
        assert!(!s.guardees.iter().any(|&(id, _)| id == n(1)));
    }

    #[test]
    fn myrobot_is_always_the_closest_known_robot() {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        assert!(
            s.consider_robot(n(100), p(100.0, 0.0)),
            "first robot adopted"
        );
        assert!(
            !s.consider_robot(n(101), p(200.0, 0.0)),
            "farther robot: myrobot unchanged and update irrelevant"
        );
        assert_eq!(s.myrobot.unwrap().0, n(100));
        assert!(
            s.consider_robot(n(101), p(50.0, 0.0)),
            "closer robot adopted"
        );
        assert_eq!(s.myrobot.unwrap().0, n(101));
        // When my robot recedes, a previously heard closer robot takes
        // over *immediately* — the receding update is still relevant
        // (myrobot changed).
        assert!(s.consider_robot(n(101), p(300.0, 0.0)));
        assert_eq!(
            s.myrobot.unwrap(),
            (n(100), p(100.0, 0.0)),
            "argmin over remembered robot locations"
        );
        // A refresh from the current myrobot is relevant even when
        // nothing changes.
        assert!(s.consider_robot(n(100), p(101.0, 0.0)));
    }

    #[test]
    fn report_attempts_count_and_clear_on_hearing() {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        s.add_guardee(n(5), t(0.0));
        assert_eq!(s.note_report_attempt(n(5)), 1);
        assert_eq!(s.note_report_attempt(n(5)), 2);
        assert_eq!(s.note_report_attempt(n(5)), 3);
        // The guardee comes back (replacement beacon): the count resets.
        s.hear(n(5), p(1.0, 1.0), t(50.0));
        assert_eq!(s.note_report_attempt(n(5)), 1);
        // Removing the guardee also clears the count.
        s.remove_guardee(n(5));
        assert_eq!(s.note_report_attempt(n(5)), 1);
    }

    #[test]
    fn scrub_keeps_the_watch_but_cleans_routing_state() {
        let mut s = sensor_with_neighbors();
        s.pick_guardian(t(0.0), |_| true); // n(2)
        s.add_guardee(n(2), t(0.0));
        assert!(s.scrub_failed_neighbor(n(2)), "guardian slot cleared");
        assert!(!s.neighbors.contains(n(2)), "routing no longer sees it");
        assert!(
            s.guardees.iter().any(|&(id, _)| id == n(2)),
            "still watched so the retry window can fire"
        );
        assert!(!s.scrub_failed_neighbor(n(1)), "non-guardian: no repick");
    }

    #[test]
    fn forgetting_a_robot_reassigns_myrobot() {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        s.consider_robot(n(100), p(10.0, 0.0));
        s.consider_robot(n(101), p(50.0, 0.0));
        assert_eq!(s.myrobot.unwrap().0, n(100));
        assert!(s.forget_robot(n(100)), "myrobot changed");
        assert_eq!(s.myrobot.unwrap(), (n(101), p(50.0, 0.0)));
        assert!(!s.forget_robot(n(100)), "already forgotten");
        assert!(s.forget_robot(n(101)));
        assert!(s.myrobot.is_none(), "no robots left");
    }

    #[test]
    fn prop_slot_refresh_is_hear_for_unwatched_neighbors() {
        // Two copies of one sensor see the same protocol steps; beacons
        // from in-range sensors reach the first through `hear_slot` and
        // the second through `hear` alone. Watch marks must keep them
        // identical.
        use robonet_des::check::{self, Outcome};
        let op = check::triple(check::u32s(0..10), check::u32s(1..9), check::u32s(0..50));
        check::forall_cases(
            "slot_refresh_is_hear_for_unwatched_neighbors",
            512,
            &check::pair(check::vec_of(op, 0..80), check::u32s(0..80)),
            |(ops, init_at)| {
                // Sensors 1..=6 are in range (slots); 7 and 8 stand for a
                // robot and the manager.
                let in_range: Vec<NodeId> = (1..=6).map(n).collect();
                let mut fast = SensorState::new(n(0), p(0.0, 0.0));
                let mut slow = fast.clone();
                for (step, &(kind, id, tick)) in ops.iter().enumerate() {
                    if step == *init_at as usize {
                        fast.init_slots(in_range.iter().copied());
                        slow.init_slots(in_range.iter().copied());
                    }
                    let (node, now) = (n(id), t(f64::from(tick)));
                    let loc = p(f64::from(id), f64::from(tick % 7));
                    match kind {
                        0..=2 => {
                            match in_range.iter().position(|&x| x == node) {
                                Some(k) if fast.neighbors.has_slots() => {
                                    fast.hear_slot(k, node, loc, now)
                                }
                                _ => fast.hear(node, loc, now),
                            }
                            slow.hear(node, loc, now);
                        }
                        3 => {
                            fast.add_guardee(node, now);
                            slow.add_guardee(node, now);
                        }
                        4 => {
                            assert_eq!(fast.remove_guardee(node), slow.remove_guardee(node));
                        }
                        5 => {
                            let f = |x: NodeId| x.as_u32() % 3 != tick % 3;
                            assert_eq!(fast.pick_guardian(now, f), slow.pick_guardian(now, f));
                        }
                        6 => {
                            assert_eq!(
                                fast.forget_failed_neighbor(node),
                                slow.forget_failed_neighbor(node)
                            );
                        }
                        7 => {
                            assert_eq!(
                                fast.scrub_failed_neighbor(node),
                                slow.scrub_failed_neighbor(node)
                            );
                        }
                        8 => {
                            fast.mark_reported(node, now, d(5.0));
                            slow.mark_reported(node, now, d(5.0));
                            fast.note_report_attempt(node);
                            slow.note_report_attempt(node);
                        }
                        _ if tick % 2 == 0 => {
                            fast.reset_for_replacement();
                            slow.reset_for_replacement();
                        }
                        _ => {
                            fast.neighbors.evict_stale(now);
                            slow.neighbors.evict_stale(now);
                        }
                    }
                    assert_eq!(format!("{fast:?}"), format!("{slow:?}"), "step {step}");
                }
                Outcome::Pass
            },
        );
    }

    #[test]
    fn prop_hear_slot_equals_hear() {
        // A random sensor — which in-range sensors 1..=8 its table holds,
        // which it watches as guardees, its guardian, report backoffs and
        // attempt counts on any of them, slots allocated before or after
        // the watching started — hears one beacon from an in-range
        // sensor through `hear_slot` and, on a copy, through `hear`.
        use robonet_des::check::{self, Outcome};
        let masks = check::quad(
            check::u32s(0..256),
            check::u32s(0..256),
            check::u32s(0..256),
            check::u32s(0..256),
        );
        let beacon = check::quad(
            check::u32s(0..10),
            check::u32s(1..9),
            check::u32s(0..60),
            check::bools(),
        );
        check::forall(
            "hear_slot_equals_hear",
            &check::pair(masks, beacon),
            |&((present, guardees, reported, attempts), (guardian, from, tick, slots_first))| {
                let bit = |mask: u32, id: u32| mask & (1 << (id - 1)) != 0;
                let in_range = || (1..=8).map(n);
                let mut s = SensorState::new(n(0), p(0.0, 0.0));
                if slots_first {
                    s.init_slots(in_range());
                }
                for id in (1..=8).filter(|&id| bit(present, id)) {
                    s.hear(n(id), p(f64::from(id), 1.0), t(1.0));
                }
                s.hear(n(20), p(3.0, 3.0), t(1.0)); // a robot: never slotted
                for id in (1..=8).filter(|&id| bit(guardees, id)) {
                    s.add_guardee(n(id), t(2.0));
                }
                s.pick_guardian(t(2.5), |x| x == n(guardian));
                for id in (1..=8).filter(|&id| bit(reported, id)) {
                    s.mark_reported(n(id), t(3.0), d(5.0));
                }
                for id in (1..=8).filter(|&id| bit(attempts, id)) {
                    s.note_report_attempt(n(id));
                }
                if !slots_first {
                    s.init_slots(in_range());
                }
                let (loc, now) = (p(f64::from(tick), 2.0), t(10.0 + f64::from(tick)));
                let mut fast = s.clone();
                fast.hear_slot(from as usize - 1, n(from), loc, now);
                s.hear(n(from), loc, now);
                assert_eq!(format!("{fast:?}"), format!("{s:?}"));
                Outcome::Pass
            },
        );
    }

    #[test]
    fn hear_slot_runs_a_watched_neighbors_timers() {
        let mut s = SensorState::new(n(0), p(0.0, 0.0));
        s.init_slots([1, 2, 3].map(n));
        s.hear(n(2), p(5.0, 0.0), t(0.0));
        s.hear(n(3), p(9.0, 0.0), t(0.0));
        s.add_guardee(n(2), t(0.0));
        s.pick_guardian(t(0.0), |x| x == n(3));
        s.mark_reported(n(2), t(1.0), d(100.0));
        s.note_report_attempt(n(2));
        s.hear_slot(1, n(2), p(5.5, 0.0), t(7.0));
        assert_eq!(s.guardees(), &[(n(2), t(7.0))]);
        assert!(s.should_report(n(2), t(8.0)), "backoff cleared");
        assert_eq!(s.note_report_attempt(n(2)), 1, "attempts cleared");
        assert_eq!(s.neighbors.get(n(2)).unwrap().loc, p(5.5, 0.0));
        s.hear_slot(2, n(3), p(9.0, 1.0), t(8.0));
        assert_eq!(s.guardian_last_heard, Some(t(8.0)));
        // Absent slot: the general path inserts it.
        s.hear_slot(0, n(1), p(1.0, 0.0), t(9.0));
        assert_eq!(s.neighbors.get(n(1)).unwrap().last_heard, t(9.0));
    }

    #[test]
    fn replacement_resets_learned_state() {
        let mut s = sensor_with_neighbors();
        s.pick_guardian(t(0.0), |_| true);
        s.add_guardee(n(1), t(0.0));
        s.consider_robot(n(100), p(10.0, 10.0));
        s.reset_for_replacement();
        assert!(s.neighbors.is_empty());
        assert!(s.guardian.is_none());
        assert!(s.guardees.is_empty());
        assert!(s.myrobot.is_none());
        assert_eq!(s.loc, p(0.0, 0.0), "same location as the failed node");
        assert_eq!(s.id, n(0), "same identity");
    }
}
