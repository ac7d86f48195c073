//! Per-robot maintenance state: the FCFS task queue and motion status.

use std::collections::VecDeque;

use robonet_des::{NodeId, SimTime};
use robonet_geom::Point;

use crate::motion::Leg;

/// A pending node replacement ("upon receiving the request to replace a
/// failed node, a robot moves to the failed node's location and replaces
/// it by a functional one", paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReplacementTask {
    /// The failed sensor to replace.
    pub failed: NodeId,
    /// Where it is (replacements are installed at the same location,
    /// §2(d)).
    pub loc: Point,
    /// When the manager dispatched the task (for repair-delay metrics).
    pub dispatched_at: SimTime,
}

#[derive(Debug, Clone)]
enum Activity {
    Idle { at: Point },
    Moving { leg: Leg, task: ReplacementTask },
}

/// A maintenance robot: current position/motion, FCFS queue of
/// replacement tasks, odometer, and spare-node inventory.
///
/// ```
/// use robonet_des::{NodeId, SimTime};
/// use robonet_geom::Point;
/// use robonet_robot::{ReplacementTask, RobotState};
///
/// let mut robot = RobotState::new(NodeId::new(100), Point::ZERO, 1.0);
/// let task = ReplacementTask {
///     failed: NodeId::new(7),
///     loc: Point::new(100.0, 0.0),
///     dispatched_at: SimTime::ZERO,
/// };
/// let leg = robot.enqueue(task, SimTime::ZERO).expect("idle robot departs");
/// assert_eq!(leg.arrival(), SimTime::from_secs(100.0)); // 100 m at 1 m/s
/// let (done, next) = robot.arrive(leg.arrival());
/// assert_eq!(done.failed, NodeId::new(7));
/// assert!(next.is_none());
/// assert_eq!(robot.odometer(), 100.0);
/// ```
#[derive(Debug, Clone)]
pub struct RobotState {
    /// The robot's node id.
    pub id: NodeId,
    activity: Activity,
    queue: VecDeque<ReplacementTask>,
    speed: f64,
    odometer: f64,
    /// Where this robot last broadcast its location from (drives the
    /// 20 m update-threshold logic in the harness).
    pub last_update_loc: Point,
    /// Spare functional nodes on board; `None` models an unlimited
    /// supply (the paper does not model depletion).
    pub spares: Option<u32>,
    /// Location-update sequence counter (flooded updates are
    /// deduplicated per origin and sequence number).
    next_seq: u32,
}

impl RobotState {
    /// Creates an idle robot at `at` travelling at `speed` m/s (the
    /// paper uses 1 m/s).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    pub fn new(id: NodeId, at: Point, speed: f64) -> Self {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        RobotState {
            id,
            activity: Activity::Idle { at },
            queue: VecDeque::new(),
            speed,
            odometer: 0.0,
            last_update_loc: at,
            spares: None,
            next_seq: 0,
        }
    }

    /// Travel speed in m/s.
    pub fn speed(&self) -> f64 {
        self.speed
    }

    /// Changes the travel speed (fault layer: degraded/repaired robots).
    /// Takes effect on the next leg; call [`RobotState::interrupt`]
    /// first to re-plan a leg already under way.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not finite and positive.
    pub fn set_speed(&mut self, speed: f64) {
        assert!(speed.is_finite() && speed > 0.0, "speed must be positive");
        self.speed = speed;
    }

    /// Total distance travelled so far, in metres — the paper's motion
    /// overhead numerator.
    pub fn odometer(&self) -> f64 {
        self.odometer
    }

    /// Position at time `now` (interpolated along the current leg while
    /// moving).
    pub fn position_at(&self, now: SimTime) -> Point {
        match &self.activity {
            Activity::Idle { at } => *at,
            Activity::Moving { leg, .. } => leg.position_at(now),
        }
    }

    /// The current motion leg, if moving.
    pub fn current_leg(&self) -> Option<&Leg> {
        match &self.activity {
            Activity::Idle { .. } => None,
            Activity::Moving { leg, .. } => Some(leg),
        }
    }

    /// The task being executed, if moving.
    pub fn current_task(&self) -> Option<&ReplacementTask> {
        match &self.activity {
            Activity::Idle { .. } => None,
            Activity::Moving { task, .. } => Some(task),
        }
    }

    /// Whether the robot is parked with an empty queue.
    pub fn is_idle(&self) -> bool {
        matches!(self.activity, Activity::Idle { .. }) && self.queue.is_empty()
    }

    /// Pending tasks (excluding the one being executed).
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Tasks dispatched to this robot and not yet installed: the queue
    /// plus the one being driven to.
    pub fn outstanding_tasks(&self) -> usize {
        self.queue.len() + usize::from(matches!(self.activity, Activity::Moving { .. }))
    }

    /// Whether a task for `failed` is queued or being driven to.
    pub fn has_task(&self, failed: NodeId) -> bool {
        self.current_task().is_some_and(|t| t.failed == failed)
            || self.queue.iter().any(|t| t.failed == failed)
    }

    /// Next location-update sequence number (1, 2, ...).
    pub fn next_seq(&mut self) -> u32 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Enqueues a replacement task. If the robot was idle it departs
    /// immediately; the new leg is returned so the caller can schedule
    /// the arrival event and the threshold-crossing location updates.
    pub fn enqueue(&mut self, task: ReplacementTask, now: SimTime) -> Option<Leg> {
        match &self.activity {
            Activity::Idle { at } => {
                let leg = Leg::new(*at, task.loc, now, self.speed);
                self.activity = Activity::Moving { leg, task };
                Some(leg)
            }
            Activity::Moving { .. } => {
                self.queue.push_back(task);
                None
            }
        }
    }

    /// Completes the current leg at its arrival time: credits the
    /// odometer, installs the replacement, and — FCFS — departs for the
    /// next queued task if any.
    ///
    /// Returns the finished task and the next leg (if departing again).
    ///
    /// # Panics
    ///
    /// Panics if the robot is not moving (arrival events must match
    /// departures one-to-one).
    pub fn arrive(&mut self, now: SimTime) -> (ReplacementTask, Option<Leg>) {
        let Activity::Moving { leg, task } = self.activity.clone() else {
            panic!("arrive() called on an idle robot");
        };
        debug_assert!(now >= leg.arrival(), "arrival event fired early");
        self.odometer += leg.distance();
        if let Some(s) = self.spares.as_mut() {
            assert!(*s > 0, "robot arrived with no spare nodes");
            *s -= 1;
        }
        let at = leg.to();
        match self.queue.pop_front() {
            Some(next) => {
                let next_leg = Leg::new(at, next.loc, now, self.speed);
                self.activity = Activity::Moving {
                    leg: next_leg,
                    task: next,
                };
                (task, Some(next_leg))
            }
            None => {
                self.activity = Activity::Idle { at };
                (task, None)
            }
        }
    }

    /// Stops the robot mid-leg (breakdown): credits the odometer for
    /// the distance actually covered, parks at the current position,
    /// and pushes the in-flight task back to the *front* of the queue
    /// so it is the first to resume. No-op when already idle. Returns
    /// `true` if a leg was interrupted (the caller must invalidate its
    /// pending arrival event).
    pub fn interrupt(&mut self, now: SimTime) -> bool {
        let Activity::Moving { leg, task } = self.activity.clone() else {
            return false;
        };
        let at = leg.position_at(now);
        self.odometer += leg.from().distance(at);
        self.queue.push_front(task);
        self.activity = Activity::Idle { at };
        true
    }

    /// Departs for the first queued task if parked with work pending
    /// (fault layer: breakdown recovery, slowdown re-planning). Returns
    /// the new leg, or `None` when already moving or with nothing to
    /// do.
    pub fn resume(&mut self, now: SimTime) -> Option<Leg> {
        let Activity::Idle { at } = self.activity else {
            return None;
        };
        let task = self.queue.pop_front()?;
        let leg = Leg::new(at, task.loc, now, self.speed);
        self.activity = Activity::Moving { leg, task };
        Some(leg)
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

    fn task(failed: u32, loc: Point, at: f64) -> ReplacementTask {
        ReplacementTask {
            failed: NodeId::new(failed),
            loc,
            dispatched_at: t(at),
        }
    }

    #[test]
    fn idle_robot_departs_immediately() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        assert!(r.is_idle());
        let leg = r.enqueue(task(1, p(100.0, 0.0), 0.0), t(0.0)).unwrap();
        assert_eq!(leg.arrival(), t(100.0));
        assert!(!r.is_idle());
        assert_eq!(r.current_task().unwrap().failed, NodeId::new(1));
        assert_eq!(r.position_at(t(50.0)), p(50.0, 0.0));
    }

    #[test]
    fn outstanding_tasks_include_the_one_under_way() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        assert_eq!(r.outstanding_tasks(), 0);
        r.enqueue(task(1, p(100.0, 0.0), 0.0), t(0.0)).unwrap();
        r.enqueue(task(2, p(0.0, 50.0), 5.0), t(5.0));
        assert_eq!(r.outstanding_tasks(), 2);
        assert!(r.has_task(NodeId::new(1)), "the task under way");
        assert!(r.has_task(NodeId::new(2)), "a queued task");
        r.interrupt(t(10.0));
        assert_eq!(r.outstanding_tasks(), 2, "an interrupted task stays");
        r.resume(t(10.0));
        r.arrive(t(100.0));
        assert_eq!(r.outstanding_tasks(), 1);
        assert!(!r.has_task(NodeId::new(1)), "installed tasks are gone");
    }

    #[test]
    fn busy_robot_queues_fcfs() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.enqueue(task(1, p(100.0, 0.0), 0.0), t(0.0)).unwrap();
        assert!(r.enqueue(task(2, p(0.0, 50.0), 5.0), t(5.0)).is_none());
        assert!(r.enqueue(task(3, p(10.0, 10.0), 6.0), t(6.0)).is_none());
        assert_eq!(r.queue_len(), 2);

        let (done, next) = r.arrive(t(100.0));
        assert_eq!(done.failed, NodeId::new(1));
        let next = next.expect("second task departs");
        assert_eq!(next.from(), p(100.0, 0.0));
        assert_eq!(next.to(), p(0.0, 50.0), "FCFS: task 2 before task 3");
        assert_eq!(r.queue_len(), 1);
    }

    #[test]
    fn odometer_accumulates_leg_distances() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.enqueue(task(1, p(100.0, 0.0), 0.0), t(0.0)).unwrap();
        r.enqueue(task(2, p(100.0, 50.0), 0.0), t(0.0));
        let (_, leg2) = r.arrive(t(100.0));
        assert_eq!(r.odometer(), 100.0);
        let (_, none) = r.arrive(leg2.unwrap().arrival());
        assert!(none.is_none());
        assert_eq!(r.odometer(), 150.0);
        assert!(r.is_idle());
        assert_eq!(r.position_at(t(1000.0)), p(100.0, 50.0));
    }

    #[test]
    fn spares_deplete_when_tracked() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.spares = Some(2);
        r.enqueue(task(1, p(10.0, 0.0), 0.0), t(0.0)).unwrap();
        r.arrive(t(10.0));
        assert_eq!(r.spares, Some(1));
    }

    #[test]
    #[should_panic(expected = "no spare nodes")]
    fn arriving_without_spares_panics() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.spares = Some(0);
        r.enqueue(task(1, p(10.0, 0.0), 0.0), t(0.0)).unwrap();
        r.arrive(t(10.0));
    }

    #[test]
    #[should_panic(expected = "idle robot")]
    fn arrive_while_idle_panics() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.arrive(t(1.0));
    }

    #[test]
    fn interrupt_credits_partial_travel_and_requeues_in_front() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.enqueue(task(1, p(100.0, 0.0), 0.0), t(0.0)).unwrap();
        r.enqueue(task(2, p(0.0, 50.0), 0.0), t(0.0));
        assert!(r.interrupt(t(40.0)), "a moving robot can be interrupted");
        assert_eq!(r.odometer(), 40.0, "only the covered distance counts");
        assert_eq!(
            r.position_at(t(99.0)),
            p(40.0, 0.0),
            "parked where it stopped"
        );
        assert_eq!(r.queue_len(), 2, "in-flight task pushed back");
        assert!(
            !r.interrupt(t(41.0)),
            "idle robots have nothing to interrupt"
        );

        // Resuming departs for the interrupted task first (front of queue).
        let leg = r.resume(t(50.0)).expect("queued work resumes");
        assert_eq!(leg.from(), p(40.0, 0.0));
        assert_eq!(leg.to(), p(100.0, 0.0), "interrupted task resumes first");
        assert_eq!(r.queue_len(), 1);
        assert!(r.resume(t(51.0)).is_none(), "already moving");
    }

    #[test]
    fn resume_with_empty_queue_is_a_no_op() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        assert!(r.resume(t(1.0)).is_none());
        assert!(r.is_idle());
    }

    #[test]
    fn speed_changes_apply_to_the_next_leg() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.enqueue(task(1, p(100.0, 0.0), 0.0), t(0.0)).unwrap();
        r.interrupt(t(40.0));
        r.set_speed(0.5);
        assert_eq!(r.speed(), 0.5);
        let leg = r.resume(t(40.0)).unwrap();
        assert_eq!(leg.arrival(), t(160.0), "60 m left at 0.5 m/s");
    }

    #[test]
    #[should_panic(expected = "speed must be positive")]
    fn zero_speed_rejected() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        r.set_speed(0.0);
    }

    #[test]
    fn sequence_numbers_increase() {
        let mut r = RobotState::new(NodeId::new(100), p(0.0, 0.0), 1.0);
        assert_eq!(r.next_seq(), 1);
        assert_eq!(r.next_seq(), 2);
    }
}
