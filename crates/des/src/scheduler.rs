//! The event queue plus a current-time cursor, with causality enforcement.

use crate::queue::{EventKey, EventQueue, WheelStats};
use crate::time::{SimDuration, SimTime};

/// An [`EventQueue`] paired with the simulation clock.
///
/// The scheduler enforces causality: events may only be scheduled at or
/// after the current time, and the clock only moves forward. Simulation
/// drivers own a `Scheduler<E>` for their event enum `E` and dispatch in a
/// loop:
///
/// ```
/// use robonet_des::{Scheduler, SimDuration, SimTime};
///
/// #[derive(Debug, PartialEq)]
/// enum Ev { Tick(u32) }
///
/// let mut sched = Scheduler::new();
/// sched.schedule_after(SimDuration::from_secs(1.0), Ev::Tick(0));
/// let mut ticks = 0;
/// while let Some(ev) = sched.next_event() {
///     match ev {
///         Ev::Tick(n) if n < 2 => {
///             ticks += 1;
///             sched.schedule_after(SimDuration::from_secs(1.0), Ev::Tick(n + 1));
///         }
///         Ev::Tick(_) => ticks += 1,
///     }
/// }
/// assert_eq!(ticks, 3);
/// assert_eq!(sched.now(), SimTime::from_secs(3.0));
/// ```
#[derive(Debug)]
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: SimTime,
    horizon: SimTime,
    started: std::time::Instant,
}

/// Wall-clock phase profile of a scheduler, captured via
/// [`Scheduler::profile`] at the end of a run.
///
/// Everything here is diagnostic: wall-clock fields vary between runs of
/// the same seed and must never feed back into simulation behaviour or
/// into deterministic result types.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedulerProfile {
    /// Events dispatched through [`Scheduler::next_event`].
    pub events_dispatched: u64,
    /// Peak number of pending events queued at once.
    pub queue_high_water: usize,
    /// Simulated seconds covered (current clock reading).
    pub sim_seconds: f64,
    /// Wall-clock seconds since the scheduler was created.
    pub wall_seconds: f64,
    /// Timer-wheel occupancy statistics (per-lane high-water marks and
    /// overflow promotions).
    pub wheel: WheelStats,
    /// Per-subsystem wall-clock attribution, filled in by the dispatch
    /// loop when subsystem profiling is enabled (all zeros otherwise).
    pub subsystems: SubsystemTimes,
}

/// Wall-clock seconds a dispatch loop spent inside each subsystem's
/// handlers. Like every other wall-clock figure this is diagnostic
/// only: it varies run to run and must never reach deterministic
/// result types or the trace.
///
/// The attribution is coarse — each dispatched event is billed whole to
/// the subsystem that owns its handler — and opt-in, so the timer reads
/// cost nothing on ordinary runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SubsystemTimes {
    /// Radio engine events (frame airtime, ACK timers, MAC backoff).
    pub radio_s: f64,
    /// Routing/relay forwarding hops.
    pub routing_s: f64,
    /// Coordination logic: sensor/agent ticks, failures, dispatch,
    /// robot motion — everything not claimed by another bucket.
    pub coord_s: f64,
    /// Observability sinks: coverage and telemetry sampling.
    pub obs_sink_s: f64,
}

impl SubsystemTimes {
    /// Total attributed wall-clock seconds across all subsystems.
    pub fn total(&self) -> f64 {
        self.radio_s + self.routing_s + self.coord_s + self.obs_sink_s
    }
}

impl SchedulerProfile {
    /// Simulation speed-up: simulated seconds per wall-clock second.
    /// Returns 0.0 when no wall time has been observed.
    pub fn sim_seconds_per_wall_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.sim_seconds / self.wall_seconds
        } else {
            0.0
        }
    }

    /// Event throughput: events dispatched per wall-clock second.
    /// Returns 0.0 when no wall time has been observed.
    pub fn events_per_wall_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.events_dispatched as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

impl std::fmt::Display for SchedulerProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} events, queue high-water {}, {:.1} sim-s in {:.3} wall-s ({:.0}x real time)",
            self.events_dispatched,
            self.queue_high_water,
            self.sim_seconds,
            self.wall_seconds,
            self.sim_seconds_per_wall_second(),
        )
    }
}

/// A wall-clock pacer for periodic progress output from a dispatch
/// loop (the CLI's `run --progress` heartbeats).
///
/// [`due`](Heartbeat::due) is cheap enough to call once per dispatched
/// event: it samples the clock only every 256 calls, and returns `true`
/// at most once per `every` of wall time. Wall-clock state never feeds
/// back into simulation behaviour — a heartbeat only gates *printing*.
#[derive(Debug)]
pub struct Heartbeat {
    every: std::time::Duration,
    last: std::time::Instant,
    calls: u32,
}

impl Heartbeat {
    /// A heartbeat firing roughly every `every` of wall time.
    pub fn new(every: std::time::Duration) -> Self {
        Heartbeat {
            every,
            last: std::time::Instant::now(),
            calls: 0,
        }
    }

    /// Returns `true` when a heartbeat is due. Call once per event.
    pub fn due(&mut self) -> bool {
        self.calls = self.calls.wrapping_add(1);
        if !self.calls.is_multiple_of(256) {
            return false;
        }
        let now = std::time::Instant::now();
        if now.duration_since(self.last) >= self.every {
            self.last = now;
            true
        } else {
            false
        }
    }
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    /// Creates a scheduler at time zero with no horizon.
    pub fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon: SimTime::MAX,
            started: std::time::Instant::now(),
        }
    }

    /// Creates a scheduler that stops delivering events after `horizon`.
    ///
    /// Events scheduled past the horizon are accepted but never fire; this
    /// is how a fixed-length simulation run (e.g. the paper's 64000 s) is
    /// expressed.
    pub fn with_horizon(horizon: SimTime) -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            horizon,
            started: std::time::Instant::now(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time (causality
    /// violation — always a simulation bug).
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventKey {
        assert!(
            at >= self.now,
            "causality violation: scheduling at {at} but now is {}",
            self.now
        );
        self.queue.schedule(at, event)
    }

    /// Schedules `event` to fire `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventKey {
        self.queue.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, key: EventKey) -> bool {
        self.queue.cancel(key)
    }

    /// Advances the clock to the next event and returns it, or `None` when
    /// the queue is drained or the next event lies past the horizon.
    pub fn next_event(&mut self) -> Option<E> {
        match self.queue.peek_time() {
            Some(t) if t <= self.horizon => {
                let (t, ev) = self.queue.pop().expect("peeked event exists");
                self.now = t;
                Some(ev)
            }
            _ => None,
        }
    }

    /// Number of events delivered so far.
    pub fn delivered_count(&self) -> u64 {
        self.queue.popped_count()
    }

    /// Exact number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Snapshots the wall-clock phase profile: events dispatched, queue
    /// high-water mark, and sim-seconds per wall-second since creation.
    pub fn profile(&self) -> SchedulerProfile {
        SchedulerProfile {
            events_dispatched: self.queue.popped_count(),
            queue_high_water: self.queue.high_water(),
            sim_seconds: self.now.as_secs_f64(),
            wall_seconds: self.started.elapsed().as_secs_f64(),
            wheel: self.queue.wheel_stats(),
            subsystems: SubsystemTimes::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_monotonically() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(2.0), 2);
        s.schedule_at(SimTime::from_secs(1.0), 1);
        assert_eq!(s.next_event(), Some(1));
        assert_eq!(s.now(), SimTime::from_secs(1.0));
        assert_eq!(s.next_event(), Some(2));
        assert_eq!(s.now(), SimTime::from_secs(2.0));
        assert_eq!(s.next_event(), None);
        assert_eq!(
            s.now(),
            SimTime::from_secs(2.0),
            "time freezes when drained"
        );
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_in_the_past_panics() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(5.0), 5);
        s.next_event();
        s.schedule_at(SimTime::from_secs(1.0), 1);
    }

    #[test]
    fn horizon_cuts_off_events() {
        let mut s = Scheduler::with_horizon(SimTime::from_secs(10.0));
        s.schedule_at(SimTime::from_secs(9.0), "in");
        s.schedule_at(SimTime::from_secs(10.0), "edge");
        s.schedule_at(SimTime::from_secs(11.0), "out");
        assert_eq!(s.next_event(), Some("in"));
        assert_eq!(s.next_event(), Some("edge"), "horizon is inclusive");
        assert_eq!(s.next_event(), None);
        assert_eq!(s.now(), SimTime::from_secs(10.0));
    }

    #[test]
    fn schedule_after_uses_current_time() {
        let mut s: Scheduler<&str> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(3.0), "first");
        s.next_event();
        s.schedule_after(SimDuration::from_secs(2.0), "second");
        assert_eq!(s.next_event(), Some("second"));
        assert_eq!(s.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn profile_reports_dispatch_and_occupancy() {
        let mut s: Scheduler<u32> = Scheduler::new();
        s.schedule_at(SimTime::from_secs(1.0), 1);
        s.schedule_at(SimTime::from_secs(2.0), 2);
        s.next_event();
        let p = s.profile();
        assert_eq!(p.events_dispatched, 1);
        assert_eq!(p.queue_high_water, 2);
        assert_eq!(p.sim_seconds, 1.0);
        assert!(p.wall_seconds >= 0.0);
        // Zero-wall-time guard paths never divide by zero.
        let frozen = SchedulerProfile {
            wall_seconds: 0.0,
            ..p
        };
        assert_eq!(frozen.sim_seconds_per_wall_second(), 0.0);
        assert_eq!(frozen.events_per_wall_second(), 0.0);
    }

    #[test]
    fn heartbeat_fires_after_its_interval() {
        // A zero interval is due as soon as the call-count gate opens.
        let mut hb = Heartbeat::new(std::time::Duration::ZERO);
        let fired = (0..256).filter(|_| hb.due()).count();
        assert_eq!(fired, 1, "exactly one beat per 256-call window");
        // A long interval never fires in a tight loop.
        let mut slow = Heartbeat::new(std::time::Duration::from_secs(3600));
        assert!((0..10_000).all(|_| !slow.due()));
    }

    #[test]
    fn cancel_through_scheduler() {
        let mut s: Scheduler<&str> = Scheduler::new();
        let k = s.schedule_after(SimDuration::from_secs(1.0), "never");
        assert!(s.cancel(k));
        assert_eq!(s.next_event(), None);
        assert_eq!(s.delivered_count(), 0);
    }
}
