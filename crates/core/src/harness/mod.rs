//! The packet-level simulation harness.
//!
//! [`Simulation`] wires the substrates together: sensors beacon and
//! watch their guardees (`robonet-wsn`), failure reports and repair
//! requests travel hop by hop over geographic routing (`robonet-net`)
//! on a CSMA/CA medium (`robonet-radio`), and robots drive to failures
//! and install replacements (`robonet-robot`) under one of the three
//! coordination algorithms (paper §3).
//!
//! # Fidelity notes (see also DESIGN.md)
//!
//! - Sensors build neighbour tables *only* from frames they receive;
//!   failure detection, guardian re-selection and table eviction are
//!   fully protocol-driven.
//! - Robots and the manager route using a location service (every alive
//!   node within their transmission range): the paper's initialization
//!   phase establishes exactly this knowledge ("after initialization,
//!   all the sensors and robots know the manager's location, the
//!   manager knows all robots' locations", §3.1), and sensors never
//!   move.
//! - Initial role knowledge (each sensor's manager / initial `myrobot`)
//!   is installed at construction rather than re-derived from the init
//!   flood, again per the paper's §3.1 post-initialization invariant.
//!   Operational location updates — the Figure 4 metric — are fully
//!   simulated messages.

use std::collections::BTreeMap;

use robonet_des::{rng, sampler, NodeId, Scheduler, SimDuration, SimTime};
use robonet_geom::{ConvexPolygon, Point};
use robonet_net::{NeighborTable, RouteScratch};
use robonet_radio::engine::{RadioEvent, UpcallBuf};
use robonet_radio::medium::{Medium, NodeClass};
use robonet_radio::{Frame, RadioEngine, TrafficClass};
use robonet_robot::RobotState;
use robonet_wsn::SensorState;

use crate::config::ScenarioConfig;
use crate::coord::{self, Coordinator};
use crate::metrics::Metrics;
use crate::msg::AppMsg;
use crate::obs::{EventSink, NullSink, Observer, RingSink, SpanReport};
use crate::world::{Expiry, Gauges, LegRef, World};

mod fleet;
mod recovery;
mod routing;
mod sensor;

/// Result of a completed run.
#[derive(Debug)]
pub struct Outcome {
    /// The configuration that produced this run.
    pub config: ScenarioConfig,
    /// Collected metrics.
    pub metrics: Metrics,
    /// Protocol-level event trace: the attached [`RingSink`] (directly
    /// or inside a [`TeeSink`](crate::obs::TeeSink)), empty when none
    /// was attached.
    pub trace: RingSink,
    /// Per-failure latency decomposition, assembled online from the
    /// event stream the sink sees whenever the run is observed (an
    /// enabled sink, telemetry sampling or
    /// [`Simulation::enable_progress`]); `None` for unobserved runs.
    pub spans: Option<SpanReport>,
    /// Total events the kernel delivered (simulation cost indicator).
    pub events_processed: u64,
    /// Wall-clock phase profile of the scheduler (diagnostic only;
    /// varies run to run and never feeds back into results).
    pub profile: robonet_des::SchedulerProfile,
}

#[derive(Debug)]
enum Event {
    Radio(RadioEvent),
    /// Sensor beacon + detection duties, every beacon period.
    SensorTick {
        sensor: u32,
    },
    /// Robot/manager beacon, every beacon period.
    AgentTick {
        node: u32,
    },
    /// A sensor's exponential lifetime expired.
    Fail(Expiry),
    /// A robot reached the failure it was driving to.
    RobotArrive(LegRef),
    /// A moving robot crossed a 20 m update-threshold point.
    RobotUpdatePoint(LegRef),
    /// Initial robot location announcement (counted as Init traffic).
    InitAnnounce {
        robot: u32,
    },
    /// A flood relay released after its desynchronisation jitter.
    /// Boxed so the one frame-carrying variant does not widen every
    /// slot in the event queue's slab.
    RelaySend {
        frame: Box<Frame<AppMsg>>,
    },
    /// Periodic telemetry sample + health check (only when
    /// [`ScenarioConfig::sample_every`] is set).
    TelemetrySample,
    /// An injected robot breakdown fires (faulty runs only).
    RobotBreakdown {
        robot: u32,
    },
    /// A broken-down robot finishes its in-place repair.
    RobotRepair {
        robot: u32,
    },
    /// A scheduled scenario timeline event fires (index into the
    /// plan's timeline; scheduled only when the timeline is non-empty).
    TimelineFault {
        index: u32,
    },
}

impl From<Expiry> for Event {
    fn from(e: Expiry) -> Self {
        Event::Fail(e)
    }
}

/// The event [`World::start_leg`] schedules at a leg's arrival.
impl From<LegRef> for Event {
    fn from(leg: LegRef) -> Self {
        Event::RobotArrive(leg)
    }
}

struct ManagerView {
    /// Last known robot locations (index = robot index).
    robot_locs: Vec<Point>,
    /// Last reported robot queue lengths (for `NearestIdle` dispatch).
    robot_queues: Vec<u32>,
    /// Dispatch dedup: when each sensor was last dispatched for
    /// (indexed by sensor; `None` = never).
    last_dispatch: Vec<Option<SimTime>>,
    /// Dispatches awaiting completion, for the timeout/re-dispatch
    /// machinery. Populated only when faults are active (BTreeMap so
    /// timeout scans are deterministic). Keyed by failed sensor.
    outstanding: BTreeMap<u32, OutstandingDispatch>,
    /// Robots with a timed-out dispatch and no location update since —
    /// skipped by [`Coordinator::choose_dispatch_robot`] until they
    /// report in again.
    suspect: Vec<bool>,
}

/// One dispatch the manager is still waiting on.
#[derive(Debug, Clone, Copy)]
struct OutstandingDispatch {
    /// Robot index the request went to.
    robot: usize,
    /// When this attempt was sent.
    since: SimTime,
    /// Attempt number (1 = original dispatch).
    attempts: u32,
    /// The failure's location (needed to re-dispatch).
    failed_loc: Point,
}

/// The full simulation state. Construct with [`Simulation::new`] and
/// execute with [`Simulation::run_to_completion`], or use the
/// [`Simulation::run`] convenience wrapper.
pub struct Simulation {
    cfg: ScenarioConfig,
    /// The coordination policy (resolved once from `cfg.algorithm`;
    /// every algorithm-specific decision goes through it).
    coord: &'static dyn Coordinator,
    sched: Scheduler<Event>,
    radio: RadioEngine<AppMsg>,
    sensors: Vec<SensorState>,
    robot_tasks_done: Vec<u64>,
    manager: Option<ManagerView>,
    /// Deployment, fleet, failure schedule, fault plan and the repair
    /// lifecycle (shared with the flow engine).
    world: World,
    metrics: Metrics,
    /// The sink, span assembly and health monitor.
    observer: Observer<'static>,
    /// Per-subsystem wall-clock attribution, accumulated by the
    /// dispatch loop when [`Simulation::enable_subsystem_profile`] was
    /// called (zeros otherwise — default runs never read the clock).
    subsystems: robonet_des::SubsystemTimes,
    /// Whether the dispatch loop bills wall time per subsystem.
    profile_subsystems: bool,
    /// Wall-clock heartbeat for `--progress` (stderr only, never
    /// results).
    progress: Option<robonet_des::Heartbeat>,
    upcall_buf: UpcallBuf<AppMsg>,
    /// Reused perimeter-recovery buffers for every routing decision.
    route_scratch: RouteScratch,
    /// Reused location-service table for robot/manager routing steps.
    oracle_scratch: NeighborTable,
    jitter_rng: rng::Xoshiro256,
    /// Robots currently broken down (silent, not moving).
    robot_down: Vec<bool>,
    /// Whether a peer already declared this robot dead this down-period
    /// (first detector wins; cleared on repair).
    takeover_done: Vec<bool>,
    /// `peer_last_heard[r][p]`: when robot `r` last heard peer `p`'s
    /// beacon. Empty unless the plan can take robots out of service
    /// (probabilistic breakdowns or a scheduled attrition wave).
    peer_last_heard: Vec<Vec<Option<SimTime>>>,
    /// Network partitions currently (or soon to be) in force:
    /// `(until, side_a, side_b)`. Frames crossing sides are dropped at
    /// the receiver while `now < until`. Empty unless a timeline
    /// partition is in force: `on_radio` drops healed ones.
    active_partitions: Vec<(SimTime, ConvexPolygon, ConvexPolygon)>,
    /// Frames suppressed by an active partition.
    partition_drops: u64,
    /// Per static link of the medium, the sender's slot in the
    /// receiver's neighbour table plus one (0: not computed yet). Sized
    /// on the first beacon, so set-up never pays for it.
    link_slots: Vec<u32>,
}

impl Simulation {
    /// Builds the world for `cfg` and schedules the initial events.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ScenarioConfig::validate`].
    pub fn new(cfg: ScenarioConfig) -> Self {
        Self::with_sink(cfg, Box::new(NullSink))
    }

    /// Like [`Simulation::new`], but streams every event into `sink`:
    /// a [`RingSink`] keeping the last events for [`Outcome::trace`], a
    /// [`JsonlSink`](crate::obs::JsonlSink) writing a `--trace-out`
    /// artifact, or a [`TeeSink`](crate::obs::TeeSink) of several.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`ScenarioConfig::validate`].
    pub fn with_sink(cfg: ScenarioConfig, sink: Box<dyn EventSink>) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid scenario: {e}");
        }
        let coordinator = coord::coordinator_for(cfg.algorithm);
        let n_sensors = cfg.n_sensors();
        let n_robots = cfg.n_robots();

        // --- Deployment, failure schedule and faults (shared) ------------
        let mut world = World::new(&cfg);
        let field = &world.field;

        let mut positions = field.sensor_pos.clone();
        positions.extend_from_slice(&field.robot_pos);
        let mut classes = vec![NodeClass::Sensor; n_sensors];
        classes.extend(vec![NodeClass::Robot; n_robots]);
        if let Some((_, loc)) = field.manager {
            positions.push(loc);
            classes.push(NodeClass::Manager);
        }
        let medium =
            Medium::new(field.bounds, cfg.ranges, &positions, &classes).with_fading(cfg.fading);
        let radio = RadioEngine::new(medium, cfg.mac.clone(), rng::stream(cfg.seed, "mac"));

        // --- Protocol state ---------------------------------------------
        let mut sensors: Vec<SensorState> = field
            .sensor_pos
            .iter()
            .enumerate()
            .map(|(i, &loc)| SensorState::new(NodeId::new(i as u32), loc))
            .collect();
        // Post-initialization role knowledge (§3.1 invariant): each
        // sensor learns who it reports to from the coordinator.
        let seed_ctx = world.coord_ctx(cfg.update_threshold);
        for (i, s) in sensors.iter_mut().enumerate() {
            coordinator.seed_initial_role(s, world.sensor_subarea[i], &field.robot_pos, &seed_ctx);
        }

        let manager = field.manager.map(|_| ManagerView {
            robot_locs: field.robot_pos.clone(),
            robot_queues: vec![0; n_robots],
            last_dispatch: vec![None; n_sensors],
            outstanding: BTreeMap::new(),
            suspect: vec![false; n_robots],
        });
        let robot_faults = world
            .faults
            .as_ref()
            .is_some_and(|i| i.plan.has_robot_faults());

        // --- Initial events ----------------------------------------------
        let mut sched = Scheduler::with_horizon(SimTime::ZERO + cfg.sim_time);
        let mut phase_rng = rng::stream(cfg.seed, "phases");
        for i in 0..n_sensors {
            let phase = sampler::uniform_duration(&mut phase_rng, cfg.beacon_period);
            sched.schedule_at(
                SimTime::ZERO + phase,
                Event::SensorTick { sensor: i as u32 },
            );
            world.arm(SimTime::ZERO, i, &mut sched);
        }
        for r in 0..n_robots {
            let phase = sampler::uniform_duration(&mut phase_rng, cfg.beacon_period);
            sched.schedule_at(
                SimTime::ZERO + phase,
                Event::AgentTick {
                    node: (n_sensors + r) as u32,
                },
            );
            // Initial announcement (paper §3.1/§3.2 initialization),
            // counted under the Init traffic class.
            let jitter = sampler::uniform_duration(&mut phase_rng, SimDuration::from_secs(2.0));
            sched.schedule_at(
                SimTime::ZERO + jitter,
                Event::InitAnnounce { robot: r as u32 },
            );
        }
        if let Some((id, _)) = world.field.manager {
            let phase = sampler::uniform_duration(&mut phase_rng, cfg.beacon_period);
            sched.schedule_at(
                SimTime::ZERO + phase,
                Event::AgentTick { node: id.as_u32() },
            );
        }
        if let Some(every) = cfg.sample_every {
            sched.schedule_at(SimTime::ZERO + every, Event::TelemetrySample);
        }
        // First breakdown per robot (exponential interarrival from the
        // injector's own stream; robot order fixes the draw order).
        if let Some(inj) = world.faults.as_mut() {
            for r in 0..n_robots {
                if let Some(delay) = inj.next_breakdown_delay() {
                    sched.schedule_at(
                        SimTime::ZERO + delay,
                        Event::RobotBreakdown { robot: r as u32 },
                    );
                }
            }
        }
        for (at, index) in world.timeline() {
            sched.schedule_at(at, Event::TimelineFault { index });
        }

        let cfg_seed = cfg.seed;
        // `Outcome::spans` holds spans whenever the run is observed.
        let spans = sink.is_enabled();
        let observer = Observer::new(sink, cfg.sample_every.is_some(), spans);
        Simulation {
            cfg,
            coord: coordinator,
            sched,
            radio,
            sensors,
            robot_tasks_done: vec![0; n_robots],
            manager,
            world,
            metrics: Metrics::default(),
            observer,
            subsystems: robonet_des::SubsystemTimes::default(),
            profile_subsystems: false,
            progress: None,
            upcall_buf: UpcallBuf::new(),
            route_scratch: RouteScratch::default(),
            oracle_scratch: NeighborTable::new(),
            jitter_rng: rng::stream(cfg_seed, "jitter"),
            robot_down: vec![false; n_robots],
            takeover_done: vec![false; n_robots],
            peer_last_heard: if robot_faults {
                vec![vec![None; n_robots]; n_robots]
            } else {
                Vec::new()
            },
            active_partitions: Vec::new(),
            partition_drops: 0,
            link_slots: Vec::new(),
        }
    }

    /// Enables periodic sim-time/wall-time/open-span heartbeats on
    /// stderr, roughly every `every` of wall time (the CLI's
    /// `--progress`). Forces span assembly on so the open-span count is
    /// live; simulation results are unaffected.
    pub fn enable_progress(&mut self, every: std::time::Duration) {
        self.progress = Some(robonet_des::Heartbeat::new(every));
        self.observer.enable_spans();
    }

    /// Enables per-subsystem wall-clock attribution in the dispatch
    /// loop (`--profile-out`). Costs two clock reads per event, so it
    /// is opt-in; results land on [`Outcome::profile`] only — never in
    /// deterministic outputs.
    pub fn enable_subsystem_profile(&mut self) {
        self.profile_subsystems = true;
    }

    /// Convenience: build and run to the configured horizon.
    pub fn run(cfg: ScenarioConfig) -> Outcome {
        Simulation::new(cfg).run_to_completion()
    }

    /// Drains every event up to the horizon and returns the outcome.
    pub fn run_to_completion(mut self) -> Outcome {
        while let Some(ev) = self.sched.next_event() {
            let now = self.sched.now();
            if self.profile_subsystems {
                self.dispatch_timed(now, ev);
            } else {
                self.dispatch(now, ev);
            }
            if let Some(hb) = self.progress.as_mut() {
                if hb.due() {
                    let p = self.sched.profile();
                    let open = self.observer.open_spans();
                    eprintln!(
                        "[progress] sim {:.0} s | wall {:.1} s | {} events | {} open spans",
                        p.sim_seconds, p.wall_seconds, p.events_dispatched, open
                    );
                }
            }
        }
        self.finalize()
    }

    fn finalize(mut self) -> Outcome {
        self.metrics.failures_occurred = self.world.failures;
        self.metrics.replacements = self.world.replacements;
        self.metrics.robot_odometers = self.world.robots.iter().map(RobotState::odometer).collect();
        self.metrics.tasks_per_robot = self.robot_tasks_done.clone();
        self.metrics.myrobot_accuracy = self.myrobot_accuracy();
        self.metrics.tx = self.radio.stats().clone();
        self.snapshot_registry();
        let (spans, trace, timeline) = self.observer.finish();
        self.metrics.invariant_violations = timeline.violations.len() as u64;
        self.metrics.telemetry_timeline = timeline;
        if let Some(report) = &spans {
            report.snapshot_into(&mut self.metrics.counters);
        }
        let mut profile = self.sched.profile();
        profile.subsystems = self.subsystems;
        Outcome {
            config: self.cfg,
            metrics: self.metrics,
            trace,
            spans,
            events_processed: self.sched.delivered_count(),
            profile,
        }
    }

    /// Populates the per-subsystem counter/histogram registry from the
    /// run's raw metrics. Done once at the end of the run — subsystems
    /// keep their cheap dedicated counters on the hot path, and the
    /// registry is the uniform externally-visible snapshot of them.
    fn snapshot_registry(&mut self) {
        let m = &mut self.metrics;
        let c = &mut m.counters;

        let ns = self.coord.obs_namespace();
        c.set(ns, "reports_sent", m.reports_sent);
        c.set(ns, "reports_delivered", m.reports_delivered);
        c.set(ns, "requests_sent", m.requests_sent);
        c.set(ns, "requests_delivered", m.requests_delivered);
        c.set(ns, "replacements", m.replacements);
        c.set(ns, "spurious_replacements", m.spurious_replacements);
        c.set(ns, "failures_occurred", m.failures_occurred);

        c.set(
            "net.routing",
            "drops.ttl_expired",
            m.packets_dropped.ttl_expired,
        );
        c.set(
            "net.routing",
            "drops.no_neighbors",
            m.packets_dropped.no_neighbors,
        );
        c.set("radio.mac", "drops.give_up", m.packets_dropped.mac_give_up);

        let t = m.tx.totals();
        c.set("radio.mac", "data_tx", t.data_tx);
        c.set("radio.mac", "ack_tx", t.ack_tx);
        c.set("radio.mac", "delivered", t.delivered);
        c.set("radio.mac", "dropped", t.dropped);
        c.set("radio.mac", "collisions", t.collisions);

        let profile = self.sched.profile();
        c.set(
            "des.scheduler",
            "events_dispatched",
            profile.events_dispatched,
        );
        c.set(
            "des.scheduler",
            "queue_high_water",
            profile.queue_high_water as u64,
        );

        // Fault-injection and recovery counters exist only for faulty
        // runs, so fault-free registries stay byte-identical to pre-PR.
        if self.world.faults.is_some() {
            let fs = m.faults;
            c.set("fault", "report_drops", fs.report_drops);
            c.set("fault", "dispatch_drops", fs.dispatch_drops);
            c.set("fault", "update_drops", fs.update_drops);
            c.set("fault", "robot_breakdowns", fs.robot_breakdowns);
            c.set("fault", "robot_slowdowns", fs.robot_slowdowns);
            c.set("recovery", "report_retries", fs.report_retries);
            c.set("recovery", "reports_abandoned", fs.reports_abandoned);
            c.set("recovery", "dispatch_timeouts", fs.dispatch_timeouts);
            c.set("recovery", "redispatches", fs.redispatches);
            c.set("recovery", "dispatches_abandoned", fs.dispatches_abandoned);
            c.set("recovery", "robot_repairs", fs.robot_repairs);
            c.set("recovery", "takeovers", fs.takeovers);
        }
        // Timeline counters exist only for runs with a scheduled fault
        // timeline, so probabilistic-fault registries stay byte-identical.
        if self.world.timeline().next().is_some() {
            c.set("fault", "timeline_events", self.world.timeline_fired);
            c.set("fault", "partition_drops", self.partition_drops);
        }

        for &hops in &m.report_hops {
            c.observe("net.routing", "report_hops", f64::from(hops));
        }
        for &travel in &m.travel_per_task {
            c.observe("robot.fleet", "travel_m", travel);
        }
        for &delay in &m.repair_delay {
            c.observe("robot.fleet", "repair_delay_s", delay);
        }
    }

    /// Fraction of alive sensors whose `myrobot` is truly the closest
    /// robot right now (1.0 for the centralized algorithm, which has no
    /// `myrobot` concept).
    fn myrobot_accuracy(&self) -> f64 {
        if !self.coord.uses_myrobot() {
            return 1.0;
        }
        let now = self.sched.now();
        let robot_locs: Vec<Point> = self
            .world
            .robots
            .iter()
            .map(|r| r.position_at(now))
            .collect();
        let mut correct = 0usize;
        let mut total = 0usize;
        for s in &self.sensors {
            if !self.world.is_alive(s.id.index()) {
                continue;
            }
            total += 1;
            let truth = self
                .coord
                .myrobot_truth(s.loc, self.world.sensor_subarea[s.id.index()], &robot_locs)
                .expect("myrobot algorithms define a ground truth");
            if let Some((robot, _)) = s.myrobot {
                if robot.index() == self.sensors.len() + truth {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            1.0
        } else {
            correct as f64 / total as f64
        }
    }

    /// [`dispatch`](Self::dispatch) wrapped in a scoped timer that
    /// bills the event whole to the subsystem owning its handler.
    /// Attribution is wall-clock and diagnostic only.
    fn dispatch_timed(&mut self, now: SimTime, ev: Event) {
        let bucket = match &ev {
            Event::Radio(_) => 0,
            Event::RelaySend { .. } => 1,
            Event::TelemetrySample => 2,
            _ => 3,
        };
        let start = std::time::Instant::now();
        self.dispatch(now, ev);
        let dt = start.elapsed().as_secs_f64();
        match bucket {
            0 => self.subsystems.radio_s += dt,
            1 => self.subsystems.routing_s += dt,
            2 => self.subsystems.obs_sink_s += dt,
            _ => self.subsystems.coord_s += dt,
        }
    }

    fn dispatch(&mut self, now: SimTime, ev: Event) {
        match ev {
            Event::Radio(rev) => self.on_radio(now, rev),
            Event::SensorTick { sensor } => self.on_sensor_tick(now, sensor as usize),
            Event::AgentTick { node } => self.on_agent_tick(now, node),
            Event::Fail(e) => self.on_fail(now, e),
            Event::RobotArrive(leg) => self.on_robot_arrive(now, leg),
            Event::RobotUpdatePoint(leg) => self.on_robot_update_point(now, leg),
            Event::InitAnnounce { robot } => {
                self.do_location_update(now, robot as usize, TrafficClass::Init)
            }
            Event::RelaySend { frame } => self.radio_send(now, *frame),
            Event::TelemetrySample => self.on_telemetry_sample(now),
            Event::RobotBreakdown { robot } => self.on_robot_breakdown(now, robot as usize),
            Event::RobotRepair { robot } => self.on_robot_repair(now, robot as usize),
            Event::TimelineFault { index } => World::fire_timeline(now, index, self),
        }
    }

    /// Fires the telemetry sampler: the observer snapshots the live
    /// gauges, checks the health monitor against them and emits both.
    /// Everything read here sits on the sim-time event axis, so
    /// same-seed runs sample identical values.
    fn on_telemetry_sample(&mut self, now: SimTime) {
        let every = self.cfg.sample_every.expect("samples imply a cadence");
        self.sched.schedule_after(every, Event::TelemetrySample);
        let t = now.as_secs_f64();
        let gauges = Gauges {
            in_flight: self.radio.in_flight() as u32,
            sched_queue: self.sched.pending() as u32,
            robots_down: self.robot_down.iter().filter(|&&d| d).count() as u64,
        };
        self.observer.sample(&mut self.world, t, &gauges);
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("algorithm", &self.cfg.algorithm)
            .field("sensors", &self.sensors.len())
            .field("robots", &self.world.robots.len())
            .field("now", &self.sched.now())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, PartitionKind};

    /// A fast small scenario: 4 robots, 200 sensors, 1/16 time scale
    /// (4000 s sim, 1000 s lifetimes → ~4 failures per sensor slot,
    /// robot utilisation preserved by speed scaling).
    fn small(algorithm: Algorithm) -> ScenarioConfig {
        ScenarioConfig::paper(2, algorithm)
            .with_seed(11)
            .scaled(16.0)
    }

    fn check_common(outcome: &Outcome) {
        let m = &outcome.metrics;
        assert!(
            m.failures_occurred > 100,
            "failures: {}",
            m.failures_occurred
        );
        // The overwhelming majority of failures get repaired.
        let repaired = m.replacements as f64 / m.failures_occurred as f64;
        assert!(repaired > 0.85, "repair ratio {repaired}");
        // Reports arrive essentially always (paper: 100% delivery).
        let s = outcome.metrics.summary();
        assert!(
            s.report_delivery_ratio > 0.95,
            "delivery {}",
            s.report_delivery_ratio
        );
        // Average traveling distance per failure is O(100 m) for the
        // 200 m-per-robot geometry.
        assert!(
            s.avg_travel_per_failure > 20.0 && s.avg_travel_per_failure < 250.0,
            "travel {}",
            s.avg_travel_per_failure
        );
    }

    #[test]
    #[ignore = "diagnostic dump"]
    fn debug_dump() {
        let scale: f64 = std::env::var("DUMP_SCALE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(32.0);
        let k: usize = std::env::var("DUMP_K")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2);
        for alg in [
            Algorithm::Centralized,
            Algorithm::Fixed(PartitionKind::Square),
            Algorithm::Dynamic,
        ] {
            let o = Simulation::run(ScenarioConfig::paper(k, alg).with_seed(11).scaled(scale));
            let m = &o.metrics;
            println!(
                "{alg}: failures={} reports_sent={} reports_del={} req_sent={} req_del={} \
                 replaced={} spurious={} dropped={} events={}",
                m.failures_occurred,
                m.reports_sent,
                m.reports_delivered,
                m.requests_sent,
                m.requests_delivered,
                m.replacements,
                m.spurious_replacements,
                m.packets_dropped,
                o.events_processed
            );
            println!("{}", m.tx);
            let max_hops = m.report_hops.iter().max().copied().unwrap_or(0);
            println!(
                "report hops: mean={:?} max={max_hops} n={}",
                crate::metrics::mean_u32(&m.report_hops),
                m.report_hops.len()
            );
            println!(
                "travel mean={:?} repair delay mean={:?}",
                crate::metrics::mean_f64(&m.travel_per_task),
                crate::metrics::mean_f64(&m.repair_delay)
            );
        }
    }

    #[test]
    fn centralized_small_run() {
        let outcome = Simulation::run(small(Algorithm::Centralized));
        check_common(&outcome);
        let s = outcome.metrics.summary();
        assert!(s.avg_request_hops.is_some(), "centralized sends requests");
        assert!(
            outcome.metrics.requests_delivered > 0,
            "requests: {}",
            outcome.metrics.requests_delivered
        );
    }

    #[test]
    fn fixed_small_run() {
        let outcome = Simulation::run(small(Algorithm::Fixed(PartitionKind::Square)));
        check_common(&outcome);
        let s = outcome.metrics.summary();
        assert_eq!(s.avg_request_hops, None);
        // Distributed reports are short-range: a few hops on average
        // (time-compressed runs inflate this slightly because sped-up
        // robots force more next-hop evictions mid-route).
        assert!(s.avg_report_hops < 5.0, "report hops {}", s.avg_report_hops);
        // Fixed floods the subarea on every 20 m of motion: far more
        // location-update transmissions than centralized.
        assert!(
            s.loc_update_tx_per_failure > 30.0,
            "updates {}",
            s.loc_update_tx_per_failure
        );
    }

    #[test]
    fn dynamic_small_run() {
        let outcome = Simulation::run(small(Algorithm::Dynamic));
        check_common(&outcome);
        let s = outcome.metrics.summary();
        assert!(s.avg_report_hops < 4.0);
        assert!(
            s.myrobot_accuracy > 0.8,
            "dynamic Voronoi maintenance accuracy {}",
            s.myrobot_accuracy
        );
    }

    #[test]
    fn trace_records_the_repair_story() {
        let o = Simulation::with_sink(
            small(Algorithm::Dynamic),
            Box::new(RingSink::with_capacity(10_000)),
        )
        .run_to_completion();
        let trace = &o.trace;
        assert!(!trace.is_empty());
        // Every replacement leaves a Replaced event (capacity allowing).
        let replaced = trace
            .events()
            .filter(|e| matches!(e, crate::trace::TraceEvent::Replaced { .. }))
            .count();
        assert!(replaced > 0);
        assert!(replaced as u64 <= o.metrics.replacements);
        // Events are time-ordered.
        let times: Vec<f64> = trace.events().map(|e| e.time()).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "trace out of order");
        // A replaced sensor's lifecycle contains failure before repair.
        let replaced_sensor = trace.events().find_map(|e| match e {
            crate::trace::TraceEvent::Replaced { sensor, .. } => Some(*sensor),
            _ => None,
        });
        if let Some(sensor) = replaced_sensor {
            let life = trace.lifecycle_of(sensor);
            assert!(life.len() >= 2, "lifecycle of {sensor}: {life:?}");
        }
    }

    #[test]
    fn tracing_does_not_change_results() {
        let plain = Simulation::run(small(Algorithm::Centralized));
        let traced = Simulation::with_sink(
            small(Algorithm::Centralized),
            Box::new(RingSink::with_capacity(500)),
        )
        .run_to_completion();
        assert_eq!(
            plain.metrics.failures_occurred,
            traced.metrics.failures_occurred
        );
        assert_eq!(
            plain.metrics.travel_per_task,
            traced.metrics.travel_per_task
        );
        assert_eq!(plain.events_processed, traced.events_processed);
        assert_eq!(traced.trace.len(), 500, "ring buffer filled to capacity");
        assert!(traced.trace.dropped() > 0);
    }

    #[test]
    fn smooth_edge_fading_degrades_gracefully() {
        let mut cfg = small(Algorithm::Dynamic);
        cfg.fading = robonet_radio::Fading::SmoothEdge { inner: 0.7 };
        let o = Simulation::run(cfg);
        let s = o.metrics.summary();
        // Lossy edges cost retransmissions, not correctness: the system
        // still detects and repairs the bulk of failures.
        assert!(
            s.replacements as f64 > 0.75 * s.failures_occurred as f64,
            "repaired {}/{} under edge fading",
            s.replacements,
            s.failures_occurred
        );
        let clean = Simulation::run(small(Algorithm::Dynamic)).metrics.summary();
        assert!(
            s.avg_report_hops >= clean.avg_report_hops * 0.9,
            "fading cannot shorten paths: {} vs {}",
            s.avg_report_hops,
            clean.avg_report_hops
        );
    }

    #[test]
    fn coverage_sampling_produces_timeline() {
        let mut cfg = small(Algorithm::Dynamic);
        cfg.sample_every = Some(robonet_des::SimDuration::from_secs(200.0));
        let o = Simulation::run(cfg);
        let tl = &o.metrics.telemetry_timeline;
        assert!(tl.len() >= 15, "timeline samples: {}", tl.len());
        // Coverage stays high throughout thanks to replacement; dead
        // counts fluctuate but stay small.
        for (t, sample) in &tl.samples {
            let (t, cov, dead) = (*t, sample.coverage, sample.down);
            assert!(t > 0.0);
            assert!(cov > 0.75, "coverage collapsed to {cov} at {t}s");
            // Compressed runs have an elevated orphan rate (guardian and
            // guardee dying within one detection window), so permanently
            // dead nodes accumulate faster than at paper scale; the
            // bound is correspondingly loose.
            assert!((dead as usize) < o.config.n_sensors() / 2);
        }
    }

    #[test]
    fn nearest_idle_dispatch_reduces_delay_under_load() {
        // Load the fleet (short lifetimes) and compare dispatch rules.
        let mut base = small(Algorithm::Centralized);
        base.mean_lifetime = robonet_des::SimDuration::from_secs(300.0);
        let mut idle = base.clone();
        idle.dispatch = crate::config::DispatchPolicy::NearestIdle;
        let s_near = Simulation::run(base).metrics.summary();
        let s_idle = Simulation::run(idle).metrics.summary();
        // The policies genuinely differ and NearestIdle does not lose on
        // repair throughput.
        assert!(
            s_idle.replacements as f64 >= 0.9 * s_near.replacements as f64,
            "idle-dispatch throughput {} vs nearest {}",
            s_idle.replacements,
            s_near.replacements
        );
        // NearestIdle pays extra travel for its idle preference (it
        // passes over the closest-but-busy robot). Whether that buys
        // shorter delays depends on load and the staleness of the queue
        // reports — the ablation bench quantifies it; here we only pin
        // the travel direction and overall sanity.
        assert!(
            s_idle.avg_travel_per_failure >= s_near.avg_travel_per_failure * 0.98,
            "idle travel {} vs nearest {}",
            s_idle.avg_travel_per_failure,
            s_near.avg_travel_per_failure
        );
        assert!(s_idle.avg_repair_delay < s_near.avg_repair_delay * 2.0);
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> ConvexPolygon {
        ConvexPolygon::new(vec![
            Point::new(x0, y0),
            Point::new(x1, y0),
            Point::new(x1, y1),
            Point::new(x0, y1),
        ])
        .expect("CCW rectangle")
    }

    /// `small()` with lifetimes long enough that the fleet has headroom:
    /// failure counts then track the failure *process* rather than robot
    /// throughput, which is what the timeline tests need to observe.
    fn small_relaxed(alg: Algorithm) -> ScenarioConfig {
        let mut cfg = small(alg);
        cfg.mean_lifetime = SimDuration::from_secs(2.0 * cfg.sim_time.as_secs_f64());
        cfg
    }

    #[test]
    fn blackout_kills_the_region_and_recovery_follows() {
        use crate::fault::{FaultPlan, TimedFault};
        let base = Simulation::run(small_relaxed(Algorithm::Dynamic)).metrics;
        let mut cfg = small_relaxed(Algorithm::Dynamic);
        let half = cfg.sim_time.as_secs_f64() / 2.0;
        let side = cfg.side();
        cfg.faults = Some(FaultPlan {
            timeline: vec![TimedFault::Blackout {
                at: SimDuration::from_secs(half),
                region: rect(0.0, 0.0, side / 2.0, side / 2.0),
            }],
            ..FaultPlan::default()
        });
        let o = Simulation::run(cfg);
        // A quadrant blackout at half-time adds roughly a quarter of the
        // population in simultaneous failures.
        assert!(
            o.metrics.failures_occurred > base.failures_occurred + 30,
            "blackout failures {} vs base {}",
            o.metrics.failures_occurred,
            base.failures_occurred
        );
        // The fleet digs itself out: most failures still get repaired.
        let repaired = o.metrics.replacements as f64 / o.metrics.failures_occurred as f64;
        assert!(repaired > 0.6, "repair ratio {repaired} after blackout");
        assert_eq!(o.metrics.counters.counter("fault", "timeline_events"), 1);
    }

    #[test]
    fn attrition_wave_is_permanent_and_triggers_takeover() {
        use crate::fault::{FaultPlan, TimedFault};
        let mut cfg = small(Algorithm::Dynamic);
        cfg.faults = Some(FaultPlan {
            // Repairs configured but attrition must ignore them.
            breakdown_repair: Some(SimDuration::from_secs(10.0)),
            timeline: vec![TimedFault::Attrition {
                at: SimDuration::from_secs(cfg.sim_time.as_secs_f64() / 4.0),
                robots: 2,
            }],
            ..FaultPlan::default()
        });
        let o = Simulation::run(cfg);
        assert_eq!(o.metrics.faults.robot_breakdowns, 2);
        assert_eq!(
            o.metrics.faults.robot_repairs, 0,
            "attrition deaths never repair"
        );
        assert!(
            o.metrics.faults.takeovers >= 1,
            "surviving peers take over: {}",
            o.metrics.faults.takeovers
        );
        // Half the fleet still repairs the bulk of failures.
        let repaired = o.metrics.replacements as f64 / o.metrics.failures_occurred as f64;
        assert!(repaired > 0.6, "repair ratio {repaired} after attrition");
    }

    #[test]
    fn partition_drops_cross_frames_then_heals() {
        use crate::fault::{FaultPlan, TimedFault};
        let mut cfg = small(Algorithm::Dynamic);
        let side = cfg.side();
        let t = cfg.sim_time.as_secs_f64();
        cfg.faults = Some(FaultPlan {
            timeline: vec![TimedFault::Partition {
                from: SimDuration::from_secs(t / 4.0),
                until: SimDuration::from_secs(t / 2.0),
                a: rect(0.0, 0.0, side / 2.0, side),
                b: rect(side / 2.0, 0.0, side, side),
            }],
            ..FaultPlan::default()
        });
        let o = Simulation::run(cfg);
        let drops = o.metrics.counters.counter("fault", "partition_drops");
        assert!(drops > 0, "cross-partition frames must die");
        // After healing, the system recovers most failures overall.
        let repaired = o.metrics.replacements as f64 / o.metrics.failures_occurred as f64;
        assert!(repaired > 0.6, "repair ratio {repaired} across partition");
    }

    #[test]
    fn loss_rate_event_switches_probabilities_mid_run() {
        use crate::fault::{FaultPlan, TimedFault};
        let mut cfg = small(Algorithm::Dynamic);
        cfg.faults = Some(FaultPlan {
            timeline: vec![TimedFault::LossRate {
                at: SimDuration::from_secs(cfg.sim_time.as_secs_f64() / 2.0),
                report: 0.5,
                dispatch: 0.0,
                update: 0.0,
            }],
            ..FaultPlan::default()
        });
        let o = Simulation::run(cfg);
        assert!(
            o.metrics.faults.report_drops > 0,
            "second-half loss must drop reports"
        );
        assert!(
            o.metrics.faults.report_retries > 0,
            "retry machinery re-drives dropped reports"
        );
    }

    #[test]
    fn dense_region_attracts_deployment() {
        use crate::config::DeployRegion;
        use crate::field_deployment;
        let mut cfg = small(Algorithm::Dynamic);
        let side = cfg.side();
        let core = rect(side * 0.375, side * 0.375, side * 0.625, side * 0.625);
        cfg.regions.push(DeployRegion {
            poly: core.clone(),
            density: 6.0,
            mean_lifetime: None,
        });
        let dep = field_deployment(&cfg);
        let inside = dep.sensor_pos.iter().filter(|&&p| core.contains(p)).count();
        // The core covers 1/16 of the field; at density 6 it should hold
        // ~6/21 ≈ 29% of sensors instead of the uniform ~6%.
        let frac = inside as f64 / dep.sensor_pos.len() as f64;
        assert!(
            frac > 0.15,
            "dense core holds {frac:.2} of sensors (expected ~0.29)"
        );
        assert!(
            dep.sensor_pos.iter().all(|&p| cfg.bounds().contains(p)),
            "weighted deployment stays inside the field"
        );
        // And the run still works end to end.
        let o = Simulation::run(cfg);
        assert!(o.metrics.replacements > 0);
    }

    #[test]
    fn region_lifetime_override_shifts_failures() {
        use crate::config::DeployRegion;
        let mut cfg = small_relaxed(Algorithm::Dynamic);
        let side = cfg.side();
        // Sensors in the west half die 4x as fast.
        cfg.regions.push(DeployRegion {
            poly: rect(0.0, 0.0, side / 2.0, side),
            density: 1.0,
            mean_lifetime: Some(SimDuration::from_secs(
                cfg.mean_lifetime.as_secs_f64() / 4.0,
            )),
        });
        let o = Simulation::run(cfg.clone());
        let base = Simulation::run(small_relaxed(Algorithm::Dynamic)).metrics;
        assert!(
            o.metrics.failures_occurred as f64 > 1.5 * base.failures_occurred as f64,
            "short-lived region must raise failures: {} vs {}",
            o.metrics.failures_occurred,
            base.failures_occurred
        );
    }

    #[test]
    fn empty_timeline_plan_is_identical_to_no_faults() {
        use crate::fault::FaultPlan;
        let plain = Simulation::run(small(Algorithm::Dynamic));
        let mut cfg = small(Algorithm::Dynamic);
        cfg.faults = Some(FaultPlan::default()); // inert: empty timeline
        let with_plan = Simulation::run(cfg);
        assert_eq!(
            plain.metrics.travel_per_task,
            with_plan.metrics.travel_per_task
        );
        assert_eq!(plain.events_processed, with_plan.events_processed);
    }

    #[test]
    fn deterministic_across_identical_runs() {
        let a = Simulation::run(small(Algorithm::Dynamic));
        let b = Simulation::run(small(Algorithm::Dynamic));
        assert_eq!(a.metrics.failures_occurred, b.metrics.failures_occurred);
        assert_eq!(a.metrics.replacements, b.metrics.replacements);
        assert_eq!(a.metrics.travel_per_task, b.metrics.travel_per_task);
        assert_eq!(a.metrics.report_hops, b.metrics.report_hops);
        assert_eq!(a.events_processed, b.events_processed);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Simulation::run(small(Algorithm::Dynamic));
        let b = Simulation::run(small(Algorithm::Dynamic).with_seed(12));
        assert_ne!(a.metrics.travel_per_task, b.metrics.travel_per_task);
    }
}
