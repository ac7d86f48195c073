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
use robonet_net::{route_with, GeoHeader, NeighborTable, RouteDecision, RouteScratch};
use robonet_radio::engine::{RadioEvent, UpcallBuf, UpcallEntry};
use robonet_radio::medium::{Medium, NodeClass};
use robonet_radio::{Frame, RadioEngine, TrafficClass};
use robonet_robot::{ReplacementTask, RobotState};
use robonet_wsn::{GuardianEvent, SensorState};

use crate::config::ScenarioConfig;
use crate::coord::{self, Announcement, Coordinator, FleetView};
use crate::fault::{FaultInjector, FaultKind};
use crate::metrics::Metrics;
use crate::msg::AppMsg;
use crate::obs::{EventSink, NullSink, Observer, RingSink, SpanReport};
use crate::trace::{DropReason, TraceEvent};
use crate::world::{FaultHooks, Gauges, World};

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
    Fail {
        sensor: u32,
        incarnation: u32,
    },
    /// A robot reached the failure it was driving to.
    RobotArrive {
        robot: u32,
        leg: u64,
    },
    /// A moving robot crossed a 20 m update-threshold point.
    RobotUpdatePoint {
        robot: u32,
        leg: u64,
    },
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
    incarnation: Vec<u32>,
    robots: Vec<RobotState>,
    robot_leg_seq: Vec<u64>,
    robot_tasks_done: Vec<u64>,
    manager: Option<ManagerView>,
    /// Deployment, failure schedule and fault plan (shared with the
    /// flow engine).
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
    /// Robots degraded to `slow_factor` speed.
    robot_slowed: Vec<bool>,
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
    /// partition has activated.
    active_partitions: Vec<(SimTime, ConvexPolygon, ConvexPolygon)>,
    /// Frames suppressed by an active partition.
    partition_drops: u64,
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

        let robots = world.fleet(cfg.robot_speed);
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
            if let Some(fail_at) = world.next_failure(SimTime::ZERO, i) {
                sched.schedule_at(
                    fail_at,
                    Event::Fail {
                        sensor: i as u32,
                        incarnation: 0,
                    },
                );
            }
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
            incarnation: vec![0; n_sensors],
            sensors,
            robots,
            robot_leg_seq: vec![0; n_robots],
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
            robot_slowed: vec![false; n_robots],
            takeover_done: vec![false; n_robots],
            peer_last_heard: if robot_faults {
                vec![vec![None; n_robots]; n_robots]
            } else {
                Vec::new()
            },
            active_partitions: Vec::new(),
            partition_drops: 0,
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
        self.metrics.robot_odometers = self.robots.iter().map(RobotState::odometer).collect();
        self.metrics.tasks_per_robot = self.robot_tasks_done.clone();
        self.metrics.myrobot_accuracy = self.myrobot_accuracy();
        self.metrics.tx = self.radio.stats().clone();
        self.snapshot_registry();
        let (spans, trace) = self.observer.finish();
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
        let robot_locs: Vec<Point> = self.robots.iter().map(|r| r.position_at(now)).collect();
        let mut correct = 0usize;
        let mut total = 0usize;
        for s in &self.sensors {
            if !s.alive {
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

    // --- Event dispatch ---------------------------------------------------

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
            Event::Fail {
                sensor,
                incarnation,
            } => self.on_fail(now, sensor as usize, incarnation),
            Event::RobotArrive { robot, leg } => self.on_robot_arrive(now, robot as usize, leg),
            Event::RobotUpdatePoint { robot, leg } => {
                self.on_robot_update_point(now, robot as usize, leg)
            }
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

    /// `true` when an active partition separates the immediate
    /// transmitter from the receiver; such frames die at the receiver.
    fn partition_blocks(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        let sp = self.node_position(now, src);
        let dp = self.node_position(now, dst);
        self.active_partitions.iter().any(|(until, a, b)| {
            now < *until
                && ((a.contains(sp) && b.contains(dp)) || (b.contains(sp) && a.contains(dp)))
        })
    }

    fn on_radio(&mut self, now: SimTime, rev: RadioEvent) {
        let mut out = std::mem::take(&mut self.upcall_buf);
        {
            let radio = &mut self.radio;
            let sched = &mut self.sched;
            radio.handle(
                now,
                rev,
                &mut |at, e| {
                    sched.schedule_at(at, Event::Radio(e));
                },
                &mut out,
            );
        }
        for i in 0..out.entries().len() {
            match out.entries()[i] {
                UpcallEntry::Delivered { to, frame } => {
                    self.on_delivered(now, to, out.frame(frame));
                }
                UpcallEntry::TxComplete { src, frame, ok } => {
                    if !ok {
                        self.on_tx_failed(now, src, out.frame(frame));
                    }
                }
            }
        }
        out.clear();
        self.upcall_buf = out;
    }

    fn radio_send(&mut self, now: SimTime, frame: Frame<AppMsg>) {
        let radio = &mut self.radio;
        let sched = &mut self.sched;
        radio.send(now, frame, &mut |at, e| {
            sched.schedule_at(at, Event::Radio(e));
        });
    }

    /// Fires the telemetry sampler: the observer snapshots the live
    /// gauges, checks the health monitor against them and emits both.
    /// Everything read here sits on the sim-time event axis, so
    /// same-seed runs sample identical values.
    fn on_telemetry_sample(&mut self, now: SimTime) {
        let every = self.cfg.sample_every.expect("samples imply a cadence");
        self.sched.schedule_after(every, Event::TelemetrySample);
        let t = now.as_secs_f64();
        let alive: Vec<bool> = self.sensors.iter().map(|s| s.alive).collect();
        let gauges = Gauges {
            alive: &alive,
            robots: &self.robots,
            in_flight: self.radio.in_flight() as u32,
            sched_queue: self.sched.pending() as u32,
            failures: self.metrics.failures_occurred,
            replacements: self.metrics.replacements,
            robots_down: self.robot_down.iter().filter(|&&d| d).count() as u64,
        };
        let (sample, violations) = self.observer.sample(&self.world, t, &gauges);
        self.metrics.telemetry_timeline.push((t, sample));
        self.metrics.invariant_violations += violations;
    }

    // --- Periodic node duties ----------------------------------------------

    fn on_sensor_tick(&mut self, now: SimTime, s: usize) {
        self.sched.schedule_after(
            self.cfg.beacon_period,
            Event::SensorTick { sensor: s as u32 },
        );
        if !self.sensors[s].alive {
            return;
        }
        let loc = self.sensors[s].loc;
        let src = self.sensors[s].id;
        // Beacon to one-hop neighbours.
        let beacon = AppMsg::Beacon { loc };
        self.radio_send(
            now,
            Frame {
                src,
                dst: None,
                bytes: beacon.wire_bytes(),
                class: TrafficClass::Beacon,
                payload: beacon,
            },
        );

        let timeout = self.cfg.failure_timeout();

        // Evict neighbours that stopped beaconing (stale robots that
        // moved away, silently failed sensors).
        let cutoff = if now.as_nanos() > timeout.as_nanos() {
            now - timeout
        } else {
            SimTime::ZERO
        };
        self.sensors[s].neighbors.evict_stale(cutoff);

        // Report silent guardees. Fault-free runs report once and stop
        // watching; with faults active the guardian keeps the watch and
        // retries with exponential backoff until the guardee beacons
        // again (replaced) or the attempt budget runs out (explicit
        // orphan).
        let max_attempts = self
            .world
            .faults
            .as_ref()
            .map(|i| i.plan.max_report_attempts);
        let silent = self.sensors[s].silent_guardees(now, timeout);
        for g in silent {
            if !self.sensors[s].should_report(g, now) {
                continue;
            }
            if let Some(max_attempts) = max_attempts {
                let attempt = self.sensors[s].note_report_attempt(g);
                if attempt > max_attempts {
                    self.sensors[s].forget_failed_neighbor(g);
                    self.metrics.faults.reports_abandoned += 1;
                    continue;
                }
                let window = FaultInjector::report_backoff(self.cfg.report_retry, attempt);
                self.sensors[s].mark_reported(g, now, window);
                self.sensors[s].scrub_failed_neighbor(g);
                if attempt >= 2 && self.coord.evict_myrobot_on_retry() {
                    self.evict_stale_myrobot(s);
                }
                self.send_failure_report(now, s, g, attempt);
            } else {
                self.sensors[s].mark_reported(g, now, self.cfg.report_retry);
                self.sensors[s].forget_failed_neighbor(g);
                self.send_failure_report(now, s, g, 1);
            }
        }

        // Replace a lost guardian.
        if let GuardianEvent::GuardianLost(g) = self.sensors[s].check_guardian(now, timeout) {
            self.sensors[s].forget_failed_neighbor(g);
        }
        if self.sensors[s].guardian.is_none() && !self.sensors[s].neighbors.is_empty() {
            self.pick_and_confirm_guardian(now, s);
        }
    }

    fn pick_and_confirm_guardian(&mut self, now: SimTime, s: usize) {
        let n_sensors = self.sensors.len();
        let my_sub = self.world.sensor_subarea[s];
        let is_fixed = self.coord.guardian_requires_same_subarea();
        // Guardians must be sensors; in the fixed algorithm the pair must
        // share a subarea (§3.2). Sensors are static, so subarea can be
        // looked up from deployment data.
        let subareas = &self.world.sensor_subarea;
        let pick = self.sensors[s].pick_guardian(now, |id| {
            id.index() < n_sensors && (!is_fixed || subareas[id.index()] == my_sub)
        });
        if let Some(g) = pick {
            let src = self.sensors[s].id;
            let msg = AppMsg::GuardianConfirm;
            self.radio_send(
                now,
                Frame {
                    src,
                    dst: Some(g),
                    bytes: msg.wire_bytes(),
                    class: TrafficClass::Init,
                    payload: msg,
                },
            );
        }
    }

    fn on_agent_tick(&mut self, now: SimTime, node: u32) {
        self.sched
            .schedule_after(self.cfg.beacon_period, Event::AgentTick { node });
        let id = NodeId::new(node);
        let r = self.robot_index(id);
        if let Some(r) = r {
            if self.robot_down[r] {
                return; // broken down: silent until repaired
            }
        }
        let loc = self.agent_position(now, id);
        self.radio.set_position(id, loc);
        let beacon = AppMsg::Beacon { loc };
        self.radio_send(
            now,
            Frame {
                src: id,
                dst: None,
                bytes: beacon.wire_bytes(),
                class: TrafficClass::Beacon,
                payload: beacon,
            },
        );
        // Fault-tolerance duties ride on the beacon clock (both are
        // no-ops in fault-free runs).
        match r {
            Some(r) => self.check_peer_takeover(now, r),
            None => self.check_dispatch_timeouts(now),
        }
    }

    fn agent_position(&self, now: SimTime, id: NodeId) -> Point {
        match self.robot_index(id) {
            Some(r) => self.robots[r].position_at(now),
            None => {
                self.world
                    .field
                    .manager
                    .expect("manager beacons only when present")
                    .1
            }
        }
    }

    // --- Failures -----------------------------------------------------------

    fn on_fail(&mut self, now: SimTime, s: usize, incarnation: u32) {
        if self.incarnation[s] != incarnation || !self.sensors[s].alive {
            return;
        }
        self.sensors[s].alive = false;
        self.radio.set_alive(self.sensors[s].id, false);
        self.metrics.failures_occurred += 1;
        self.observer.emit(|| TraceEvent::Failure {
            t: now.as_secs_f64(),
            sensor: self.sensors[s].id,
        });
    }

    /// A sensor whose `myrobot` keeps ignoring reports drops it from
    /// its table, falling back to the next-closest known robot (dynamic
    /// algorithm only, via [`Coordinator::evict_myrobot_on_retry`]).
    fn evict_stale_myrobot(&mut self, s: usize) {
        if self.sensors[s].robot_locs.len() < 2 {
            return; // never discard the last known robot
        }
        if let Some((robot, _)) = self.sensors[s].myrobot {
            self.sensors[s].forget_robot(robot);
        }
    }

    fn send_failure_report(&mut self, now: SimTime, guardian: usize, failed: NodeId, attempt: u32) {
        let failed_loc = self.sensors[failed.index()].loc;
        let (dst, dst_loc) = self.coord.report_target(&self.sensors[guardian]);
        self.metrics.reports_sent += 1;
        if attempt >= 2 {
            self.metrics.faults.report_retries += 1;
        }
        let origin = self.sensors[guardian].id;
        self.observer.emit(|| {
            let t = now.as_secs_f64();
            if attempt <= 1 {
                TraceEvent::Detected {
                    t,
                    guardian: origin,
                    failed,
                }
            } else {
                TraceEvent::ReportRetried {
                    t,
                    guardian: origin,
                    failed,
                    attempt,
                }
            }
        });
        // Injected link loss: the report leaves the guardian but dies
        // en route; the retry machinery re-drives it.
        if self.message_lost(now, FaultKind::ReportLoss, origin) {
            return;
        }
        let msg = AppMsg::Report {
            failed,
            failed_loc,
            geo: GeoHeader::new(dst, dst_loc),
        };
        self.originate_geo(now, origin, msg, TrafficClass::FailureReport);
    }

    // --- Geographic routing glue ---------------------------------------------

    /// Routes a freshly created geo message from `origin` (first hop).
    fn originate_geo(&mut self, now: SimTime, origin: NodeId, msg: AppMsg, class: TrafficClass) {
        self.route_and_send(now, origin, msg, class, None);
    }

    /// Forwards a geo message held by `at` (arrived from `prev`).
    fn route_and_send(
        &mut self,
        now: SimTime,
        at: NodeId,
        mut msg: AppMsg,
        class: TrafficClass,
        prev_loc: Option<Point>,
    ) {
        let at_loc = self.node_position(now, at);
        let mut hdr = *msg.geo().expect("route_and_send requires a geo header");
        let decision = if at.index() < self.sensors.len() {
            route_with(
                &mut self.route_scratch,
                at,
                at_loc,
                &self.sensors[at.index()].neighbors,
                &mut hdr,
                prev_loc,
            )
        } else {
            let mut table = std::mem::take(&mut self.oracle_scratch);
            self.fill_oracle_table(&mut table, now, at);
            let d = route_with(
                &mut self.route_scratch,
                at,
                at_loc,
                &table,
                &mut hdr,
                prev_loc,
            );
            self.oracle_scratch = table;
            d
        };
        match decision {
            RouteDecision::Deliver => self.handle_final(now, at, msg),
            RouteDecision::Forward(next) => {
                *msg.geo_mut().expect("checked above") = hdr;
                let bytes = msg.wire_bytes();
                self.radio_send(
                    now,
                    Frame {
                        src: at,
                        dst: Some(next),
                        bytes,
                        class,
                        payload: msg,
                    },
                );
            }
            RouteDecision::Drop(why) => {
                let reason = DropReason::from(why);
                self.metrics.packets_dropped.record(reason);
                self.observer.emit(|| TraceEvent::PacketDropped {
                    t: now.as_secs_f64(),
                    at,
                    reason,
                });
            }
        }
    }

    /// Location-service table for robots and the manager: every alive
    /// node within transmission range at its current position (§3.1's
    /// post-initialization knowledge; sensors are static).
    fn fill_oracle_table(&self, table: &mut NeighborTable, now: SimTime, at: NodeId) {
        table.clear();
        let medium = self.radio.medium();
        medium.for_each_hearer(at, |n| {
            let loc = if n.index() < self.sensors.len() {
                self.sensors[n.index()].loc
            } else {
                self.node_position(now, n)
            };
            table.update(n, loc, now);
        });
    }

    fn node_position(&self, now: SimTime, id: NodeId) -> Point {
        if id.index() < self.sensors.len() {
            self.sensors[id.index()].loc
        } else {
            self.agent_position(now, id)
        }
    }

    fn robot_index(&self, id: NodeId) -> Option<usize> {
        let i = id.index();
        let n = self.sensors.len();
        (i >= n && i < n + self.robots.len()).then(|| i - n)
    }

    // --- Application-layer message handling ----------------------------------

    fn on_delivered(&mut self, now: SimTime, to: NodeId, frame: &Frame<AppMsg>) {
        // A scheduled network partition severs links between its two
        // regions: frames whose immediate transmitter sits on the other
        // side die at the receiver. (Empty unless a timeline partition
        // has activated, so ordinary runs pay one Vec::is_empty.)
        if !self.active_partitions.is_empty() && self.partition_blocks(now, frame.src, to) {
            self.partition_drops += 1;
            return;
        }
        match frame.payload {
            AppMsg::Beacon { loc } => {
                // Robots overhear each other's beacons to maintain peer
                // heartbeats (allocated only when breakdowns can occur).
                if !self.peer_last_heard.is_empty() {
                    if let (Some(rt), Some(rs)) =
                        (self.robot_index(to), self.robot_index(frame.src))
                    {
                        self.peer_last_heard[rt][rs] = Some(now);
                    }
                }
                self.hear_guarded(now, to, frame.src, loc)
            }
            AppMsg::GuardianConfirm => {
                if to.index() < self.sensors.len() && self.sensors[to.index()].alive {
                    self.sensors[to.index()].add_guardee(frame.src, now);
                }
            }
            AppMsg::RobotHello {
                robot,
                loc,
                manager,
            } => self.on_robot_hello(now, to, frame.src, robot, loc, manager),
            AppMsg::RobotFlood {
                robot,
                loc,
                seq,
                subarea,
                defunct,
            } => self.on_robot_flood(now, to, frame, robot, loc, seq, subarea, defunct),
            ref geo_msg @ (AppMsg::Report { .. }
            | AppMsg::Request { .. }
            | AppMsg::RobotToManagerUpdate { .. }) => {
                let hdr = geo_msg.geo().expect("geo variants carry headers");
                if hdr.dst == to {
                    let msg = frame.payload.clone();
                    self.handle_final(now, to, msg);
                } else {
                    let prev = self.node_position(now, frame.src);
                    let msg = frame.payload.clone();
                    self.route_and_send(now, to, msg, frame.class, Some(prev));
                }
            }
        }
    }

    /// A node heard a location-bearing frame directly from `from`; it
    /// only enters the routing neighbour table if the advertised
    /// location is within the *receiver's own* transmission range, so
    /// asymmetric links (robot heard at 200 m by a 63 m sensor) never
    /// become forwarding edges.
    fn hear_guarded(&mut self, now: SimTime, to: NodeId, from: NodeId, loc: Point) {
        if to.index() >= self.sensors.len() {
            return; // robots and the manager use the location service
        }
        if !self.sensors[to.index()].alive {
            return;
        }
        // Robots move up to one update threshold between announcements;
        // only accept them as forwarding neighbours with that margin in
        // hand (the paper's rationale for the 20 m threshold: “to ensure
        // that the robots can receive failure messages all the time”,
        // §4.2). Static nodes get the full range.
        let margin = if from.index() < self.sensors.len() {
            0.0
        } else {
            self.cfg.update_threshold
        };
        let s = &mut self.sensors[to.index()];
        let r = self.radio.medium().tx_range(to) - margin;
        if s.loc.distance_sq(loc) <= r * r {
            s.hear(from, loc, now);
        }
    }

    fn on_robot_hello(
        &mut self,
        now: SimTime,
        to: NodeId,
        src: NodeId,
        robot: NodeId,
        loc: Point,
        manager: Option<(NodeId, Point)>,
    ) {
        if to.index() >= self.sensors.len() {
            return;
        }
        self.hear_guarded(now, to, src, loc);
        if !self.sensors[to.index()].alive {
            return;
        }
        let ctx = self.world.coord_ctx(self.cfg.update_threshold);
        self.coord
            .on_robot_hello(&mut self.sensors[to.index()], robot, loc, manager, &ctx);
    }

    #[allow(clippy::too_many_arguments)]
    fn on_robot_flood(
        &mut self,
        now: SimTime,
        to: NodeId,
        frame: &Frame<AppMsg>,
        robot: NodeId,
        loc: Point,
        seq: u32,
        subarea: u32,
        defunct: Option<NodeId>,
    ) {
        if to.index() >= self.sensors.len() || !self.sensors[to.index()].alive {
            return;
        }
        // Hearing the robot itself also refreshes the routing table.
        if frame.src == robot {
            self.hear_guarded(now, to, frame.src, loc);
        }
        if !self.sensors[to.index()].dedup.accept(robot, seq) {
            return; // relay at most once per (robot, seq) — §3.2
        }
        // Takeover floods name the broken-down peer: forget it before
        // weighing the announcer, so `myrobot` can never stick to a
        // dead robot that happens to be closer.
        if let Some(dead) = defunct {
            self.sensors[to.index()].forget_robot(dead);
            // Never leave a sensor robotless: if the defunct robot was
            // the only one it knew, the announcer itself is the fallback
            // (the scoped `accept_flood` below may not adopt it when the
            // sensor sits outside the flooded subarea).
            if self.sensors[to.index()].myrobot.is_none() {
                self.sensors[to.index()].myrobot = Some((robot, loc));
            }
        }
        let s_loc = self.sensors[to.index()].loc;
        let ctx = self.world.coord_ctx(self.cfg.update_threshold);
        let my_sub = self.world.sensor_subarea[to.index()];
        let mut relay = self.coord.accept_flood(
            &mut self.sensors[to.index()],
            robot,
            loc,
            subarea,
            my_sub,
            &ctx,
        );
        // §6 future-work optimisation: border-retransmit self-pruning —
        // a sensor deep inside the transmitter's coverage adds little
        // new area by relaying, so only the outer ring (beyond
        // `min_frac` of the *transmitter's* range) retransmits.
        if let Some(min_frac) = self.cfg.broadcast_prune {
            let from_loc = self.node_position(now, frame.src);
            let range = min_frac * self.radio.medium().tx_range(frame.src);
            if s_loc.distance_sq(from_loc) < range * range {
                relay = false;
            }
        }
        if relay {
            let msg = AppMsg::RobotFlood {
                robot,
                loc,
                seq,
                subarea,
                defunct,
            };
            let bytes = msg.wire_bytes();
            let relay_frame = Frame {
                src: to,
                dst: None,
                bytes,
                class: frame.class,
                payload: msg,
            };
            // Desynchronise the flood: without a random forwarding delay
            // every receiver of one broadcast contends in the same 620 µs
            // window and the relays collide en masse (the classic
            // broadcast-storm problem; flooding implementations jitter
            // exactly like this).
            let jitter =
                sampler::uniform_duration(&mut self.jitter_rng, SimDuration::from_millis(50));
            self.sched.schedule_after(
                jitter,
                Event::RelaySend {
                    frame: Box::new(relay_frame),
                },
            );
        }
    }

    /// A geo-routed message reached its destination.
    fn handle_final(&mut self, now: SimTime, at: NodeId, msg: AppMsg) {
        match msg {
            AppMsg::Report {
                failed,
                failed_loc,
                geo,
            } => {
                self.metrics.reports_delivered += 1;
                self.metrics.report_hops.push(geo.hops);
                self.observer.emit(|| TraceEvent::ReportDelivered {
                    t: now.as_secs_f64(),
                    manager: at,
                    failed,
                    hops: geo.hops,
                });
                if self.coord.dispatch_via_manager() {
                    self.manager_dispatch(now, failed, failed_loc);
                } else if let Some(r) = self.robot_index(at) {
                    self.robot_enqueue(now, r, failed, failed_loc);
                }
            }
            AppMsg::Request {
                failed,
                failed_loc,
                geo,
            } => {
                self.metrics.requests_delivered += 1;
                self.metrics.request_hops.push(geo.hops);
                if let Some(r) = self.robot_index(at) {
                    self.robot_enqueue(now, r, failed, failed_loc);
                }
            }
            AppMsg::RobotToManagerUpdate {
                robot,
                loc,
                queue_len,
                ..
            } => {
                let r = self.robot_index(robot);
                if let (Some(m), Some(r)) = (self.manager.as_mut(), r) {
                    m.robot_locs[r] = loc;
                    m.robot_queues[r] = queue_len;
                    // A talking robot is not a suspect.
                    m.suspect[r] = false;
                }
            }
            _ => {}
        }
    }

    /// The central manager received a failure report: forward it to the
    /// robot currently closest to the failure (§3.1).
    fn manager_dispatch(&mut self, now: SimTime, failed: NodeId, failed_loc: Point) {
        let retry_window = self.cfg.report_retry / 2;
        let faults_active = self.world.faults.is_some();
        let manager = self.manager.as_mut().expect("centralized manager exists");
        // Drop duplicate reports for a failure already being handled.
        if let Some(t) = manager.last_dispatch[failed.index()] {
            if now.saturating_duration_since(t) < retry_window {
                return;
            }
        }
        // With faults active a stalled dispatch is re-driven by the
        // timeout machinery, not by guardian retry reports.
        if faults_active && manager.outstanding.contains_key(&failed.as_u32()) {
            manager.last_dispatch[failed.index()] = Some(now);
            return;
        }
        self.dispatch_to_robot(now, failed, failed_loc, 1);
    }

    /// One dispatch attempt: pick a (non-suspect) robot and send the
    /// request. `attempt` ≥ 2 means a post-timeout re-dispatch.
    fn dispatch_to_robot(&mut self, now: SimTime, failed: NodeId, failed_loc: Point, attempt: u32) {
        let faults_active = self.world.faults.is_some();
        let manager = self.manager.as_mut().expect("centralized manager exists");
        manager.last_dispatch[failed.index()] = Some(now);
        let fleet = FleetView {
            robot_locs: &manager.robot_locs,
            robot_queues: &manager.robot_queues,
            suspect: Some(&manager.suspect),
        };
        let best_robot = self
            .coord
            .choose_dispatch_robot(&fleet, failed_loc, self.cfg.dispatch)
            .expect("manager algorithms choose a robot");
        if faults_active {
            manager.outstanding.insert(
                failed.as_u32(),
                OutstandingDispatch {
                    robot: best_robot,
                    since: now,
                    attempts: attempt,
                    failed_loc,
                },
            );
        }
        let robot_node = self.robots[best_robot].id;
        let robot_loc = manager.robot_locs[best_robot];
        let (manager_id, _) = self
            .world
            .field
            .manager
            .expect("centralized manager exists");
        self.metrics.requests_sent += 1;
        if attempt >= 2 {
            self.metrics.faults.redispatches += 1;
        }
        // Injected link loss: the request dies en route; the timeout
        // re-drives it.
        if self.message_lost(now, FaultKind::DispatchLoss, manager_id) {
            return;
        }
        let msg = AppMsg::Request {
            failed,
            failed_loc,
            geo: GeoHeader::new(robot_node, robot_loc),
        };
        self.originate_geo(now, manager_id, msg, TrafficClass::RepairRequest);
    }

    /// Manager-side watchdog (runs on the manager's beacon clock):
    /// dispatches older than the plan's timeout mark their robot
    /// suspect and go to the next-closest non-suspect robot, up to the
    /// attempt budget.
    fn check_dispatch_timeouts(&mut self, now: SimTime) {
        let Some(inj) = self.world.faults.as_ref() else {
            return;
        };
        let timeout = inj.plan.dispatch_timeout;
        let max_attempts = inj.plan.max_dispatch_attempts;
        let Some(m) = self.manager.as_mut() else {
            return;
        };
        let expired: Vec<(u32, OutstandingDispatch)> = m
            .outstanding
            .iter()
            .filter(|(_, od)| now.saturating_duration_since(od.since) >= timeout)
            .map(|(&failed, &od)| (failed, od))
            .collect();
        for (failed, od) in expired {
            let m = self.manager.as_mut().expect("checked above");
            m.outstanding.remove(&failed);
            m.suspect[od.robot] = true;
            self.metrics.faults.dispatch_timeouts += 1;
            self.observer.emit(|| TraceEvent::DispatchTimedOut {
                t: now.as_secs_f64(),
                failed: NodeId::new(failed),
                attempt: od.attempts,
            });
            if od.attempts >= max_attempts {
                self.metrics.faults.dispatches_abandoned += 1;
            } else {
                self.dispatch_to_robot(now, NodeId::new(failed), od.failed_loc, od.attempts + 1);
            }
        }
    }

    fn robot_enqueue(&mut self, now: SimTime, r: usize, failed: NodeId, failed_loc: Point) {
        if self.robots[r].has_task(failed) {
            return; // duplicate report for a queued failure
        }
        let task = ReplacementTask {
            failed,
            loc: failed_loc,
            dispatched_at: now,
        };
        let leg = self.robots[r].enqueue(task, now);
        self.observer.emit(|| TraceEvent::Dispatched {
            t: now.as_secs_f64(),
            robot: self.robots[r].id,
            failed,
            departed: leg.is_some(),
        });
        if let Some(leg) = leg {
            self.start_leg(r, leg);
        }
    }

    fn start_leg(&mut self, r: usize, leg: robonet_robot::motion::Leg) {
        self.robot_leg_seq[r] += 1;
        let seq = self.robot_leg_seq[r];
        self.observer.emit(|| TraceEvent::RobotLegStarted {
            t: leg.start().as_secs_f64(),
            robot: self.robots[r].id,
            failed: self.robots[r]
                .current_task()
                .expect("departing robot has a task")
                .failed,
            from: leg.from(),
            to: leg.to(),
        });
        self.sched.schedule_at(
            leg.arrival(),
            Event::RobotArrive {
                robot: r as u32,
                leg: seq,
            },
        );
        for t in leg.update_times(self.cfg.update_threshold) {
            self.sched.schedule_at(
                t,
                Event::RobotUpdatePoint {
                    robot: r as u32,
                    leg: seq,
                },
            );
        }
    }

    fn on_robot_update_point(&mut self, now: SimTime, r: usize, leg: u64) {
        if self.robot_leg_seq[r] != leg {
            return; // stale (robot re-planned)
        }
        let loc = self.robots[r].position_at(now);
        self.radio.set_position(self.robots[r].id, loc);
        self.do_location_update(now, r, TrafficClass::LocationUpdate);
    }

    fn on_robot_arrive(&mut self, now: SimTime, r: usize, leg: u64) {
        if self.robot_leg_seq[r] != leg {
            return;
        }
        let travel = self.robots[r]
            .current_leg()
            .expect("arriving robot has a leg")
            .distance();
        let (task, next_leg) = self.robots[r].arrive(now);
        let robot_node = self.robots[r].id;
        self.radio.set_position(robot_node, task.loc);
        // The repair completed: the manager's dispatch watchdog (if
        // any) stops waiting on it.
        if let Some(m) = self.manager.as_mut() {
            m.outstanding.remove(&task.failed.as_u32());
        }
        self.observer.emit(|| TraceEvent::RobotLegEnded {
            t: now.as_secs_f64(),
            robot: robot_node,
            travel,
        });

        let s = task.failed.index();
        if self.sensors[s].alive {
            self.metrics.spurious_replacements += 1;
        } else {
            // Install the replacement: same identity and location, fresh
            // protocol state, fresh exponential lifetime (§2(a), §2(d)).
            self.sensors[s].reset_for_replacement();
            let ctx = self.world.coord_ctx(self.cfg.update_threshold);
            self.coord.seed_replacement(&mut self.sensors[s], &ctx);
            // With breakdowns in play the installer may be a takeover
            // robot from another subarea whose scoped floods this sensor
            // will never match; adopt it directly so the replacement is
            // never robotless. Fault-free the next flood seeds `myrobot`
            // before it is needed, so this stays behind the fault gate.
            if self.world.faults.is_some()
                && self.coord.uses_myrobot()
                && self.sensors[s].myrobot.is_none()
            {
                self.sensors[s].myrobot = Some((robot_node, task.loc));
            }
            self.radio.set_alive(task.failed, true);
            self.incarnation[s] += 1;
            if let Some(fail_at) = self.world.next_failure(now, s) {
                self.sched.schedule_at(
                    fail_at,
                    Event::Fail {
                        sensor: s as u32,
                        incarnation: self.incarnation[s],
                    },
                );
            }
            self.metrics.replacements += 1;
            self.robot_tasks_done[r] += 1;
            self.metrics.travel_per_task.push(travel);
            self.observer.emit(|| TraceEvent::Replaced {
                t: now.as_secs_f64(),
                robot: robot_node,
                sensor: task.failed,
                travel,
                loc: task.loc,
            });
            self.metrics
                .repair_delay
                .push(now.duration_since(task.dispatched_at).as_secs_f64());
            // The new node announces itself so neighbours rebuild their
            // tables (§4.2(a)).
            let hello = AppMsg::Beacon {
                loc: self.sensors[s].loc,
            };
            self.radio_send(
                now,
                Frame {
                    src: task.failed,
                    dst: None,
                    bytes: hello.wire_bytes(),
                    class: TrafficClass::Replacement,
                    payload: hello,
                },
            );
        }

        // Arrival is a moved-by-threshold point too: update location and
        // introduce the robot (and the manager) to the neighbourhood.
        self.do_location_update(now, r, TrafficClass::LocationUpdate);

        if let Some(leg) = next_leg {
            self.start_leg(r, leg);
        }
    }

    /// Whether the fault plan drops a `kind` message `node` originates
    /// (never on a fault-free run). A drop is counted and traced.
    fn message_lost(&mut self, now: SimTime, kind: FaultKind, node: NodeId) -> bool {
        let lost = self
            .world
            .faults
            .as_mut()
            .is_some_and(|inj| inj.drop_message(kind));
        if lost {
            let stats = &mut self.metrics.faults;
            match kind {
                FaultKind::ReportLoss => stats.report_drops += 1,
                FaultKind::DispatchLoss => stats.dispatch_drops += 1,
                _ => stats.update_drops += 1,
            }
            self.observer.emit(|| TraceEvent::FaultInjected {
                t: now.as_secs_f64(),
                kind,
                node,
            });
        }
        lost
    }

    // --- Injected robot faults --------------------------------------------

    /// An injected breakdown fires: the robot either degrades to
    /// `slow_factor` speed or dies on the spot (silent radio, current
    /// task pushed back onto its queue) until an optional in-place
    /// repair.
    fn on_robot_breakdown(&mut self, now: SimTime, r: usize) {
        if self.robot_down[r] {
            return;
        }
        let slowdown = self.world.injector().breakdown_is_slowdown();
        let robot_node = self.robots[r].id;
        if slowdown {
            self.metrics.faults.robot_slowdowns += 1;
            self.robot_slowed[r] = true;
            let factor = self.world.injector().plan.slow_factor;
            self.replan_at_speed(now, r, self.cfg.robot_speed * factor);
            self.observer.emit(|| TraceEvent::FaultInjected {
                t: now.as_secs_f64(),
                kind: FaultKind::Slowdown,
                node: robot_node,
            });
            // A slowed robot keeps breaking down on the same clock.
            self.schedule_next_breakdown(r);
        } else {
            self.kill_robot(now, r);
            let repair = self.world.injector().plan.breakdown_repair;
            if let Some(repair) = repair {
                self.sched
                    .schedule_at(now + repair, Event::RobotRepair { robot: r as u32 });
            }
        }
    }

    /// In-place repair completes: the robot rejoins, re-announces, and
    /// resumes its queued work.
    fn on_robot_repair(&mut self, now: SimTime, r: usize) {
        if !self.robot_down[r] {
            return;
        }
        self.robot_down[r] = false;
        self.takeover_done[r] = false;
        // Reset peers' suspicion so the re-announcement isn't raced by a
        // stale takeover declaration.
        for table in &mut self.peer_last_heard {
            table[r] = None;
        }
        self.metrics.faults.robot_repairs += 1;
        let robot_node = self.robots[r].id;
        self.radio.set_alive(robot_node, true);
        self.observer.emit(|| TraceEvent::RobotRepaired {
            t: now.as_secs_f64(),
            robot: robot_node,
        });
        // Re-announce so sensors (and the manager) re-adopt the robot.
        self.do_location_update(now, r, TrafficClass::LocationUpdate);
        if let Some(leg) = self.robots[r].resume(now) {
            self.start_leg(r, leg);
        }
        self.schedule_next_breakdown(r);
    }

    fn schedule_next_breakdown(&mut self, r: usize) {
        let delay = self
            .world
            .faults
            .as_mut()
            .and_then(FaultInjector::next_breakdown_delay);
        if let Some(delay) = delay {
            self.sched
                .schedule_after(delay, Event::RobotBreakdown { robot: r as u32 });
        }
    }

    /// Interrupts any current leg, changes speed, and resumes — the
    /// replanned leg (new speed, partial travel credited) replaces the
    /// in-flight one.
    fn replan_at_speed(&mut self, now: SimTime, r: usize, speed: f64) {
        let was_moving = self.robots[r].interrupt(now);
        self.robots[r].set_speed(speed);
        if was_moving {
            let loc = self.robots[r].position_at(now);
            self.radio.set_position(self.robots[r].id, loc);
            if let Some(leg) = self.robots[r].resume(now) {
                self.start_leg(r, leg); // bumps the leg seq: old events go stale
            }
        }
    }

    /// A robot checks its peer heartbeats (its own beacon clock): a
    /// peer silent past the plan's window is presumed dead, and this
    /// robot floods a takeover announcement scoped to the dead peer's
    /// subarea (fixed) or unscoped (dynamic), naming it `defunct` so
    /// sensors drop it. First detector wins; repair resets the flag.
    fn check_peer_takeover(&mut self, now: SimTime, r: usize) {
        if self.peer_last_heard.is_empty() {
            return; // breakdowns not in the plan
        }
        let periods = self.world.injector().plan.peer_timeout_periods;
        let timeout =
            SimDuration::from_secs(self.cfg.beacon_period.as_secs_f64() * f64::from(periods));
        for p in 0..self.robots.len() {
            if p == r || self.takeover_done[p] {
                continue;
            }
            let Some(last) = self.peer_last_heard[r][p] else {
                continue; // never heard: out of range, not diagnosable
            };
            if now.saturating_duration_since(last) < timeout {
                continue;
            }
            // Only flood-announcing algorithms take over peer duties;
            // the centralized manager handles exclusion itself.
            let Announcement::Flood { subarea } = self.coord.location_announcement(p) else {
                continue;
            };
            self.takeover_done[p] = true;
            self.metrics.faults.takeovers += 1;
            let dead = self.robots[p].id;
            let robot_node = self.robots[r].id;
            let loc = self.robots[r].position_at(now);
            self.observer.emit(|| TraceEvent::TakeoverAssumed {
                t: now.as_secs_f64(),
                robot: robot_node,
                dead,
                subarea,
            });
            let seq = self.robots[r].next_seq();
            let msg = AppMsg::RobotFlood {
                robot: robot_node,
                loc,
                seq,
                subarea,
                defunct: Some(dead),
            };
            let bytes = msg.wire_bytes();
            self.radio_send(
                now,
                Frame {
                    src: robot_node,
                    dst: None,
                    bytes,
                    class: TrafficClass::LocationUpdate,
                    payload: msg,
                },
            );
        }
    }

    /// Broadcast/unicast the robot's current location per the algorithm
    /// (§3.1–3.3). `class` is `Init` for the initialization announcement
    /// and `LocationUpdate` during operation (the Figure 4 metric).
    fn do_location_update(&mut self, now: SimTime, r: usize, class: TrafficClass) {
        let loc = self.robots[r].position_at(now);
        let robot_node = self.robots[r].id;
        self.radio.set_position(robot_node, loc);
        // Injected loss on operational updates only (Init announcements
        // are part of the paper's assumed-reliable setup phase). The
        // robot believes it updated, so the cadence is unchanged.
        if class == TrafficClass::LocationUpdate
            && self.message_lost(now, FaultKind::UpdateLoss, robot_node)
        {
            self.robots[r].last_update_loc = loc;
            return;
        }
        let seq = self.robots[r].next_seq();
        match self.coord.location_announcement(r) {
            Announcement::ManagerUnicast => {
                let (m_id, m_loc) = self.world.field.manager.expect("manager exists");
                // Unicast to the manager via geographic routing...
                let queue_len = self.robots[r].outstanding_tasks() as u32;
                let msg = AppMsg::RobotToManagerUpdate {
                    robot: robot_node,
                    loc,
                    queue_len,
                    geo: GeoHeader::new(m_id, m_loc),
                };
                self.originate_geo(now, robot_node, msg, class);
                // ... plus a one-hop broadcast so nearby sensors can
                // deliver chasing repair requests (§3.1).
                let hello = AppMsg::RobotHello {
                    robot: robot_node,
                    loc,
                    manager: Some((m_id, m_loc)),
                };
                let bytes = hello.wire_bytes();
                self.radio_send(
                    now,
                    Frame {
                        src: robot_node,
                        dst: None,
                        bytes,
                        class,
                        payload: hello,
                    },
                );
            }
            Announcement::Flood { subarea } => {
                if class == TrafficClass::LocationUpdate {
                    self.observer.emit(|| TraceEvent::LocUpdateFlooded {
                        t: now.as_secs_f64(),
                        robot: robot_node,
                        seq: u64::from(seq),
                    });
                }
                let msg = AppMsg::RobotFlood {
                    robot: robot_node,
                    loc,
                    seq,
                    subarea,
                    defunct: None,
                };
                let bytes = msg.wire_bytes();
                self.radio_send(
                    now,
                    Frame {
                        src: robot_node,
                        dst: None,
                        bytes,
                        class,
                        payload: msg,
                    },
                );
            }
        }
        self.robots[r].last_update_loc = loc;
    }

    // --- MAC failure recovery -------------------------------------------------

    /// A unicast frame exhausted its retries: for geo-routed traffic,
    /// evict the unreachable next hop (GPSR neighbour blacklisting) and
    /// re-route from the current holder.
    fn on_tx_failed(&mut self, now: SimTime, src: NodeId, frame: &Frame<AppMsg>) {
        if frame.payload.geo().is_none() {
            return; // confirms/hellos are best-effort
        }
        let Some(next) = frame.dst else { return };
        if src.index() < self.sensors.len() {
            self.sensors[src.index()].neighbors.remove(next);
        }
        if !self.radio.medium().is_alive(src) {
            self.metrics.packets_dropped.record(DropReason::MacGiveUp);
            self.observer.emit(|| TraceEvent::PacketDropped {
                t: now.as_secs_f64(),
                at: src,
                reason: DropReason::MacGiveUp,
            });
            return;
        }
        self.route_and_send(now, src, frame.payload.clone(), frame.class, None);
    }
}

/// Blackout victims die through [`Simulation::on_fail`]: same
/// incarnation guard, same trace events as a lifetime expiry.
impl FaultHooks for Simulation {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn sensor_alive(&self, s: usize) -> bool {
        self.sensors[s].alive
    }

    fn fail_sensor(&mut self, now: SimTime, s: usize) {
        self.on_fail(now, s, self.incarnation[s]);
    }

    fn robot_in_service(&self, r: usize) -> bool {
        !self.robot_down[r]
    }

    /// Takes a robot out of service on the spot: silent radio, current
    /// leg interrupted, in-flight motion events gone stale. Shared by
    /// the probabilistic breakdown path (which may schedule a repair)
    /// and attrition waves (which never do).
    fn kill_robot(&mut self, now: SimTime, r: usize) {
        self.metrics.faults.robot_breakdowns += 1;
        self.robot_down[r] = true;
        self.robots[r].interrupt(now);
        self.robot_leg_seq[r] += 1; // stale in-flight arrive/update events
        let robot_node = self.robots[r].id;
        let loc = self.robots[r].position_at(now);
        self.radio.set_position(robot_node, loc);
        self.radio.set_alive(robot_node, false);
        self.observer.emit(|| TraceEvent::RobotDied {
            t: now.as_secs_f64(),
            robot: robot_node,
        });
    }

    fn install_partition(&mut self, until: SimTime, a: ConvexPolygon, b: ConvexPolygon) {
        self.active_partitions.push((until, a, b));
    }
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("algorithm", &self.cfg.algorithm)
            .field("sensors", &self.sensors.len())
            .field("robots", &self.robots.len())
            .field("now", &self.sched.now())
            .finish()
    }
}

/// Runs several seeds of the same scenario and merges the summaries by
/// averaging (used by the figure harness; the paper reports averages
/// over its simulation runs).
///
/// Seeds fan across the work-stealing pool; outcomes come back in seed
/// order and are identical to a sequential run (each seed is a pure
/// function of its configuration).
///
/// # Panics
///
/// Panics if any seed's simulation panicked.
pub fn run_seeds(cfg: &ScenarioConfig, seeds: &[u64]) -> Vec<Outcome> {
    robonet_des::pool::scatter_map(seeds, robonet_des::pool::resolve_jobs(None), |_, &seed| {
        Simulation::run(cfg.clone().with_seed(seed))
    })
    .into_iter()
    .map(|r| match r {
        Ok(outcome) => outcome,
        Err(panic) => panic!("seed cell panicked: {panic}"),
    })
    .collect()
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
        for (t, sample) in tl {
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
