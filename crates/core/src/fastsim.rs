//! A flow-level (non-packet) model of the three coordination
//! algorithms, for scalability studies beyond what packet-level
//! simulation can afford.
//!
//! The packet simulator ([`crate::Simulation`]) prices every MAC frame;
//! this model replaces the network with calibrated closed-form costs
//! while keeping the *coordination* dynamics exact: the same exponential
//! failure process, the same FCFS robot queues and kinematics
//! (`robonet-robot`), the same manager selection rules. Message costs
//! are computed from geometry:
//!
//! - hops ≈ `ceil(distance / (progress × sensor_range))`, with the
//!   greedy-progress factor calibrated against the packet simulator
//!   (≈ 0.75 at the paper's density — see the cross-validation test),
//! - location-update floods cost the population of the relay region
//!   (subarea for fixed; Voronoi cell plus border band for dynamic),
//! - detection latency = failure timeout + half a beacon period.
//!
//! Use it to extend the paper's robot-count axis (the `scalability`
//! example runs fleets of up to 100 robots in milliseconds); trust it
//! only where the cross-validation holds.

use robonet_des::{rng, sampler, NodeId, Scheduler, SimTime};
use robonet_geom::{ConvexPolygon, Point};
use robonet_robot::motion::Leg;
use robonet_robot::{ReplacementTask, RobotState};

use crate::config::ScenarioConfig;
use crate::coord::{self, Coordinator, FlowCtx};
use crate::fault::{FaultInjector, FaultKind, TimedFault};
use crate::obs::{EventSink, NullSink, Observer, SpanReport};
use crate::trace::TraceEvent;
use crate::world::{FaultHooks, Gauges, World};

/// Greedy geographic routing makes roughly this fraction of the radio
/// range of forward progress per hop at the paper's deployment density
/// (calibrated against the packet simulator).
pub const GREEDY_PROGRESS: f64 = 0.75;

/// Flow-level results, mirroring the packet simulator's [`crate::Summary`]
/// where the models overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct FastSummary {
    /// Failures that occurred.
    pub failures: u64,
    /// Failures repaired.
    pub replacements: u64,
    /// Figure 2: mean travel per failure (m).
    pub avg_travel_per_failure: f64,
    /// Figure 3: mean hops per failure report.
    pub avg_report_hops: f64,
    /// Figure 3: mean hops per repair request (centralized only).
    pub avg_request_hops: Option<f64>,
    /// Figure 4: location-update transmissions per failure.
    pub loc_update_tx_per_failure: f64,
    /// Mean dispatch→installation delay (s).
    pub avg_repair_delay: f64,
    /// Failures whose report exhausted its retry budget and was never
    /// delivered (fault layer; always 0 without an active fault plan).
    pub report_orphans: u64,
}

#[derive(Debug)]
enum Event {
    Fail {
        sensor: u32,
        incarnation: u32,
    },
    /// The failure has been detected and the report reaches a manager.
    /// `attempt` is 1-based; retries only occur under an active fault
    /// plan.
    Report {
        sensor: u32,
        attempt: u32,
    },
    /// A robot reaches the failure it drives to. Flow-level robots
    /// never break down, so every scheduled arrival happens.
    Arrive {
        robot: u32,
    },
    /// Periodic telemetry sample (only with
    /// [`ScenarioConfig::sample_every`] set).
    Sample,
    /// A scheduled fault-timeline event fires (index into
    /// [`crate::fault::FaultPlan::timeline`]).
    Timeline {
        index: u32,
    },
}

/// Checks that the flow model can execute `cfg`: it must pass
/// [`ScenarioConfig::validate`], and its fault timeline must hold no
/// [`TimedFault::Partition`] (the model has no per-hop frames to block)
/// and no [`TimedFault::Attrition`] (it models no robot health). Run
/// those on the packet simulator.
///
/// [`run`] and its siblings panic on exactly the configurations this
/// rejects, so a caller holding an arbitrary scenario can refuse it
/// before running.
///
/// ```
/// use robonet_core::{fastsim, Algorithm, ScenarioConfig};
/// assert!(fastsim::validate(&ScenarioConfig::paper(2, Algorithm::Dynamic)).is_ok());
/// ```
///
/// # Errors
///
/// Returns the [`ScenarioConfig::validate`] message, or one naming the
/// first unsupported timeline event's kind and its time in seconds.
pub fn validate(cfg: &ScenarioConfig) -> Result<(), String> {
    cfg.validate()?;
    let timeline = cfg.faults.iter().flat_map(|plan| &plan.timeline);
    for event in timeline {
        if let TimedFault::Partition { .. } | TimedFault::Attrition { .. } = event {
            return Err(format!(
                "the flow engine cannot execute the {} timeline event at {} s; \
                 use the packet simulator",
                event.label(),
                event.at().as_secs_f64()
            ));
        }
    }
    Ok(())
}

/// Runs the flow-level model for `cfg`.
///
/// ```
/// use robonet_core::{fastsim, Algorithm, ScenarioConfig};
/// // 36 robots, 1800 sensors — milliseconds at flow level.
/// let cfg = ScenarioConfig::paper(6, Algorithm::Dynamic).scaled(8.0);
/// let s = fastsim::run(&cfg);
/// assert!(s.replacements > 0);
/// ```
///
/// # Panics
///
/// Panics if the configuration is invalid or its fault timeline holds
/// an event the flow model cannot execute (see [`run_with_sink`]).
pub fn run(cfg: &ScenarioConfig) -> FastSummary {
    run_with_sink(cfg, &mut NullSink)
}

/// Runs the flow-level model and assembles per-failure repair-lifecycle
/// spans alongside the summary: the run's observer feeds its span
/// assembler the event stream [`run_with_sink`] would write, so the
/// report equals [`SpanAssembler::from_jsonl`](crate::obs::SpanAssembler::from_jsonl)
/// over that trace. The flow model emits no `Detected` /
/// `ReportDelivered` events, so the detection, report-transit and
/// dispatch-decision stages of each span are `None`; travel and install
/// are populated from the robot leg events.
///
/// # Panics
///
/// Panics if the configuration is invalid or its fault timeline holds
/// an event the flow model cannot execute (see [`run_with_sink`]).
pub fn run_with_spans(cfg: &ScenarioConfig) -> (FastSummary, SpanReport) {
    let (summary, spans) = run_observed(cfg, &mut NullSink, true);
    (summary, spans.expect("span assembly was enabled"))
}

/// Runs the flow-level model, streaming coarse-grained trace events
/// (`Failure`, `Dispatched`, `RobotLegStarted`/`Ended`, `Replaced`)
/// into `sink`. Packet-level events (`Detected`, `ReportDelivered`,
/// `PacketDropped`, `LocUpdateFlooded`) never appear — the flow model
/// has no packets.
///
/// With [`ScenarioConfig::sample_every`] set, the run samples
/// telemetry by the packet simulator's rule, sink or no sink: each
/// sample is a `TelemetrySample` event followed by one
/// `InvariantViolated` per failed health check (span balance
/// included). Sampling never changes the summary or the other events.
///
/// Fault support is deliberately minimal at flow level: an active
/// [`crate::fault::FaultPlan`] applies its report/dispatch loss
/// probabilities to the (instant) report leg — a lost report retries
/// with the same exponential backoff as the packet simulator until the
/// attempt budget runs out, at which point the failure is counted in
/// [`FastSummary::report_orphans`] and never repaired. Robot breakdowns,
/// slowdowns and location-update loss are *ignored* here (there are no
/// per-packet updates and no modelled robot health); use the packet
/// simulator to study those.
///
/// Of the scheduled [`crate::fault::FaultPlan::timeline`], the flow
/// model executes the subset its abstractions can express:
/// [`TimedFault::Blackout`] (every live sensor inside the region fails
/// at the scheduled time) and [`TimedFault::LossRate`] (the injector's
/// loss probabilities switch). [`TimedFault::Partition`] and
/// [`TimedFault::Attrition`] are rejected with an error naming the
/// event kind — there are no per-hop frames to block and no modelled
/// robot health; use the packet simulator for those. The field
/// ([`crate::field_deployment`]), the failure schedule and the timeline
/// executor are the packet simulator's own, so deployment regions apply
/// in full (density weighting and per-region lifetimes), placement
/// matches it draw for draw, and so do failures until either engine
/// installs its first replacement.
///
/// # Panics
///
/// Panics if the configuration is invalid or uses such an event.
pub fn run_with_sink(cfg: &ScenarioConfig, sink: &mut dyn EventSink) -> FastSummary {
    run_observed(cfg, sink, false).0
}

/// Runs the flow-level model observed by `sink`, assembling spans when
/// asked to; returns the summary and the spans.
fn run_observed(
    cfg: &ScenarioConfig,
    sink: &mut dyn EventSink,
    spans: bool,
) -> (FastSummary, Option<SpanReport>) {
    if let Err(e) = validate(cfg) {
        panic!("invalid scenario: {e}");
    }
    let observer = Observer::new(Box::new(sink), cfg.sample_every.is_some(), spans);
    let mut world = World::new(cfg);
    let mut subarea_population = vec![0f64; world.field.partition.as_ref().map_or(0, |p| p.len())];
    for &sub in world.sensor_subarea.iter().filter(|&&sub| sub != u32::MAX) {
        subarea_population[sub as usize] += 1.0;
    }
    let bounds = world.field.bounds;
    let n_sensors = cfg.n_sensors();
    // The closed-form message costs live in the coordinator's flow
    // hooks; this context hands them the precomputed geometry facts.
    let flow = FlowCtx {
        manager_loc: world.field.manager.map(|(_, loc)| loc),
        manager_range: cfg.ranges.manager,
        hop_unit: GREEDY_PROGRESS * cfg.ranges.sensor,
        n_sensors,
        n_robots: cfg.n_robots(),
        area: bounds.area(),
        density: n_sensors as f64 / bounds.area(),
        update_threshold: cfg.update_threshold,
        subarea_population: &subarea_population,
    };

    let mut sched = Scheduler::with_horizon(SimTime::ZERO + cfg.sim_time);
    if let Some(every) = cfg.sample_every {
        sched.schedule_at(SimTime::ZERO + every, Event::Sample);
    }
    for i in 0..n_sensors {
        if let Some(at) = world.next_failure(SimTime::ZERO, i) {
            sched.schedule_at(
                at,
                Event::Fail {
                    sensor: i as u32,
                    incarnation: 0,
                },
            );
        }
    }
    for (at, index) in world.timeline() {
        sched.schedule_at(at, Event::Timeline { index });
    }

    let mut run = FlowRun {
        cfg,
        coordinator: coord::coordinator_for(cfg.algorithm),
        robots: world.fleet(cfg.robot_speed),
        robot_locs: Vec::new(),
        world,
        flow,
        observer,
        sched,
        detect_rng: rng::stream(cfg.seed, "detect"),
        incarnation: vec![0; n_sensors],
        alive: vec![true; n_sensors],
        tally: Tally::default(),
    };
    while let Some(ev) = run.sched.next_event() {
        let now = run.sched.now();
        match ev {
            Event::Fail {
                sensor,
                incarnation,
            } => run.on_fail(now, sensor, incarnation),
            Event::Report { sensor, attempt } => run.on_report(now, sensor, attempt),
            Event::Arrive { robot } => run.on_arrive(now, robot as usize),
            Event::Timeline { index } => World::fire_timeline(now, index, &mut run),
            Event::Sample => run.on_sample(now),
        }
    }
    run.finish()
}

/// Running totals behind a [`FastSummary`].
#[derive(Default)]
struct Tally {
    failures: u64,
    replacements: u64,
    report_orphans: u64,
    travel: f64,
    report_hops: f64,
    request_hops: f64,
    requests: u64,
    update_tx: f64,
    repair_delay: f64,
}

/// One flow-level run in progress.
struct FlowRun<'a> {
    cfg: &'a ScenarioConfig,
    coordinator: &'static dyn Coordinator,
    world: World,
    flow: FlowCtx<'a>,
    /// The sink, span assembly and health monitor.
    observer: Observer<'a>,
    sched: Scheduler<Event>,
    detect_rng: rng::Xoshiro256,
    robots: Vec<RobotState>,
    /// Every robot's position at the report being handled; refilled on
    /// each report, so reports allocate nothing.
    robot_locs: Vec<Point>,
    incarnation: Vec<u32>,
    alive: Vec<bool>,
    tally: Tally,
}

impl FlowRun<'_> {
    fn on_fail(&mut self, now: SimTime, sensor: u32, inc: u32) {
        let s = sensor as usize;
        if self.incarnation[s] != inc || !self.alive[s] {
            return;
        }
        self.alive[s] = false;
        self.tally.failures += 1;
        self.observer.emit(|| TraceEvent::Failure {
            t: now.as_secs_f64(),
            sensor: NodeId::new(sensor),
        });
        // Detection: timeout + residual beacon phase.
        let detect_delay = self.cfg.failure_timeout()
            + sampler::uniform_duration(&mut self.detect_rng, self.cfg.beacon_period);
        self.sched
            .schedule_at(now + detect_delay, Event::Report { sensor, attempt: 1 });
    }

    fn on_report(&mut self, now: SimTime, sensor: u32, attempt: u32) {
        let s = sensor as usize;
        let failed_loc = self.world.field.sensor_pos[s];

        // Injected loss on the report (and, for manager algorithms, the
        // follow-up dispatch request): the whole instant chain fails and
        // the guardian's backoff timer re-drives it, until the budget
        // runs out and the failure becomes an explicit orphan.
        if let Some(inj) = self.world.faults.as_mut() {
            let lost = inj.drop_message(FaultKind::ReportLoss)
                || (self.coordinator.uses_manager() && inj.drop_message(FaultKind::DispatchLoss));
            if lost {
                if attempt >= inj.plan.max_report_attempts {
                    self.tally.report_orphans += 1;
                } else {
                    let backoff = FaultInjector::report_backoff(self.cfg.report_retry, attempt);
                    self.sched.schedule_at(
                        now + backoff,
                        Event::Report {
                            sensor,
                            attempt: attempt + 1,
                        },
                    );
                }
                return;
            }
        }

        // Report + dispatch (instant at flow level): the coordinator
        // selects the robot and prices the report (and request) legs.
        self.robot_locs.clear();
        self.robot_locs
            .extend(self.robots.iter().map(|rb| rb.position_at(now)));
        let fd = self.coordinator.flow_report(
            &self.flow,
            failed_loc,
            self.world.sensor_subarea[s],
            &self.robot_locs,
        );
        self.tally.report_hops += fd.report_hops;
        if let Some(rq) = fd.request_hops {
            self.tally.request_hops += rq;
            self.tally.requests += 1;
        }
        let r = fd.robot;
        let task = ReplacementTask {
            failed: NodeId::new(sensor),
            loc: failed_loc,
            dispatched_at: now,
        };
        let leg = self.robots[r].enqueue(task, now);
        self.observer.emit(|| TraceEvent::Dispatched {
            t: now.as_secs_f64(),
            robot: self.robots[r].id,
            failed: NodeId::new(sensor),
            departed: leg.is_some(),
        });
        if let Some(leg) = leg {
            self.start_leg(r, leg);
        }
    }

    /// Robot `r` departs on `leg` towards its current task: the leg's
    /// location updates are priced and its arrival scheduled.
    fn start_leg(&mut self, r: usize, leg: Leg) {
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
        let updates = (leg.distance() / self.cfg.update_threshold).floor() + 1.0; // + arrival
        self.tally.update_tx += updates
            * self
                .coordinator
                .flow_update_cost(&self.flow, r, self.robots[r].last_update_loc);
        self.robots[r].last_update_loc = leg.to();
        self.sched
            .schedule_at(leg.arrival(), Event::Arrive { robot: r as u32 });
    }

    fn on_arrive(&mut self, now: SimTime, r: usize) {
        let travel = self.robots[r]
            .current_leg()
            .expect("arriving robot has a leg")
            .distance();
        let (task, next) = self.robots[r].arrive(now);
        let (robot, t) = (self.robots[r].id, now.as_secs_f64());
        self.observer
            .emit(|| TraceEvent::RobotLegEnded { t, robot, travel });
        self.observer.emit(|| TraceEvent::Replaced {
            t,
            robot,
            sensor: task.failed,
            travel,
            loc: task.loc,
        });
        let s = task.failed.index();
        self.alive[s] = true;
        self.incarnation[s] += 1;
        self.tally.replacements += 1;
        self.tally.travel += travel;
        self.tally.repair_delay += now.duration_since(task.dispatched_at).as_secs_f64();
        if let Some(at) = self.world.next_failure(now, s) {
            self.sched.schedule_at(
                at,
                Event::Fail {
                    sensor: s as u32,
                    incarnation: self.incarnation[s],
                },
            );
        }
        if let Some(next_leg) = next {
            self.start_leg(r, next_leg);
        }
    }

    fn on_sample(&mut self, now: SimTime) {
        let every = self.cfg.sample_every.expect("samples imply a cadence");
        self.sched.schedule_after(every, Event::Sample);
        let t = now.as_secs_f64();
        let gauges = Gauges {
            alive: &self.alive,
            robots: &self.robots,
            in_flight: 0,
            sched_queue: self.sched.pending() as u32,
            failures: self.tally.failures,
            replacements: self.tally.replacements,
            robots_down: 0,
        };
        self.observer.sample(&self.world, t, &gauges);
    }

    fn finish(self) -> (FastSummary, Option<SpanReport>) {
        let (spans, _) = self.observer.finish();
        let t = self.tally;
        let replaced = t.replacements.max(1) as f64;
        let summary = FastSummary {
            failures: t.failures,
            replacements: t.replacements,
            avg_travel_per_failure: t.travel / replaced,
            avg_report_hops: t.report_hops / t.failures.max(1) as f64,
            avg_request_hops: self
                .coordinator
                .uses_manager()
                .then(|| t.request_hops / t.requests.max(1) as f64),
            loc_update_tx_per_failure: t.update_tx / replaced,
            avg_repair_delay: t.repair_delay / replaced,
            report_orphans: t.report_orphans,
        };
        (summary, spans)
    }
}

/// The flow engine re-queues blackout kills as ordinary `Fail` events
/// at `now`, so they take the exact detection path a natural failure
/// takes. It has no per-hop frames to block and no modelled robot
/// health, so [`validate`] rejects partition and attrition events
/// before the run starts.
impl FaultHooks for FlowRun<'_> {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn sensor_alive(&self, s: usize) -> bool {
        self.alive[s]
    }

    fn fail_sensor(&mut self, now: SimTime, s: usize) {
        self.sched.schedule_at(
            now,
            Event::Fail {
                sensor: s as u32,
                incarnation: self.incarnation[s],
            },
        );
    }

    fn robot_in_service(&self, _: usize) -> bool {
        unreachable!("validate rejects attrition timelines")
    }

    fn kill_robot(&mut self, _: SimTime, _: usize) {
        unreachable!("validate rejects attrition timelines")
    }

    fn install_partition(&mut self, _: SimTime, _: ConvexPolygon, _: ConvexPolygon) {
        unreachable!("validate rejects partition timelines")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, PartitionKind};
    use crate::fault::{FaultPlan, TimedFault};

    #[test]
    fn inert_fault_plan_matches_fault_free_exactly() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        let mut with_inert = cfg.clone();
        with_inert.faults = Some(FaultPlan::default());
        assert_eq!(run(&cfg), run(&with_inert));
    }

    #[test]
    fn report_loss_is_deterministic_and_accounted() {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Centralized)
            .with_seed(5)
            .scaled(16.0);
        // An extreme plan so orphans actually occur in a short run.
        let mut plan = FaultPlan::message_loss(0.9);
        plan.max_report_attempts = 2;
        cfg.faults = Some(plan);
        let a = run(&cfg);
        assert_eq!(a, run(&cfg), "same seed + plan must reproduce exactly");
        assert!(a.report_orphans > 0, "90% loss with 2 attempts must orphan");
        assert!(
            a.replacements + a.report_orphans <= a.failures,
            "every failure is replaced, orphaned, or still in flight"
        );
    }

    #[test]
    fn moderate_loss_with_retries_loses_nothing_silently() {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(7)
            .scaled(16.0);
        cfg.faults = Some(FaultPlan::message_loss(0.10));
        let s = run(&cfg);
        let free = {
            let mut c = cfg.clone();
            c.faults = None;
            run(&c)
        };
        // 10% loss under a 6-attempt budget: orphaning a report needs 6
        // consecutive losses (p = 1e-6), so recovery should keep the
        // replacement count at the fault-free level.
        assert_eq!(s.report_orphans, 0);
        // Retry delays shift when replaced sensors fail again, so the
        // totals drift; the *repair ratio* is what must hold up.
        let ratio = |x: &FastSummary| x.replacements as f64 / x.failures as f64;
        assert!(
            ratio(&s) >= 0.95 * ratio(&free),
            "retries must recover nearly all lost reports: {:.3} vs {:.3}",
            ratio(&s),
            ratio(&free)
        );
    }

    #[test]
    fn cross_validates_against_packet_simulator() {
        // The flow model must land near the packet simulator for the
        // figures' primary metrics at a configuration both can run.
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        let fast = run(&cfg);
        let full = crate::Simulation::run(cfg).metrics.summary();
        let travel_err = (fast.avg_travel_per_failure - full.avg_travel_per_failure).abs()
            / full.avg_travel_per_failure;
        assert!(travel_err < 0.15, "travel error {travel_err:.2}");
        let hop_err = (fast.avg_report_hops - full.avg_report_hops).abs() / full.avg_report_hops;
        assert!(hop_err < 0.40, "hop error {hop_err:.2}");
        let upd_err = (fast.loc_update_tx_per_failure - full.loc_update_tx_per_failure).abs()
            / full.loc_update_tx_per_failure;
        assert!(upd_err < 0.40, "update-cost error {upd_err:.2}");
    }

    #[test]
    fn preserves_figure_orderings() {
        let run_alg = |alg| run(&ScenarioConfig::paper(3, alg).with_seed(2).scaled(8.0));
        let fixed = run_alg(Algorithm::Fixed(PartitionKind::Square));
        let dynamic = run_alg(Algorithm::Dynamic);
        let centralized = run_alg(Algorithm::Centralized);
        // Fig. 2 ordering.
        assert!(fixed.avg_travel_per_failure >= dynamic.avg_travel_per_failure * 0.98);
        // Fig. 4 ordering.
        assert!(centralized.loc_update_tx_per_failure < fixed.loc_update_tx_per_failure);
        assert!(fixed.loc_update_tx_per_failure < dynamic.loc_update_tx_per_failure);
        // Fig. 3: distributed reports are short.
        assert!(dynamic.avg_report_hops < 5.0);
    }

    #[test]
    fn centralized_hops_scale_with_k() {
        let small = run(&ScenarioConfig::paper(2, Algorithm::Centralized).scaled(8.0));
        let large = run(&ScenarioConfig::paper(5, Algorithm::Centralized).scaled(8.0));
        assert!(large.avg_report_hops > small.avg_report_hops * 1.5);
    }

    #[test]
    fn is_deterministic() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(3)
            .scaled(16.0);
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn sink_captures_flow_story_without_changing_results() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(3)
            .scaled(16.0);
        let plain = run(&cfg);
        let mut sink = crate::obs::RingSink::with_capacity(1_000_000);
        let traced = run_with_sink(&cfg, &mut sink);
        assert_eq!(plain, traced, "observing the run must not change it");
        let trace = sink.take_trace().expect("ring sink holds a trace");
        let replaced = trace
            .events()
            .filter(|e| matches!(e, TraceEvent::Replaced { .. }))
            .count();
        assert_eq!(replaced as u64, traced.replacements);
        let legs_started = trace
            .events()
            .filter(|e| matches!(e, TraceEvent::RobotLegStarted { .. }))
            .count();
        let legs_ended = trace
            .events()
            .filter(|e| matches!(e, TraceEvent::RobotLegEnded { .. }))
            .count();
        // Legs in flight when the horizon closes never arrive.
        assert!(legs_started >= legs_ended, "{legs_started} < {legs_ended}");
        assert_eq!(legs_ended, replaced, "flow legs end at a replacement");

        // Sampling is inert too: with a blackout on a sample time, the
        // sampled trace minus its telemetry lines is the unsampled trace
        // byte for byte, and every health check passes, span balance
        // included.
        use robonet_des::SimDuration;
        let mut cfg = with_timeline_event(|side| TimedFault::Blackout {
            at: SimDuration::from_secs(2_000.0),
            region: quadrant(side),
        });
        let unsampled = flow_jsonl(&cfg);
        cfg.sample_every = Some(SimDuration::from_secs(100.0));
        let sampled = flow_jsonl(&cfg);
        let (telemetry, protocol): (Vec<&str>, Vec<&str>) = sampled.lines().partition(|line| {
            line.contains(r#""ev":"telemetry_sample""#)
                || line.contains(r#""ev":"invariant_violated""#)
        });
        assert_eq!(protocol.join("\n") + "\n", unsampled);
        let samples = (cfg.sim_time.as_secs_f64() / 100.0) as usize;
        assert_eq!(
            telemetry.len(),
            samples,
            "one sample per cadence and no violation"
        );
    }

    #[test]
    fn spans_decompose_flow_level_repairs() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(3)
            .scaled(16.0);
        let plain = run(&cfg);
        let (summary, report) = run_with_spans(&cfg);
        assert_eq!(plain, summary, "span assembly must not change results");
        assert_eq!(report.replacements(), summary.replacements);
        assert_eq!(report.failures, summary.failures);
        assert_eq!(report.out_of_order, 0);
        for span in report.spans.iter() {
            // No packets at flow level: the network stages are absent.
            assert_eq!(span.detection, None);
            assert_eq!(span.report_transit, None);
            assert_eq!(span.dispatch_decision, None);
            assert!(span.travel.is_some(), "legs drive the travel stage");
            assert!(span.total() >= 0.0);
        }
        // Failures still in flight at the horizon are orphans.
        assert_eq!(
            report.orphans.len() as u64,
            summary.failures - summary.replacements
        );
        // The live assembly is the offline fold of the run's own trace.
        let offline = crate::obs::SpanAssembler::from_jsonl(&flow_jsonl(&cfg)).unwrap();
        assert_eq!(report, offline);
    }

    /// The run's JSONL trace, header line included.
    fn flow_jsonl(cfg: &ScenarioConfig) -> String {
        let mut sink = crate::obs::JsonlSink::new(Vec::new());
        run_with_sink(cfg, &mut sink);
        String::from_utf8(sink.into_inner()).unwrap()
    }

    /// The lower-left quadrant of a `side`-metre square field.
    fn quadrant(side: f64) -> ConvexPolygon {
        ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(side / 2.0, 0.0),
            Point::new(side / 2.0, side / 2.0),
            Point::new(0.0, side / 2.0),
        ])
        .unwrap()
    }

    #[test]
    fn blackout_timeline_fires_at_flow_level() {
        use robonet_des::SimDuration;
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        // Long lifetimes: failures then track the injected blackout,
        // not fleet throughput.
        cfg.mean_lifetime = SimDuration::from_secs(2.0 * cfg.sim_time.as_secs_f64());
        let base = run(&cfg);
        cfg.faults = Some(FaultPlan {
            timeline: vec![TimedFault::Blackout {
                at: SimDuration::from_secs(cfg.sim_time.as_secs_f64() / 2.0),
                region: quadrant(cfg.side()),
            }],
            ..FaultPlan::default()
        });
        let o = run(&cfg);
        assert!(
            o.failures > base.failures + 30,
            "blackout failures {} vs base {}",
            o.failures,
            base.failures
        );
        assert_eq!(run(&cfg), o, "timeline runs stay deterministic");
    }

    /// The standard flow-test scenario with a one-event fault timeline.
    fn with_timeline_event(event: impl FnOnce(f64) -> TimedFault) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        cfg.faults = Some(FaultPlan {
            timeline: vec![event(cfg.side())],
            ..FaultPlan::default()
        });
        cfg
    }

    #[test]
    #[should_panic(expected = "the flow engine cannot execute the partition timeline event")]
    fn partition_timeline_is_rejected() {
        use robonet_des::SimDuration;
        let cfg = with_timeline_event(|side| {
            let half = |x0: f64, x1: f64| {
                robonet_geom::ConvexPolygon::new(vec![
                    Point::new(x0, 0.0),
                    Point::new(x1, 0.0),
                    Point::new(x1, side),
                    Point::new(x0, side),
                ])
                .unwrap()
            };
            TimedFault::Partition {
                from: SimDuration::from_secs(100.0),
                until: SimDuration::from_secs(200.0),
                a: half(0.0, side / 2.0),
                b: half(side / 2.0, side),
            }
        });
        run(&cfg);
    }

    #[test]
    fn validate_names_the_rejected_event_and_its_time() {
        let cfg = with_timeline_event(|_| TimedFault::Attrition {
            at: robonet_des::SimDuration::from_secs(100.0),
            robots: 1,
        });
        let err = validate(&cfg).expect_err("attrition is packet-only");
        assert!(err.contains("attrition timeline event"), "{err}");
        assert!(err.contains("at 100 s"), "{err}");
    }

    #[test]
    #[should_panic(expected = "the flow engine cannot execute the attrition timeline event")]
    fn attrition_timeline_is_rejected() {
        let cfg = with_timeline_event(|_| TimedFault::Attrition {
            at: robonet_des::SimDuration::from_secs(100.0),
            robots: 1,
        });
        run(&cfg);
    }

    #[test]
    fn loss_rate_timeline_switches_probabilities() {
        use robonet_des::SimDuration;
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        cfg.faults = Some(FaultPlan {
            max_report_attempts: 2,
            timeline: vec![TimedFault::LossRate {
                at: SimDuration::from_secs(cfg.sim_time.as_secs_f64() / 2.0),
                report: 0.9,
                dispatch: 0.0,
                update: 0.0,
            }],
            ..FaultPlan::default()
        });
        let o = run(&cfg);
        assert!(
            o.report_orphans > 0,
            "90% loss with 2 attempts in the second half must orphan"
        );
        let free = {
            let mut c = cfg.clone();
            c.faults = None;
            run(&c)
        };
        assert_eq!(free.report_orphans, 0, "fault-free flow runs never orphan");
    }

    #[test]
    fn regions_shift_flow_level_failures() {
        use crate::config::DeployRegion;
        use robonet_des::SimDuration;
        use robonet_geom::Point;
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        cfg.mean_lifetime = SimDuration::from_secs(2.0 * cfg.sim_time.as_secs_f64());
        let base = run(&cfg);
        let side = cfg.side();
        cfg.regions.push(DeployRegion {
            poly: robonet_geom::ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(side / 2.0, 0.0),
                Point::new(side / 2.0, side),
                Point::new(0.0, side),
            ])
            .unwrap(),
            density: 1.0,
            mean_lifetime: Some(SimDuration::from_secs(
                cfg.mean_lifetime.as_secs_f64() / 4.0,
            )),
        });
        let o = run(&cfg);
        assert!(
            o.failures as f64 > 1.5 * base.failures as f64,
            "short-lived region must raise flow failures: {} vs {}",
            o.failures,
            base.failures
        );
    }

    #[test]
    fn large_fleet_runs_fast() {
        // 100 robots, 5000 sensors — far beyond packet-level reach.
        let cfg = ScenarioConfig::paper(10, Algorithm::Dynamic)
            .with_seed(1)
            .scaled(8.0);
        let fast = run(&cfg);
        assert!(fast.failures > 1000);
        assert!(fast.replacements as f64 > 0.9 * fast.failures as f64);
    }
}
