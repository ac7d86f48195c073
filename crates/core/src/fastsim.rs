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
use robonet_geom::{Bounds, ConvexPolygon, Point};
use robonet_robot::motion::Leg;
use robonet_robot::RobotState;

use crate::config::ScenarioConfig;
use crate::coord::{self, Coordinator, FlowCtx, FlowFleet};
use crate::fault::{FaultInjector, FaultKind, TimedFault};
use crate::obs::{EventSink, NullSink, Observer, SpanReport};
use crate::world::{Expiry, FaultHooks, Gauges, LegRef, World};

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
    /// A sensor's lifetime expired.
    Fail(Expiry),
    /// The failure has been detected and the report reaches a manager.
    /// `attempt` is 1-based; retries only occur under an active fault
    /// plan.
    Report { sensor: u32, attempt: u32 },
    /// A robot reaches the failure it drives to. Flow-level robots
    /// never break down or slow down ([`validate`]), so every scheduled
    /// arrival happens.
    Arrive(LegRef),
    /// Periodic telemetry sample (only with
    /// [`ScenarioConfig::sample_every`] set).
    Sample,
    /// A scheduled fault-timeline event fires (index into
    /// [`crate::fault::FaultPlan::timeline`]).
    Timeline { index: u32 },
}

impl From<Expiry> for Event {
    fn from(e: Expiry) -> Self {
        Event::Fail(e)
    }
}

impl From<LegRef> for Event {
    fn from(leg: LegRef) -> Self {
        Event::Arrive(leg)
    }
}

/// Checks that the flow model can execute `cfg`: it must pass
/// [`ScenarioConfig::validate`]; its fault plan must set no
/// `breakdown_mean` and no `slow_prob` above zero, and its fault
/// timeline must hold no [`TimedFault::Partition`] (the model has no
/// per-hop frames to block) and no [`TimedFault::Attrition`] (it models
/// no robot health, so robots never break down, slow down or leave).
/// Run those on the packet simulator.
///
/// Update loss is accepted and has no effect: the flow model prices
/// location updates in closed form, with no per-update messages to
/// lose. [`crate::fault::FaultPlan::message_loss`] plans and
/// `LossRate` timeline events therefore run here with only their
/// report and dispatch loss acting.
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
/// Returns the [`ScenarioConfig::validate`] message, one naming the
/// robot-fault field the plan sets, or one naming the first
/// unsupported timeline event's kind and its time in seconds.
pub fn validate(cfg: &ScenarioConfig) -> Result<(), String> {
    cfg.validate()?;
    let Some(plan) = &cfg.faults else {
        return Ok(());
    };
    let robot_fault = if plan.breakdown_mean.is_some() {
        Some("breakdown_mean")
    } else if plan.slow_prob > 0.0 {
        Some("slow_prob")
    } else {
        None
    };
    if let Some(field) = robot_fault {
        return Err(format!(
            "the flow engine models no robot health and cannot execute the fault \
             plan's {field}; use the packet simulator"
        ));
    }
    for event in &plan.timeline {
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
/// [`FastSummary::report_orphans`] and never repaired. Location-update
/// loss has no effect (there are no per-packet updates), and
/// [`validate`] rejects robot breakdowns and slowdowns (there is no
/// modelled robot health); use the packet simulator to study those.
///
/// Of the scheduled [`crate::fault::FaultPlan::timeline`], the flow
/// model executes [`TimedFault::Blackout`] (every live sensor inside
/// the region fails at the scheduled time) and [`TimedFault::LossRate`]
/// (the injector's loss probabilities switch); [`validate`] rejects the
/// rest. The field ([`crate::field_deployment`]), the failure schedule,
/// the timeline executor and the repair lifecycle are the packet
/// simulator's own, so deployment regions apply in full (density
/// weighting and per-region lifetimes), placement matches it draw for
/// draw, and so do failures until either engine installs its first
/// replacement.
///
/// # Panics
///
/// Panics if the configuration fails [`validate`].
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
    for s in 0..n_sensors {
        world.arm(SimTime::ZERO, s, &mut sched);
    }
    for (at, index) in world.timeline() {
        sched.schedule_at(at, Event::Timeline { index });
    }

    let reach = ReachGrid::new(
        &bounds,
        world
            .robots
            .iter()
            .map(|rb| ReachBox::parked(rb.position_at(SimTime::ZERO))),
    );
    let mut run = FlowRun {
        cfg,
        coordinator: coord::coordinator_for(cfg.algorithm),
        reach,
        world,
        flow,
        observer,
        sched,
        detect_rng: rng::stream(cfg.seed, "detect"),
        tally: Tally::default(),
    };
    while let Some(ev) = run.sched.next_event() {
        let now = run.sched.now();
        match ev {
            Event::Fail(e) => run.on_fail(now, e),
            Event::Report { sensor, attempt } => run.on_report(now, sensor, attempt),
            Event::Arrive(leg) => run.on_arrive(now, leg),
            Event::Timeline { index } => World::fire_timeline(now, index, &mut run),
            Event::Sample => run.on_sample(now),
        }
    }
    run.finish()
}

/// Running totals behind a [`FastSummary`] (the world counts failures
/// and replacements).
#[derive(Default)]
struct Tally {
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
    /// Where each robot can be until its activity next changes; kept by
    /// `start_leg` and `on_arrive` through [`ReachGrid::set`].
    reach: ReachGrid,
    tally: Tally,
}

impl FlowRun<'_> {
    fn on_fail(&mut self, now: SimTime, e: Expiry) {
        let Some(sensor) = self.world.expire(now, e, &mut self.observer) else {
            return;
        };
        // Detection: timeout + residual beacon phase.
        let detect_delay = self.cfg.failure_timeout()
            + sampler::uniform_duration(&mut self.detect_rng, self.cfg.beacon_period);
        let report = Event::Report {
            sensor: sensor.as_u32(),
            attempt: 1,
        };
        self.sched.schedule_at(now + detect_delay, report);
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
        let fleet = FleetAt {
            robots: &self.world.robots,
            reach: &self.reach,
            now,
        };
        let fd = self.coordinator.flow_report(
            &self.flow,
            failed_loc,
            self.world.sensor_subarea[s],
            &fleet,
        );
        self.tally.report_hops += fd.report_hops;
        if let Some(rq) = fd.request_hops {
            self.tally.request_hops += rq;
            self.tally.requests += 1;
        }
        let r = fd.robot;
        let failed = NodeId::new(sensor);
        if let Some(leg) = self.world.dispatch(now, r, failed, &mut self.observer) {
            self.start_leg(r, leg);
        }
    }

    /// Robot `r` departs on `leg` towards its current task: the leg's
    /// location updates are priced and its arrival scheduled.
    fn start_leg(&mut self, r: usize, leg: Leg) {
        self.world
            .start_leg(r, &leg, &mut self.observer, &mut self.sched);
        // `validate` admits no breakdown, slowdown or attrition, so no
        // flow leg is cut: the robot stays on this leg until it arrives.
        self.reach.set(r, ReachBox::leg(&leg));
        let robot = &mut self.world.robots[r];
        let updates = (leg.distance() / self.cfg.update_threshold).floor() + 1.0; // + arrival
        self.tally.update_tx += updates
            * self
                .coordinator
                .flow_update_cost(&self.flow, r, robot.last_update_loc);
        robot.last_update_loc = leg.to();
    }

    /// Every flow-level arrival installs: flow robots never break down,
    /// and a sensor is reported only after it failed.
    fn on_arrive(&mut self, now: SimTime, leg: LegRef) {
        let arrival = self
            .world
            .arrive(now, leg, &mut self.observer, &mut self.sched)
            .expect("flow legs are never cut");
        debug_assert!(arrival.installed, "flow robots serve failed sensors only");
        self.tally.travel += arrival.travel;
        self.tally.repair_delay += now.duration_since(arrival.task.dispatched_at).as_secs_f64();
        let r = leg.robot();
        match arrival.next {
            Some(next_leg) => self.start_leg(r, next_leg),
            None => {
                let parked = ReachBox::parked(self.world.robots[r].position_at(now));
                self.reach.set(r, parked);
            }
        }
    }

    fn on_sample(&mut self, now: SimTime) {
        let every = self.cfg.sample_every.expect("samples imply a cadence");
        self.sched.schedule_after(every, Event::Sample);
        let t = now.as_secs_f64();
        let gauges = Gauges {
            in_flight: 0,
            sched_queue: self.sched.pending() as u32,
            robots_down: 0,
        };
        self.observer.sample(&mut self.world, t, &gauges);
    }

    fn finish(self) -> (FastSummary, Option<SpanReport>) {
        let (spans, _) = self.observer.finish();
        let (t, failures, replacements) =
            (self.tally, self.world.failures, self.world.replacements);
        let replaced = replacements.max(1) as f64;
        let summary = FastSummary {
            failures,
            replacements,
            avg_travel_per_failure: t.travel / replaced,
            avg_report_hops: t.report_hops / failures.max(1) as f64,
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

/// An axis-aligned box holding every position a robot reports until its
/// activity next changes: its parked point, or its current leg's
/// endpoints widened by a slack.
#[derive(Debug, Clone, Copy)]
struct ReachBox {
    lo: Point,
    hi: Point,
}

impl ReachBox {
    /// A parked robot reports exactly `at`.
    fn parked(at: Point) -> Self {
        ReachBox { lo: at, hi: at }
    }

    /// A robot on `leg` reports `from`, `to` or `from.lerp(to, f)` with
    /// `0 <= f < 1` ([`Leg::position_at`]). The lerp rounds the
    /// difference, the product and the sum, so it can land past an
    /// endpoint by at most about two units in the last place of the
    /// largest coordinate, 2ε·m. The slack, 1 µm plus 4ε·m, covers that
    /// with room to spare.
    fn leg(leg: &Leg) -> Self {
        let (a, b) = (leg.from(), leg.to());
        let m = a.x.abs().max(a.y.abs()).max(b.x.abs()).max(b.y.abs());
        let slack = 1e-6 + 4.0 * f64::EPSILON * m;
        ReachBox {
            lo: Point::new(a.x.min(b.x) - slack, a.y.min(b.y) - slack),
            hi: Point::new(a.x.max(b.x) + slack, a.y.max(b.y) + slack),
        }
    }

    /// A lower bound on `q.distance_sq(p)` for every `q` in the box.
    /// Per axis the gap to the nearer face is the subtraction
    /// `distance_sq` makes (up to sign), taken from a face no farther
    /// than `q`, then squared and summed; rounding is monotone, so no
    /// step can exceed its counterpart in the exact distance.
    fn distance_sq_bound(&self, p: Point) -> f64 {
        let dx = (self.lo.x - p.x).max(p.x - self.hi.x).max(0.0);
        let dy = (self.lo.y - p.y).max(p.y - self.hi.y).max(0.0);
        dx * dx + dy * dy
    }
}

/// The end of a cell's list and of the free-entry chain.
const NIL: u32 = u32::MAX;

/// The cells a reach box overlaps: columns `c0..=c1` by rows `r0..=r1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Span {
    c0: u32,
    r0: u32,
    c1: u32,
    r1: u32,
}

impl Span {
    /// The span's cell nearest to cell `(c, r)`: the one in the first
    /// ring around `(c, r)` that meets the span.
    fn nearest_to(&self, (c, r): (u32, u32)) -> (u32, u32) {
        (c.clamp(self.c0, self.c1), r.clamp(self.r0, self.r1))
    }

    fn cells(self) -> impl Iterator<Item = (u32, u32)> {
        (self.r0..=self.r1).flat_map(move |r| (self.c0..=self.c1).map(move |c| (c, r)))
    }
}

/// One robot's reach box and the span of cells listing it.
#[derive(Debug, Clone, Copy)]
struct Reach {
    reach: ReachBox,
    span: Span,
}

/// One entry of a cell's list: the robot it names and the cell's next
/// entry.
#[derive(Debug, Clone, Copy)]
struct Entry {
    robot: u32,
    next: u32,
}

/// The fleet's reach boxes on a uniform grid over the field, each robot
/// listed in every cell its box overlaps, so a nearest-robot query reads
/// the few cells around the query point instead of every box. Cell lists
/// are singly linked through one flat entry pool.
struct ReachGrid {
    origin: Point,
    cell: f64,
    inv_cell: f64,
    cols: u32,
    rows: u32,
    /// The rounding margin of the stopping bound (m), far wider than
    /// the error of a cell index or a cell face anywhere in the grid.
    margin: f64,
    /// Robot `r`'s box and span at index `r`.
    robots: Vec<Reach>,
    /// First entry of each cell's list (`NIL`: empty), row-major.
    heads: Vec<u32>,
    entries: Vec<Entry>,
    /// First free entry of the pool.
    free: u32,
}

impl ReachGrid {
    /// A grid over `bounds` with about one robot per cell (the subarea
    /// side of a `k × k` fleet) holding `boxes`, robot `r`'s at index
    /// `r`.
    fn new(bounds: &Bounds, boxes: impl IntoIterator<Item = ReachBox>) -> Self {
        let boxes: Vec<ReachBox> = boxes.into_iter().collect();
        assert!(!boxes.is_empty(), "robots exist");
        let cell = (bounds.area() / boxes.len() as f64).sqrt();
        assert!(cell.is_finite() && cell > 0.0, "a field of positive area");
        let cols = ((bounds.width() / cell).ceil() as u32).max(1);
        let rows = ((bounds.height() / cell).ceil() as u32).max(1);
        let origin = bounds.min();
        let extent = f64::from(cols.max(rows)) * cell + origin.x.abs() + origin.y.abs();
        let mut grid = ReachGrid {
            origin,
            cell,
            inv_cell: 1.0 / cell,
            cols,
            rows,
            margin: 1e-9 * extent,
            robots: Vec::with_capacity(boxes.len()),
            heads: vec![NIL; cols as usize * rows as usize],
            entries: Vec::with_capacity(boxes.len()),
            free: NIL,
        };
        for (r, reach) in boxes.into_iter().enumerate() {
            let span = grid.span_of(&reach);
            grid.robots.push(Reach { reach, span });
            grid.link(r as u32, span);
        }
        grid
    }

    /// The column holding `x`. The saturating cast truncates toward
    /// zero and sends negatives and NaN to 0, so after the clamp it is
    /// the cell `floor` would give, without its call.
    fn col_of(&self, x: f64) -> u32 {
        (((x - self.origin.x) * self.inv_cell) as u32).min(self.cols - 1)
    }

    /// The row holding `y` (see [`ReachGrid::col_of`]).
    fn row_of(&self, y: f64) -> u32 {
        (((y - self.origin.y) * self.inv_cell) as u32).min(self.rows - 1)
    }

    /// The cells `reach` overlaps. The cell lookups are monotone, so
    /// every point of the box lies in a cell of its span.
    fn span_of(&self, reach: &ReachBox) -> Span {
        Span {
            c0: self.col_of(reach.lo.x),
            r0: self.row_of(reach.lo.y),
            c1: self.col_of(reach.hi.x),
            r1: self.row_of(reach.hi.y),
        }
    }

    fn head(&mut self, (c, r): (u32, u32)) -> &mut u32 {
        &mut self.heads[(r * self.cols + c) as usize]
    }

    /// Robot `r`'s activity changed and its positions lie in `reach`
    /// until the next change. Its cell lists are rewritten only when
    /// its span of cells moves.
    fn set(&mut self, r: usize, reach: ReachBox) {
        let span = self.span_of(&reach);
        let old = std::mem::replace(&mut self.robots[r], Reach { reach, span }).span;
        if span != old {
            self.unlink(r as u32, old);
            self.link(r as u32, span);
        }
    }

    /// Lists `robot` at the front of every cell of `span`.
    fn link(&mut self, robot: u32, span: Span) {
        for cell in span.cells() {
            let next = *self.head(cell);
            let entry = Entry { robot, next };
            let e = if self.free == NIL {
                self.entries.push(entry);
                self.entries.len() as u32 - 1
            } else {
                let e = self.free;
                self.free = self.entries[e as usize].next;
                self.entries[e as usize] = entry;
                e
            };
            *self.head(cell) = e;
        }
    }

    /// Removes `robot` from every cell of `span`, returning its entries
    /// to the pool.
    fn unlink(&mut self, robot: u32, span: Span) {
        for cell in span.cells() {
            let (mut prev, mut e) = (NIL, *self.head(cell));
            while self.entries[e as usize].robot != robot {
                (prev, e) = (e, self.entries[e as usize].next);
            }
            let next = self.entries[e as usize].next;
            match prev {
                NIL => *self.head(cell) = next,
                prev => self.entries[prev as usize].next = next,
            }
            self.entries[e as usize].next = self.free;
            self.free = e;
        }
    }

    /// [`robonet_geom::voronoi::nearest_site`] over `position(r)` for
    /// every robot `r`, whose positions lie in their boxes.
    ///
    /// The query walks rings of cells outward from the cell of `p` and
    /// examines each robot once, at the cell of its span nearest to
    /// that cell. A robot whose bound is already worse than the best
    /// (squared distance, index) so far is skipped without computing
    /// its position. After ring `k` every robot not yet examined lies
    /// wholly in cells outside the square of rings `0..=k`, at least
    /// the gap from `p` to that square's nearest face away; once that
    /// gap, less the margin, squared is strictly greater than the best
    /// squared distance, none of them can win or tie, and the walk
    /// stops.
    fn nearest(&self, p: Point, position: impl Fn(usize) -> Point) -> usize {
        let q = (self.col_of(p.x), self.row_of(p.y));
        let mut best = (usize::MAX, f64::INFINITY);
        let mut k = 0;
        loop {
            self.for_each_ring_cell(q, k, &mut |cell| {
                self.examine(cell, q, p, &position, &mut best);
            });
            let Some(gap) = self.gap_outside(p, q, k) else {
                break; // every cell visited
            };
            let lower = (gap * (1.0 - 1e-9) - self.margin).max(0.0);
            if lower * lower > best.1 {
                break;
            }
            k += 1;
        }
        debug_assert!(best.0 != usize::MAX, "every robot examined");
        best.0
    }

    /// Ranks the robots listed in `cell` whose span is nearest to the
    /// query cell `q` there against `best`, (robot, squared distance to
    /// `p`), by (squared distance, index).
    fn examine(
        &self,
        cell: (u32, u32),
        q: (u32, u32),
        p: Point,
        position: &impl Fn(usize) -> Point,
        best: &mut (usize, f64),
    ) {
        let mut e = self.heads[(cell.1 * self.cols + cell.0) as usize];
        while e != NIL {
            let Entry { robot, next } = self.entries[e as usize];
            e = next;
            let Reach { reach, span } = self.robots[robot as usize];
            if span.nearest_to(q) != cell {
                continue; // examined in a nearer ring, or to come
            }
            let r = robot as usize;
            let bound = reach.distance_sq_bound(p);
            if bound > best.1 || (bound == best.1 && r > best.0) {
                continue;
            }
            let d = position(r).distance_sq(p);
            if d < best.1 || (d == best.1 && r < best.0) {
                *best = (r, d);
            }
        }
    }

    /// Calls `f` on every grid cell at Chebyshev distance `k` from cell
    /// `q`.
    fn for_each_ring_cell(&self, (qc, qr): (u32, u32), k: u32, f: &mut impl FnMut((u32, u32))) {
        if k == 0 {
            return f((qc, qr));
        }
        let (qc, qr, k) = (i64::from(qc), i64::from(qr), i64::from(k));
        let (cols, rows) = (i64::from(self.cols), i64::from(self.rows));
        let (c0, c1) = ((qc - k).max(0), (qc + k).min(cols - 1));
        for r in [qr - k, qr + k] {
            if (0..rows).contains(&r) {
                (c0..=c1).for_each(|c| f((c as u32, r as u32)));
            }
        }
        let (r0, r1) = ((qr - k + 1).max(0), (qr + k - 1).min(rows - 1));
        for c in [qc - k, qc + k] {
            if (0..cols).contains(&c) {
                (r0..=r1).for_each(|r| f((c as u32, r as u32)));
            }
        }
    }

    /// The distance from `p` to the nearest face of the square of cells
    /// within Chebyshev distance `k` of cell `q` that has grid cells
    /// beyond it, or `None` when the square covers the grid. A cell
    /// index differs from its coordinate by a few rounding units of
    /// the grid's extent; the caller's margin covers that.
    fn gap_outside(&self, p: Point, (qc, qr): (u32, u32), k: u32) -> Option<f64> {
        let face = |o: f64, i: u32| o + f64::from(i) * self.cell;
        let mut gap = f64::INFINITY;
        if qc > k {
            gap = gap.min(p.x - face(self.origin.x, qc - k));
        }
        if qc + k + 1 < self.cols {
            gap = gap.min(face(self.origin.x, qc + k + 1) - p.x);
        }
        if qr > k {
            gap = gap.min(p.y - face(self.origin.y, qr - k));
        }
        if qr + k + 1 < self.rows {
            gap = gap.min(face(self.origin.y, qr + k + 1) - p.y);
        }
        (gap < f64::INFINITY).then_some(gap)
    }
}

/// The fleet at one report instant, as [`Coordinator::flow_report`]
/// sees it.
struct FleetAt<'a> {
    robots: &'a [RobotState],
    reach: &'a ReachGrid,
    now: SimTime,
}

impl FlowFleet for FleetAt<'_> {
    fn position(&self, r: usize) -> Point {
        self.robots[r].position_at(self.now)
    }

    /// [`robonet_geom::voronoi::nearest_site`] over every robot's
    /// position, computing few of them ([`ReachGrid::nearest`]).
    fn nearest(&self, p: Point) -> usize {
        self.reach.nearest(p, |r| self.position(r))
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

    fn fail_sensor(&mut self, now: SimTime, s: usize) {
        self.sched
            .schedule_at(now, Event::Fail(self.world.expiry(s)));
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
    use crate::trace::TraceEvent;
    use robonet_des::check;

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

    /// A plan holding one robot fault on top of 10% message loss.
    fn with_robot_fault(fault: impl FnOnce(&mut FaultPlan)) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        let mut plan = FaultPlan::message_loss(0.1);
        fault(&mut plan);
        cfg.faults = Some(plan);
        cfg
    }

    #[test]
    fn validate_names_the_robot_fault_it_rejects() {
        use robonet_des::SimDuration;
        let breakdowns =
            with_robot_fault(|p| p.breakdown_mean = Some(SimDuration::from_secs(500.0)));
        let err = validate(&breakdowns).expect_err("breakdowns are packet-only");
        assert!(err.contains("breakdown_mean"), "{err}");
        let slowdowns = with_robot_fault(|p| p.slow_prob = 0.5);
        let err = validate(&slowdowns).expect_err("slowdowns are packet-only");
        assert!(err.contains("slow_prob"), "{err}");
        // Update loss has nothing to act on and stays accepted.
        assert!(validate(&with_robot_fault(|_| {})).is_ok());
    }

    #[test]
    #[should_panic(expected = "cannot execute the fault plan's breakdown_mean")]
    fn breakdown_plan_is_rejected() {
        use robonet_des::SimDuration;
        run(&with_robot_fault(|p| {
            p.breakdown_mean = Some(SimDuration::from_secs(500.0))
        }));
    }

    #[test]
    #[should_panic(expected = "cannot execute the fault plan's slow_prob")]
    fn slowdown_plan_is_rejected() {
        run(&with_robot_fault(|p| p.slow_prob = 0.5));
    }

    /// A robot coordinate: a third snap to a 125 m grid, so fleets hold
    /// duplicate positions and exact ties; a third fall anywhere in the
    /// 1000 m field; a third up to 300 m outside it, so boxes leave the
    /// grid and clamp to its edge cells.
    fn coord() -> check::Gen<f64> {
        check::pair(check::usizes(0..3), check::f64s(0.0..1.0)).map(|&(mode, v)| match mode {
            0 => (v * 1000.0 / 125.0).floor() * 125.0,
            1 => v * 1000.0,
            _ => v * 1600.0 - 300.0,
        })
    }

    fn point() -> check::Gen<Point> {
        check::pair(coord(), coord()).map(|&(x, y)| Point::new(x, y))
    }

    /// One robot at the query instant and the reach box the flow engine
    /// keeps for it: `(from, to, kind, (start s, speed))`, where kind 0
    /// parks at `from`, kind 1 drives a leg from `from` to `to` and
    /// kind 2 a zero-length leg at `from`.
    type RobotSpec = (Point, Point, usize, (f64, f64));

    fn robot_spec() -> check::Gen<RobotSpec> {
        check::quad(
            point(),
            point(),
            check::usizes(0..3),
            check::pair(check::f64s(0.0..200.0), check::f64s(0.5..2.0)),
        )
    }

    fn robot(i: usize, &(from, to, kind, (start, speed)): &RobotSpec) -> (RobotState, ReachBox) {
        let mut robot = RobotState::new(NodeId::new(i as u32), from, speed);
        if kind == 0 {
            return (robot, ReachBox::parked(from));
        }
        let start = SimTime::from_secs(start);
        let task = robonet_robot::ReplacementTask {
            failed: NodeId::new(1_000 + i as u32),
            loc: if kind == 1 { to } else { from },
            dispatched_at: start,
        };
        let leg = robot.enqueue(task, start).expect("an idle robot departs");
        (robot, ReachBox::leg(&leg))
    }

    /// The flow engine's field in these tests.
    fn field() -> Bounds {
        Bounds::square(1_000.0)
    }

    /// The grid query answers exactly what `nearest_site` answers over
    /// materialised positions, ties to the lowest index included, and
    /// every box bound is at most the exact squared distance. Fleets of
    /// up to 48 robots spread over up to 7 × 7 cells; queries fall in
    /// and around the field and far outside it; in tie mode robot 0
    /// mirrors a parked robot through the query point, so the two are
    /// exactly as far and robot 0 often sits in a farther ring.
    #[test]
    fn pruned_nearest_matches_the_full_scan() {
        // (where p is, which robot it refers to, a free point, (when
        // the query runs, a free time)).
        let query = check::quad(
            check::usizes(0..5),
            check::usizes(0..64),
            check::pair(check::f64s(-500.0..1500.0), check::f64s(-500.0..1500.0)),
            check::pair(check::usizes(0..7), check::f64s(0.0..2_000.0)),
        );
        let tie = check::pair(
            check::bools(),
            check::pair(check::f64s(-300.0..300.0), check::f64s(-300.0..300.0)),
        );
        let gen = check::triple(check::vec_of(robot_spec(), 1..48), query, tie);
        check::forall_cases(
            "grid nearest-robot query matches nearest_site",
            2_000,
            &gen,
            |(specs, (p_mode, pick, (px, py), (t_mode, t)), (tie, (ox, oy)))| {
                let mut specs = specs.clone();
                let half = |v: f64| (v * 2.0).round() / 2.0;
                let mut tie_at = None;
                if *tie && specs.len() > 1 {
                    // Half-metre coordinates keep the mirror exact. Each
                    // of the pair parks or holds a zero-length leg, whose
                    // box bound falls short of its distance.
                    let j = 1 + pick % (specs.len() - 1);
                    let still = |kind: usize| if kind == 0 { 0 } else { 2 };
                    let q = Point::new(half(specs[j].0.x), half(specs[j].0.y));
                    let (ox, oy) = (half(*ox), half(*oy));
                    specs[j] = (q, q, still(specs[j].2), specs[j].3);
                    let mirror = Point::new(q.x + 2.0 * ox, q.y + 2.0 * oy);
                    specs[0] = (mirror, mirror, still(specs[0].2), specs[0].3);
                    tie_at = Some(Point::new(q.x + ox, q.y + oy));
                }
                let (robots, reach): (Vec<RobotState>, Vec<ReachBox>) =
                    specs.iter().enumerate().map(|(i, s)| robot(i, s)).unzip();
                let grid = ReachGrid::new(&field(), reach.iter().copied());
                let (from, to, _, _) = specs[pick % specs.len()];
                let picked = &robots[pick % specs.len()];
                let ns = robonet_des::SimDuration::from_nanos(1);
                let now = match (picked.current_leg(), t_mode) {
                    (Some(leg), 1) => leg.start(),
                    (Some(leg), 2) => leg.arrival(),
                    (Some(leg), 3) if leg.arrival() > SimTime::ZERO => leg.arrival() - ns,
                    (Some(leg), 4) => leg.arrival() + ns,
                    (Some(leg), 5) => leg.start() + ns,
                    (Some(leg), 6) if leg.start() > SimTime::ZERO => leg.start() - ns,
                    _ => SimTime::from_secs(*t),
                };
                let p = tie_at.unwrap_or(match p_mode {
                    0 => Point::new(*px, *py),
                    1 => from,
                    2 => to,
                    3 => picked.position_at(now),
                    _ => Point::new(*px - 5_000.0, *py + 5_000.0),
                });
                let positions: Vec<Point> = robots.iter().map(|rb| rb.position_at(now)).collect();
                let fleet = FleetAt {
                    robots: &robots,
                    reach: &grid,
                    now,
                };
                for (r, &q) in positions.iter().enumerate() {
                    assert_eq!(fleet.position(r), q, "robot {r} at {now:?}");
                    let bound = reach[r].distance_sq_bound(p);
                    let exact = q.distance_sq(p);
                    assert!(bound <= exact, "robot {r}: bound {bound} > {exact}");
                }
                let expected = robonet_geom::voronoi::nearest_site(&positions, p).unwrap();
                assert_eq!(fleet.nearest(p), expected, "nearest to {p:?} at {now:?}");
                check::Outcome::Pass
            },
        );
    }

    #[test]
    fn equal_distance_tie_goes_to_the_lower_index_in_a_farther_ring() {
        // 25 robots on a 1000 m field: 200 m cells. The query sits in
        // column 1; robot 1 is 201 m west of it in column 0 (ring 1),
        // robot 0 201 m east in column 3 (ring 2). Ring 1's east face is
        // exactly 201 m away, so only a strict stop test with a margin
        // reaches ring 2.
        let p = Point::new(399.0, 500.0);
        let mut at = vec![Point::new(990.0, 990.0); 25];
        at[0] = Point::new(600.0, 500.0);
        at[1] = Point::new(198.0, 500.0);
        let grid = ReachGrid::new(&field(), at.iter().map(|&q| ReachBox::parked(q)));
        assert_eq!(grid.nearest(p, |r| at[r]), 0);
        assert_eq!(robonet_geom::voronoi::nearest_site(&at, p), Some(0));
        // The lower index in the nearer ring, and both in ring 1.
        at.swap(0, 1);
        let grid = ReachGrid::new(&field(), at.iter().map(|&q| ReachBox::parked(q)));
        assert_eq!(grid.nearest(p, |r| at[r]), 0);
        at[1] = Point::new(399.0, 701.0);
        let grid = ReachGrid::new(&field(), at.iter().map(|&q| ReachBox::parked(q)));
        assert_eq!(grid.nearest(p, |r| at[r]), 0);
    }

    #[test]
    fn the_stop_bound_keeps_a_margin_over_cell_rounding() {
        // 49 robots on a 1000 m field: cells of 1000/7 m. Just west of
        // column 5's west face, `x * inv_cell` still truncates to 5, so
        // robot 0 there sits two rings out from the query's column 3
        // while a rounding unit nearer than that face, the nearest face
        // of ring 1's square. Robot 1, one ring out, is farther than
        // robot 0 but nearer than the face: with no margin the walk
        // would stop after ring 1 and answer 1.
        let p = Point::new(520.0, 500.0);
        let cell = (1e6f64 / 49.0).sqrt();
        let mut at = vec![Point::new(990.0, 990.0); 49];
        at[0] = Point::new((5.0 * cell).next_down(), 500.0);
        at[1] = Point::new(369.0, 377.74641610361596);
        let grid = ReachGrid::new(&field(), at.iter().map(|&q| ReachBox::parked(q)));
        assert_eq!(grid.cell, cell);
        assert_eq!(grid.col_of(p.x), 3);
        assert_eq!(grid.col_of(at[0].x), 5);
        assert_eq!((grid.col_of(at[1].x), grid.row_of(at[1].y)), (2, 2));
        let gap = grid.gap_outside(p, (3, 3), 1).unwrap();
        assert_eq!(gap, 5.0 * cell - p.x);
        let (d0, d1) = (at[0].distance_sq(p), at[1].distance_sq(p));
        assert!(d0 < d1 && d1 < gap * gap, "{d0} {d1} {}", gap * gap);
        assert_eq!(grid.nearest(p, |r| at[r]), 0);
        assert_eq!(robonet_geom::voronoi::nearest_site(&at, p), Some(0));
    }

    /// The cells holding `reach` by the `floor` formula the grid's
    /// lookups replace.
    fn floor_span(grid: &ReachGrid, reach: &ReachBox) -> Span {
        let col = |x: f64| {
            let c = ((x - grid.origin.x) * grid.inv_cell).floor();
            (c.max(0.0) as u32).min(grid.cols - 1)
        };
        let row = |y: f64| {
            let r = ((y - grid.origin.y) * grid.inv_cell).floor();
            (r.max(0.0) as u32).min(grid.rows - 1)
        };
        Span {
            c0: col(reach.lo.x),
            r0: row(reach.lo.y),
            c1: col(reach.hi.x),
            r1: row(reach.hi.y),
        }
    }

    /// After any sequence of `set` calls every robot is listed exactly
    /// once in each cell of its box's span and nowhere else, and every
    /// pool entry is either listed or free.
    #[test]
    fn prop_grid_lists_each_robot_in_exactly_its_span() {
        let gen = check::pair(
            check::vec_of(robot_spec(), 1..48),
            check::vec_of(check::pair(check::usizes(0..64), robot_spec()), 0..80),
        );
        check::forall_cases(
            "reach grid lists each robot in exactly its span",
            500,
            &gen,
            |(specs, sets)| {
                let boxes = specs.iter().enumerate().map(|(i, s)| robot(i, s).1);
                let mut grid = ReachGrid::new(&field(), boxes);
                let mut expect: Vec<ReachBox> = grid.robots.iter().map(|r| r.reach).collect();
                for (pick, spec) in sets {
                    let r = pick % specs.len();
                    let reach = robot(r, spec).1;
                    grid.set(r, reach);
                    expect[r] = reach;
                }
                let mut listed = vec![Vec::new(); specs.len()];
                let mut live = 0;
                for r in 0..grid.rows {
                    for c in 0..grid.cols {
                        let mut e = grid.heads[(r * grid.cols + c) as usize];
                        while e != NIL {
                            let entry = grid.entries[e as usize];
                            listed[entry.robot as usize].push((c, r));
                            live += 1;
                            e = entry.next;
                        }
                    }
                }
                let mut free = 0;
                let mut e = grid.free;
                while e != NIL {
                    free += 1;
                    e = grid.entries[e as usize].next;
                }
                assert_eq!(live + free, grid.entries.len(), "entries leaked");
                for (r, cells) in listed.iter_mut().enumerate() {
                    let span = floor_span(&grid, &expect[r]);
                    assert_eq!(grid.robots[r].span, span, "robot {r}'s span");
                    cells.sort_unstable_by_key(|&(c, r)| (r, c));
                    let want: Vec<(u32, u32)> = span.cells().collect();
                    assert_eq!(*cells, want, "cells listing robot {r}");
                }
                check::Outcome::Pass
            },
        );
    }

    #[test]
    fn prop_grid_lookups_equal_floor() {
        let gen = check::triple(
            check::usizes(1..60),
            check::cell_edge_f64s(1_000.0, 1_000.0 / 7.0),
            check::cell_edge_f64s(1_000.0, 1_000.0 / 7.0),
        );
        check::forall_cases(
            "reach grid lookups equal floor",
            2_000,
            &gen,
            |&(n, x, y)| {
                let at = Point::new(500.0, 500.0);
                let grid = ReachGrid::new(&field(), (0..n).map(|_| ReachBox::parked(at)));
                let point = ReachBox::parked(Point::new(x, y));
                let span = floor_span(&grid, &point);
                assert_eq!((grid.col_of(x), grid.row_of(y)), (span.c0, span.r0));
                check::Outcome::Pass
            },
        );
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
