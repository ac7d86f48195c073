//! Trace replay: reconstructing world state from a JSONL artifact.
//!
//! A trace records *transitions* (failures, dispatches, robot legs,
//! replacements); this module integrates them back into *state* — which
//! sensors are up, where every robot is, which repairs are in flight —
//! at any simulated instant. Three layers:
//!
//! - [`ReplaySetup`] — the static scenario geometry. Positions are
//!   never serialized into the trace; they are re-derived from the run
//!   manifest (`algorithm`, `seed`, `k`, …) through the *same*
//!   [`field_deployment`] call the simulation itself used, so replayed
//!   coordinates are exact, not approximate.
//! - [`ReplayState`] — the event-by-event state machine. It also works
//!   without a setup (a headerless pipe has no manifest): nodes are
//!   then discovered from the events that mention them, and only the
//!   position-dependent views degrade.
//! - [`Film`] — the full-run timeline (robot legs, sensor outages)
//!   that `viz::anim` turns into an SMIL animation.
//!
//! The event counts are not kept here: a [`ReplayState`] feeds the
//! trace's one tally, [`TraceAggregate`], and keeps only the geometry.
//!
//! Everything is deterministic: state is held in `BTreeMap`s keyed by
//! node id (the repair ledger lists open repairs in node-id order too),
//! every rendered summary is a pure function of the events
//! applied, and replaying a truncated prefix of a trace yields exactly
//! the state the full replay passed through at the truncation point
//! (property-tested in `tests/replay.rs`).

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use robonet_des::{NodeId, SimDuration};
use robonet_geom::{Bounds, ConvexPolygon, Point};

use crate::config::{Algorithm, DeployRegion, ScenarioConfig};
use crate::trace::TraceEvent;
use crate::{field_deployment, FieldDeployment};

use super::json::{self, JsonValue};
use super::ledger::RepairLedger;
use super::sink::{LineCursor, TruncatedTail};
use super::stats::TraceAggregate;

/// Static scenario geometry recovered for a trace: the deployment the
/// producing run started from, plus the constants replay needs
/// (robot speed for leg interpolation, total sim time for progress).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySetup {
    /// Algorithm label (registry name, e.g. `"dynamic"`).
    pub algorithm: String,
    /// The square field.
    pub bounds: Bounds,
    /// Sensor positions; index `i` is node id `i`.
    pub sensor_pos: Vec<Point>,
    /// Initial robot positions; index `r` is node id `n_sensors + r`.
    pub robot_home: Vec<Point>,
    /// The centralized manager's location, when the algorithm uses one.
    pub manager_loc: Option<Point>,
    /// Robot travel speed (m/s) — interpolates in-flight legs.
    pub robot_speed: f64,
    /// Total simulated time of the producing run (s).
    pub sim_time_s: f64,
}

impl ReplaySetup {
    /// Derives the setup from a full scenario configuration by running
    /// the shared deployment (bit-identical to the simulation's own).
    pub fn from_config(cfg: &ScenarioConfig) -> Self {
        let FieldDeployment {
            bounds,
            sensor_pos,
            robot_pos,
            manager,
            ..
        } = field_deployment(cfg);
        ReplaySetup {
            algorithm: cfg.algorithm.name().to_string(),
            bounds,
            sensor_pos,
            robot_home: robot_pos,
            manager_loc: manager.map(|(_, loc)| loc),
            robot_speed: cfg.robot_speed,
            sim_time_s: cfg.sim_time.as_secs_f64(),
        }
    }

    /// Rebuilds the setup from a run manifest (the `.manifest.json`
    /// sibling `robonet run --trace-out` writes).
    ///
    /// Older manifests lack `area_per_robot_side` / `robot_speed`; the
    /// field side then falls back to paper density
    /// (`200·√(spr/50)` metres per robot side, the same rule
    /// `run --sensors` uses) and the speed to the paper's 1 m/s. A
    /// region-weighted run's manifest lists its `regions`, and the
    /// deployment is rebuilt with them.
    ///
    /// # Errors
    ///
    /// Fails with a description on unparseable JSON, an unknown
    /// algorithm, inconsistent fleet/sensor counts, or a malformed
    /// region.
    pub fn from_manifest(text: &str) -> Result<Self, String> {
        let v = json::parse(text).map_err(|e| format!("manifest: {e}"))?;
        let alg_name = v
            .get("algorithm")
            .and_then(|a| a.as_str())
            .ok_or("manifest: missing `algorithm`")?;
        let algorithm = Algorithm::parse(alg_name)
            .ok_or_else(|| format!("manifest: unknown algorithm `{alg_name}`"))?;
        let seed = v
            .get("seed")
            .and_then(|s| s.as_u64())
            .ok_or("manifest: missing `seed`")?;
        let k = v
            .get("k")
            .and_then(|s| s.as_u64())
            .ok_or("manifest: missing `k`")? as usize;
        let robots = v
            .get("robots")
            .and_then(|s| s.as_u64())
            .ok_or("manifest: missing `robots`")? as usize;
        let sensors = v
            .get("sensors")
            .and_then(|s| s.as_u64())
            .ok_or("manifest: missing `sensors`")? as usize;
        if k == 0 || robots != k * k {
            return Err(format!(
                "manifest: fleet of {robots} robots does not match k={k} (expected k²)"
            ));
        }
        if sensors == 0 || !sensors.is_multiple_of(robots) {
            return Err(format!(
                "manifest: {sensors} sensors not evenly divided over {robots} robots"
            ));
        }
        let spr = sensors / robots;
        let mut cfg = ScenarioConfig::paper(k, algorithm);
        cfg.seed = seed;
        cfg.sensors_per_robot = spr;
        cfg.area_per_robot_side = v
            .get("area_per_robot_side")
            .and_then(|s| s.as_f64())
            .unwrap_or_else(|| 200.0 * (spr as f64 / 50.0).sqrt());
        cfg.robot_speed = v.get("robot_speed").and_then(|s| s.as_f64()).unwrap_or(1.0);
        if let Some(t) = v.get("sim_time_s").and_then(|s| s.as_f64()) {
            cfg.sim_time = SimDuration::from_secs(t);
        }
        if let Some(regions) = v.get("regions") {
            cfg.regions = regions_from_manifest(regions)?;
        }
        Ok(ReplaySetup::from_config(&cfg))
    }

    /// Number of sensors in the deployment.
    pub fn n_sensors(&self) -> usize {
        self.sensor_pos.len()
    }

    /// Number of robots in the fleet.
    pub fn n_robots(&self) -> usize {
        self.robot_home.len()
    }
}

/// Rebuilds the deployment regions of a manifest's `"regions"` array:
/// per region, its polygon's `[x, y]` vertices, its density and its mean
/// lifetime in seconds (`null` for the global one).
fn regions_from_manifest(regions: &JsonValue) -> Result<Vec<DeployRegion>, String> {
    let JsonValue::Array(regions) = regions else {
        return Err("manifest: `regions` is not an array".into());
    };
    let vertex = |p: &JsonValue| match p {
        JsonValue::Array(xy) if xy.len() == 2 => Some(Point::new(xy[0].as_f64()?, xy[1].as_f64()?)),
        _ => None,
    };
    let region = |r: &JsonValue| {
        let JsonValue::Array(vertices) = r.get("poly")? else {
            return None;
        };
        Some(DeployRegion {
            poly: ConvexPolygon::new(vertices.iter().map(vertex).collect::<Option<_>>()?)?,
            density: r.get("density")?.as_f64()?,
            mean_lifetime: r
                .get("mean_lifetime_s")
                .and_then(JsonValue::as_f64)
                .map(SimDuration::from_secs),
        })
    };
    regions
        .iter()
        .enumerate()
        .map(|(i, r)| region(r).ok_or_else(|| format!("manifest: malformed region {i}")))
        .collect()
}

/// A sensor's lifecycle phase at the replay instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SensorPhase {
    /// Up: beaconing, never failed or not currently down.
    Alive,
    /// Down: failed and not yet replaced (a coverage hole).
    Down,
}

/// Everything replay knows about one sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorView {
    /// Position (`None` when replaying without a setup and the trace
    /// has not revealed it via a `replaced` event).
    pub loc: Option<Point>,
    /// Current phase.
    pub phase: SensorPhase,
    /// Total failures so far (a replaced sensor can fail again).
    pub failures: u32,
    /// Total replacements installed at this position.
    pub replacements: u32,
    /// When the current outage began (`None` while alive).
    pub down_since: Option<f64>,
}

impl SensorView {
    fn fresh(loc: Option<Point>) -> Self {
        SensorView {
            loc,
            phase: SensorPhase::Alive,
            failures: 0,
            replacements: 0,
            down_since: None,
        }
    }
}

/// A robot leg in progress: driving from `from` to `to` since
/// `started` to repair `failed`.
#[derive(Debug, Clone, PartialEq)]
pub struct Leg {
    /// Departure point.
    pub from: Point,
    /// Destination (the failed sensor's position).
    pub to: Point,
    /// Departure time (s).
    pub started: f64,
    /// The failure being driven to.
    pub failed: NodeId,
}

/// Everything replay knows about one robot.
#[derive(Debug, Clone, PartialEq)]
pub struct RobotView {
    /// Last settled position: home, or where the last ended leg
    /// stopped (`None` when replaying without a setup and no leg has
    /// revealed a position yet).
    pub loc: Option<Point>,
    /// The leg in progress, if the robot is driving.
    pub leg: Option<Leg>,
    /// Ended legs (arrived, or cut short by a fault).
    pub legs_done: u32,
    /// Metres of ended legs.
    pub travel: f64,
    /// Replacements installed.
    pub installs: u32,
    /// `false` while broken down (fault injection).
    pub alive: bool,
}

impl RobotView {
    fn fresh(loc: Option<Point>) -> Self {
        RobotView {
            loc,
            leg: None,
            legs_done: 0,
            travel: 0.0,
            installs: 0,
            alive: true,
        }
    }

    /// Position at time `t`, interpolating linearly along an in-flight
    /// leg at `speed` m/s (clamped to the destination). Falls back to
    /// the departure point when `speed` is not positive.
    pub fn pos_at(&self, t: f64, speed: f64) -> Option<Point> {
        match &self.leg {
            Some(leg) => {
                let dx = leg.to.x - leg.from.x;
                let dy = leg.to.y - leg.from.y;
                let dist = (dx * dx + dy * dy).sqrt();
                if dist <= 0.0 || speed <= 0.0 {
                    return Some(leg.from);
                }
                let gone = (speed * (t - leg.started)).clamp(0.0, dist);
                Some(Point::new(
                    leg.from.x + dx * gone / dist,
                    leg.from.y + dy * gone / dist,
                ))
            }
            None => self.loc,
        }
    }
}

/// The replayed world at one instant: feed [`TraceEvent`]s in trace
/// order via [`apply`](Self::apply) and read the views back.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayState {
    /// Timestamp of the last event applied (0 before the first).
    pub time: f64,
    /// Events applied so far: the tally's `events`, kept as a field
    /// because the benchmark reads it.
    pub events: u64,
    /// Robot travel speed used for leg interpolation.
    pub robot_speed: f64,
    sensors: BTreeMap<u32, SensorView>,
    robots: BTreeMap<u32, RobotView>,
    ledger: RepairLedger,
    tally: TraceAggregate,
}

impl ReplayState {
    /// A world seeded from `setup`: every sensor alive at its deployed
    /// position, every robot idle at home.
    pub fn new(setup: &ReplaySetup) -> Self {
        let sensors = setup
            .sensor_pos
            .iter()
            .enumerate()
            .map(|(i, &loc)| (i as u32, SensorView::fresh(Some(loc))))
            .collect();
        let n = setup.n_sensors() as u32;
        let robots = setup
            .robot_home
            .iter()
            .enumerate()
            .map(|(r, &loc)| (n + r as u32, RobotView::fresh(Some(loc))))
            .collect();
        ReplayState {
            time: 0.0,
            events: 0,
            robot_speed: setup.robot_speed,
            sensors,
            robots,
            ledger: RepairLedger::new(),
            tally: TraceAggregate::default(),
        }
    }

    /// A world with no geometry: nodes are discovered from the events
    /// that mention them. This is what a manifest-less pipe
    /// (`robonet run --trace-out - | robonet replay --follow -`) gets;
    /// positions stay `None` until the trace reveals them.
    pub fn discovering() -> Self {
        ReplayState {
            time: 0.0,
            events: 0,
            robot_speed: 1.0,
            sensors: BTreeMap::new(),
            robots: BTreeMap::new(),
            ledger: RepairLedger::new(),
            tally: TraceAggregate::default(),
        }
    }

    fn sensor(&mut self, id: NodeId) -> &mut SensorView {
        self.sensors
            .entry(id.as_u32())
            .or_insert_with(|| SensorView::fresh(None))
    }

    fn robot(&mut self, id: NodeId) -> &mut RobotView {
        self.robots
            .entry(id.as_u32())
            .or_insert_with(|| RobotView::fresh(None))
    }

    /// Applies one event. Never panics on malformed streams: events
    /// that reference unknown nodes simply materialise them.
    pub fn apply(&mut self, event: &TraceEvent) {
        self.time = event.time();
        self.events += 1;
        self.ledger.apply(event);
        self.tally.ingest(event);
        match event {
            TraceEvent::Failure { t, sensor } => {
                let s = self.sensor(*sensor);
                s.failures += 1;
                s.phase = SensorPhase::Down;
                s.down_since = Some(*t);
            }
            TraceEvent::RobotLegStarted {
                t,
                robot,
                failed,
                from,
                to,
            } => {
                let r = self.robot(*robot);
                r.loc = Some(*from);
                r.leg = Some(Leg {
                    from: *from,
                    to: *to,
                    started: *t,
                    failed: *failed,
                });
            }
            TraceEvent::RobotLegEnded {
                t: _,
                robot,
                travel,
            } => {
                let r = self.robot(*robot);
                if let Some(leg) = r.leg.take() {
                    r.loc = Some(leg_end(leg.from, leg.to, *travel));
                }
                r.legs_done += 1;
                r.travel += travel;
            }
            TraceEvent::Replaced {
                robot, sensor, loc, ..
            } => {
                let s = self.sensor(*sensor);
                s.phase = SensorPhase::Alive;
                s.replacements += 1;
                s.down_since = None;
                s.loc = Some(*loc);
                self.robot(*robot).installs += 1;
            }
            TraceEvent::RobotDied { robot, .. } => self.robot(*robot).alive = false,
            TraceEvent::RobotRepaired { robot, .. } => self.robot(*robot).alive = true,
            _ => {}
        }
    }

    /// The trace's tally of the events applied so far.
    pub fn counts(&self) -> &TraceAggregate {
        &self.tally
    }

    /// Sensor views in node-id order.
    pub fn sensors(&self) -> impl Iterator<Item = (u32, &SensorView)> {
        self.sensors.iter().map(|(&id, v)| (id, v))
    }

    /// Robot views in node-id order.
    pub fn robots(&self) -> impl Iterator<Item = (u32, &RobotView)> {
        self.robots.iter().map(|(&id, v)| (id, v))
    }

    /// The open (failed, unreplaced) repairs.
    pub fn ledger(&self) -> &RepairLedger {
        &self.ledger
    }

    /// Sensors currently down.
    pub fn down_count(&self) -> usize {
        self.sensors
            .values()
            .filter(|s| s.phase == SensorPhase::Down)
            .count()
    }

    /// Robots currently driving a leg.
    pub fn en_route_count(&self) -> usize {
        self.robots.values().filter(|r| r.leg.is_some()).count()
    }

    /// Deterministic multi-line state summary at the last applied
    /// event's instant — the output of `replay` without `--at`, and
    /// (identically) the final state a completed `--follow` prints, so
    /// "follow ended where offline replay ends" is checkable with
    /// `diff`.
    pub fn summary(&self) -> String {
        self.summary_at(self.time)
    }

    /// Like [`summary`](Self::summary), but rendered at query instant
    /// `clock` (≥ the last applied event): in-flight robots are
    /// interpolated to `clock` and outage ages measured against it.
    pub fn summary_at(&self, clock: f64) -> String {
        let clock = clock.max(self.time);
        let mut out = String::new();
        let down = self.down_count();
        let _ = writeln!(out, "replay state @ {clock:.3} s");
        let _ = writeln!(out, "events applied:       {}", self.events);
        let _ = writeln!(
            out,
            "sensors:              {} up / {} down / {} total",
            self.sensors.len() - down,
            down,
            self.sensors.len()
        );
        let _ = writeln!(
            out,
            "failures:             {} ({} replaced, {} open)",
            self.tally.failures,
            self.tally.replacements,
            self.ledger.open_count()
        );
        for (id, o) in self.ledger.open_repairs() {
            let _ = writeln!(
                out,
                "  open: sensor {:>4} down {:>9.1} s, reached {}",
                id,
                clock - o.failed_at,
                o.reached().label()
            );
        }
        let _ = writeln!(
            out,
            "robots:               {} idle / {} en-route / {} down",
            self.robots
                .values()
                .filter(|r| r.alive && r.leg.is_none())
                .count(),
            self.en_route_count(),
            self.robots.values().filter(|r| !r.alive).count()
        );
        for (id, r) in &self.robots {
            let pos = match r.pos_at(clock, self.robot_speed) {
                Some(p) => format!("({:7.1}, {:7.1})", p.x, p.y),
                None => "(unknown)".to_string(),
            };
            let doing = match &r.leg {
                Some(leg) => format!("-> sensor {}", leg.failed.as_u32()),
                None if !r.alive => "down".to_string(),
                None => "idle".to_string(),
            };
            let _ = writeln!(
                out,
                "  robot {:>4} {pos}  {:<16} legs {:>3}  travel {:>9.1} m  installs {:>3}",
                id, doing, r.legs_done, r.travel, r.installs
            );
        }
        let c = &self.tally;
        let _ = writeln!(
            out,
            "traffic:              {} reports, {} dispatches, {} drops, {} floods",
            c.reports_delivered,
            c.dispatches,
            c.drops.total(),
            c.loc_update_floods
        );
        if c.robot_deaths + c.takeovers > 0 {
            let _ = writeln!(
                out,
                "faults:               {} robot deaths, {} repairs, {} takeovers",
                c.robot_deaths, c.robot_repairs, c.takeovers
            );
        }
        if c.telemetry_samples > 0 {
            let _ = writeln!(out, "telemetry:            {} samples", c.telemetry_samples);
        }
        if c.invariant_violations > 0 {
            let _ = writeln!(
                out,
                "INVARIANT VIOLATIONS: {} (the producer's counters drifted from its events)",
                c.invariant_violations
            );
        }
        out
    }

    /// One-line rolling dashboard for `--follow` (stderr).
    pub fn dashboard(&self) -> String {
        format!(
            "t={:>9.1}s ev={:>7} | sensors {}/{} up | open {} | robots {} en-route | replaced {}/{}",
            self.time,
            self.events,
            self.sensors.len() - self.down_count(),
            self.sensors.len(),
            self.ledger.open_count(),
            self.en_route_count(),
            self.tally.replacements,
            self.tally.failures,
        )
    }
}

/// Replays `events`, applying only those with `time() <= t`, and
/// returns the state at instant `t`.
///
/// This is *exactly* a full replay of the trace truncated at `t` — the
/// state machine is a pure left fold over the event prefix, and
/// `state.time` is the timestamp of the last event applied (render the
/// query instant itself with [`ReplayState::summary_at`]).
pub fn state_at<'a>(
    setup: &ReplaySetup,
    events: impl IntoIterator<Item = &'a TraceEvent>,
    t: f64,
) -> ReplayState {
    let mut state = ReplayState::new(setup);
    for ev in events {
        if ev.time() <= t {
            state.apply(ev);
        }
    }
    state
}

/// An incremental replayer: a [`LineCursor`] feeding a [`ReplayState`],
/// the engine behind `replay --follow`. Bytes can arrive in any
/// chunking (mid-line is fine); a ragged tail is held until the rest of
/// the line shows up.
#[derive(Debug)]
pub struct Replayer {
    cursor: LineCursor,
    state: ReplayState,
}

impl Replayer {
    /// A replayer seeded from `setup`.
    pub fn new(setup: &ReplaySetup) -> Self {
        Replayer {
            cursor: LineCursor::new(),
            state: ReplayState::new(setup),
        }
    }

    /// A replayer with no geometry (manifest-less pipe).
    pub fn discovering() -> Self {
        Replayer {
            cursor: LineCursor::new(),
            state: ReplayState::discovering(),
        }
    }

    /// Consumes a chunk of trace bytes, applying every complete line.
    ///
    /// # Errors
    ///
    /// Propagates the cursor's malformed-record errors (with 1-based
    /// line numbers).
    pub fn feed(&mut self, chunk: &str) -> Result<(), String> {
        let state = &mut self.state;
        self.cursor.feed(chunk, |ev| state.apply(ev))
    }

    /// Closes the stream; an unterminated final record is reported as
    /// a [`TruncatedTail`], not an error.
    ///
    /// # Errors
    ///
    /// Propagates a malformed (terminated) final record.
    pub fn finish(self) -> Result<(ReplayState, Option<TruncatedTail>), String> {
        let mut state = self.state;
        let tail = self.cursor.finish(|ev| state.apply(ev))?;
        Ok((state, tail))
    }

    /// The state replayed so far.
    pub fn state(&self) -> &ReplayState {
        &self.state
    }

    /// Bytes currently buffered as an unterminated line.
    pub fn pending_bytes(&self) -> usize {
        self.cursor.pending_bytes()
    }
}

/// One robot leg on the film timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct LegRecord {
    /// Robot node id.
    pub robot: u32,
    /// Departure point.
    pub from: Point,
    /// Destination, or where a fault cut the leg short.
    pub to: Point,
    /// Departure time (s).
    pub start: f64,
    /// Arrival (or cut) time (s); `None` if the trace ended mid-leg.
    pub end: Option<f64>,
}

/// Where a leg from `from` towards `to` ended after `travel` metres:
/// `to` itself for a leg driven to the end, the cut point for one a
/// robot fault interrupted.
fn leg_end(from: Point, to: Point, travel: f64) -> Point {
    let length = from.distance(to);
    if travel >= length {
        to
    } else {
        from.lerp(to, travel / length)
    }
}

/// One sensor outage on the film timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct OutageRecord {
    /// Sensor node id.
    pub sensor: u32,
    /// Where the replacement was installed (`None` until the outage
    /// ends); with a [`ReplaySetup`], the deployment position places
    /// the outage instead.
    pub loc: Option<Point>,
    /// Failure time (s).
    pub start: f64,
    /// Replacement time (s); `None` if never repaired on-trace.
    pub end: Option<f64>,
}

/// The full-run timeline `viz::anim` animates: every robot leg and
/// every sensor outage, in trace order, plus the time horizon. Feed it
/// events in trace order through [`ingest`](Self::ingest), like the
/// other folds.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Film {
    /// Last event timestamp (0 before the first).
    pub t_end: f64,
    /// Robot legs in start order.
    pub legs: Vec<LegRecord>,
    /// Sensor outages in failure order.
    pub outages: Vec<OutageRecord>,
    /// Per robot, the index of its leg under way.
    open_leg: BTreeMap<u32, usize>,
    /// Per sensor, the indices of its open outages, oldest first.
    open_outage: BTreeMap<u32, VecDeque<usize>>,
}

impl Film {
    /// An empty film.
    pub fn new() -> Self {
        Film::default()
    }

    /// Records one event: a failure opens an outage and a replacement
    /// closes the sensor's oldest; a leg start opens a leg and its end
    /// closes it where the robot stopped.
    pub fn ingest(&mut self, event: &TraceEvent) {
        self.t_end = self.t_end.max(event.time());
        match event {
            TraceEvent::Failure { t, sensor } => {
                let id = sensor.as_u32();
                self.open_outage
                    .entry(id)
                    .or_default()
                    .push_back(self.outages.len());
                self.outages.push(OutageRecord {
                    sensor: id,
                    loc: None,
                    start: *t,
                    end: None,
                });
            }
            TraceEvent::Replaced { t, sensor, loc, .. } => {
                let open = self.open_outage.get_mut(&sensor.as_u32());
                if let Some(i) = open.and_then(VecDeque::pop_front) {
                    self.outages[i].end = Some(*t);
                    self.outages[i].loc = Some(*loc);
                }
            }
            TraceEvent::RobotLegStarted {
                t, robot, from, to, ..
            } => {
                let id = robot.as_u32();
                self.open_leg.insert(id, self.legs.len());
                self.legs.push(LegRecord {
                    robot: id,
                    from: *from,
                    to: *to,
                    start: *t,
                    end: None,
                });
            }
            TraceEvent::RobotLegEnded { t, robot, travel } => {
                if let Some(i) = self.open_leg.remove(&robot.as_u32()) {
                    let leg = &mut self.legs[i];
                    leg.end = Some(*t);
                    leg.to = leg_end(leg.from, leg.to, *travel);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use crate::obs::ledger::Milestone;
    use crate::obs::sink::{event_to_jsonl, trace_header};

    fn story() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Failure {
                t: 10.0,
                sensor: NodeId::new(3),
            },
            TraceEvent::Detected {
                t: 40.0,
                guardian: NodeId::new(4),
                failed: NodeId::new(3),
            },
            TraceEvent::ReportDelivered {
                t: 41.0,
                manager: NodeId::new(200),
                failed: NodeId::new(3),
                hops: 2,
            },
            TraceEvent::Dispatched {
                t: 41.0,
                robot: NodeId::new(200),
                failed: NodeId::new(3),
                departed: true,
            },
            TraceEvent::RobotLegStarted {
                t: 41.0,
                robot: NodeId::new(200),
                failed: NodeId::new(3),
                from: Point::new(0.0, 0.0),
                to: Point::new(30.0, 40.0),
            },
            TraceEvent::RobotLegEnded {
                t: 91.0,
                robot: NodeId::new(200),
                travel: 50.0,
            },
            TraceEvent::Replaced {
                t: 91.0,
                robot: NodeId::new(200),
                sensor: NodeId::new(3),
                travel: 50.0,
                loc: Point::new(30.0, 40.0),
            },
        ]
    }

    #[test]
    fn setup_round_trips_through_a_manifest() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic).with_seed(9);
        let direct = ReplaySetup::from_config(&cfg);
        let manifest = "{\"algorithm\":\"dynamic\",\"seed\":9,\"k\":2,\"robots\":4,\
             \"sensors\":200,\"sim_time_s\":64000.0,\
             \"area_per_robot_side\":200.0,\"robot_speed\":1.0}";
        let recovered = ReplaySetup::from_manifest(manifest).unwrap();
        assert_eq!(direct, recovered, "manifest reconstructs the deployment");
        assert_eq!(recovered.n_sensors(), 200);
        assert_eq!(recovered.n_robots(), 4);
        assert!(recovered.manager_loc.is_none(), "dynamic has no manager");
    }

    #[test]
    fn manifest_defaults_cover_legacy_artifacts() {
        // PR 3-era manifests lack area_per_robot_side/robot_speed.
        let legacy =
            "{\"algorithm\":\"centralized\",\"seed\":1,\"k\":1,\"robots\":1,\"sensors\":50}";
        let setup = ReplaySetup::from_manifest(legacy).unwrap();
        assert_eq!(setup.bounds.width(), 200.0, "paper density fallback");
        assert_eq!(setup.robot_speed, 1.0);
        assert!(setup.manager_loc.is_some());

        let bad = "{\"algorithm\":\"centralized\",\"seed\":1,\"k\":2,\"robots\":3,\"sensors\":50}";
        assert!(ReplaySetup::from_manifest(bad).unwrap_err().contains("k"));

        let degenerate = "{\"algorithm\":\"dynamic\",\"seed\":1,\"k\":1,\"robots\":1,\
             \"sensors\":50,\"regions\":[{\"poly\":[[0,0],[9,0]],\"density\":2}]}";
        let err = ReplaySetup::from_manifest(degenerate).unwrap_err();
        assert!(err.contains("malformed region 0"), "{err}");
    }

    #[test]
    fn state_machine_tracks_a_repair() {
        let cfg = ScenarioConfig::paper(1, Algorithm::Centralized).with_seed(5);
        let setup = ReplaySetup::from_config(&cfg);
        let events = story();

        let mid = state_at(&setup, &events, 60.0);
        assert_eq!(mid.counts().failures, 1);
        assert_eq!(mid.counts().replacements, 0);
        assert_eq!(mid.down_count(), 1);
        assert_eq!(mid.en_route_count(), 1);
        let (_, open) = mid.ledger().open_repairs().next().unwrap();
        assert_eq!(open.reached(), Milestone::Dispatched);
        // In-flight interpolation: 19 s into a 50 m leg at 1 m/s along
        // the 3-4-5 direction.
        let robot = mid.robots().find(|(id, _)| *id == 200).unwrap().1;
        let p = robot.pos_at(60.0, 1.0).unwrap();
        assert!((p.x - 30.0 * 19.0 / 50.0).abs() < 1e-9);
        assert!((p.y - 40.0 * 19.0 / 50.0).abs() < 1e-9);

        let done = state_at(&setup, &events, 1e9);
        assert_eq!(done.counts().replacements, 1);
        assert_eq!(done.down_count(), 0);
        assert_eq!(done.ledger().open_count(), 0);
        let robot = done.robots().find(|(id, _)| *id == 200).unwrap().1;
        assert_eq!(robot.loc, Some(Point::new(30.0, 40.0)));
        assert_eq!(robot.legs_done, 1);
        assert_eq!(robot.installs, 1);
        assert!(done.summary().contains("1 replaced, 0 open"));
    }

    #[test]
    fn replayer_matches_offline_fold_under_any_chunking() {
        let cfg = ScenarioConfig::paper(1, Algorithm::Centralized).with_seed(5);
        let setup = ReplaySetup::from_config(&cfg);
        let events = story();
        let mut text = trace_header().to_string();
        text.push('\n');
        for ev in &events {
            text.push_str(&event_to_jsonl(ev));
            text.push('\n');
        }

        let mut offline = ReplayState::new(&setup);
        for ev in &events {
            offline.apply(ev);
        }

        for chunk in [1usize, 7, text.len()] {
            let mut r = Replayer::new(&setup);
            let mut rest = text.as_str();
            while !rest.is_empty() {
                let n = chunk.min(rest.len());
                r.feed(&rest[..n]).unwrap();
                rest = &rest[n..];
            }
            let (state, tail) = r.finish().unwrap();
            assert_eq!(tail, None);
            assert_eq!(state, offline, "chunk size {chunk}");
            assert_eq!(state.summary(), offline.summary());
        }
    }

    #[test]
    fn discovering_state_handles_a_headerless_pipe() {
        let events = story();
        let mut text = String::new();
        for ev in &events {
            text.push_str(&event_to_jsonl(ev));
            text.push('\n');
        }
        let mut r = Replayer::discovering();
        r.feed(&text).unwrap();
        let (state, _) = r.finish().unwrap();
        assert_eq!(state.counts().replacements, 1);
        // The replacement event revealed the sensor's position.
        let sensor = state.sensors().next().unwrap().1;
        assert_eq!(sensor.loc, Some(Point::new(30.0, 40.0)));
        assert!(state.dashboard().contains("replaced 1/1"));
    }

    fn film_of(events: &[TraceEvent]) -> Film {
        let mut film = Film::new();
        events.iter().for_each(|e| film.ingest(e));
        film
    }

    #[test]
    fn film_records_legs_and_outages() {
        let events = story();
        let film = film_of(&events);
        assert_eq!(film.t_end, 91.0);
        assert_eq!(film.legs.len(), 1);
        assert_eq!(film.legs[0].end, Some(91.0));
        assert_eq!(film.outages.len(), 1);
        assert_eq!(film.outages[0].start, 10.0);
        assert_eq!(film.outages[0].end, Some(91.0));
        assert_eq!(
            film.outages[0].loc,
            Some(Point::new(30.0, 40.0)),
            "replacement location backfills the outage position"
        );

        // A trace that ends mid-leg leaves the records open.
        let film = film_of(&events[..6]);
        assert_eq!(film.legs[0].end, Some(91.0));
        let film = film_of(&events[..5]);
        assert_eq!(film.legs[0].end, None);
        assert_eq!(film.outages[0].end, None);
    }

    #[test]
    fn a_cut_leg_leaves_the_robot_where_it_stopped() {
        // The story's 50 m leg, cut by a breakdown 10 m out.
        let mut events = story()[..5].to_vec();
        events.push(TraceEvent::RobotLegEnded {
            t: 51.0,
            robot: NodeId::new(200),
            travel: 10.0,
        });
        let cut = Point::new(6.0, 8.0);
        let mut state = ReplayState::discovering();
        events.iter().for_each(|e| state.apply(e));
        let robot = state.robots().find(|(id, _)| *id == 200).unwrap().1;
        assert_eq!(robot.loc, Some(cut));
        assert_eq!(robot.travel, 10.0);
        let film = film_of(&events);
        assert_eq!((film.legs[0].to, film.legs[0].end), (cut, Some(51.0)));
    }
}
