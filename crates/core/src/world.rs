//! The world both engines simulate: the deployed field, the sensors'
//! failure schedule, the fault plan and timeline, and the telemetry
//! snapshot. The packet harness ([`crate::Simulation`]) and the flow
//! model ([`crate::fastsim`]) differ in how messages travel, not in
//! what the world is: each builds one [`World`], so both place the same
//! sensors, fail them at the same instants (until repair timing re-arms
//! lifetimes in a different order) and run a fault timeline through
//! one executor, [`World::fire_timeline`], acting on its picks through
//! [`FaultHooks`].

use robonet_des::{rng, NodeId, SimDuration, SimTime};
use robonet_geom::partition::Partition;
use robonet_geom::{deploy, Bounds, ConvexPolygon, Point};
use robonet_robot::RobotState;
use robonet_wsn::coverage::{coverage_fraction, GRID_RESOLUTION, SENSING_RANGE};
use robonet_wsn::failure::FailureProcess;

use crate::config::{DeployRegion, ScenarioConfig};
use crate::coord::{self, CoordCtx};
use crate::fault::{FaultInjector, TimedFault};
use crate::obs::timeline::TelemetrySnapshot;
use crate::obs::RepairLedger;

/// The initial world geometry of a scenario: everything derivable from
/// the configuration alone, before the first protocol event.
///
/// Both engines and the offline trace replayer
/// ([`crate::obs::replay`]) build the field through
/// [`field_deployment`], so a replay reconstructs the *exact* sensor
/// and robot coordinates of the run that wrote the trace — positions
/// are never serialized into the artifact, only re-derived from
/// `(algorithm, seed, k, sensors_per_robot, area_per_robot_side)`.
pub struct FieldDeployment {
    /// The square field.
    pub bounds: Bounds,
    /// Sensor positions; index `i` is `NodeId(i)`.
    pub sensor_pos: Vec<Point>,
    /// The fixed algorithm's static subarea partition (`None` for
    /// partition-free algorithms).
    pub partition: Option<Box<dyn Partition>>,
    /// Initial robot positions; index `r` is `NodeId(n_sensors + r)`.
    pub robot_pos: Vec<Point>,
    /// The centralized manager's id and location, when the algorithm
    /// uses one.
    pub manager: Option<(NodeId, Point)>,
}

/// Deterministically deploys the field for `cfg`.
///
/// The PRNG stream discipline here is load-bearing: `"deploy"` draws
/// sensor positions, then the coordinator builds its partition, then
/// `"robots"` places the fleet. Any change to this order changes every
/// golden artifact in the repo.
pub fn field_deployment(cfg: &ScenarioConfig) -> FieldDeployment {
    let coordinator = coord::coordinator_for(cfg.algorithm);
    let bounds = cfg.bounds();
    let n_sensors = cfg.n_sensors();
    let n_robots = cfg.n_robots();

    let mut deploy_rng = rng::stream(cfg.seed, "deploy");
    let sensor_pos = if cfg.regions.is_empty() {
        deploy::uniform(&mut deploy_rng, &bounds, n_sensors)
    } else {
        weighted_deployment(&mut deploy_rng, &bounds, n_sensors, &cfg.regions)
    };

    let partition: Option<Box<dyn Partition>> = coordinator.build_partition(bounds, cfg.k);

    // Fixed: robots sit at the subarea centres (§3.2); the initial
    // drive there is part of initialization and not a per-failure
    // cost. Partition-free algorithms deploy uniformly.
    let mut robot_rng = rng::stream(cfg.seed, "robots");
    let robot_pos: Vec<Point> = coordinator.initial_robot_positions(
        partition.as_deref(),
        &bounds,
        n_robots,
        &mut robot_rng,
    );

    let manager = coordinator
        .uses_manager()
        .then(|| (NodeId::new((n_sensors + n_robots) as u32), bounds.center()));

    FieldDeployment {
        bounds,
        sensor_pos,
        partition,
        robot_pos,
        manager,
    }
}

/// Density-weighted sensor placement for scenarios with deployment
/// regions: rejection sampling against the piecewise-constant density
/// surface (background 1.0, each region its own multiplier), drawing
/// from the same `"deploy"` stream as uniform placement. With no
/// regions configured, [`field_deployment`] takes the plain
/// [`deploy::uniform`] path, so historical runs draw the exact
/// historical sequence.
fn weighted_deployment<R: rng::Rng + ?Sized>(
    rng: &mut R,
    bounds: &Bounds,
    n: usize,
    regions: &[DeployRegion],
) -> Vec<Point> {
    let dmax = regions.iter().map(|r| r.density).fold(1.0, f64::max);
    let density_at = |p: Point| {
        regions
            .iter()
            .find(|r| r.poly.contains(p))
            .map_or(1.0, |r| r.density)
    };
    (0..n)
        .map(|_| loop {
            let p = deploy::uniform_point(rng, bounds);
            if rng.next_f64() * dmax < density_at(p) {
                break p;
            }
        })
        .collect()
}

/// Per-sensor lifetime multipliers from region overrides. Empty unless
/// some region actually overrides the mean, so ordinary runs carry no
/// per-sensor state and [`scale_failure_time`] sees factor `1.0`.
fn region_lifetime_factors(cfg: &ScenarioConfig, sensor_pos: &[Point]) -> Vec<f64> {
    if !cfg.regions.iter().any(|r| r.mean_lifetime.is_some()) {
        return Vec::new();
    }
    let global = cfg.mean_lifetime.as_secs_f64();
    sensor_pos
        .iter()
        .map(|&p| {
            cfg.regions
                .iter()
                .find_map(|r| {
                    let m = r.mean_lifetime?;
                    r.poly.contains(p).then(|| m.as_secs_f64() / global)
                })
                .unwrap_or(1.0)
        })
        .collect()
}

/// Applies a per-region lifetime multiplier to an exponential failure
/// draw: the exponential's linear scaling lets one shared draw serve
/// every region (same stream, same draw count), so runs without
/// overrides (`factor == 1.0`, the `Vec` never built) are bit-identical
/// to historical ones.
fn scale_failure_time(now: SimTime, at: SimTime, factor: f64) -> SimTime {
    if factor == 1.0 {
        at
    } else {
        now + SimDuration::from_secs(at.duration_since(now).as_secs_f64() * factor)
    }
}

/// The world of one run, built once by either engine.
pub(crate) struct World {
    /// The deployed field.
    pub field: FieldDeployment,
    /// Each sensor's subarea (`u32::MAX` for partition-free algorithms).
    pub sensor_subarea: Vec<u32>,
    /// Deterministic fault injector — `None` for fault-free runs *and*
    /// for inert plans (all probabilities zero, no breakdowns, empty
    /// timeline), so an inert plan is bit-identical to no plan at all.
    pub faults: Option<FaultInjector>,
    /// Timeline events [`World::fire_timeline`] has executed.
    pub timeline_fired: u64,
    /// Sensor lifetimes: one `"lifetimes"` stream for every sensor.
    lifetimes: FailureProcess,
    /// Per-sensor lifetime multipliers (empty without region overrides).
    lifetime_factor: Vec<f64>,
    /// The run's horizon; failures after it are never scheduled.
    horizon: SimTime,
}

impl World {
    /// Deploys the field for `cfg` and arms its failure schedule and
    /// fault plan.
    pub fn new(cfg: &ScenarioConfig) -> Self {
        let field = field_deployment(cfg);
        let pos = &field.sensor_pos;
        let sensor_subarea = match &field.partition {
            Some(p) => pos.iter().map(|&s| p.subarea_of(s) as u32).collect(),
            None => vec![u32::MAX; pos.len()],
        };
        World {
            lifetime_factor: region_lifetime_factors(cfg, pos),
            field,
            sensor_subarea,
            faults: cfg
                .faults
                .clone()
                .filter(|p| !p.is_inert())
                .map(|p| FaultInjector::new(cfg.seed, p)),
            timeline_fired: 0,
            lifetimes: FailureProcess::new(cfg.mean_lifetime, rng::stream(cfg.seed, "lifetimes")),
            horizon: SimTime::ZERO + cfg.sim_time,
        }
    }

    /// When sensor `s`, born (or replaced) at `now`, fails: one draw
    /// from the shared lifetime stream scaled by its region factor, or
    /// `None` past the horizon (the draw is made either way).
    pub fn next_failure(&mut self, now: SimTime, s: usize) -> Option<SimTime> {
        let at = scale_failure_time(
            now,
            self.lifetimes.sample_failure_at(now),
            self.lifetime_factor.get(s).copied().unwrap_or(1.0),
        );
        (at <= self.horizon).then_some(at)
    }

    /// The fault timeline as `(fire time, index)` pairs in plan order
    /// (empty without an active plan; validation keeps every event
    /// inside the horizon).
    pub fn timeline(&self) -> impl Iterator<Item = (SimTime, u32)> + '_ {
        self.faults
            .iter()
            .flat_map(|inj| &inj.plan.timeline)
            .enumerate()
            .map(|(i, event)| (SimTime::ZERO + event.at(), i as u32))
    }

    /// The coordination context for this field.
    pub fn coord_ctx(&self, update_threshold: f64) -> CoordCtx<'_> {
        CoordCtx {
            partition: self.field.partition.as_deref(),
            n_sensors: self.field.sensor_pos.len(),
            n_robots: self.field.robot_pos.len(),
            manager: self.field.manager,
            update_threshold,
        }
    }

    /// The active fault injector; panics on a fault-free run.
    pub fn injector(&mut self) -> &mut FaultInjector {
        self.faults.as_mut().expect("an active fault plan")
    }

    /// The fleet at its initial positions, moving at `speed`.
    pub fn fleet(&self, speed: f64) -> Vec<RobotState> {
        let n_sensors = self.field.sensor_pos.len();
        let robot = |(r, &loc): (usize, &Point)| {
            RobotState::new(NodeId::new((n_sensors + r) as u32), loc, speed)
        };
        self.field.robot_pos.iter().enumerate().map(robot).collect()
    }

    /// Fires timeline event `index` at `now`: the one fault-timeline
    /// executor of both engines. It picks the victims (alive sensors
    /// inside a blackout region in index order; attrition victims drawn
    /// from the breakdown stream among robots in service) and switches
    /// loss rates; `engine` carries out kills and partitions.
    pub fn fire_timeline(now: SimTime, index: u32, engine: &mut impl FaultHooks) {
        let world = engine.world();
        world.timeline_fired += 1;
        let event = world.injector().plan.timeline[index as usize].clone();
        match event {
            TimedFault::Blackout { region, .. } => {
                for s in 0..engine.world().field.sensor_pos.len() {
                    if engine.sensor_alive(s) && region.contains(engine.world().field.sensor_pos[s])
                    {
                        engine.fail_sensor(now, s);
                    }
                }
            }
            TimedFault::Partition { until, a, b, .. } => {
                engine.install_partition(SimTime::ZERO + until, a, b);
            }
            TimedFault::Attrition { robots, .. } => {
                let candidates: Vec<usize> = (0..engine.world().field.robot_pos.len())
                    .filter(|&r| engine.robot_in_service(r))
                    .collect();
                let victims = engine
                    .world()
                    .injector()
                    .attrition_victims(&candidates, robots as usize);
                for r in victims {
                    engine.kill_robot(now, r);
                }
            }
            TimedFault::LossRate {
                report,
                dispatch,
                update,
                ..
            } => world.injector().set_loss_rates(report, dispatch, update),
        }
    }

    /// The snapshot one firing of the telemetry sampler takes: the
    /// engine's `gauges`, the field's coverage and the open repairs in
    /// `ledger` by milestone. A robot's queue depth counts every task
    /// dispatched to it and not yet installed, the one it is driving to
    /// included.
    pub fn telemetry(&self, ledger: &RepairLedger, gauges: &Gauges<'_>) -> TelemetrySnapshot {
        let robots = gauges.robots;
        let alive = gauges.alive.iter().filter(|&&a| a).count();
        let [open_failure, open_detected, open_reported, open_dispatched] = ledger.stage_counts();
        TelemetrySnapshot {
            alive: alive as u32,
            down: (gauges.alive.len() - alive) as u32,
            failures: gauges.failures,
            replaced: gauges.replacements,
            coverage: coverage_fraction(
                &self.field.bounds,
                &self.field.sensor_pos,
                gauges.alive,
                SENSING_RANGE,
                GRID_RESOLUTION,
            ),
            open_failure,
            open_detected,
            open_reported,
            open_dispatched,
            robot_queues: robots
                .iter()
                .map(|r| r.outstanding_tasks() as u32)
                .collect(),
            robot_busy: robots.iter().map(|r| r.current_leg().is_some()).collect(),
            in_flight: gauges.in_flight,
            sched_queue: gauges.sched_queue,
        }
    }
}

/// The engine-side state one telemetry sample reads: per-sensor
/// liveness, the fleet, frames in flight (0 at flow level), pending
/// scheduler events, and the failure, replacement and down-robot
/// counts the health ledger is checked against.
pub(crate) struct Gauges<'a> {
    pub alive: &'a [bool],
    pub robots: &'a [RobotState],
    pub in_flight: u32,
    pub sched_queue: u32,
    pub failures: u64,
    pub replacements: u64,
    pub robots_down: u64,
}

/// How an engine carries out the faults [`World::fire_timeline`]
/// picks.
pub(crate) trait FaultHooks {
    /// The engine's world.
    fn world(&mut self) -> &mut World;
    /// Whether sensor `s` is alive now.
    fn sensor_alive(&self, s: usize) -> bool;
    /// Sensor `s` dies at `now` (a blackout victim), through the same
    /// detection and replacement path a lifetime expiry takes.
    fn fail_sensor(&mut self, now: SimTime, s: usize);
    /// Whether robot `r` is in service (an attrition candidate).
    fn robot_in_service(&self, r: usize) -> bool;
    /// Takes robot `r` out of service at `now` for good: attrition
    /// schedules no in-place repair, even when the plan repairs random
    /// breakdowns.
    fn kill_robot(&mut self, now: SimTime, r: usize);
    /// Drops frames crossing between `a` and `b` until `until`.
    fn install_partition(&mut self, until: SimTime, a: ConvexPolygon, b: ConvexPolygon);
}
