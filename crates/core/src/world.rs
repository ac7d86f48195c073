//! The world both engines simulate: the deployed field and fleet, the
//! sensors' failure schedule, the fault plan and timeline, the repair
//! lifecycle and the telemetry snapshot. The packet harness
//! ([`crate::Simulation`]) and the flow model ([`crate::fastsim`])
//! differ in how messages travel, not in what the world is: each builds
//! one [`World`], so both place the same sensors, fail them at the same
//! instants (until repair timing re-arms lifetimes in a different
//! order), run a fault timeline through one executor,
//! [`World::fire_timeline`], acting on its picks through [`FaultHooks`],
//! and run one repair loop (paper §2(a), §2(d)): a lifetime expires
//! ([`World::expire`]), a robot is handed the task
//! ([`World::dispatch`]), drives there ([`World::start_leg`]; a fault
//! may [`World::cut_leg`]) and installs a replacement with a fresh
//! lifetime ([`World::arrive`]). The world owns sensor liveness and
//! incarnations and emits those five trace events through the engine's
//! [`Observer`]; each engine schedules the [`Expiry`] and [`LegRef`]
//! events in its own queue and keeps radio, detection and pricing.

use robonet_des::{rng, NodeId, Scheduler, SimDuration, SimTime};
use robonet_geom::partition::Partition;
use robonet_geom::{deploy, Bounds, ConvexPolygon, Point};
use robonet_robot::motion::Leg;
use robonet_robot::{ReplacementTask, RobotState};
use robonet_wsn::coverage::{CoverageGauge, GRID_RESOLUTION, SENSING_RANGE};
use robonet_wsn::failure::{self, FailureProcess};

use crate::config::{DeployRegion, ScenarioConfig};
use crate::coord::{self, CoordCtx};
use crate::fault::{FaultInjector, TimedFault};
use crate::obs::timeline::TelemetrySnapshot;
use crate::obs::{Observer, RepairLedger};
use crate::trace::TraceEvent;

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
    /// The fleet; robot `r` is `NodeId(n_sensors + r)`.
    pub robots: Vec<RobotState>,
    /// Sensor failures so far.
    pub failures: u64,
    /// Replacements installed so far.
    pub replacements: u64,
    /// Whether each sensor is functional.
    alive: Vec<bool>,
    /// The coverage gauge, built by the first telemetry sample (runs
    /// without samples never pay for it) and kept current by `expire`
    /// and `arrive` from then on.
    coverage: Option<CoverageGauge>,
    /// Replacements installed in each sensor slot: an [`Expiry`] armed
    /// for an earlier incarnation is stale.
    incarnation: Vec<u32>,
    /// Legs each robot has started or cut: a [`LegRef`] naming an
    /// earlier leg is stale.
    leg_seq: Vec<u32>,
    /// Sensor lifetimes: one `"lifetimes"` stream for every sensor.
    lifetimes: FailureProcess,
    /// Per-sensor lifetime multipliers (empty without region overrides).
    lifetime_factor: Vec<f64>,
    /// The run's horizon; failures after it are never scheduled.
    horizon: SimTime,
    /// The cutoff below which a draw makes a lifetime longer than the
    /// horizon ([`failure::ends_past`]).
    past_cutoff: f64,
}

impl World {
    /// Deploys the field for `cfg`, parks the fleet at its initial
    /// positions and sets up the failure schedule and fault plan.
    pub fn new(cfg: &ScenarioConfig) -> Self {
        let field = field_deployment(cfg);
        let pos = &field.sensor_pos;
        let sensor_subarea = match &field.partition {
            Some(p) => pos.iter().map(|&s| p.subarea_of(s) as u32).collect(),
            None => vec![u32::MAX; pos.len()],
        };
        let n_sensors = pos.len();
        let robot = |(r, &loc): (usize, &Point)| {
            RobotState::new(NodeId::new((n_sensors + r) as u32), loc, cfg.robot_speed)
        };
        World {
            lifetime_factor: region_lifetime_factors(cfg, pos),
            robots: field.robot_pos.iter().enumerate().map(robot).collect(),
            failures: 0,
            replacements: 0,
            alive: vec![true; n_sensors],
            coverage: None,
            incarnation: vec![0; n_sensors],
            leg_seq: vec![0; field.robot_pos.len()],
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
            past_cutoff: failure::past_horizon_cutoff(cfg.mean_lifetime, cfg.sim_time),
        }
    }

    /// Arms sensor `s`, born (or replaced) at `now`: one draw from the
    /// shared lifetime stream, scaled by its region factor, and its
    /// [`Expiry`] scheduled unless that falls past the horizon (the
    /// draw is made either way).
    ///
    /// For a sensor without a region factor, a draw below the run's
    /// cutoff ([`failure::past_horizon_cutoff`]) makes a lifetime longer
    /// than the whole horizon, which ends past it from any birth: it is
    /// dropped without the logarithm and the conversion. That is tight
    /// at `t = 0`, where every sensor arms; a re-arm keeps the test, but
    /// it leaves lifetimes longer than the remaining horizon and shorter
    /// than the whole one to the exact path, as it does every draw in
    /// the cutoff's margin and every draw of a sensor with a factor.
    pub fn arm<E: From<Expiry>>(&mut self, now: SimTime, s: usize, sched: &mut Scheduler<E>) {
        let u = self.lifetimes.draw();
        let factor = self.lifetime_factor.get(s).copied().unwrap_or(1.0);
        if factor == 1.0 && failure::ends_past(u, self.past_cutoff) {
            return;
        }
        let at = scale_failure_time(now, now + self.lifetimes.lifetime_of(u), factor);
        if at <= self.horizon {
            sched.schedule_at(at, E::from(self.expiry(s)));
        }
    }

    /// The expiry that ends sensor `s`'s current incarnation.
    pub fn expiry(&self, s: usize) -> Expiry {
        Expiry {
            sensor: s as u32,
            incarnation: self.incarnation[s],
        }
    }

    /// Whether sensor `s` is functional.
    pub fn is_alive(&self, s: usize) -> bool {
        self.alive[s]
    }

    /// Lifetime expiry `e` fires at `now`: unless it is stale (the
    /// sensor was replaced since it was armed, or is down already), the
    /// sensor fails and `failure` is emitted. Returns the sensor that
    /// failed.
    pub fn expire(&mut self, now: SimTime, e: Expiry, obs: &mut Observer<'_>) -> Option<NodeId> {
        let s = e.sensor as usize;
        if self.incarnation[s] != e.incarnation || !self.alive[s] {
            return None;
        }
        self.alive[s] = false;
        if let Some(gauge) = &mut self.coverage {
            gauge.set_alive(self.field.sensor_pos[s], false);
        }
        self.failures += 1;
        let sensor = NodeId::new(e.sensor);
        obs.emit(|| TraceEvent::Failure {
            t: now.as_secs_f64(),
            sensor,
        });
        Some(sensor)
    }

    /// Hands robot `r` the task of replacing `failed`, unless it holds
    /// one for that sensor already, and emits `dispatched`. Returns the
    /// leg an idle robot departs on, for the engine to start through
    /// [`World::start_leg`].
    pub fn dispatch(
        &mut self,
        now: SimTime,
        r: usize,
        failed: NodeId,
        obs: &mut Observer<'_>,
    ) -> Option<Leg> {
        let robot = &mut self.robots[r];
        if robot.has_task(failed) {
            return None; // duplicate report for a queued failure
        }
        let task = ReplacementTask {
            failed,
            loc: self.field.sensor_pos[failed.index()],
            dispatched_at: now,
        };
        let leg = robot.enqueue(task, now);
        obs.emit(|| TraceEvent::Dispatched {
            t: now.as_secs_f64(),
            robot: robot.id,
            failed,
            departed: leg.is_some(),
        });
        leg
    }

    /// Robot `r` departs on `leg` towards its current task: emits
    /// `robot_leg_started` and schedules the arrival. Returns the leg's
    /// reference, stale once the leg is cut.
    pub fn start_leg<E: From<LegRef>>(
        &mut self,
        r: usize,
        leg: &Leg,
        obs: &mut Observer<'_>,
        sched: &mut Scheduler<E>,
    ) -> LegRef {
        self.leg_seq[r] += 1;
        let robot = &self.robots[r];
        obs.emit(|| TraceEvent::RobotLegStarted {
            t: leg.start().as_secs_f64(),
            robot: robot.id,
            failed: robot
                .current_task()
                .expect("departing robot has a task")
                .failed,
            from: leg.from(),
            to: leg.to(),
        });
        let id = LegRef {
            robot: r as u32,
            seq: self.leg_seq[r],
        };
        sched.schedule_at(leg.arrival(), E::from(id));
        id
    }

    /// Whether `leg` is still under way (not cut, not arrived and
    /// followed by another).
    pub fn leg_is_current(&self, leg: LegRef) -> bool {
        self.leg_seq[leg.robot()] == leg.seq
    }

    /// The robot on `leg` reaches its end at `now`, unless the leg is
    /// stale: emits `robot_leg_ended` and, when the failed sensor is
    /// still down, installs the replacement — same identity and
    /// location, a new incarnation with a fresh lifetime — and emits
    /// `replaced`. A task for a live sensor (a false alarm) installs
    /// nothing.
    pub fn arrive<E: From<Expiry>>(
        &mut self,
        now: SimTime,
        leg: LegRef,
        obs: &mut Observer<'_>,
        sched: &mut Scheduler<E>,
    ) -> Option<Arrival> {
        if !self.leg_is_current(leg) {
            return None;
        }
        let robot = &mut self.robots[leg.robot()];
        let travel = robot
            .current_leg()
            .expect("arriving robot has a leg")
            .distance();
        let (task, next) = robot.arrive(now);
        let (robot, t) = (robot.id, now.as_secs_f64());
        obs.emit(|| TraceEvent::RobotLegEnded { t, robot, travel });
        let s = task.failed.index();
        let installed = !self.alive[s];
        if installed {
            self.alive[s] = true;
            if let Some(gauge) = &mut self.coverage {
                gauge.set_alive(self.field.sensor_pos[s], true);
            }
            self.incarnation[s] += 1;
            self.replacements += 1;
            self.arm(now, s, sched);
            obs.emit(|| TraceEvent::Replaced {
                t,
                robot,
                sensor: task.failed,
                travel,
                loc: task.loc,
            });
        }
        Some(Arrival {
            task,
            travel,
            installed,
            next,
        })
    }

    /// A fault stops robot `r` at `now` (a breakdown, a slowdown or
    /// attrition): a leg under way ends where the robot stands, with
    /// `robot_leg_ended` carrying the metres driven; its task goes back
    /// to the front of the queue and the leg goes stale. Returns
    /// whether a leg was cut.
    pub fn cut_leg(&mut self, now: SimTime, r: usize, obs: &mut Observer<'_>) -> bool {
        let robot = &mut self.robots[r];
        let Some(leg) = robot.current_leg() else {
            return false;
        };
        // The metres `interrupt` credits the odometer with.
        let travel = leg.from().distance(leg.position_at(now));
        robot.interrupt(now);
        self.leg_seq[r] += 1;
        obs.emit(|| TraceEvent::RobotLegEnded {
            t: now.as_secs_f64(),
            robot: robot.id,
            travel,
        });
        true
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
                    let world = engine.world();
                    if world.alive[s] && region.contains(world.field.sensor_pos[s]) {
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

    /// The snapshot one firing of the telemetry sampler takes: sensor
    /// liveness and the field's coverage, the fleet, the engine's
    /// `gauges` and the open repairs in `ledger` by milestone. A
    /// robot's queue depth counts every task dispatched to it and not
    /// yet installed, the one it is driving to included.
    pub fn telemetry(&mut self, ledger: &RepairLedger, gauges: &Gauges) -> TelemetrySnapshot {
        let (field, alive) = (&self.field, &self.alive);
        let coverage = self
            .coverage
            .get_or_insert_with(|| {
                CoverageGauge::new(
                    &field.bounds,
                    &field.sensor_pos,
                    alive,
                    SENSING_RANGE,
                    GRID_RESOLUTION,
                )
            })
            .fraction();
        let robots = &self.robots;
        let alive = self.alive.iter().filter(|&&a| a).count();
        let [open_failure, open_detected, open_reported, open_dispatched] = ledger.stage_counts();
        TelemetrySnapshot {
            alive: alive as u32,
            down: (self.alive.len() - alive) as u32,
            failures: self.failures,
            replaced: self.replacements,
            coverage,
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

/// The engine-side state one telemetry sample reads: frames in flight
/// (0 at flow level), pending scheduler events, and the down-robot
/// count the health ledger is checked against.
pub(crate) struct Gauges {
    pub in_flight: u32,
    pub sched_queue: u32,
    pub robots_down: u64,
}

/// How an engine carries out the faults [`World::fire_timeline`]
/// picks.
pub(crate) trait FaultHooks {
    /// The engine's world.
    fn world(&mut self) -> &mut World;
    /// Live sensor `s` dies at `now` (a blackout victim), through the
    /// same detection and replacement path a lifetime expiry takes.
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

/// The end of one sensor incarnation's lifetime: the failure event both
/// engines schedule ([`World::arm`]) and hand back ([`World::expire`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Expiry {
    sensor: u32,
    incarnation: u32,
}

/// One robot leg, as its scheduled arrival names it
/// ([`World::start_leg`], [`World::arrive`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct LegRef {
    robot: u32,
    seq: u32,
}

impl LegRef {
    /// The robot driving the leg.
    pub fn robot(self) -> usize {
        self.robot as usize
    }
}

/// What [`World::arrive`] hands back to the engine.
pub(crate) struct Arrival {
    /// The task the robot finished.
    pub task: ReplacementTask,
    /// The metres of the leg that ended.
    pub travel: f64,
    /// Whether a replacement went in (`false`: the sensor was alive, a
    /// false alarm).
    pub installed: bool,
    /// The leg towards the next queued task, for the engine to start.
    pub next: Option<Leg>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Algorithm;
    use robonet_des::check::{self, Outcome};

    /// The `(time, sensor)` expiries `World::arm` schedules for every
    /// sensor at `t = 0` and then for the `rearms`, in time order.
    fn armed(world: &mut World, rearms: &[(SimTime, usize)]) -> Vec<(SimTime, u32)> {
        let mut sched: Scheduler<Expiry> = Scheduler::new();
        for s in 0..world.field.sensor_pos.len() {
            world.arm(SimTime::ZERO, s, &mut sched);
        }
        for &(now, s) in rearms {
            world.arm(now, s, &mut sched);
        }
        let mut out = Vec::new();
        while let Some(e) = sched.next_event() {
            out.push((sched.now(), e.sensor));
        }
        out.sort_unstable();
        out
    }

    /// The same arms on the exact path: every draw through
    /// `FailureProcess::sample_failure_at`, scaled, then tested against
    /// the horizon.
    fn armed_exactly(cfg: &ScenarioConfig, rearms: &[(SimTime, usize)]) -> Vec<(SimTime, u32)> {
        let pos = field_deployment(cfg).sensor_pos;
        let factors = region_lifetime_factors(cfg, &pos);
        let horizon = SimTime::ZERO + cfg.sim_time;
        let mut process =
            FailureProcess::new(cfg.mean_lifetime, rng::stream(cfg.seed, "lifetimes"));
        let arms = (0..pos.len()).map(|s| (SimTime::ZERO, s));
        let mut out: Vec<(SimTime, u32)> = arms
            .chain(rearms.iter().copied())
            .filter_map(|(now, s)| {
                let factor = factors.get(s).copied().unwrap_or(1.0);
                let at = scale_failure_time(now, process.sample_failure_at(now), factor);
                (at <= horizon).then_some((at, s as u32))
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// `World::arm` schedules exactly the expiries of the exact path,
    /// whether draws are dropped from the cutoff or not:
    /// paper and `scaled` configurations, regions with and without a
    /// lifetime factor, horizons from one beacon period and a second up,
    /// and re-arms at later instants.
    #[test]
    fn prop_arming_schedules_the_exact_expiries() {
        // (k, seed, scale mode, horizon (mode, s)), (region mode,
        // re-arms as (fraction of the horizon, sensor)).
        let gen = check::pair(
            check::quad(
                check::usizes(1..4),
                check::u64s(0..1_000),
                check::usizes(0..4),
                check::pair(check::usizes(0..4), check::f64s(0.0..1.0)),
            ),
            check::pair(
                check::usizes(0..3),
                check::vec_of(
                    check::pair(check::f64s(0.0..1.0), check::usizes(0..450)),
                    0..20,
                ),
            ),
        );
        check::forall_cases(
            "arming schedules the exact expiries",
            64,
            &gen,
            |((k, seed, scale, (h_mode, h)), (region, rearms))| {
                let mut cfg = ScenarioConfig::paper(*k, Algorithm::Dynamic).with_seed(*seed);
                cfg = match scale {
                    0 => cfg,
                    1 => cfg.scaled(16.0),
                    2 => cfg.scaled(64.0),
                    _ => cfg.scaled(1.0 + 99.0 * h),
                };
                let beacon = cfg.beacon_period.as_secs_f64();
                let secs = match h_mode {
                    0 => beacon + 1.0,
                    1 => beacon + 1.0 + h * 1e-6,
                    2 => beacon + h * 2.0,
                    _ => beacon + h * 64_000.0,
                };
                cfg.sim_time = SimDuration::from_secs(secs);
                if *region > 0 {
                    let side = cfg.side();
                    cfg.regions.push(DeployRegion {
                        poly: ConvexPolygon::new(vec![
                            Point::new(0.0, 0.0),
                            Point::new(side / 2.0, 0.0),
                            Point::new(side / 2.0, side),
                            Point::new(0.0, side),
                        ])
                        .unwrap(),
                        density: 2.0,
                        mean_lifetime: (*region == 2)
                            .then(|| SimDuration::from_secs(cfg.mean_lifetime.as_secs_f64() / 8.0)),
                    });
                }
                let n = cfg.n_sensors();
                let rearms: Vec<(SimTime, usize)> = rearms
                    .iter()
                    .map(|&(f, s)| (SimTime::from_secs(f * secs), s % n))
                    .collect();
                let mut world = World::new(&cfg);
                assert_eq!(armed(&mut world, &rearms), armed_exactly(&cfg, &rearms));
                Outcome::Pass
            },
        );
    }
}
