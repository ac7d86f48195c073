//! Coordination parity between the packet-level harness and the
//! flow-level model.
//!
//! Both simulators build their worlds from the same named RNG streams
//! (`"deploy"`, `"robots"`) and drive the same `dyn Coordinator`, so
//! for every registered algorithm the *coordination decisions* must
//! agree: the initial `myrobot`/manager assignment installed at world
//! construction, and the robot that ends up handling a scripted
//! failure. These tests reconstruct the shared world with the public
//! primitives and cross-check the packet-level hooks
//! (`seed_initial_role`, `report_target`, `choose_dispatch_robot`)
//! against the flow-level hook (`flow_report`). A drift in either
//! simulator's construction recipe or either hook family fails here.

use robonet_core::coord::{self, CoordCtx, Coordinator, FleetView, FlowCtx};
use robonet_core::fastsim::GREEDY_PROGRESS;
use robonet_core::{DispatchPolicy, ScenarioConfig};
use robonet_des::{rng, NodeId};
use robonet_geom::partition::Partition;
use robonet_geom::{deploy, Point};
use robonet_wsn::SensorState;

/// The shared world both simulators construct for `cfg`.
struct World {
    sensor_pos: Vec<Point>,
    partition: Option<Box<dyn Partition>>,
    robot_pos: Vec<Point>,
    /// `u32::MAX` when the algorithm has no partition.
    sensor_subarea: Vec<u32>,
    manager_node: NodeId,
    manager_loc: Point,
}

fn build_world(coordinator: &dyn Coordinator, cfg: &ScenarioConfig) -> World {
    let bounds = cfg.bounds();
    let n_sensors = cfg.n_sensors();
    let n_robots = cfg.n_robots();
    let mut deploy_rng = rng::stream(cfg.seed, "deploy");
    let sensor_pos = deploy::uniform(&mut deploy_rng, &bounds, n_sensors);
    let partition = coordinator.build_partition(bounds, cfg.k);
    let mut robot_rng = rng::stream(cfg.seed, "robots");
    let robot_pos = coordinator.initial_robot_positions(
        partition.as_deref(),
        &bounds,
        n_robots,
        &mut robot_rng,
    );
    let sensor_subarea: Vec<u32> = match &partition {
        Some(p) => sensor_pos.iter().map(|&s| p.subarea_of(s) as u32).collect(),
        None => vec![u32::MAX; n_sensors],
    };
    World {
        sensor_pos,
        partition,
        robot_pos,
        sensor_subarea,
        manager_node: NodeId::new((n_sensors + n_robots) as u32),
        manager_loc: bounds.center(),
    }
}

/// Seeds post-initialization role knowledge exactly as the harness
/// does in `Simulation::new`.
fn seed_sensors(
    coordinator: &dyn Coordinator,
    cfg: &ScenarioConfig,
    w: &World,
) -> Vec<SensorState> {
    let ctx = CoordCtx {
        partition: w.partition.as_deref(),
        n_sensors: cfg.n_sensors(),
        n_robots: cfg.n_robots(),
        manager: coordinator
            .uses_manager()
            .then_some((w.manager_node, w.manager_loc)),
        update_threshold: cfg.update_threshold,
    };
    let mut sensors: Vec<SensorState> = w
        .sensor_pos
        .iter()
        .enumerate()
        .map(|(i, &loc)| SensorState::new(NodeId::new(i as u32), loc))
        .collect();
    for (i, s) in sensors.iter_mut().enumerate() {
        coordinator.seed_initial_role(s, w.sensor_subarea[i], &w.robot_pos, &ctx);
    }
    sensors
}

/// Builds the flow-level geometry context exactly as `fastsim::run`
/// does.
fn flow_ctx<'a>(cfg: &ScenarioConfig, w: &World, subarea_population: &'a [f64]) -> FlowCtx<'a> {
    let bounds = cfg.bounds();
    FlowCtx {
        manager_loc: Some(w.manager_loc),
        manager_range: cfg.ranges.manager,
        hop_unit: GREEDY_PROGRESS * cfg.ranges.sensor,
        n_sensors: cfg.n_sensors(),
        n_robots: cfg.n_robots(),
        area: bounds.area(),
        density: cfg.n_sensors() as f64 / bounds.area(),
        update_threshold: cfg.update_threshold,
        subarea_population,
    }
}

fn subarea_population(w: &World) -> Vec<f64> {
    match &w.partition {
        Some(p) => {
            let mut counts = vec![0f64; p.len()];
            for &sub in &w.sensor_subarea {
                counts[sub as usize] += 1.0;
            }
            counts
        }
        None => Vec::new(),
    }
}

/// A handful of scripted failure victims spread across the id space.
fn scripted_failures(n_sensors: usize) -> [usize; 5] {
    [
        0,
        n_sensors / 3,
        n_sensors / 2,
        2 * n_sensors / 3,
        n_sensors - 1,
    ]
}

#[test]
fn initial_role_assignment_matches_between_simulators() {
    for entry in coord::registry() {
        let coordinator = entry.coordinator;
        let cfg = ScenarioConfig::paper(2, entry.algorithm).with_seed(9);
        let w = build_world(coordinator, &cfg);
        let sensors = seed_sensors(coordinator, &cfg, &w);

        for (i, s) in sensors.iter().enumerate() {
            if coordinator.uses_manager() {
                assert_eq!(
                    s.manager,
                    Some((w.manager_node, w.manager_loc)),
                    "{}: sensor {i} must know the manager after initialization",
                    entry.name
                );
            }
            let truth =
                coordinator.myrobot_truth(w.sensor_pos[i], w.sensor_subarea[i], &w.robot_pos);
            match truth {
                Some(r) => {
                    let (id, loc) = s.myrobot.unwrap_or_else(|| {
                        panic!("{}: sensor {i} must have a myrobot", entry.name)
                    });
                    assert_eq!(
                        id.index() - cfg.n_sensors(),
                        r,
                        "{}: sensor {i} seeded with a robot the truth hook disagrees with",
                        entry.name
                    );
                    assert_eq!(
                        loc, w.robot_pos[r],
                        "{}: sensor {i} knows a stale robot location at t=0",
                        entry.name
                    );
                }
                None => {
                    assert!(
                        !coordinator.uses_myrobot(),
                        "{}: truth hook returned None for a myrobot algorithm",
                        entry.name
                    );
                }
            }
        }
    }
}

#[test]
fn scripted_failure_dispatches_to_the_same_robot_in_both_simulators() {
    for entry in coord::registry() {
        let coordinator = entry.coordinator;
        let cfg = ScenarioConfig::paper(2, entry.algorithm).with_seed(9);
        let w = build_world(coordinator, &cfg);
        let sensors = seed_sensors(coordinator, &cfg, &w);
        let pop = subarea_population(&w);
        let flow = flow_ctx(&cfg, &w, &pop);
        // All robots idle at their initial positions, as at t=0.
        let fleet = FleetView {
            robot_locs: &w.robot_pos,
            robot_queues: &vec![0u32; cfg.n_robots()],
            suspect: None,
        };

        for s in scripted_failures(cfg.n_sensors()) {
            let failed_loc = w.sensor_pos[s];
            // Packet level: the report goes to `report_target`; manager
            // algorithms then pick the maintainer via
            // `choose_dispatch_robot`, distributed ones enqueue at the
            // targeted robot directly.
            let packet_robot = if coordinator.dispatch_via_manager() {
                let (target, target_loc) = coordinator.report_target(&sensors[s]);
                assert_eq!(
                    target, w.manager_node,
                    "{}: report goes to the manager",
                    entry.name
                );
                assert_eq!(
                    target_loc, w.manager_loc,
                    "{}: manager location",
                    entry.name
                );
                coordinator
                    .choose_dispatch_robot(&fleet, failed_loc, DispatchPolicy::Nearest)
                    .expect("manager algorithms choose a robot")
            } else {
                let (target, _) = coordinator.report_target(&sensors[s]);
                target.index() - cfg.n_sensors()
            };

            // Flow level: one call prices the report and picks the robot.
            let fd = coordinator.flow_report(&flow, failed_loc, w.sensor_subarea[s], &w.robot_pos);

            assert_eq!(
                fd.robot, packet_robot,
                "{}: sensor {s} dispatches to different robots in the two simulators",
                entry.name
            );
            assert_eq!(
                fd.request_hops.is_some(),
                coordinator.uses_manager(),
                "{}: a separate repair-request leg exists iff there is a manager",
                entry.name
            );
            assert!(
                fd.report_hops >= 1.0,
                "{}: reports cost at least one hop",
                entry.name
            );
        }
    }
}

/// What [`FailureLog`] records: `(t bits, sensor)` for every `Failure`
/// and the time of the first `Replaced`.
#[derive(Default)]
struct Log {
    failures: Vec<(u64, u32)>,
    first_replaced: Option<f64>,
}

/// A sink sharing its [`Log`], so the packet harness (which owns its
/// sink) can be read back after the run.
#[derive(Clone, Default)]
struct FailureLog(std::rc::Rc<std::cell::RefCell<Log>>);

impl robonet_core::EventSink for FailureLog {
    fn record(&mut self, event: &robonet_core::trace::TraceEvent) {
        use robonet_core::trace::TraceEvent;
        let mut log = self.0.borrow_mut();
        match event {
            TraceEvent::Failure { t, sensor } => log.failures.push((t.to_bits(), sensor.as_u32())),
            TraceEvent::Replaced { t, .. } => {
                log.first_replaced.get_or_insert(*t);
            }
            _ => {}
        }
    }
}

impl FailureLog {
    /// Failures strictly before `cutoff`.
    fn before(&self, cutoff: f64) -> Vec<(u64, u32)> {
        let log = self.0.borrow();
        log.failures
            .iter()
            .copied()
            .filter(|&(t, _)| f64::from_bits(t) < cutoff)
            .collect()
    }

    fn first_replaced(&self) -> f64 {
        let log = self.0.borrow();
        log.first_replaced
            .expect("the run replaces at least one sensor")
    }
}

/// Both engines draw sensor lifetimes from one failure schedule: until
/// either engine installs its first replacement (after which repair
/// timing re-arms lifetimes in a different order), the two runs fail
/// the same sensors at the same instants, bit for bit.
#[test]
fn both_engines_share_one_failure_schedule() {
    use robonet_core::{fastsim, Algorithm, Simulation};
    for alg in [Algorithm::Centralized, Algorithm::Dynamic] {
        for seed in [1, 2] {
            let cfg = ScenarioConfig::paper(2, alg).with_seed(seed).scaled(16.0);
            let packet = FailureLog::default();
            Simulation::with_sink(cfg.clone(), Box::new(packet.clone())).run_to_completion();
            let mut flow = FailureLog::default();
            fastsim::run_with_sink(&cfg, &mut flow);

            let cutoff = packet.first_replaced().min(flow.first_replaced());
            let prefix = packet.before(cutoff);
            assert!(
                prefix.len() >= 3,
                "{alg:?} seed {seed}: only {} failures before the first replacement",
                prefix.len()
            );
            assert_eq!(
                prefix,
                flow.before(cutoff),
                "{alg:?} seed {seed}: the engines' failure schedules diverge before {cutoff} s"
            );
        }
    }
}
