//! The coordination-policy layer: every algorithm-specific decision in
//! one place, shared by both simulators.
//!
//! The paper's contribution is a *comparison* of three coordination
//! algorithms (§3). Historically each algorithm's rules were scattered
//! as `match cfg.algorithm` arms across the packet-level harness and
//! the flow-level model, which had to be edited in lockstep. This
//! module extracts them behind one [`Coordinator`] trait:
//!
//! - [`centralized::Centralized`] — one static manager at the field
//!   centre receives every report and forwards it to a robot (§3.1),
//! - [`fixed::Fixed`] — a static equal-size partition, one robot
//!   managing and maintaining each subarea (§3.2),
//! - [`dynamic::Dynamic`] — sensors always report to the currently
//!   closest robot, an implicit Voronoi partition kept fresh by scoped
//!   flooding (§3.3).
//!
//! The packet-level [`Simulation`](crate::Simulation) consumes the
//! world-state hooks ([`Coordinator::seed_initial_role`],
//! [`Coordinator::report_target`], [`Coordinator::accept_flood`], …);
//! the flow-level [`fastsim`](crate::fastsim) consumes the closed-form
//! cost hooks ([`Coordinator::flow_report`],
//! [`Coordinator::flow_update_cost`]), asking the fleet through a
//! [`FlowFleet`] for only the positions each rule reads. Because both
//! drive through the same `dyn Coordinator`, the two models provably
//! share one copy of each algorithm's coordination rules.
//!
//! # Adding a fourth algorithm
//!
//! 1. Create `coord/<name>.rs` implementing [`Coordinator`].
//! 2. Add a variant to [`Algorithm`] and an [`Entry`] to the
//!    [`registry`] (name, coordinator, description).
//! 3. Nothing else: the CLI's `--alg` parsing, `Algorithm::name()`,
//!    the examples and the sweep harness all resolve through the
//!    registry table.

pub mod centralized;
pub mod dynamic;
pub mod fixed;

use robonet_des::{rng, NodeId};
use robonet_geom::partition::Partition;
use robonet_geom::voronoi::nearest_site;
use robonet_geom::{deploy, Bounds, Point};
use robonet_wsn::SensorState;

use crate::config::{Algorithm, DispatchPolicy, PartitionKind, ScenarioConfig};

pub use centralized::Centralized;
pub use dynamic::Dynamic;
pub use fixed::Fixed;

/// Read-only world facts the packet-level hooks need.
///
/// Built by the harness at each call site from its own state; the
/// borrows are cheap and keep the coordinators stateless (they can be
/// `&'static`, so the harness never fights the borrow checker over
/// them).
pub struct CoordCtx<'a> {
    /// The static partition, for algorithms that carve the field.
    pub partition: Option<&'a dyn Partition>,
    /// Number of sensors; robot node ids start directly above this.
    pub n_sensors: usize,
    /// Number of robots in the fleet.
    pub n_robots: usize,
    /// Manager identity and location, when the algorithm uses one.
    pub manager: Option<(NodeId, Point)>,
    /// Robot location-update distance threshold in metres (the border
    /// band of the dynamic algorithm's scoped flood, §3.3/§4.2).
    pub update_threshold: f64,
}

impl CoordCtx<'_> {
    /// Maps a node id to a robot index, if it is a robot.
    pub fn robot_index(&self, id: NodeId) -> Option<usize> {
        let i = id.index();
        (i >= self.n_sensors && i < self.n_sensors + self.n_robots).then(|| i - self.n_sensors)
    }
}

/// The central manager's view of the fleet (centralized dispatch).
pub struct FleetView<'a> {
    /// Last known robot locations (index = robot index).
    pub robot_locs: &'a [Point],
    /// Last reported robot queue lengths (for `NearestIdle`).
    pub robot_queues: &'a [u32],
    /// Robots the manager currently suspects are broken (a dispatch to
    /// them timed out and no location update has arrived since).
    /// `None` when the fault layer's timeout protocol is inactive;
    /// dispatch then behaves exactly as the paper assumes.
    pub suspect: Option<&'a [bool]>,
}

impl FleetView<'_> {
    /// Whether robot `r` is currently under suspicion.
    pub fn is_suspect(&self, r: usize) -> bool {
        self.suspect.is_some_and(|s| s[r])
    }
}

/// How a robot announces its location (§3.1–3.3): the harness turns
/// this decision into actual frames, so the messaging *mechanics* stay
/// in the simulator while the *policy* lives in the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Announcement {
    /// Geo-unicast to the manager (piggybacking the queue length) plus
    /// a one-hop hello so nearby sensors can deliver chasing repair
    /// requests (centralized, §3.1).
    ManagerUnicast,
    /// Scoped flood; `subarea` tags the relay scope — the robot's own
    /// subarea for the fixed algorithm (§3.2), or [`u32::MAX`] for the
    /// dynamic algorithm's Voronoi-cell-plus-border scope (§3.3).
    Flood {
        /// Relay-scope tag carried in the flood message.
        subarea: u32,
    },
}

/// Precomputed geometry facts for the flow-level closed-form costs.
pub struct FlowCtx<'a> {
    /// The central manager's location (field centre), when the
    /// algorithm uses one.
    pub manager_loc: Option<Point>,
    /// The manager's transmission range in metres.
    pub manager_range: f64,
    /// Greedy-progress hop length: `GREEDY_PROGRESS × sensor_range`.
    pub hop_unit: f64,
    /// Number of sensors.
    pub n_sensors: usize,
    /// Number of robots.
    pub n_robots: usize,
    /// Field area in m².
    pub area: f64,
    /// Sensor deployment density (sensors per m²).
    pub density: f64,
    /// Robot location-update distance threshold in metres.
    pub update_threshold: f64,
    /// Sensors deployed in each subarea (fixed algorithm only).
    pub subarea_population: &'a [f64],
}

impl FlowCtx<'_> {
    /// Hops a geo-routed message needs to cover `dist` metres
    /// (calibrated greedy-progress model; see [`crate::fastsim`]).
    pub fn hops_for(&self, dist: f64) -> f64 {
        (dist / self.hop_unit).ceil().max(1.0)
    }
}

/// The fleet as a flow-level report sees it: robot positions at the
/// report instant, asked for one robot at a time, and the
/// nearest-robot query.
pub trait FlowFleet {
    /// Robot `r`'s position.
    fn position(&self, r: usize) -> Point;

    /// The robot nearest to `p`, ties going to the lowest index: the
    /// answer [`nearest_site`] gives over every robot's position.
    fn nearest(&self, p: Point) -> usize;
}

/// A fleet parked at the listed positions (index = robot index).
impl FlowFleet for Vec<Point> {
    fn position(&self, r: usize) -> Point {
        self[r]
    }

    fn nearest(&self, p: Point) -> usize {
        nearest_site(self, p).expect("robots exist")
    }
}

/// Flow-level outcome of one failure report: who handles it and what
/// the messaging cost was.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowDispatch {
    /// Index of the robot that enqueues the replacement task.
    pub robot: usize,
    /// Hops the failure report travelled.
    pub report_hops: f64,
    /// Hops of the manager's repair request (`None` for algorithms
    /// without a separate request leg).
    pub request_hops: Option<f64>,
}

/// One coordination algorithm's complete decision surface.
///
/// Implementations are stateless (all run state stays in the
/// simulators), so a single `&'static` instance per algorithm serves
/// every simulation. Methods come in two groups: packet-level hooks
/// driven by [`Simulation`](crate::Simulation), and flow-level cost
/// hooks driven by [`fastsim`](crate::fastsim).
pub trait Coordinator: std::fmt::Debug + Sync {
    /// The [`Algorithm`] value this coordinator implements.
    fn algorithm(&self) -> Algorithm;

    /// Canonical machine name (registry key, CLI `--alg` value, CSV
    /// column).
    fn name(&self) -> &'static str;

    /// One-line description for help text and docs.
    fn describe(&self) -> &'static str;

    /// Metrics-registry namespace for this coordinator's counters
    /// (`coord.<name>`). A literal rather than derived from
    /// [`Coordinator::name`] so counter recording stays
    /// allocation-free.
    fn obs_namespace(&self) -> &'static str;

    // --- World construction -------------------------------------------

    /// Whether a static central manager node exists.
    fn uses_manager(&self) -> bool {
        false
    }

    /// Whether sensors maintain a `myrobot` binding (everything except
    /// the centralized algorithm).
    fn uses_myrobot(&self) -> bool {
        true
    }

    /// The static partition this algorithm carves the field into, if
    /// any.
    fn build_partition(&self, _bounds: Bounds, _k: usize) -> Option<Box<dyn Partition>> {
        None
    }

    /// Initial robot placement: subarea centres when a partition
    /// exists (§3.2 — the initial drive there is part of
    /// initialization), uniform random otherwise.
    fn initial_robot_positions(
        &self,
        partition: Option<&dyn Partition>,
        bounds: &Bounds,
        n_robots: usize,
        rng: &mut rng::Xoshiro256,
    ) -> Vec<Point> {
        match partition {
            Some(p) => (0..n_robots).map(|r| p.center(r)).collect(),
            None => deploy::uniform(rng, bounds, n_robots),
        }
    }

    // --- Role assignment ----------------------------------------------

    /// Installs the post-initialization role knowledge on one sensor
    /// (the §3.1 invariant: after initialization every sensor knows who
    /// it reports to). `subarea` is the sensor's subarea index
    /// (`u32::MAX` without a partition); `robot_pos` the initial robot
    /// positions.
    fn seed_initial_role(
        &self,
        sensor: &mut SensorState,
        subarea: u32,
        robot_pos: &[Point],
        ctx: &CoordCtx<'_>,
    );

    /// Installs role knowledge on a freshly installed replacement node
    /// (§2(d)); distributed algorithms let it re-learn from hellos.
    fn seed_replacement(&self, _sensor: &mut SensorState, _ctx: &CoordCtx<'_>) {}

    /// Whether guardian/guardee pairs must share a subarea (§3.2).
    fn guardian_requires_same_subarea(&self) -> bool {
        false
    }

    /// Fault layer: when a guardian's report retry fires, should the
    /// sensor first evict its current `myrobot` (so the retry targets
    /// the next-closest known robot)? Only meaningful for algorithms
    /// whose sensors track several candidate robots — the dynamic
    /// algorithm returns `true`; a fixed subarea has exactly one robot
    /// and the centralized report target is the static manager.
    fn evict_myrobot_on_retry(&self) -> bool {
        false
    }

    // --- Failure reporting and dispatch -------------------------------

    /// Where a guardian sends a failure report: the manager
    /// (centralized) or its `myrobot` (distributed).
    fn report_target(&self, reporter: &SensorState) -> (NodeId, Point) {
        reporter
            .myrobot
            .expect("distributed sensors know their robot")
    }

    /// On report delivery: route through the manager's dispatch step
    /// (`true`) or enqueue directly at the receiving robot (`false`).
    fn dispatch_via_manager(&self) -> bool {
        self.uses_manager()
    }

    /// The manager's maintainer selection for a failure (§3.1 and the
    /// [`DispatchPolicy`] ablation). `None` for algorithms without a
    /// manager.
    fn choose_dispatch_robot(
        &self,
        _fleet: &FleetView<'_>,
        _failed_loc: Point,
        _policy: DispatchPolicy,
    ) -> Option<usize> {
        None
    }

    // --- Location updates ---------------------------------------------

    /// How robot `robot_index` announces a changed location.
    fn location_announcement(&self, robot_index: usize) -> Announcement;

    /// A sensor heard a one-hop robot hello; updates its role
    /// knowledge (relevant for freshly installed replacements).
    fn on_robot_hello(
        &self,
        sensor: &mut SensorState,
        robot: NodeId,
        loc: Point,
        manager: Option<(NodeId, Point)>,
        ctx: &CoordCtx<'_>,
    );

    /// A flooded location update reached a sensor: absorb it and
    /// return whether the sensor relays it (the flood-scoping rule,
    /// §3.2/§3.3). `subarea` is the scope tag carried in the message,
    /// `sensor_subarea` the receiving sensor's own subarea.
    fn accept_flood(
        &self,
        sensor: &mut SensorState,
        robot: NodeId,
        loc: Point,
        subarea: u32,
        sensor_subarea: u32,
        ctx: &CoordCtx<'_>,
    ) -> bool;

    /// The robot index a correctly informed sensor would currently
    /// have as `myrobot` (the accuracy metric's ground truth), or
    /// `None` when the algorithm has no `myrobot` concept.
    fn myrobot_truth(&self, sensor_loc: Point, subarea: u32, robot_locs: &[Point])
        -> Option<usize>;

    // --- Flow-level closed-form hooks ---------------------------------

    /// Transmissions one in-motion location update costs at flow level
    /// (the Figure 4 closed form). `from` is the robot's last
    /// announced location.
    fn flow_update_cost(&self, flow: &FlowCtx<'_>, robot: usize, from: Point) -> f64;

    /// Flow-level report-and-dispatch for a failure at `failed_loc`:
    /// selects the handling robot and prices the report (and request)
    /// legs. `fleet` answers for the robots at the report instant.
    fn flow_report(
        &self,
        flow: &FlowCtx<'_>,
        failed_loc: Point,
        subarea: u32,
        fleet: &dyn FlowFleet,
    ) -> FlowDispatch;
}

/// One registry row: the canonical name table entry for an algorithm.
pub struct Entry {
    /// Machine name (`--alg` value, CSV column, `Algorithm::name()`).
    pub name: &'static str,
    /// The enum value the name resolves to.
    pub algorithm: Algorithm,
    /// The shared coordinator instance.
    pub coordinator: &'static dyn Coordinator,
    /// Whether the paper's figures evaluate this algorithm (fixed-hex
    /// is our §4.3.1 extension, not a figure series).
    pub in_paper_figures: bool,
}

static CENTRALIZED: Centralized = Centralized;
static FIXED_SQUARE: Fixed = Fixed::new(PartitionKind::Square);
static FIXED_HEX: Fixed = Fixed::new(PartitionKind::Hex);
static DYNAMIC: Dynamic = Dynamic;

/// The one canonical table of coordination algorithms, in the paper's
/// presentation order (§3.1, §3.2, §3.3). The CLI, `Algorithm::name()`,
/// the examples and the sweep harness all resolve through it.
static REGISTRY: [Entry; 4] = [
    Entry {
        name: "centralized",
        algorithm: Algorithm::Centralized,
        coordinator: &CENTRALIZED,
        in_paper_figures: true,
    },
    Entry {
        name: "fixed",
        algorithm: Algorithm::Fixed(PartitionKind::Square),
        coordinator: &FIXED_SQUARE,
        in_paper_figures: true,
    },
    Entry {
        name: "fixed-hex",
        algorithm: Algorithm::Fixed(PartitionKind::Hex),
        coordinator: &FIXED_HEX,
        in_paper_figures: false,
    },
    Entry {
        name: "dynamic",
        algorithm: Algorithm::Dynamic,
        coordinator: &DYNAMIC,
        in_paper_figures: true,
    },
];

/// All registered algorithms.
pub fn registry() -> &'static [Entry] {
    &REGISTRY
}

/// Resolves an algorithm to its shared coordinator instance.
///
/// # Panics
///
/// Panics if `alg` is not registered (impossible for the shipped
/// `Algorithm` variants; a new variant must be added to the registry).
pub fn coordinator_for(alg: Algorithm) -> &'static dyn Coordinator {
    REGISTRY
        .iter()
        .find(|e| e.algorithm == alg)
        .unwrap_or_else(|| panic!("algorithm {alg:?} is not in the coordination registry"))
        .coordinator
}

/// Looks up a registry entry by machine name.
pub fn by_name(name: &str) -> Option<&'static Entry> {
    REGISTRY.iter().find(|e| e.name == name)
}

/// The registered machine names, in registry order.
pub fn names() -> impl Iterator<Item = &'static str> {
    REGISTRY.iter().map(|e| e.name)
}

/// The series order of the paper's evaluation figures (§4.3 plots
/// fixed, then dynamic, then centralized). Kept as names so the
/// entries themselves still come from the one registry table.
const FIGURE_ORDER: [&str; 3] = ["fixed", "dynamic", "centralized"];

/// The algorithms the paper's figures evaluate, in the order the
/// figures list them. The sweep harness and the faceoff example
/// iterate this instead of hard-coding the three algorithms.
pub fn figure_algorithms() -> impl Iterator<Item = &'static Entry> {
    FIGURE_ORDER
        .iter()
        .map(|n| by_name(n).expect("figure algorithm is registered"))
}

/// Checks a scenario's fleet against the coordinator's partition: the
/// fixed algorithm requires exactly one robot per subarea, and a
/// mismatch would otherwise surface as an index fault deep inside
/// world construction.
///
/// # Errors
///
/// Returns a description of the mismatch.
pub fn validate_fleet(coord: &dyn Coordinator, cfg: &ScenarioConfig) -> Result<(), String> {
    if let Some(p) = coord.build_partition(cfg.bounds(), cfg.k) {
        if p.len() != cfg.n_robots() {
            return Err(format!(
                "the {} partition has {} cells but the fleet has {} robots \
                 (the fixed algorithm needs exactly one robot per subarea)",
                coord.name(),
                p.len(),
                cfg.n_robots()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_is_registered_exactly_once() {
        for e in registry() {
            assert_eq!(
                coordinator_for(e.algorithm).name(),
                e.name,
                "registry row and coordinator disagree on the name"
            );
            assert_eq!(e.coordinator.algorithm(), e.algorithm);
            assert!(
                !e.coordinator.describe().is_empty(),
                "{} needs a description",
                e.name
            );
        }
        let mut names: Vec<_> = names().collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), registry().len(), "duplicate registry names");
    }

    #[test]
    fn figure_order_covers_exactly_the_figure_algorithms() {
        let figure: Vec<&str> = figure_algorithms().map(|e| e.name).collect();
        for e in registry() {
            assert_eq!(
                figure.contains(&e.name),
                e.in_paper_figures,
                "{} figure membership disagrees with the registry flag",
                e.name
            );
        }
        assert_eq!(figure.len(), 3, "the paper evaluates three algorithms");
    }

    #[test]
    fn names_round_trip_through_the_registry() {
        for e in registry() {
            let parsed = by_name(e.algorithm.name()).expect("name resolves");
            assert_eq!(parsed.algorithm, e.algorithm, "parse(name(a)) == a");
        }
        assert!(by_name("voronoi").is_none());
    }

    #[test]
    fn registered_fleets_validate() {
        for e in registry() {
            for k in 1..=5 {
                let cfg = ScenarioConfig::paper(k, e.algorithm);
                assert!(
                    validate_fleet(e.coordinator, &cfg).is_ok(),
                    "{} k={k} must validate",
                    e.name
                );
            }
        }
    }

    /// A hypothetical coordinator whose partition does not match the
    /// k² fleet: `validate_fleet` must reject it up front instead of
    /// letting `robot_pos[subarea]` fault during world construction.
    #[derive(Debug)]
    struct Lopsided;

    impl Coordinator for Lopsided {
        fn algorithm(&self) -> Algorithm {
            Algorithm::Fixed(PartitionKind::Square)
        }
        fn name(&self) -> &'static str {
            "lopsided"
        }
        fn describe(&self) -> &'static str {
            "test-only: one cell too many"
        }
        fn obs_namespace(&self) -> &'static str {
            "coord.lopsided"
        }
        fn build_partition(&self, bounds: Bounds, k: usize) -> Option<Box<dyn Partition>> {
            Some(Box::new(robonet_geom::partition::SquarePartition::new(
                bounds,
                k + 1,
            )))
        }
        fn seed_initial_role(&self, _: &mut SensorState, _: u32, _: &[Point], _: &CoordCtx<'_>) {}
        fn location_announcement(&self, r: usize) -> Announcement {
            Announcement::Flood { subarea: r as u32 }
        }
        fn on_robot_hello(
            &self,
            _: &mut SensorState,
            _: NodeId,
            _: Point,
            _: Option<(NodeId, Point)>,
            _: &CoordCtx<'_>,
        ) {
        }
        fn accept_flood(
            &self,
            _: &mut SensorState,
            _: NodeId,
            _: Point,
            _: u32,
            _: u32,
            _: &CoordCtx<'_>,
        ) -> bool {
            false
        }
        fn myrobot_truth(&self, _: Point, subarea: u32, _: &[Point]) -> Option<usize> {
            Some(subarea as usize)
        }
        fn flow_update_cost(&self, _: &FlowCtx<'_>, _: usize, _: Point) -> f64 {
            0.0
        }
        fn flow_report(
            &self,
            flow: &FlowCtx<'_>,
            _: Point,
            subarea: u32,
            _: &dyn FlowFleet,
        ) -> FlowDispatch {
            FlowDispatch {
                robot: (subarea as usize).min(flow.n_robots - 1),
                report_hops: 1.0,
                request_hops: None,
            }
        }
    }

    #[test]
    fn mismatched_fleet_is_rejected_with_a_clear_message() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Fixed(PartitionKind::Square));
        let err = validate_fleet(&Lopsided, &cfg).unwrap_err();
        assert!(err.contains("9 cells"), "err: {err}");
        assert!(err.contains("4 robots"), "err: {err}");
    }
}
