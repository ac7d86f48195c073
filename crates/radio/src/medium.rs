//! The shared wireless medium: node positions, classes and reachability.

use robonet_des::NodeId;
use robonet_geom::spatial::GridIndex;
use robonet_geom::{Bounds, Point};

/// The hardware class of a node, which fixes its transmission range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeClass {
    /// A static sensor (63 m range in the paper, to save power).
    Sensor,
    /// A mobile maintenance robot (250 m range).
    Robot,
    /// The static central manager of the centralized algorithm (250 m
    /// range, same radio as a robot).
    Manager,
}

/// Per-class transmission ranges in metres.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeTable {
    /// Sensor transmission range (paper: 63 m).
    pub sensor: f64,
    /// Robot transmission range (paper: 250 m).
    pub robot: f64,
    /// Manager transmission range (paper: 250 m).
    pub manager: f64,
}

impl Default for RangeTable {
    fn default() -> Self {
        RangeTable {
            sensor: 63.0,
            robot: 250.0,
            manager: 250.0,
        }
    }
}

impl RangeTable {
    /// Range for a node class.
    pub fn range(&self, class: NodeClass) -> f64 {
        match class {
            NodeClass::Sensor => self.sensor,
            NodeClass::Robot => self.robot,
            NodeClass::Manager => self.manager,
        }
    }

    /// The largest range in the table (used to size spatial-index cells).
    pub fn max_range(&self) -> f64 {
        self.sensor.max(self.robot).max(self.manager)
    }
}

/// Reception model at the edge of the transmission range.
///
/// The paper's Glomosim setup is effectively a fixed-range disk; real
/// radios have a probabilistic grey zone. Both are supported so the
/// sensitivity of the results to the disk idealisation can be measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fading {
    /// Deterministic unit disk (the default; matches the paper).
    None,
    /// Reception is certain within `inner × range` and falls off
    /// linearly to zero probability at the full range.
    SmoothEdge {
        /// Fraction of the range that is perfectly reliable, in
        /// `[0, 1]`.
        inner: f64,
    },
}

impl Fading {
    /// Probability that a frame sent over `distance` with the given
    /// `range` is received (interference aside).
    pub fn reception_prob(self, distance: f64, range: f64) -> f64 {
        if distance > range {
            return 0.0;
        }
        match self {
            Fading::None => 1.0,
            Fading::SmoothEdge { inner } => {
                let reliable = inner.clamp(0.0, 1.0) * range;
                if distance <= reliable {
                    1.0
                } else {
                    ((range - distance) / (range - reliable)).clamp(0.0, 1.0)
                }
            }
        }
    }
}

/// Precomputed hearer adjacency for static (non-robot) transmitters.
///
/// Sensors and the manager never move, so the static nodes inside each
/// one's transmission disc are fixed at build time; only the robots need
/// distance checks per query. The lists are grouped by grid bucket in
/// the exact scan order of [`GridIndex::for_each_within`], so robots can
/// be merged back at their true scan positions and the visit order —
/// which downstream consumers' RNG draws depend on — is preserved
/// bit-for-bit.
#[derive(Debug, Clone)]
struct StaticHearers {
    /// First node index of the contiguous robot id block.
    robot_lo: usize,
    /// One past the last robot id.
    robot_hi: usize,
    /// Per-source start into `counts` (`len + 1` entries).
    counts_start: Vec<u32>,
    /// Static in-range hearers per visited bucket, in bucket scan order.
    counts: Vec<u32>,
    /// Per-source start into `ids` (`len + 1` entries).
    ids_start: Vec<u32>,
    /// Static in-range hearer ids, grouped by bucket, ascending within
    /// each bucket (matching the grid's resident order).
    ids: Vec<u32>,
}

impl StaticHearers {
    /// Builds the adjacency. The in-range test passes about a third of
    /// the candidates, so rather than branch on it, every id is written
    /// and the length advances by the test.
    ///
    /// # Panics
    ///
    /// Panics unless the robot ids form one contiguous block (the
    /// tail-of-bucket merge in [`Medium::for_each_hearer`] relies on it).
    fn build(
        index: &GridIndex,
        classes: &[NodeClass],
        ranges: &RangeTable,
        positions: &[Point],
    ) -> StaticHearers {
        let robot_lo = classes
            .iter()
            .position(|&c| c == NodeClass::Robot)
            .unwrap_or(classes.len());
        let robot_hi = classes
            .iter()
            .rposition(|&c| c == NodeClass::Robot)
            .map_or(robot_lo, |i| i + 1);
        assert!(
            classes[robot_lo..robot_hi]
                .iter()
                .all(|&c| c == NodeClass::Robot),
            "robot ids must form one contiguous block"
        );
        let mut cache = StaticHearers {
            robot_lo,
            robot_hi,
            counts_start: Vec::with_capacity(classes.len() + 1),
            counts: Vec::new(),
            ids_start: Vec::with_capacity(classes.len() + 1),
            ids: Vec::new(),
        };
        let robots = robot_hi - robot_lo;
        for (i, &class) in classes.iter().enumerate() {
            cache.counts_start.push(cache.counts.len() as u32);
            cache.ids_start.push(cache.ids.len() as u32);
            if class == NodeClass::Robot {
                continue;
            }
            let pos = positions[i];
            let r = ranges.range(class);
            let r_sq = r * r;
            index.for_each_bucket_within(pos, r, |residents, _movers| {
                let lo = cache.ids.len();
                cache.ids.resize(lo + residents.len(), 0);
                let out = &mut cache.ids[lo..];
                let mut n = 0;
                for &(j, p) in residents {
                    out[n] = j;
                    // Outside the robot block iff the wrapped offset is past it.
                    let ju = j as usize;
                    let hears = (ju != i) & (ju.wrapping_sub(robot_lo) >= robots);
                    n += usize::from(hears & (p.distance_sq(pos) <= r_sq));
                }
                cache.ids.truncate(lo + n);
                cache.counts.push(n as u32);
            });
        }
        cache.counts_start.push(cache.counts.len() as u32);
        cache.ids_start.push(cache.ids.len() as u32);
        cache
    }
}

/// Link index [`Medium::for_each_hearer`] reports for a hearer
/// outside the static adjacency.
pub const NO_LINK: u32 = u32::MAX;

/// The unit-disk medium: every node within the *sender's* range hears a
/// transmission. Ranges are asymmetric between classes exactly as in the
/// paper (a sensor hears a robot at 250 m, the robot hears that sensor
/// only within 63 m).
#[derive(Debug, Clone)]
pub struct Medium {
    index: GridIndex,
    classes: Vec<NodeClass>,
    alive: Vec<bool>,
    ranges: RangeTable,
    fading: Fading,
    /// Hearer lists of the static transmitters, fixed for the run.
    static_hearers: StaticHearers,
    /// How many robots currently occupy each grid bucket. Most buckets
    /// of a transmission's scan window hold no robot, and a zero lets
    /// `for_each_hearer` emit the bucket's precomputed static group
    /// without touching the grid.
    robot_buckets: Vec<u32>,
}

impl Medium {
    /// Creates a medium for nodes at `positions` with matching `classes`.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length, any point lies
    /// outside `bounds`, or the robot ids do not form one contiguous
    /// block (the harness numbers sensors, then robots, then the
    /// manager).
    pub fn new(
        bounds: Bounds,
        ranges: RangeTable,
        positions: &[Point],
        classes: &[NodeClass],
    ) -> Self {
        assert_eq!(
            positions.len(),
            classes.len(),
            "positions and classes must pair up"
        );
        // Cell size near the *smallest* interesting radius keeps sensor
        // queries (the overwhelming majority) cheap.
        let cell = ranges.range(NodeClass::Sensor).max(1.0);
        let index = GridIndex::build(bounds, cell, positions);
        let static_hearers = StaticHearers::build(&index, classes, &ranges, positions);
        let mut robot_buckets = vec![0u32; index.bucket_count()];
        for (i, &c) in classes.iter().enumerate() {
            if c == NodeClass::Robot {
                robot_buckets[index.bucket_index(positions[i])] += 1;
            }
        }
        Medium {
            index,
            alive: vec![true; positions.len()],
            classes: classes.to_vec(),
            ranges,
            fading: Fading::None,
            static_hearers,
            robot_buckets,
        }
    }

    /// Sets the edge-of-range reception model (builder style).
    pub fn with_fading(mut self, fading: Fading) -> Self {
        self.fading = fading;
        self
    }

    /// The configured fading model.
    pub fn fading(&self) -> Fading {
        self.fading
    }

    /// Probability that `dst` receives a frame from `src` at their
    /// current positions (interference aside).
    pub fn reception_prob(&self, src: NodeId, dst: NodeId) -> f64 {
        let d = self.position(src).distance(self.position(dst));
        self.fading.reception_prob(d, self.tx_range(src))
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Returns `true` if the medium has no nodes.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Current position of `node`.
    pub fn position(&self, node: NodeId) -> Point {
        self.index.position(node.index())
    }

    /// Moves `node` (robots move while maintaining the network). A
    /// static node may only be "moved" to where it already is: the
    /// manager re-announces its position in place.
    ///
    /// # Panics
    ///
    /// Panics if `node` is a sensor or the manager and `pos` is a new
    /// position: static hearer lists are fixed when the medium is built.
    pub fn set_position(&mut self, node: NodeId, pos: Point) {
        let at = self.index.position(node.index());
        if self.classes[node.index()] != NodeClass::Robot {
            assert!(
                at == pos,
                "static node {node} cannot move from {at} to {pos}"
            );
            return;
        }
        let from = self.index.bucket_index(at);
        let to = self.index.bucket_index(pos);
        if from != to {
            self.robot_buckets[from] -= 1;
            self.robot_buckets[to] += 1;
        }
        self.index.update_position(node.index(), pos);
    }

    /// Class of `node`.
    pub fn class(&self, node: NodeId) -> NodeClass {
        self.classes[node.index()]
    }

    /// Transmission range of `node` in metres.
    pub fn tx_range(&self, node: NodeId) -> f64 {
        self.ranges.range(self.classes[node.index()])
    }

    /// The range table.
    pub fn ranges(&self) -> RangeTable {
        self.ranges
    }

    /// Whether `node` is currently alive. Dead sensors neither transmit
    /// nor receive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// Marks `node` failed or repaired.
    pub fn set_alive(&mut self, node: NodeId, alive: bool) {
        self.alive[node.index()] = alive;
    }

    /// Calls `visit` for every *alive* node (other than the sender) that
    /// hears a transmission from `src` at its current position, with
    /// the hearer's link index: for a static transmitter's static
    /// hearers, the hearer's position in the precomputed adjacency
    /// (below [`Medium::link_count`], one index per ordered static pair,
    /// fixed for the run); [`NO_LINK`] for robots and for robot
    /// transmitters.
    ///
    /// A robot transmitter takes the plain grid query. A static one
    /// walks its scan window's buckets once: a bucket holding no robot
    /// emits its precomputed static group as is (distance-filtered at
    /// build time) without reading the grid; a bucket holding a robot
    /// merges its robots back in at their true scan positions. The visit
    /// order is the plain grid query's exactly.
    pub fn for_each_hearer(&self, src: NodeId, mut visit: impl FnMut(NodeId, u32)) {
        let pos = self.position(src);
        let range = self.tx_range(src);
        let si = src.index();
        if self.classes[si] == NodeClass::Robot {
            self.index.for_each_within(pos, range, |i| {
                if i != si && self.alive[i] {
                    visit(NodeId::new(i as u32), NO_LINK);
                }
            });
            return;
        }
        let c = &self.static_hearers;
        let r_sq = range * range;
        let mut ci = c.counts_start[si] as usize;
        let mut gi = c.ids_start[si] as usize;
        self.index.for_each_bucket_index_within(pos, range, |b| {
            let lo = gi;
            gi += c.counts[ci] as usize;
            ci += 1;
            if self.robot_buckets[b] == 0 {
                self.emit_static(&c.ids, lo..gi, &mut visit);
                return;
            }
            // Bucket residents are sorted ascending by id, so the true
            // scan order is: static nodes below the robot block, robot
            // residents, static nodes above it (the manager), then moved
            // robots in arrival order.
            let split = lo + c.ids[lo..gi].partition_point(|&id| (id as usize) < c.robot_lo);
            self.emit_static(&c.ids, lo..split, &mut visit);
            let (residents, movers) = self.index.bucket_entries(b);
            let p0 = residents.partition_point(|&(j, _)| (j as usize) < c.robot_lo);
            let robots = residents[p0..]
                .iter()
                .take_while(|&&(j, _)| (j as usize) < c.robot_hi);
            self.emit_robots(robots, pos, r_sq, &mut visit);
            self.emit_static(&c.ids, split..gi, &mut visit);
            self.emit_robots(movers.iter(), pos, r_sq, &mut visit);
        });
    }

    /// Visits the alive nodes of the static adjacency slice `links`,
    /// passing each one's link index.
    fn emit_static(
        &self,
        ids: &[u32],
        links: std::ops::Range<usize>,
        visit: &mut impl FnMut(NodeId, u32),
    ) {
        for link in links {
            let id = ids[link];
            if self.alive[id as usize] {
                visit(NodeId::new(id), link as u32);
            }
        }
    }

    /// Visits the alive robots among grid `entries` within `sqrt(r_sq)`
    /// of `pos` (robots are outside the static adjacency: no link).
    fn emit_robots<'a>(
        &self,
        entries: impl Iterator<Item = &'a (u32, Point)>,
        pos: Point,
        r_sq: f64,
        visit: &mut impl FnMut(NodeId, u32),
    ) {
        for &(j, p) in entries {
            if self.alive[j as usize] && p.distance_sq(pos) <= r_sq {
                visit(NodeId::new(j), NO_LINK);
            }
        }
    }

    /// Number of link indices [`Medium::for_each_hearer`] can report.
    pub fn link_count(&self) -> usize {
        self.static_hearers.ids.len()
    }

    /// The static (non-robot) nodes within `node`'s transmission range,
    /// in its scan order; empty for a robot. Nodes of one class share a
    /// range, so between two sensors the relation is symmetric: `b` is
    /// in `a`'s list exactly when `a` is in `b`'s (both lists test the
    /// same squared distance).
    pub fn static_hearers_of(&self, node: NodeId) -> &[u32] {
        let c = &self.static_hearers;
        let i = node.index();
        &c.ids[c.ids_start[i] as usize..c.ids_start[i + 1] as usize]
    }

    /// Collects the alive hearers of `src` (see [`Medium::for_each_hearer`]).
    pub fn hearers(&self, src: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.for_each_hearer(src, |n, _| out.push(n));
        out
    }

    /// Returns `true` if `dst` is within `src`'s transmission range
    /// (ignores liveness).
    pub fn in_range(&self, src: NodeId, dst: NodeId) -> bool {
        self.position(src).distance(self.position(dst)) <= self.tx_range(src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn medium() -> Medium {
        // s0 --- s1 --- r2 laid out on a line; sensor range 63, robot 250.
        let positions = [
            Point::new(0.0, 0.0),
            Point::new(50.0, 0.0),
            Point::new(200.0, 0.0),
        ];
        let classes = [NodeClass::Sensor, NodeClass::Sensor, NodeClass::Robot];
        Medium::new(
            Bounds::square(1000.0),
            RangeTable::default(),
            &positions,
            &classes,
        )
    }

    #[test]
    fn asymmetric_ranges() {
        let m = medium();
        let s0 = NodeId::new(0);
        let s1 = NodeId::new(1);
        let r2 = NodeId::new(2);
        // Robot reaches both sensors (250 m), sensors cannot reach it.
        assert!(m.in_range(r2, s0));
        assert!(m.in_range(r2, s1));
        assert!(!m.in_range(s0, r2));
        assert!(!m.in_range(s1, r2), "150 m > 63 m sensor range");
        assert!(m.in_range(s0, s1));
        assert_eq!(m.hearers(r2), vec![s0, s1]);
        assert_eq!(m.hearers(s0), vec![s1]);
    }

    #[test]
    fn dead_nodes_do_not_hear() {
        let mut m = medium();
        m.set_alive(NodeId::new(1), false);
        assert!(m.hearers(NodeId::new(0)).is_empty());
        m.set_alive(NodeId::new(1), true);
        assert_eq!(m.hearers(NodeId::new(0)), vec![NodeId::new(1)]);
    }

    #[test]
    fn moving_a_node_changes_reachability() {
        let mut m = medium();
        let s0 = NodeId::new(0);
        let r2 = NodeId::new(2);
        m.set_position(r2, Point::new(500.0, 0.0));
        assert!(!m.in_range(r2, s0));
        assert_eq!(m.position(r2), Point::new(500.0, 0.0));
        m.set_position(r2, Point::new(40.0, 0.0));
        assert!(m.in_range(s0, r2), "robot moved into sensor range");
    }

    #[test]
    fn fading_models() {
        assert_eq!(Fading::None.reception_prob(62.9, 63.0), 1.0);
        assert_eq!(Fading::None.reception_prob(63.1, 63.0), 0.0);
        let f = Fading::SmoothEdge { inner: 0.5 };
        assert_eq!(f.reception_prob(30.0, 63.0), 1.0, "inside reliable core");
        assert_eq!(f.reception_prob(63.0, 63.0), 0.0, "zero at the edge");
        let mid = f.reception_prob(47.25, 63.0);
        assert!((mid - 0.5).abs() < 1e-9, "linear middle: {mid}");
        assert_eq!(f.reception_prob(100.0, 63.0), 0.0);
    }

    #[test]
    fn medium_reception_prob_uses_positions() {
        let m = medium().with_fading(Fading::SmoothEdge { inner: 0.5 });
        // s0 to s1 at 50 m of 63 m: inside the grey zone.
        let p = m.reception_prob(NodeId::new(0), NodeId::new(1));
        assert!(p > 0.0 && p < 1.0, "grey zone probability {p}");
        assert_eq!(m.fading(), Fading::SmoothEdge { inner: 0.5 });
    }

    /// Builds a field of `n_sensors` pseudo-randomly placed sensors, a
    /// k×k robot grid, and a manager, mirroring the harness's id layout
    /// (sensors, then robots, then manager).
    fn field(n_sensors: usize, k: usize, side: f64) -> Medium {
        let mut positions = Vec::new();
        let mut classes = Vec::new();
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for _ in 0..n_sensors {
            positions.push(Point::new(next() * side, next() * side));
            classes.push(NodeClass::Sensor);
        }
        for i in 0..k {
            for j in 0..k {
                let cell = side / k as f64;
                positions.push(Point::new((i as f64 + 0.5) * cell, (j as f64 + 0.5) * cell));
                classes.push(NodeClass::Robot);
            }
        }
        positions.push(Point::new(side / 2.0, side / 2.0));
        classes.push(NodeClass::Manager);
        Medium::new(
            Bounds::square(side),
            RangeTable::default(),
            &positions,
            &classes,
        )
    }

    /// The alive hearers of `src` by the plain grid query, the way a
    /// robot transmitter finds them: the visit order static senders
    /// must reproduce.
    fn grid_hearers(m: &Medium, src: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        m.index
            .for_each_within(m.position(src), m.tx_range(src), |i| {
                if i != src.index() && m.alive[i] {
                    out.push(NodeId::new(i as u32));
                }
            });
        out
    }

    /// Checks the link index of every hearer of `src`: a static hearer
    /// of a static sender carries its position in the sender's
    /// adjacency slice; everyone else carries none.
    fn check_links(m: &Medium, src: NodeId) {
        let linked = m.class(src) != NodeClass::Robot;
        let adjacency = m.static_hearers_of(src);
        let lo = m.static_hearers.ids_start[src.index()] as usize;
        m.for_each_hearer(src, |h, link| {
            if linked && m.class(h) != NodeClass::Robot {
                let at = link as usize - lo;
                assert_eq!(adjacency[at], h.as_u32(), "link of {h} from {src}");
            } else {
                assert_eq!(link, NO_LINK, "{h} from {src} has no link");
            }
        });
    }

    #[test]
    fn static_hearer_cache_matches_grid_queries() {
        let m = field(400, 3, 800.0);
        for i in 0..m.len() {
            let src = NodeId::new(i as u32);
            assert_eq!(m.hearers(src), grid_hearers(&m, src), "src {i}");
            check_links(&m, src);
        }
        // Between sensors the adjacency is symmetric.
        for a in 0..400u32 {
            for &b in m.static_hearers_of(NodeId::new(a)) {
                if b < 400 {
                    let back = m.static_hearers_of(NodeId::new(b));
                    assert!(back.contains(&a), "{a} hears {b} but not back");
                }
            }
        }
    }

    #[test]
    fn static_hearer_cache_tracks_robot_motion_and_death() {
        let mut m = field(300, 2, 600.0);
        let n = m.len();
        let robots: Vec<NodeId> = (300..n - 1).map(|i| NodeId::new(i as u32)).collect();
        // March the robots across bucket boundaries (and one off a
        // sensor's window entirely), killing and reviving nodes along
        // the way, while the manager re-announces in place (a no-op, as
        // the centralized manager does every tick); the adjacency and
        // the grid query must agree at every step, in content *and*
        // visit order.
        let mgr = NodeId::new(n as u32 - 1);
        let mut state = 1u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for step in 0..40 {
            let r = robots[step % robots.len()];
            let to = Point::new(next() * 600.0, next() * 600.0);
            m.set_position(r, to);
            m.set_position(mgr, m.position(mgr));
            let victim = NodeId::new((step * 37 % 300) as u32);
            m.set_alive(victim, step % 3 != 0);
            for i in (0..m.len()).step_by(17) {
                let src = NodeId::new(i as u32);
                assert_eq!(m.hearers(src), grid_hearers(&m, src), "step {step} src {i}");
                check_links(&m, src);
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot move")]
    fn moving_a_static_node_panics() {
        let mut m = field(50, 2, 400.0);
        let mgr = NodeId::new(m.len() as u32 - 1);
        let at = m.position(mgr);
        m.set_position(mgr, Point::new(at.x + 1.0, at.y));
    }

    #[test]
    #[should_panic(expected = "one contiguous block")]
    fn a_split_robot_block_panics() {
        let positions = [Point::new(0.0, 0.0); 4];
        let classes = [
            NodeClass::Robot,
            NodeClass::Sensor,
            NodeClass::Robot,
            NodeClass::Manager,
        ];
        Medium::new(
            Bounds::square(100.0),
            RangeTable::default(),
            &positions,
            &classes,
        );
    }

    /// The build loop before it went branch-free: push each hearer as
    /// the in-range test passes it. The property below holds the
    /// branch-free build to this layout exactly.
    fn reference_build(
        index: &GridIndex,
        classes: &[NodeClass],
        ranges: &RangeTable,
        positions: &[Point],
    ) -> StaticHearers {
        let robot_lo = classes
            .iter()
            .position(|&c| c == NodeClass::Robot)
            .unwrap_or(classes.len());
        let robot_hi = classes
            .iter()
            .rposition(|&c| c == NodeClass::Robot)
            .map_or(robot_lo, |i| i + 1);
        let mut cache = StaticHearers {
            robot_lo,
            robot_hi,
            counts_start: Vec::new(),
            counts: Vec::new(),
            ids_start: Vec::new(),
            ids: Vec::new(),
        };
        for (i, &class) in classes.iter().enumerate() {
            cache.counts_start.push(cache.counts.len() as u32);
            cache.ids_start.push(cache.ids.len() as u32);
            if class == NodeClass::Robot {
                continue;
            }
            let pos = positions[i];
            let r = ranges.range(class);
            let r_sq = r * r;
            index.for_each_bucket_within(pos, r, |residents, _movers| {
                let mut n = 0u32;
                for &(j, p) in residents {
                    let j = j as usize;
                    if j != i && !(robot_lo..robot_hi).contains(&j) && p.distance_sq(pos) <= r_sq {
                        cache.ids.push(j as u32);
                        n += 1;
                    }
                }
                cache.counts.push(n);
            });
        }
        cache.counts_start.push(cache.counts.len() as u32);
        cache.ids_start.push(cache.ids.len() as u32);
        cache
    }

    /// One generated node: a placement mode, a bucket face index and two
    /// unit draws (see `place`).
    type NodeDraw = (u32, u32, f64, f64);

    /// Places node `k` of a `w`×`h` field with buckets of side `r`:
    /// uniform, on a vertical or horizontal bucket face, on a face
    /// offset by ± the range, on top of an earlier node, or exactly
    /// one range from an earlier node along an axis.
    fn place(k: usize, draw: NodeDraw, pts: &[Point], w: f64, h: f64, r: f64) -> Point {
        let (mode, face, u, v) = draw;
        let bounds = Bounds::new(Point::new(0.0, 0.0), Point::new(w, h));
        let face = f64::from(face) * r;
        let shift = if v < 0.5 { -r } else { r };
        let earlier = (k > 0).then(|| pts[(u * k as f64) as usize]);
        let p = match (mode, earlier) {
            (1, _) => Point::new(face, v * h),
            (2, _) => Point::new(u * w, face),
            (3, _) => Point::new(face + shift, v * h),
            (4, Some(e)) => e,
            (5, Some(e)) => {
                let steps = [(shift, 0.0), (-shift, 0.0), (0.0, shift), (0.0, -shift)];
                let at = steps
                    .iter()
                    .map(|&(dx, dy)| Point::new(e.x + dx, e.y + dy))
                    .find(|&p| bounds.contains(p));
                at.unwrap_or(e)
            }
            _ => Point::new(u * w, v * h),
        };
        bounds.clamp(p)
    }

    #[test]
    fn prop_static_hearers_match_the_grid_query() {
        use robonet_des::check::{self, Outcome};
        // Field: buckets across and down, the sensor range (whole metres
        // or not) and the robot and manager ranges as multiples of it.
        let shape = check::quad(
            check::u32s(1..13),
            check::u32s(1..13),
            check::pair(check::u32s(1..101), check::bools()),
            check::pair(check::u32s(1..5), check::u32s(1..5)),
        );
        let node = check::quad(
            check::u32s(0..6),
            check::u32s(0..14),
            check::f64s(0.0..1.0),
            check::f64s(0.0..1.0),
        );
        // Ids: an optional manager last, and a robot block of up to
        // four ids (possibly empty) starting anywhere before it.
        let ids = check::triple(check::bools(), check::u32s(0..5), check::u32s(0..601));
        let field = check::triple(shape, check::vec_of(node, 0..601), ids);
        check::forall(
            "static_hearers_match_the_grid_query",
            &field,
            |((cols, rows, (r_int, r_frac), (robot_x, mgr_x)), draws, (mgr, robots, lo))| {
                let r = f64::from(*r_int) + if *r_frac { 0.37 } else { 0.0 };
                let (w, h) = (f64::from(*cols) * r, f64::from(*rows) * r);
                let mut pts = Vec::with_capacity(draws.len());
                for (k, &d) in draws.iter().enumerate() {
                    let p = place(k, d, &pts, w, h, r);
                    pts.push(p);
                }
                let n = pts.len();
                let mut classes = vec![NodeClass::Sensor; n];
                let statics = if *mgr && n > 0 {
                    classes[n - 1] = NodeClass::Manager;
                    n - 1
                } else {
                    n
                };
                let lo = *lo as usize % (statics + 1);
                let hi = (lo + *robots as usize).min(statics);
                classes[lo..hi].fill(NodeClass::Robot);
                let ranges = RangeTable {
                    sensor: r,
                    robot: r * f64::from(*robot_x),
                    manager: r * f64::from(*mgr_x),
                };
                let bounds = Bounds::new(Point::new(0.0, 0.0), Point::new(w, h));
                let m = Medium::new(bounds, ranges, &pts, &classes);
                let want = reference_build(&m.index, &classes, &ranges, &pts);
                let got = &m.static_hearers;
                assert_eq!((got.robot_lo, got.robot_hi), (want.robot_lo, want.robot_hi));
                assert_eq!(got.counts_start, want.counts_start, "counts_start");
                assert_eq!(got.ids_start, want.ids_start, "ids_start");
                for i in 0..n {
                    let (c0, c1) = (
                        want.counts_start[i] as usize,
                        want.counts_start[i + 1] as usize,
                    );
                    let (g0, g1) = (want.ids_start[i] as usize, want.ids_start[i + 1] as usize);
                    assert_eq!(got.counts[c0..c1], want.counts[c0..c1], "counts of {i}");
                    assert_eq!(got.ids[g0..g1], want.ids[g0..g1], "ids of {i}");
                }
                assert_eq!(got.ids.len(), want.ids.len());
                for i in 0..n {
                    let src = NodeId::new(i as u32);
                    assert_eq!(m.hearers(src), grid_hearers(&m, src), "hearers of {i}");
                    check_links(&m, src);
                }
                Outcome::Pass
            },
        );
    }

    #[test]
    fn a_bucket_group_past_u16_builds_and_matches_the_reference() {
        // 65,537 sensors packed into one 1 m bucket, a manager (id 0)
        // at its centre. The manager's group in that bucket holds all
        // of them, one more than a `u16` count can. The sensors' 1 mm
        // range is below their spacing, so they hear no one and the
        // build stays small.
        let n = 65_537;
        let mut positions = vec![Point::new(0.5, 0.5)];
        let mut classes = vec![NodeClass::Manager];
        for k in 0..n {
            let (a, b) = ((k % 256) as f64, (k / 256) as f64);
            positions.push(Point::new((a + 0.5) / 260.0, (b + 0.5) / 260.0));
            classes.push(NodeClass::Sensor);
        }
        let ranges = RangeTable {
            sensor: 0.001,
            robot: 1.0,
            manager: 10.0,
        };
        let m = Medium::new(Bounds::square(1.0), ranges, &positions, &classes);
        assert_eq!(m.link_count(), n);
        let want = reference_build(&m.index, &classes, &ranges, &positions);
        let got = &m.static_hearers;
        assert_eq!(got.counts_start, want.counts_start, "counts_start");
        assert_eq!(got.counts, want.counts, "counts");
        assert_eq!(got.ids_start, want.ids_start, "ids_start");
        assert_eq!(got.ids, want.ids, "ids");
        for (i, heard) in [(0, n), (1, 0), (40_000, 0), (n, 0)] {
            let src = NodeId::new(i as u32);
            assert_eq!(m.hearers(src).len(), heard, "src {i}");
            assert_eq!(m.hearers(src), grid_hearers(&m, src), "src {i}");
            check_links(&m, src);
        }
    }

    #[test]
    fn class_and_range_lookup() {
        let m = medium();
        assert_eq!(m.class(NodeId::new(0)), NodeClass::Sensor);
        assert_eq!(m.class(NodeId::new(2)), NodeClass::Robot);
        assert_eq!(m.tx_range(NodeId::new(0)), 63.0);
        assert_eq!(m.tx_range(NodeId::new(2)), 250.0);
        assert_eq!(m.ranges().max_range(), 250.0);
        assert_eq!(m.len(), 3);
    }
}
