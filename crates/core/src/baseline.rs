//! The mobile-sensor relocation baseline (Wang et al. \[13\]).
//!
//! The paper's motivation (§1, §5): prior work repairs coverage holes by
//! *relocating redundant mobile sensors* — every sensor needs motors,
//! steering and GPS. Wang et al. propose *cascading* movement, where a
//! chain of sensors each shift one step toward the hole so no single
//! node pays the whole distance. This module implements both relocation
//! flavours at the movement-plan level so the robot approach can be
//! compared against its motivation quantitatively (`ablation_baseline`
//! bench): total distance moved, worst single-node distance, and the
//! number of nodes that must be mobility-equipped.

use robonet_geom::Point;

/// How redundant mobile sensors move to fill a hole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RelocationPolicy {
    /// The nearest redundant sensor drives the full distance to the
    /// hole.
    Direct,
    /// A chain of intermediate sensors each shift over: the hole is
    /// filled by its nearest (working) neighbour, whose spot is filled
    /// by the next node back, ending at a redundant sensor. Balances
    /// per-node energy at the cost of more total movement and more
    /// moving nodes (Wang et al.'s cascaded movement).
    Cascaded,
}

/// One executed relocation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct RelocationPlan {
    /// Each move as `(from, to)`.
    pub moves: Vec<(Point, Point)>,
}

impl RelocationPlan {
    /// Total distance moved by all nodes, in metres.
    pub fn total_distance(&self) -> f64 {
        self.moves.iter().map(|(a, b)| a.distance(*b)).sum()
    }

    /// The longest single-node move, in metres (per-node energy peak —
    /// what cascading is designed to minimise).
    pub fn max_single_move(&self) -> f64 {
        self.moves
            .iter()
            .map(|(a, b)| a.distance(*b))
            .fold(0.0, f64::max)
    }

    /// Number of nodes that moved.
    pub fn movers(&self) -> usize {
        self.moves.len()
    }
}

/// A field of working sensors plus spare (redundant) mobile sensors.
#[derive(Debug, Clone)]
pub struct MobileSensorField {
    working: Vec<Point>,
    spares: Vec<Point>,
}

impl MobileSensorField {
    /// Creates a field with the given working sensors and redundant
    /// spares.
    pub fn new(working: Vec<Point>, spares: Vec<Point>) -> Self {
        MobileSensorField { working, spares }
    }

    /// Working sensor positions.
    pub fn working(&self) -> &[Point] {
        &self.working
    }

    /// Fills a hole at `hole` (a failed sensor's position) under
    /// `policy`, consuming one spare. Returns `None` when no spares
    /// remain.
    pub fn fill_hole(&mut self, hole: Point, policy: RelocationPolicy) -> Option<RelocationPlan> {
        if self.spares.is_empty() {
            return None;
        }
        match policy {
            RelocationPolicy::Direct => {
                let (si, _) = self
                    .spares
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.distance_sq(hole)
                            .partial_cmp(&b.distance_sq(hole))
                            .expect("finite positions")
                    })
                    .expect("non-empty spares");
                let spare = self.spares.swap_remove(si);
                self.working.push(hole);
                Some(RelocationPlan {
                    moves: vec![(spare, hole)],
                })
            }
            RelocationPolicy::Cascaded => {
                // Build the cascade: hop from the hole toward the nearest
                // spare through intermediate working sensors, each hop
                // choosing the working sensor closest to the current gap
                // while making progress toward the spare.
                let (si, _) = self
                    .spares
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        a.distance_sq(hole)
                            .partial_cmp(&b.distance_sq(hole))
                            .expect("finite positions")
                    })
                    .expect("non-empty spares");
                let spare = self.spares.swap_remove(si);

                let mut moves = Vec::new();
                let mut gap = hole;
                // Cap cascade length to avoid pathological chains.
                for _ in 0..16 {
                    let dir_done = gap.distance(spare);
                    // Candidate: working sensor strictly closer to the
                    // spare than the gap is, nearest to the gap.
                    let candidate = self
                        .working
                        .iter()
                        .enumerate()
                        .filter(|(_, w)| w.distance_sq(spare) < gap.distance_sq(spare))
                        .min_by(|(_, a), (_, b)| {
                            a.distance_sq(gap)
                                .partial_cmp(&b.distance_sq(gap))
                                .expect("finite positions")
                        })
                        .map(|(i, w)| (i, *w));
                    match candidate {
                        Some((wi, wpos)) if wpos.distance(gap) < dir_done => {
                            moves.push((wpos, gap));
                            self.working[wi] = gap;
                            gap = wpos;
                        }
                        _ => break,
                    }
                }
                // The spare fills the last vacated spot in the chain
                // (the hole itself is already occupied by the first
                // chain sensor when the cascade is non-trivial).
                moves.push((spare, gap));
                self.working.push(gap);
                Some(RelocationPlan { moves })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    fn line_field() -> MobileSensorField {
        // Working sensors every 20 m along a line; one spare at the far
        // end.
        let working: Vec<Point> = (1..=5).map(|i| p(i as f64 * 20.0, 0.0)).collect();
        let spares = vec![p(120.0, 0.0)];
        MobileSensorField::new(working, spares)
    }

    #[test]
    fn direct_moves_one_node_full_distance() {
        let mut f = line_field();
        let plan = f.fill_hole(p(0.0, 0.0), RelocationPolicy::Direct).unwrap();
        assert_eq!(plan.movers(), 1);
        assert_eq!(plan.total_distance(), 120.0);
        assert_eq!(plan.max_single_move(), 120.0);
        assert!(f.spares.is_empty());
    }

    #[test]
    fn cascade_bounds_single_node_distance() {
        let mut f = line_field();
        let plan = f
            .fill_hole(p(0.0, 0.0), RelocationPolicy::Cascaded)
            .unwrap();
        assert!(plan.movers() > 1, "cascade uses intermediate sensors");
        assert!(
            plan.max_single_move() < 120.0,
            "no node drives the whole way: {}",
            plan.max_single_move()
        );
        // Total distance is at least the direct distance (triangle
        // inequality along the chain).
        assert!(plan.total_distance() >= 119.9);
    }

    #[test]
    fn cascade_preserves_coverage_positions() {
        // After cascading, the original hole and every vacated spot
        // must be occupied: the multiset of working positions contains
        // the hole and no duplicates.
        let mut f = line_field();
        let hole = p(0.0, 0.0);
        f.fill_hole(hole, RelocationPolicy::Cascaded).unwrap();
        assert!(f.working().iter().any(|w| w.distance(hole) < 1e-9));
        for (i, a) in f.working().iter().enumerate() {
            for b in f.working().iter().skip(i + 1) {
                assert!(a.distance(*b) > 1e-9, "two sensors stacked at {a}");
            }
        }
    }

    #[test]
    fn no_spares_means_no_plan() {
        let mut f = MobileSensorField::new(vec![p(10.0, 0.0)], vec![]);
        assert!(f.fill_hole(p(0.0, 0.0), RelocationPolicy::Direct).is_none());
    }

    #[test]
    fn spares_deplete_across_holes() {
        let working: Vec<Point> = (1..=3).map(|i| p(i as f64 * 10.0, 0.0)).collect();
        let spares = vec![p(50.0, 0.0), p(60.0, 0.0)];
        let mut f = MobileSensorField::new(working, spares);
        assert!(f.fill_hole(p(0.0, 0.0), RelocationPolicy::Direct).is_some());
        assert!(f.fill_hole(p(5.0, 0.0), RelocationPolicy::Direct).is_some());
        assert!(f.fill_hole(p(7.0, 0.0), RelocationPolicy::Direct).is_none());
    }
}
