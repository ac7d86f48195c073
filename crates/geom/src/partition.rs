//! Static field partitions for the fixed distributed manager algorithm.
//!
//! The fixed algorithm (paper §3.2) splits the field into equal-size
//! subareas, one robot per subarea. The paper uses squares and notes that
//! other partitions (e.g. hexagons) "show negligible difference"
//! (§4.3.1) — both are implemented so that claim can be measured
//! (`ablation_partition` bench).

use crate::point::{Bounds, Point};

/// A static partition of a rectangular field into `len()` subareas.
pub trait Partition {
    /// Number of subareas.
    fn len(&self) -> usize;

    /// Returns `true` if the partition has no subareas.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Index of the subarea containing `p` (points outside the field are
    /// clamped to the nearest subarea).
    fn subarea_of(&self, p: Point) -> usize;

    /// The point a robot parks at for subarea `i` (its "centre").
    fn center(&self, i: usize) -> Point;
}

/// A `k × k` grid of equal squares — the paper's partition method.
#[derive(Debug, Clone)]
pub struct SquarePartition {
    bounds: Bounds,
    k: usize,
}

impl SquarePartition {
    /// Partitions `bounds` into `k × k` squares.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(bounds: Bounds, k: usize) -> Self {
        assert!(k > 0, "partition requires at least one cell per side");
        SquarePartition { bounds, k }
    }

    /// Cells per side.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The bounds of subarea `i`.
    pub fn subarea_bounds(&self, i: usize) -> Bounds {
        let (cx, cy) = (i % self.k, i / self.k);
        let w = self.bounds.width() / self.k as f64;
        let h = self.bounds.height() / self.k as f64;
        let min = Point::new(
            self.bounds.min().x + cx as f64 * w,
            self.bounds.min().y + cy as f64 * h,
        );
        Bounds::new(min, Point::new(min.x + w, min.y + h))
    }
}

impl Partition for SquarePartition {
    fn len(&self) -> usize {
        self.k * self.k
    }

    fn subarea_of(&self, p: Point) -> usize {
        let w = self.bounds.width() / self.k as f64;
        let h = self.bounds.height() / self.k as f64;
        // Saturating casts truncate toward zero and send negatives and
        // NaN to 0, so after the clamp they give `floor`'s cell without
        // its call.
        let cx = (((p.x - self.bounds.min().x) / w) as usize).min(self.k - 1);
        let cy = (((p.y - self.bounds.min().y) / h) as usize).min(self.k - 1);
        cy * self.k + cx
    }

    fn center(&self, i: usize) -> Point {
        self.subarea_bounds(i).center()
    }
}

/// A hexagonal ("brick offset") partition with the same number of cells
/// as a `k × k` square partition: rows at the usual height, odd rows
/// shifted by half a cell width, wrapping at the field edge.
///
/// This approximates a hexagonal tiling while keeping exactly `k²` equal-
/// area cells, which is what matters for the fixed algorithm (one robot
/// per cell, equal load).
#[derive(Debug, Clone)]
pub struct HexPartition {
    bounds: Bounds,
    k: usize,
}

impl HexPartition {
    /// Partitions `bounds` into `k` rows of `k` offset cells.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(bounds: Bounds, k: usize) -> Self {
        assert!(k > 0, "partition requires at least one cell per side");
        HexPartition { bounds, k }
    }

    fn cell_of(&self, p: Point) -> (usize, usize) {
        let w = self.bounds.width() / self.k as f64;
        let h = self.bounds.height() / self.k as f64;
        // Truncating casts, as in `SquarePartition::subarea_of`.
        let row = (((p.y - self.bounds.min().y) / h) as usize).min(self.k - 1);
        let offset = if row % 2 == 1 { 0.5 * w } else { 0.0 };
        // Columns wrap: the half cell hanging off the right edge is the
        // same cell as the half at the left edge, keeping areas equal.
        let x = p.x - self.bounds.min().x - offset;
        let x = x.rem_euclid(self.bounds.width());
        let col = ((x / w) as usize).min(self.k - 1);
        (row, col)
    }
}

impl Partition for HexPartition {
    fn len(&self) -> usize {
        self.k * self.k
    }

    fn subarea_of(&self, p: Point) -> usize {
        let (row, col) = self.cell_of(p);
        row * self.k + col
    }

    fn center(&self, i: usize) -> Point {
        let (row, col) = (i / self.k, i % self.k);
        let w = self.bounds.width() / self.k as f64;
        let h = self.bounds.height() / self.k as f64;
        let offset = if row % 2 == 1 { 0.5 * w } else { 0.0 };
        let cx = self.bounds.min().x + (offset + (col as f64 + 0.5) * w) % self.bounds.width();
        let cy = self.bounds.min().y + (row as f64 + 0.5) * h;
        Point::new(cx, cy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn square_partition_basic() {
        let part = SquarePartition::new(Bounds::square(400.0), 2);
        assert_eq!(part.len(), 4);
        assert_eq!(part.subarea_of(p(50.0, 50.0)), 0);
        assert_eq!(part.subarea_of(p(250.0, 50.0)), 1);
        assert_eq!(part.subarea_of(p(50.0, 250.0)), 2);
        assert_eq!(part.subarea_of(p(250.0, 250.0)), 3);
        assert_eq!(part.center(0), p(100.0, 100.0));
        assert_eq!(part.center(3), p(300.0, 300.0));
    }

    #[test]
    fn square_partition_boundary_and_outside() {
        let part = SquarePartition::new(Bounds::square(400.0), 2);
        // Field corner belongs to the last cell after clamping.
        assert_eq!(part.subarea_of(p(400.0, 400.0)), 3);
        // Points outside clamp to the nearest cell.
        assert_eq!(part.subarea_of(p(-5.0, -5.0)), 0);
        assert_eq!(part.subarea_of(p(500.0, 100.0)), 1);
    }

    #[test]
    fn square_subarea_bounds_tile_field() {
        let part = SquarePartition::new(Bounds::square(600.0), 3);
        let total: f64 = (0..9).map(|i| part.subarea_bounds(i).area()).sum();
        assert!((total - 600.0 * 600.0).abs() < 1e-6);
        // center(i) lies inside subarea i.
        for i in 0..9 {
            assert!(part.subarea_bounds(i).contains(part.center(i)));
            assert_eq!(part.subarea_of(part.center(i)), i);
        }
    }

    #[test]
    fn hex_partition_equal_membership_counts() {
        let part = HexPartition::new(Bounds::square(400.0), 4);
        assert_eq!(part.len(), 16);
        // Sample a fine grid: every cell should receive roughly the same
        // number of sample points (equal areas).
        let mut counts = [0usize; 16];
        let n = 200;
        for ix in 0..n {
            for iy in 0..n {
                let q = p(
                    (ix as f64 + 0.5) * 400.0 / n as f64,
                    (iy as f64 + 0.5) * 400.0 / n as f64,
                );
                counts[part.subarea_of(q)] += 1;
            }
        }
        let expected = (n * n / 16) as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.05,
                "cell {i} has {c} samples, expected ~{expected}"
            );
        }
    }

    #[test]
    fn hex_centers_map_to_their_cell() {
        let part = HexPartition::new(Bounds::square(300.0), 3);
        for i in 0..part.len() {
            assert_eq!(part.subarea_of(part.center(i)), i, "center of cell {i}");
        }
    }

    #[test]
    fn every_point_gets_exactly_one_subarea() {
        let sq = SquarePartition::new(Bounds::square(200.0), 4);
        let hx = HexPartition::new(Bounds::square(200.0), 4);
        for ix in 0..50 {
            for iy in 0..50 {
                let q = p(ix as f64 * 4.0 + 0.3, iy as f64 * 4.0 + 0.7);
                assert!(sq.subarea_of(q) < sq.len());
                assert!(hx.subarea_of(q) < hx.len());
            }
        }
    }

    #[test]
    fn prop_subarea_lookups_equal_floor() {
        use robonet_des::check::{self, Outcome};
        let gen = check::triple(
            check::usizes(1..9),
            check::cell_edge_f64s(400.0, 400.0 / 7.0),
            check::cell_edge_f64s(400.0, 400.0 / 7.0),
        );
        check::forall_cases("subarea lookups equal floor", 2_000, &gen, |&(k, x, y)| {
            let b = Bounds::square(400.0);
            let (w, h) = (b.width() / k as f64, b.height() / k as f64);
            let last = k as isize - 1;
            let cell = |v: f64| (v.floor() as isize).clamp(0, last) as usize;
            let q = p(x, y);
            let square = cell(y / h) * k + cell(x / w);
            assert_eq!(SquarePartition::new(b, k).subarea_of(q), square, "{q:?}");
            let row = cell(y / h);
            let offset = if row % 2 == 1 { 0.5 * w } else { 0.0 };
            let col = cell((x - offset).rem_euclid(b.width()) / w);
            assert_eq!(HexPartition::new(b, k).cell_of(q), (row, col), "{q:?}");
            Outcome::Pass
        });
    }

    #[test]
    #[should_panic(expected = "at least one cell")]
    fn zero_k_rejected() {
        let _ = SquarePartition::new(Bounds::square(10.0), 0);
    }
}
