//! A uniform-grid spatial index for fixed-radius neighbour queries.
//!
//! Building unit-disk connectivity for 800 sensors with pairwise tests is
//! O(n²); the grid makes deployment-time neighbour discovery and the
//! radio medium's "who hears this transmission" query O(1) expected per
//! node at the paper's densities.

use crate::point::{Bounds, Point};

/// One indexed point as a bucket stores it: `(index, position)`.
pub type Entry = (u32, Point);

/// A grid index over a fixed set of points.
///
/// Most indexed points never move (sensors are static; only robots
/// drive around), so bucket membership is split into two stores:
///
/// - `csr`: all points still at their build-time position, laid out
///   bucket-major in one flat array with `bucket_start` offsets. The
///   fixed-radius query — the radio medium's innermost loop — streams
///   this contiguously with zero per-bucket pointer chasing.
/// - `movers`: per-bucket vectors holding points that have crossed a
///   bucket boundary at least once.
///
/// Every bucket scan yields build-order residents first, then arrivals
/// in arrival order — exactly the order a naive per-bucket `Vec` with
/// remove-and-push-on-move maintenance would produce. Query order is
/// part of the simulator's determinism contract, so both stores keep
/// coordinates inline and never reorder surviving entries.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Bounds,
    cell: f64,
    cols: usize,
    rows: usize,
    /// Static entries `(index, position)`, bucket-major.
    csr: Vec<(u32, Point)>,
    /// `bucket_start[b]..bucket_start[b + 1]` is bucket `b`'s slice of
    /// `csr`; length `cols * rows + 1`.
    bucket_start: Vec<u32>,
    /// Per-bucket entries that have moved across buckets, in arrival
    /// order. Empty for almost every bucket.
    movers: Vec<Vec<(u32, Point)>>,
    points: Vec<Point>,
}

impl GridIndex {
    /// Builds an index over `points` with buckets of side `cell` metres.
    ///
    /// `cell` should be close to the query radius (e.g. the radio range)
    /// so queries touch at most a 3×3 block of buckets.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite, or if any point lies
    /// outside `bounds`.
    pub fn build(bounds: Bounds, cell: f64, points: &[Point]) -> Self {
        assert!(cell.is_finite() && cell > 0.0, "cell size must be positive");
        let cols = ((bounds.width() / cell).ceil() as usize).max(1);
        let rows = ((bounds.height() / cell).ceil() as usize).max(1);
        let mut index = GridIndex {
            bounds,
            cell,
            cols,
            rows,
            csr: Vec::with_capacity(points.len()),
            bucket_start: vec![0; cols * rows + 1],
            movers: vec![Vec::new(); cols * rows],
            points: points.to_vec(),
        };
        // Counting sort into the flat bucket-major layout: two passes,
        // stable in point index within each bucket.
        for &p in points {
            assert!(bounds.contains(p), "point {p} outside index bounds");
            let b = index.bucket_of(p);
            index.bucket_start[b + 1] += 1;
        }
        for b in 0..cols * rows {
            index.bucket_start[b + 1] += index.bucket_start[b];
        }
        let mut cursor: Vec<u32> = index.bucket_start[..cols * rows].to_vec();
        index.csr.resize(points.len(), (0, Point::new(0.0, 0.0)));
        for (i, &p) in points.iter().enumerate() {
            let b = index.bucket_of(p);
            index.csr[cursor[b] as usize] = (i as u32, p);
            cursor[b] += 1;
        }
        index
    }

    /// Moves point `i` to `new_pos`, updating its bucket. Used for robots,
    /// which change position during the simulation.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or `new_pos` lies outside the bounds.
    pub fn update_position(&mut self, i: usize, new_pos: Point) {
        assert!(
            self.bounds.contains(new_pos),
            "point {new_pos} outside bounds"
        );
        let old_bucket = self.bucket_of(self.points[i]);
        let new_bucket = self.bucket_of(new_pos);
        self.points[i] = new_pos;
        let idx = i as u32;
        if old_bucket == new_bucket {
            // Same bucket: refresh the inline coordinates without
            // disturbing the entry's position (query order is part of
            // the simulator's determinism contract).
            if let Some(slot) = self.movers[old_bucket].iter_mut().find(|(x, _)| *x == idx) {
                slot.1 = new_pos;
            } else {
                let slot = self
                    .csr_range_mut(old_bucket)
                    .find(|(x, _)| *x == idx)
                    .expect("indexed point missing from its bucket");
                slot.1 = new_pos;
            }
            return;
        }
        if let Some(pos) = self.movers[old_bucket].iter().position(|&(x, _)| x == idx) {
            self.movers[old_bucket].remove(pos);
        } else {
            // First cross-bucket move: evict from the static layout.
            // One-time O(n) per point; only robots ever pay it.
            let start = self.bucket_start[old_bucket] as usize;
            let end = self.bucket_start[old_bucket + 1] as usize;
            let pos = self.csr[start..end]
                .iter()
                .position(|&(x, _)| x == idx)
                .expect("indexed point missing from its bucket");
            self.csr.remove(start + pos);
            for s in &mut self.bucket_start[old_bucket + 1..] {
                *s -= 1;
            }
        }
        self.movers[new_bucket].push((idx, new_pos));
    }

    /// Mutable view of bucket `b`'s static entries.
    fn csr_range_mut(&mut self, b: usize) -> std::slice::IterMut<'_, (u32, Point)> {
        let start = self.bucket_start[b] as usize;
        let end = self.bucket_start[b + 1] as usize;
        self.csr[start..end].iter_mut()
    }

    /// Current position of point `i`.
    pub fn position(&self, i: usize) -> Point {
        self.points[i]
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` if the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Calls `visit` with the index of every point within `radius` of
    /// `center` (excluding none — the caller filters out self-matches).
    pub fn for_each_within(&self, center: Point, radius: f64, mut visit: impl FnMut(usize)) {
        let r_sq = radius * radius;
        self.for_each_bucket_within(center, radius, |residents, movers| {
            for &(i, p) in residents {
                if p.distance_sq(center) <= r_sq {
                    visit(i as usize);
                }
            }
            for &(i, p) in movers {
                if p.distance_sq(center) <= r_sq {
                    visit(i as usize);
                }
            }
        });
    }

    /// Visits every bucket overlapping the disc at `center` with
    /// `radius`, in the exact order [`GridIndex::for_each_within`]
    /// scans them, passing each bucket's resident and mover entries as
    /// `(index, position)` slices (in scan order, *without* the
    /// distance filter). Callers that precompute per-bucket candidate
    /// sets use this to reproduce a query's visit order.
    pub fn for_each_bucket_within(
        &self,
        center: Point,
        radius: f64,
        mut bucket: impl FnMut(&[(u32, Point)], &[(u32, Point)]),
    ) {
        self.for_each_bucket_index_within(center, radius, |b| {
            let (residents, movers) = self.bucket_entries(b);
            bucket(residents, movers);
        });
    }

    /// Visits the linear index of every bucket in the scan window of
    /// the disc at `center` — the buckets
    /// [`GridIndex::for_each_bucket_within`] visits, in the same order —
    /// without reading them. Callers that keep per-bucket tallies or
    /// precomputed per-bucket groups read only the buckets they need
    /// through [`GridIndex::bucket_entries`].
    pub fn for_each_bucket_index_within(
        &self,
        center: Point,
        radius: f64,
        mut bucket: impl FnMut(usize),
    ) {
        let min_cx = self.col_of(center.x - radius);
        let max_cx = self.col_of(center.x + radius);
        let min_cy = self.row_of(center.y - radius);
        let max_cy = self.row_of(center.y + radius);
        for cy in min_cy..=max_cy {
            let row = cy * self.cols;
            for cx in min_cx..=max_cx {
                bucket(row + cx);
            }
        }
    }

    /// Bucket `b`'s resident and mover entries as `(index, position)`
    /// slices, in scan order (see [`GridIndex::for_each_bucket_within`]).
    pub fn bucket_entries(&self, b: usize) -> (&[Entry], &[Entry]) {
        let start = self.bucket_start[b] as usize;
        let end = self.bucket_start[b + 1] as usize;
        (&self.csr[start..end], &self.movers[b])
    }

    /// The linear bucket index holding `p` (for per-bucket tallies kept
    /// alongside the index; pairs with
    /// [`GridIndex::for_each_bucket_index_within`]).
    pub fn bucket_index(&self, p: Point) -> usize {
        self.bucket_of(p)
    }

    /// Total number of buckets (`bucket_index` values are below this).
    pub fn bucket_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Collects the indices of all points within `radius` of `center`.
    pub fn within(&self, center: Point, radius: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.for_each_within(center, radius, |i| out.push(i));
        out
    }

    /// The column holding `x`. The saturating cast truncates toward
    /// zero and sends negatives and NaN to 0, so after the clamp it is
    /// the column `floor` would give, without the software `floor` call
    /// baseline x86-64 makes.
    #[inline]
    fn col_of(&self, x: f64) -> usize {
        (((x - self.bounds.min().x) / self.cell) as usize).min(self.cols - 1)
    }

    /// The row holding `y` (see [`GridIndex::col_of`]).
    #[inline]
    fn row_of(&self, y: f64) -> usize {
        (((y - self.bounds.min().y) / self.cell) as usize).min(self.rows - 1)
    }

    fn bucket_of(&self, p: Point) -> usize {
        self.row_of(p.y) * self.cols + self.col_of(p.x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_des::rng::{Rng, Xoshiro256};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn finds_points_in_radius() {
        let b = Bounds::square(100.0);
        let pts = vec![p(10.0, 10.0), p(15.0, 10.0), p(50.0, 50.0), p(10.0, 16.0)];
        let idx = GridIndex::build(b, 10.0, &pts);
        let mut hits = idx.within(p(10.0, 10.0), 6.0);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1, 3]);
    }

    #[test]
    fn radius_boundary_inclusive() {
        let b = Bounds::square(100.0);
        let pts = vec![p(0.0, 0.0), p(10.0, 0.0)];
        let idx = GridIndex::build(b, 5.0, &pts);
        assert_eq!(
            idx.within(p(0.0, 0.0), 10.0).len(),
            2,
            "exact radius included"
        );
        assert_eq!(idx.within(p(0.0, 0.0), 9.999).len(), 1);
    }

    #[test]
    fn matches_brute_force() {
        let b = Bounds::square(200.0);
        let mut rng = Xoshiro256::seed_from_u64(99);
        let pts: Vec<Point> = (0..300)
            .map(|_| p(rng.gen_range(0.0..=200.0), rng.gen_range(0.0..=200.0)))
            .collect();
        let idx = GridIndex::build(b, 63.0, &pts);
        for probe in 0..20 {
            let c = pts[probe * 7];
            let r = 63.0;
            let mut fast = idx.within(c, r);
            fast.sort_unstable();
            let slow: Vec<usize> = pts
                .iter()
                .enumerate()
                .filter(|(_, q)| q.distance_sq(c) <= r * r)
                .map(|(i, _)| i)
                .collect();
            assert_eq!(fast, slow);
        }
    }

    #[test]
    fn update_position_moves_buckets() {
        let b = Bounds::square(100.0);
        let pts = vec![p(5.0, 5.0), p(95.0, 95.0)];
        let mut idx = GridIndex::build(b, 10.0, &pts);
        assert!(idx.within(p(90.0, 90.0), 10.0).contains(&1));
        idx.update_position(1, p(5.0, 6.0));
        assert!(idx.within(p(90.0, 90.0), 10.0).is_empty());
        let mut near_origin = idx.within(p(5.0, 5.0), 3.0);
        near_origin.sort_unstable();
        assert_eq!(near_origin, vec![0, 1]);
        assert_eq!(idx.position(1), p(5.0, 6.0));
    }

    #[test]
    fn edge_of_bounds_queries_clamp() {
        let b = Bounds::square(100.0);
        let pts = vec![p(0.0, 0.0), p(100.0, 100.0)];
        let idx = GridIndex::build(b, 30.0, &pts);
        // Query centre outside the bounds must not panic and still finds
        // nearby in-bounds points.
        assert_eq!(idx.within(p(-5.0, -5.0), 20.0), vec![0]);
        assert_eq!(idx.within(p(105.0, 105.0), 20.0), vec![1]);
    }

    #[test]
    #[should_panic(expected = "outside index bounds")]
    fn out_of_bounds_point_rejected() {
        let _ = GridIndex::build(Bounds::square(10.0), 1.0, &[p(20.0, 0.0)]);
    }

    #[test]
    fn len_and_empty() {
        let idx = GridIndex::build(Bounds::square(10.0), 1.0, &[]);
        assert!(idx.is_empty());
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn radius_zero_matches_exact_positions_only() {
        let b = Bounds::square(100.0);
        let pts = vec![p(10.0, 10.0), p(10.0, 10.0), p(10.0, 10.000001)];
        let idx = GridIndex::build(b, 10.0, &pts);
        let mut hits = idx.within(p(10.0, 10.0), 0.0);
        hits.sort_unstable();
        assert_eq!(hits, vec![0, 1], "coincident points only");
        assert!(idx.within(p(55.5, 55.5), 0.0).is_empty());
    }

    #[test]
    fn points_on_cell_boundaries_are_found() {
        // Points exactly on bucket edges and corners must land in
        // exactly one bucket and still be returned by queries from
        // either side of the boundary.
        let b = Bounds::square(100.0);
        let pts = vec![
            p(0.0, 0.0),     // grid origin corner
            p(10.0, 0.0),    // column boundary
            p(0.0, 10.0),    // row boundary
            p(10.0, 10.0),   // interior corner
            p(100.0, 100.0), // far corner = outer bounds edge
        ];
        let idx = GridIndex::build(b, 10.0, &pts);
        for (i, &q) in pts.iter().enumerate() {
            assert!(
                idx.within(q, 0.0).contains(&i),
                "boundary point {i} found at its own position"
            );
            assert!(
                idx.within(p(q.x - 0.5, q.y - 0.5), 1.0).contains(&i),
                "boundary point {i} visible from the neighbouring cell"
            );
        }
    }

    #[test]
    fn single_cell_grid_degenerates_to_linear_scan() {
        // A cell larger than the bounds puts every point in one bucket;
        // queries must still be exact.
        let b = Bounds::square(50.0);
        let pts = vec![p(1.0, 1.0), p(25.0, 25.0), p(49.0, 49.0)];
        let idx = GridIndex::build(b, 1000.0, &pts);
        let mut all = idx.within(p(25.0, 25.0), 100.0);
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2]);
        assert_eq!(idx.within(p(25.0, 25.0), 1.0), vec![1]);
    }

    #[test]
    fn update_position_within_one_bucket_refreshes_coords() {
        // Moves that stay inside a bucket must refresh the inline
        // coordinates used for distance tests (not just `points`).
        let b = Bounds::square(100.0);
        let pts = vec![p(12.0, 12.0)];
        let mut idx = GridIndex::build(b, 10.0, &pts);
        idx.update_position(0, p(18.0, 18.0));
        assert_eq!(idx.position(0), p(18.0, 18.0));
        assert!(idx.within(p(12.0, 12.0), 1.0).is_empty());
        assert_eq!(idx.within(p(18.0, 18.0), 1.0), vec![0]);
    }

    #[test]
    fn scan_order_is_residents_then_arrivals() {
        // Query order feeds the simulator's RNG and event ordering, so
        // it is a contract: build-order residents first, then arrivals
        // in arrival order; same-bucket moves keep an entry's slot.
        let b = Bounds::square(100.0);
        let pts = vec![p(1.0, 1.0), p(2.0, 2.0), p(50.0, 50.0), p(15.0, 1.0)];
        let mut idx = GridIndex::build(b, 10.0, &pts);
        assert_eq!(idx.within(p(2.0, 2.0), 8.0), vec![0, 1]);
        // Point 3 crosses into the first bucket: appended after residents.
        idx.update_position(3, p(3.0, 3.0));
        assert_eq!(idx.within(p(2.0, 2.0), 8.0), vec![0, 1, 3]);
        // Point 0 leaves and returns: it re-enters as the newest arrival.
        idx.update_position(0, p(25.0, 25.0));
        idx.update_position(0, p(1.0, 1.0));
        assert_eq!(idx.within(p(2.0, 2.0), 8.0), vec![1, 3, 0]);
        // A same-bucket move does not surrender the slot.
        idx.update_position(3, p(4.0, 4.0));
        assert_eq!(idx.within(p(2.0, 2.0), 8.0), vec![1, 3, 0]);
    }

    #[test]
    fn prop_cell_lookups_equal_floor() {
        use robonet_des::check::{self, Outcome};
        let cell = 200.0 / 7.0;
        let gen = check::pair(
            check::cell_edge_f64s(200.0, cell),
            check::cell_edge_f64s(200.0, cell),
        );
        check::forall_cases("grid cell lookups equal floor", 2_000, &gen, |&(x, y)| {
            let idx = GridIndex::build(Bounds::square(200.0), cell, &[]);
            let floor = |v: f64, lo: f64, n: usize| {
                let c = ((v - lo) / cell).floor();
                (c.max(0.0) as usize).min(n - 1)
            };
            assert_eq!(idx.col_of(x), floor(x, 0.0, idx.cols), "column of {x}");
            assert_eq!(idx.row_of(y), floor(y, 0.0, idx.rows), "row of {y}");
            Outcome::Pass
        });
    }

    #[test]
    fn prop_grid_query_matches_brute_force() {
        use robonet_des::check::{self, Outcome};
        // Coordinates quantized to 5 m so many points land exactly on
        // cell boundaries for the cell sizes drawn below.
        let coord = check::u32s(0..41).map(|&v| f64::from(v) * 5.0);
        let pts = check::vec_of(
            check::pair(coord.clone(), coord.clone()).map(|&(x, y)| Point::new(x, y)),
            0..40,
        );
        let cfg = check::quad(
            pts,
            check::pair(coord.clone(), coord).map(|&(x, y)| Point::new(x, y)),
            check::f64s(0.0..80.0),
            check::u32s(1..5),
        );
        check::forall_cases(
            "grid_query_matches_brute_force",
            64,
            &cfg,
            |(pts, center, radius, cell_steps)| {
                let b = Bounds::square(200.0);
                let cell = f64::from(*cell_steps) * 5.0;
                let idx = GridIndex::build(b, cell, pts);
                let mut fast = idx.within(*center, *radius);
                fast.sort_unstable();
                let slow: Vec<usize> = pts
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| q.distance_sq(*center) <= radius * radius)
                    .map(|(i, _)| i)
                    .collect();
                assert_eq!(fast, slow, "cell={cell} r={radius} c={center}");
                Outcome::Pass
            },
        );
    }
}
