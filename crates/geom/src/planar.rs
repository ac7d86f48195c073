//! Planar subgraphs for face-routing recovery.
//!
//! Greedy geographic forwarding can reach a node with no neighbour closer
//! to the destination (a routing "hole"). GPSR \[7\] and GFG \[2\] — the
//! recovery schemes the paper builds on — route around the hole on a
//! *planar* subgraph of the connectivity graph. Both the Gabriel graph
//! (GG) and the relative neighborhood graph (RNG) are planar, connected
//! whenever the original unit-disk graph is connected, and computable
//! from purely local information — which is why GPSR uses them.

use crate::graph::UnitDiskGraph;
use crate::point::Point;

/// Returns `true` if the edge `(u, v)` survives the Gabriel-graph test
/// given `witness`: the edge is *removed* when some witness lies strictly
/// inside the disk with diameter `uv`.
///
/// Purely local: a node only needs its own position and its neighbours'.
pub fn gabriel_edge_survives(u: Point, v: Point, witness: Point) -> bool {
    let m = u.midpoint(v);
    let r_sq = u.distance_sq(v) * 0.25;
    witness.distance_sq(m) >= r_sq - 1e-12
}

/// Returns `true` if the edge `(u, v)` survives the relative-neighborhood
/// graph test given `witness`: the edge is *removed* when the witness is
/// closer to both endpoints than they are to each other (inside the lune).
pub fn rng_edge_survives(u: Point, v: Point, witness: Point) -> bool {
    let d_sq = u.distance_sq(v);
    !(witness.distance_sq(u) < d_sq - 1e-12 && witness.distance_sq(v) < d_sq - 1e-12)
}

/// Filters the neighbours of one node down to its Gabriel-graph
/// neighbours, exactly as a GPSR node planarizes its own neighbour table:
/// edge `(self, n)` is kept iff no *other* neighbour lies inside the
/// diametral disk.
///
/// `neighbors` holds `(id, position)` pairs; the survivors are written
/// into `out` (cleared first) in input order, so a caller on a hot path
/// can reuse one buffer across filter invocations.
pub fn gabriel_filter_into<I>(self_pos: Point, neighbors: &[(I, Point)], out: &mut Vec<(I, Point)>)
where
    I: Copy + PartialEq,
{
    out.clear();
    out.extend(
        neighbors
            .iter()
            .filter(|&&(id, pos)| {
                neighbors
                    .iter()
                    .filter(|&&(other_id, _)| other_id != id)
                    .all(|&(_, w)| gabriel_edge_survives(self_pos, pos, w))
            })
            .copied(),
    );
}

/// A planar subgraph of a [`UnitDiskGraph`], stored as filtered adjacency.
#[derive(Debug, Clone)]
pub struct PlanarGraph {
    adjacency: Vec<Vec<u32>>,
}

/// Which planarization rule to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanarRule {
    /// Gabriel graph: denser, shorter detours (GPSR's default).
    Gabriel,
    /// Relative neighborhood graph: sparser subset of the Gabriel graph.
    Rng,
}

impl PlanarGraph {
    /// Planarizes `graph` with the given rule.
    ///
    /// Witnesses are restricted to common neighbours, matching what a
    /// distributed implementation can see; for unit-disk graphs this still
    /// yields a planar connected subgraph (Bose et al. 1999).
    pub fn build(graph: &UnitDiskGraph, rule: PlanarRule) -> Self {
        let n = graph.len();
        let mut adjacency = vec![Vec::new(); n];
        #[allow(clippy::needless_range_loop)]
        for u in 0..n {
            let pu = graph.position(u);
            'edges: for &v in graph.neighbors(u) {
                let v = v as usize;
                let pv = graph.position(v);
                for &w in graph.neighbors(u) {
                    let w = w as usize;
                    if w == v {
                        continue;
                    }
                    // Witness must be a common neighbour to matter.
                    if !graph.has_edge(w, v) {
                        continue;
                    }
                    let pw = graph.position(w);
                    let survives = match rule {
                        PlanarRule::Gabriel => gabriel_edge_survives(pu, pv, pw),
                        PlanarRule::Rng => rng_edge_survives(pu, pv, pw),
                    };
                    if !survives {
                        continue 'edges;
                    }
                }
                adjacency[u].push(v as u32);
            }
            adjacency[u].sort_unstable();
        }
        PlanarGraph { adjacency }
    }

    /// Neighbours of node `i` in the planar subgraph, sorted by index.
    pub fn neighbors(&self, i: usize) -> &[u32] {
        &self.adjacency[i]
    }

    /// Returns `true` if `i` and `j` are connected in the subgraph.
    pub fn has_edge(&self, i: usize, j: usize) -> bool {
        self.adjacency[i].binary_search(&(j as u32)).is_ok()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adjacency.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adjacency.is_empty()
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adjacency.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Returns `true` if every node can reach every other node within the
    /// subgraph.
    pub fn is_connected(&self) -> bool {
        if self.adjacency.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.adjacency.len()];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut count = 1;
        while let Some(i) = stack.pop() {
            for &j in &self.adjacency[i] {
                let j = j as usize;
                if !seen[j] {
                    seen[j] = true;
                    count += 1;
                    stack.push(j);
                }
            }
        }
        count == self.adjacency.len()
    }

    /// Checks planarity by brute force: no two non-adjacent edges cross.
    /// O(E²) — for tests only.
    pub fn crossings(&self, positions: &[Point]) -> usize {
        use crate::segment::Segment;
        let mut edges: Vec<(usize, usize)> = Vec::new();
        for (u, nbrs) in self.adjacency.iter().enumerate() {
            for &v in nbrs {
                let v = v as usize;
                if u < v {
                    edges.push((u, v));
                }
            }
        }
        let mut crossings = 0;
        for (a, &(u1, v1)) in edges.iter().enumerate() {
            for &(u2, v2) in &edges[a + 1..] {
                if u1 == u2 || u1 == v2 || v1 == u2 || v1 == v2 {
                    continue; // shared endpoint is not a crossing
                }
                let s1 = Segment::new(positions[u1], positions[v1]);
                let s2 = Segment::new(positions[u2], positions[v2]);
                if s1.intersects(&s2) {
                    crossings += 1;
                }
            }
        }
        crossings
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::Bounds;
    use robonet_des::rng::{Rng, Xoshiro256};

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn gabriel_edge_tests() {
        let u = p(0.0, 0.0);
        let v = p(10.0, 0.0);
        assert!(
            !gabriel_edge_survives(u, v, p(5.0, 1.0)),
            "witness in disk kills"
        );
        assert!(
            gabriel_edge_survives(u, v, p(5.0, 5.0)),
            "on circle survives"
        );
        assert!(
            gabriel_edge_survives(u, v, p(0.0, 10.0)),
            "outside survives"
        );
    }

    #[test]
    fn rng_edge_tests() {
        let u = p(0.0, 0.0);
        let v = p(10.0, 0.0);
        assert!(
            !rng_edge_survives(u, v, p(5.0, 2.0)),
            "witness in lune kills"
        );
        assert!(
            rng_edge_survives(u, v, p(5.0, 9.5)),
            "outside lune survives"
        );
        // In the lune but outside the Gabriel disk: the RNG test removes
        // strictly more edges per witness than the Gabriel test, which is
        // why RNG ⊆ GG as edge sets.
        let w = p(5.0, 6.0);
        assert!(gabriel_edge_survives(u, v, w), "outside disk: GG keeps");
        assert!(!rng_edge_survives(u, v, w), "inside lune: RNG removes");
    }

    fn random_udg(seed: u64, n: usize, side: f64, radius: f64) -> UnitDiskGraph {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let pts: Vec<Point> = (0..n)
            .map(|_| p(rng.gen_range(0.0..=side), rng.gen_range(0.0..=side)))
            .collect();
        UnitDiskGraph::build(Bounds::square(side), radius, &pts)
    }

    #[test]
    fn gabriel_is_planar_and_connected() {
        for seed in 0..5 {
            let g = random_udg(seed, 120, 200.0, 40.0);
            if !g.is_connected() {
                continue;
            }
            let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
            assert!(gg.is_connected(), "seed {seed}: GG disconnected");
            assert_eq!(
                gg.crossings(g.positions()),
                0,
                "seed {seed}: GG has crossings"
            );
            assert!(gg.edge_count() <= g.edge_count());
        }
    }

    #[test]
    fn rng_subset_of_gabriel() {
        let g = random_udg(7, 100, 200.0, 45.0);
        let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
        let rn = PlanarGraph::build(&g, PlanarRule::Rng);
        for u in 0..g.len() {
            for &v in rn.neighbors(u) {
                assert!(
                    gg.has_edge(u, v as usize),
                    "RNG edge {u}-{v} missing from Gabriel graph"
                );
            }
        }
        assert!(rn.edge_count() <= gg.edge_count());
    }

    #[test]
    fn planar_adjacency_symmetric() {
        let g = random_udg(11, 80, 150.0, 40.0);
        let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
        for u in 0..gg.len() {
            for &v in gg.neighbors(u) {
                assert!(gg.has_edge(v as usize, u), "GG edge {u}-{v} asymmetric");
            }
        }
    }

    #[test]
    fn local_gabriel_filter_matches_global() {
        let g = random_udg(3, 60, 120.0, 40.0);
        let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
        for u in 0..g.len() {
            let nbrs: Vec<(u32, Point)> = g
                .neighbors(u)
                .iter()
                .map(|&v| (v, g.position(v as usize)))
                .collect();
            let mut filtered = Vec::new();
            gabriel_filter_into(g.position(u), &nbrs, &mut filtered);
            // The local filter uses *all* neighbours as witnesses, the
            // global build only common neighbours; the local result must
            // therefore be a subset.
            for (v, _) in &filtered {
                let _ = v;
            }
            let local: std::collections::HashSet<u32> =
                filtered.into_iter().map(|(v, _)| v).collect();
            for &v in gg.neighbors(u) {
                // A witness that kills an edge locally is within range of
                // u, and if it is also within range of v it is a common
                // neighbour; so global-kept ⊇ local-kept.
                let _ = v;
            }
            for v in &local {
                assert!(
                    gg.has_edge(u, *v as usize),
                    "locally kept edge {u}-{v} absent globally"
                );
            }
        }
    }

    #[test]
    fn triangle_keeps_all_edges() {
        let pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(5.0, 8.0)];
        let g = UnitDiskGraph::build(Bounds::square(20.0), 15.0, &pts);
        let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
        assert_eq!(
            gg.edge_count(),
            3,
            "no vertex of a fat triangle is inside an edge-disk"
        );
    }

    #[test]
    fn square_with_diagonals_loses_a_diagonal() {
        // Slightly irregular square: a perfect square is co-circular, a
        // measure-zero degeneracy where the open-disk Gabriel test keeps
        // both (crossing) diagonals. Random deployments never hit it.
        let pts = vec![p(0.0, 0.0), p(10.0, 0.0), p(10.5, 10.0), p(0.0, 10.2)];
        let g = UnitDiskGraph::build(Bounds::square(20.0), 15.0, &pts);
        assert_eq!(g.edge_count(), 6, "complete graph on the square");
        let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
        assert_eq!(gg.crossings(g.positions()), 0);
        assert!(gg.edge_count() < 6, "at least one diagonal removed");
        assert!(gg.is_connected());
    }
}
