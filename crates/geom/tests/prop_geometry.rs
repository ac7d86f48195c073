//! Property tests for the geometric invariants the coordination
//! algorithms rely on.

use robonet_des::check::{self, Gen, Outcome};

use robonet_geom::graph::UnitDiskGraph;
use robonet_geom::partition::{HexPartition, Partition, SquarePartition};
use robonet_geom::planar::{PlanarGraph, PlanarRule};
use robonet_geom::voronoi::{nearest_site, voronoi_cells};
use robonet_geom::{Bounds, ConvexPolygon, Point};

fn point_in(side: f64) -> Gen<Point> {
    check::pair(check::f64s(0.0..side), check::f64s(0.0..side)).map(|&(x, y)| Point::new(x, y))
}

fn points_in(side: f64, n: std::ops::Range<usize>) -> Gen<Vec<Point>> {
    check::vec_of(point_in(side), n)
}

/// Voronoi cells tile the bounds: total area equals the field area.
#[test]
fn voronoi_cells_tile_the_field() {
    check::forall(
        "voronoi_cells_tile_the_field",
        &points_in(500.0, 1..12),
        |sites| {
            let b = Bounds::square(500.0);
            let cells = voronoi_cells(sites, &b);
            let total: f64 = cells.iter().flatten().map(ConvexPolygon::area).sum();
            // Duplicate sites can make cells overlap; restrict to distinct.
            let mut distinct = sites.clone();
            distinct.sort_by(|a, b| {
                a.x.partial_cmp(&b.x)
                    .unwrap()
                    .then(a.y.partial_cmp(&b.y).unwrap())
            });
            distinct.dedup_by(|a, b| a.distance_sq(*b) < 1e-12);
            if distinct.len() == sites.len() {
                assert!((total - b.area()).abs() < 1e-3, "total {total}");
            }
            Outcome::Pass
        },
    );
}

/// Any point inside a Voronoi cell is (weakly) closest to that cell's
/// site — membership and nearest-site agree.
#[test]
fn voronoi_membership_matches_nearest() {
    check::forall(
        "voronoi_membership_matches_nearest",
        &check::pair(points_in(500.0, 2..10), point_in(500.0)),
        |(sites, p)| {
            let b = Bounds::square(500.0);
            let n = nearest_site(sites, *p).unwrap();
            let cells = voronoi_cells(sites, &b);
            if let Some(cell) = &cells[n] {
                assert!(cell.contains(*p), "{p} not in its nearest site's cell");
            }
            Outcome::Pass
        },
    );
}

/// Gabriel planarization preserves connectivity of connected UDGs
/// and produces no edge crossings.
#[test]
fn gabriel_preserves_connectivity() {
    check::forall(
        "gabriel_preserves_connectivity",
        &points_in(200.0, 10..60),
        |pts| {
            let g = UnitDiskGraph::build(Bounds::square(200.0), 50.0, pts);
            if !g.is_connected() {
                return Outcome::Discard;
            }
            let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
            assert!(gg.is_connected(), "Gabriel graph disconnected");
            assert_eq!(gg.crossings(g.positions()), 0, "Gabriel graph not planar");
            Outcome::Pass
        },
    );
}

/// RNG ⊆ Gabriel ⊆ UDG as edge sets.
#[test]
fn planar_subgraph_chain() {
    check::forall("planar_subgraph_chain", &points_in(200.0, 5..50), |pts| {
        let g = UnitDiskGraph::build(Bounds::square(200.0), 55.0, pts);
        let gg = PlanarGraph::build(&g, PlanarRule::Gabriel);
        let rn = PlanarGraph::build(&g, PlanarRule::Rng);
        for u in 0..g.len() {
            for &v in rn.neighbors(u) {
                assert!(gg.has_edge(u, v as usize));
            }
            for &v in gg.neighbors(u) {
                assert!(g.has_edge(u, v as usize));
            }
        }
        Outcome::Pass
    });
}

/// Every point maps to exactly one subarea, and subarea centres map
/// to themselves — for both partition shapes.
#[test]
fn partitions_are_total_and_consistent() {
    check::forall(
        "partitions_are_total_and_consistent",
        &check::pair(check::usizes(1..6), points_in(600.0, 1..50)),
        |(k, probes)| {
            let b = Bounds::square(600.0);
            let sq = SquarePartition::new(b, *k);
            let hx = HexPartition::new(b, *k);
            for &p in probes {
                assert!(sq.subarea_of(p) < sq.len());
                assert!(hx.subarea_of(p) < hx.len());
            }
            for i in 0..sq.len() {
                assert_eq!(sq.subarea_of(sq.center(i)), i);
                assert_eq!(hx.subarea_of(hx.center(i)), i);
            }
            Outcome::Pass
        },
    );
}

/// Half-plane clipping never grows a polygon.
#[test]
fn clipping_shrinks() {
    check::forall(
        "clipping_shrinks",
        &check::triple(
            check::f64s(-1.0..1.0),
            check::f64s(-1.0..1.0),
            check::f64s(-100.0..200.0),
        ),
        |&(a, b, c)| {
            if a.abs() + b.abs() <= 1e-6 {
                return Outcome::Discard;
            }
            let poly = ConvexPolygon::from_bounds(&Bounds::square(100.0));
            if let Some(clipped) = poly.clip_halfplane(a, b, c) {
                assert!(clipped.area() <= poly.area() + 1e-9);
                // And the clipped polygon's centroid satisfies the constraint.
                let cen = clipped.centroid();
                assert!(a * cen.x + b * cen.y <= c + 1e-6);
            }
            Outcome::Pass
        },
    );
}

/// UDG adjacency is symmetric and respects the radius exactly.
#[test]
fn udg_adjacency_sound() {
    check::forall("udg_adjacency_sound", &points_in(300.0, 2..60), |pts| {
        let r = 63.0;
        let g = UnitDiskGraph::build(Bounds::square(300.0), r, pts);
        for i in 0..g.len() {
            for &j in g.neighbors(i) {
                let j = j as usize;
                assert!(g.position(i).distance(g.position(j)) <= r + 1e-9);
                assert!(g.has_edge(j, i));
            }
        }
        Outcome::Pass
    });
}
