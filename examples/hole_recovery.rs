//! Demonstrates geographic routing recovering around a coverage hole
//! with GPSR-style perimeter (face) routing — the mechanism that keeps
//! failure reports flowing when greedy forwarding hits a void
//! (paper §4.2: "recovering from holes is possible using approaches
//! such as GFG or GPSR, using planar subgraphs to route around holes").
//!
//!     cargo run --release --example hole_recovery

use robonet::des::rng::Xoshiro256;
use robonet::des::NodeId;
use robonet::geom::graph::UnitDiskGraph;
use robonet::geom::{deploy, Bounds, Point};
use robonet::net::trace::{tables_from_positions, trace_route, RouteTrace};

/// Prints a traced route: the hops taken and how many of them were in
/// perimeter (recovery) mode.
fn show(trace: &RouteTrace) {
    let path: Vec<String> = trace.path.iter().map(|n| n.to_string()).collect();
    let outcome = if trace.delivered {
        "delivered"
    } else {
        "DROPPED"
    };
    println!("  route: {}  -> {outcome}", path.join(" -> "));
    println!(
        "  {} hops total, {} in perimeter (recovery) mode",
        trace.hops(),
        trace.perimeter_hops
    );
}

fn main() {
    let bounds = Bounds::square(400.0);
    let mut rng = Xoshiro256::seed_from_u64(7);
    // Deploy densely, then carve a large circular void in the middle —
    // the kind of hole a cluster of failed sensors would leave.
    let all = deploy::uniform(&mut rng, &bounds, 420);
    let hole_center = Point::new(200.0, 200.0);
    let positions: Vec<Point> = all
        .into_iter()
        .filter(|p| p.distance(hole_center) > 130.0)
        .collect();
    let g = UnitDiskGraph::build(bounds, 46.0, &positions);
    println!(
        "{} sensors around a 130 m void (46 m radio range); network connected: {}",
        g.len(),
        g.is_connected()
    );
    // The neighbour tables beaconing would establish.
    let tables = tables_from_positions(&positions, 46.0);
    let route = |src: usize, dst: usize| {
        let (src, dst) = (NodeId::new(src as u32), NodeId::new(dst as u32));
        trace_route(&tables, |id| positions[id.index()], src, dst)
    };

    // Pick a west-side source and an east-side destination so the
    // straight line crosses the void.
    let src = (0..g.len())
        .filter(|&i| g.position(i).x < 60.0 && (g.position(i).y - 200.0).abs() < 60.0)
        .min_by(|&a, &b| {
            g.position(a)
                .x
                .partial_cmp(&g.position(b).x)
                .expect("finite")
        })
        .expect("a west-side node exists");
    let dst = (0..g.len())
        .filter(|&i| g.position(i).x > 340.0 && (g.position(i).y - 200.0).abs() < 60.0)
        .max_by(|&a, &b| {
            g.position(a)
                .x
                .partial_cmp(&g.position(b).x)
                .expect("finite")
        })
        .expect("an east-side node exists");

    println!(
        "routing across the void: {} at {} -> {} at {}",
        src,
        g.position(src),
        dst,
        g.position(dst)
    );
    show(&route(src, dst));

    // And a control route that does not cross the hole.
    let dst2 = (0..g.len())
        .filter(|&i| g.position(i).x < 100.0 && g.position(i).y > 330.0)
        .min_by(|&a, &b| {
            g.position(a)
                .y
                .partial_cmp(&g.position(b).y)
                .expect("finite")
        })
        .expect("a north-west node exists");
    println!("control route along the west edge: {src} -> {dst2}");
    show(&route(src, dst2));
}
