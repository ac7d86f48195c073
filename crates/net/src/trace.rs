//! Offline route tracing over a set of neighbour tables.
//!
//! Drives [`route`] hop by hop without a radio medium —
//! for tests, examples and path-quality analysis (stretch vs BFS).

use robonet_des::NodeId;
use robonet_geom::Point;

use crate::packet::{GeoHeader, RouteMode};
use crate::routing::{route, RouteDecision};
use crate::NeighborTable;

/// The outcome of tracing one packet.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTrace {
    /// Node ids visited, starting with the source.
    pub path: Vec<NodeId>,
    /// Hops spent in perimeter (recovery) mode.
    pub perimeter_hops: u32,
    /// Whether the destination was reached.
    pub delivered: bool,
}

impl RouteTrace {
    /// Total hops taken (path length minus one).
    pub fn hops(&self) -> u32 {
        self.path.len().saturating_sub(1) as u32
    }
}

/// Traces a packet from `src` to `dst` through static `tables`.
///
/// `position_of` maps a node id to its location (sources of truth differ
/// between tests and simulations, so it is a callback). Terminates after
/// the header's TTL at the latest.
///
/// ```
/// use robonet_des::NodeId;
/// use robonet_geom::Point;
/// use robonet_net::trace::{tables_from_positions, trace_route};
///
/// let positions: Vec<Point> = (0..4).map(|i| Point::new(i as f64 * 50.0, 0.0)).collect();
/// let tables = tables_from_positions(&positions, 63.0);
/// let t = trace_route(&tables, |id| positions[id.index()], NodeId::new(0), NodeId::new(3));
/// assert!(t.delivered);
/// assert_eq!(t.hops(), 3);
/// ```
pub fn trace_route(
    tables: &[NeighborTable],
    mut position_of: impl FnMut(NodeId) -> Point,
    src: NodeId,
    dst: NodeId,
) -> RouteTrace {
    let mut header = GeoHeader::new(dst, position_of(dst));
    let mut cur = src;
    let mut prev: Option<Point> = None;
    let mut trace = RouteTrace {
        path: vec![src],
        perimeter_hops: 0,
        delivered: false,
    };
    loop {
        let cur_loc = position_of(cur);
        match route(cur, cur_loc, &tables[cur.index()], &mut header, prev) {
            RouteDecision::Deliver => {
                trace.delivered = true;
                return trace;
            }
            RouteDecision::Forward(next) => {
                if matches!(header.mode, RouteMode::Perimeter { .. }) {
                    trace.perimeter_hops += 1;
                }
                prev = Some(cur_loc);
                cur = next;
                trace.path.push(next);
            }
            RouteDecision::Drop(_) => return trace,
        }
    }
}

/// Builds per-node neighbour tables from node positions and a shared
/// communication radius — the state beaconing would establish on a
/// static network.
pub fn tables_from_positions(positions: &[Point], radius: f64) -> Vec<NeighborTable> {
    use robonet_des::SimTime;
    positions
        .iter()
        .enumerate()
        .map(|(i, &pi)| {
            let mut t = NeighborTable::new();
            for (j, &pj) in positions.iter().enumerate() {
                if i != j && pi.distance(pj) <= radius {
                    t.update(NodeId::new(j as u32), pj, SimTime::ZERO);
                }
            }
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn straight_line_trace() {
        let positions: Vec<Point> = (0..4).map(|i| p(i as f64 * 50.0, 0.0)).collect();
        let tables = tables_from_positions(&positions, 63.0);
        let t = trace_route(
            &tables,
            |id| positions[id.index()],
            NodeId::new(0),
            NodeId::new(3),
        );
        assert!(t.delivered);
        assert_eq!(t.hops(), 3);
        assert_eq!(t.perimeter_hops, 0);
        assert_eq!(
            t.path,
            vec![
                NodeId::new(0),
                NodeId::new(1),
                NodeId::new(2),
                NodeId::new(3)
            ]
        );
    }

    #[test]
    fn failed_trace_reports_no_delivery() {
        let positions = vec![p(0.0, 0.0), p(500.0, 0.0)];
        let tables = tables_from_positions(&positions, 63.0);
        let t = trace_route(
            &tables,
            |id| positions[id.index()],
            NodeId::new(0),
            NodeId::new(1),
        );
        assert!(!t.delivered);
    }

    #[test]
    fn a_trace_to_itself_is_delivered_in_zero_hops() {
        let positions = vec![p(0.0, 0.0)];
        let tables = tables_from_positions(&positions, 63.0);
        let t = trace_route(
            &tables,
            |id| positions[id.index()],
            NodeId::new(0),
            NodeId::new(0),
        );
        assert!(t.delivered);
        assert_eq!(t.hops(), 0);
    }
}
