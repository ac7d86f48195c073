//! The dynamic distributed algorithm (paper §3.3): no fixed borders —
//! every sensor reports to the currently closest robot, an implicit
//! Voronoi partition kept fresh by scoped flooding of robot location
//! updates.

use robonet_des::NodeId;
use robonet_geom::voronoi::nearest_site;
use robonet_geom::Point;
use robonet_wsn::SensorState;

use crate::config::Algorithm;

use super::{Announcement, CoordCtx, Coordinator, FlowCtx, FlowDispatch, FlowFleet};

/// Coordinator for [`Algorithm::Dynamic`].
#[derive(Debug)]
pub struct Dynamic;

impl Coordinator for Dynamic {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Dynamic
    }

    fn name(&self) -> &'static str {
        "dynamic"
    }

    fn describe(&self) -> &'static str {
        "implicit Voronoi partition: sensors report to the currently \
         closest robot, tracked via scoped floods (§3.3)"
    }

    fn obs_namespace(&self) -> &'static str {
        "coord.dynamic"
    }

    fn evict_myrobot_on_retry(&self) -> bool {
        // A report that keeps failing suggests `myrobot` is stale (the
        // robot broke down or moved away): drop it so the next flood —
        // or the retry itself — re-resolves the Voronoi owner.
        true
    }

    fn seed_initial_role(
        &self,
        sensor: &mut SensorState,
        _subarea: u32,
        robot_pos: &[Point],
        ctx: &CoordCtx<'_>,
    ) {
        // The init flood gives every sensor all robots' starting
        // positions; `myrobot` becomes the closest (§3.3). The table is
        // sized for the whole fleet once rather than grown robot by robot.
        sensor.robot_locs.reserve(robot_pos.len());
        for (r, &loc) in robot_pos.iter().enumerate() {
            sensor.consider_robot(NodeId::new((ctx.n_sensors + r) as u32), loc);
        }
    }

    fn location_announcement(&self, _robot_index: usize) -> Announcement {
        Announcement::Flood { subarea: u32::MAX }
    }

    fn on_robot_hello(
        &self,
        sensor: &mut SensorState,
        robot: NodeId,
        loc: Point,
        _manager: Option<(NodeId, Point)>,
        _ctx: &CoordCtx<'_>,
    ) {
        sensor.consider_robot(robot, loc);
    }

    fn accept_flood(
        &self,
        sensor: &mut SensorState,
        robot: NodeId,
        loc: Point,
        _subarea: u32,
        _sensor_subarea: u32,
        ctx: &CoordCtx<'_>,
    ) -> bool {
        let s_loc = sensor.loc;
        let adopted = sensor.consider_robot(robot, loc);
        // Border band: even a non-adopting sensor relays when a radio
        // neighbour might need to switch (the shaded region of the
        // paper's Fig. 1(b)). One update threshold of slack suffices: a
        // robot moves at most that far between floods, so only sensors
        // within it of the bisector can be affected.
        let band = ctx.update_threshold;
        let near_border = match sensor.myrobot {
            Some((_, my_loc)) => s_loc.distance(loc) < s_loc.distance(my_loc) + band,
            None => true,
        };
        adopted || near_border
    }

    fn myrobot_truth(
        &self,
        sensor_loc: Point,
        _subarea: u32,
        robot_locs: &[Point],
    ) -> Option<usize> {
        Some(nearest_site(robot_locs, sensor_loc).expect("robots exist"))
    }

    fn flow_update_cost(&self, flow: &FlowCtx<'_>, _robot: usize, _from: Point) -> f64 {
        // Cell population ≈ sensors / robots; border band of one
        // update threshold around the cell perimeter (~4 × cell side
        // at Voronoi average).
        let cell = flow.n_sensors as f64 / flow.n_robots as f64;
        let cell_side = (flow.area / flow.n_robots as f64).sqrt();
        let band = 4.0 * cell_side * flow.update_threshold * flow.density * 0.5;
        cell + band + 1.0
    }

    fn flow_report(
        &self,
        flow: &FlowCtx<'_>,
        failed_loc: Point,
        _subarea: u32,
        fleet: &dyn FlowFleet,
    ) -> FlowDispatch {
        let r = fleet.nearest(failed_loc);
        FlowDispatch {
            robot: r,
            report_hops: flow.hops_for(fleet.position(r).distance(failed_loc)),
            request_hops: None,
        }
    }
}
