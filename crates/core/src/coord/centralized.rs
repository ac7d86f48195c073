//! The centralized algorithm (paper §3.1): one static manager at the
//! field centre receives every failure report and forwards a repair
//! request to the closest robot.

use robonet_des::NodeId;
use robonet_geom::Point;
use robonet_wsn::SensorState;

use crate::config::{Algorithm, DispatchPolicy};

use super::{Announcement, CoordCtx, Coordinator, FleetView, FlowCtx, FlowDispatch, FlowFleet};

/// Coordinator for [`Algorithm::Centralized`].
#[derive(Debug)]
pub struct Centralized;

impl Coordinator for Centralized {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Centralized
    }

    fn name(&self) -> &'static str {
        "centralized"
    }

    fn describe(&self) -> &'static str {
        "one static manager at the field centre; reports are forwarded \
         to the closest robot (§3.1)"
    }

    fn obs_namespace(&self) -> &'static str {
        "coord.centralized"
    }

    fn uses_manager(&self) -> bool {
        true
    }

    fn uses_myrobot(&self) -> bool {
        false
    }

    fn seed_initial_role(
        &self,
        sensor: &mut SensorState,
        _subarea: u32,
        _robot_pos: &[Point],
        ctx: &CoordCtx<'_>,
    ) {
        sensor.manager = Some(ctx.manager.expect("centralized world has a manager"));
    }

    fn seed_replacement(&self, sensor: &mut SensorState, ctx: &CoordCtx<'_>) {
        sensor.manager = Some(ctx.manager.expect("centralized world has a manager"));
    }

    fn report_target(&self, reporter: &SensorState) -> (NodeId, Point) {
        reporter
            .manager
            .expect("centralized sensors know the manager")
    }

    /// The paper's rule: the robot whose last known location is
    /// closest to the failure; [`DispatchPolicy::NearestIdle`] prefers
    /// an idle robot first and falls back to the overall nearest when
    /// the whole fleet is busy.
    fn choose_dispatch_robot(
        &self,
        fleet: &FleetView<'_>,
        failed_loc: Point,
        policy: DispatchPolicy,
    ) -> Option<usize> {
        let nearest_among = |pred: &dyn Fn(usize) -> bool| {
            fleet
                .robot_locs
                .iter()
                .enumerate()
                .filter(|(r, _)| pred(*r))
                .min_by(|(_, a), (_, b)| {
                    a.distance_sq(failed_loc)
                        .partial_cmp(&b.distance_sq(failed_loc))
                        .expect("finite positions")
                })
                .map(|(r, _)| r)
        };
        // Robots with a timed-out dispatch outstanding are suspects:
        // skip them unless the whole fleet is under suspicion.
        let live = |r: usize| !fleet.is_suspect(r);
        match policy {
            DispatchPolicy::Nearest => nearest_among(&live).or_else(|| nearest_among(&|_| true)),
            DispatchPolicy::NearestIdle => {
                let queues = fleet.robot_queues;
                nearest_among(&|r| live(r) && queues[r] == 0)
                    .or_else(|| nearest_among(&live))
                    .or_else(|| nearest_among(&|_| true))
            }
        }
    }

    fn location_announcement(&self, _robot_index: usize) -> Announcement {
        Announcement::ManagerUnicast
    }

    fn on_robot_hello(
        &self,
        sensor: &mut SensorState,
        _robot: NodeId,
        _loc: Point,
        manager: Option<(NodeId, Point)>,
        _ctx: &CoordCtx<'_>,
    ) {
        // Hellos piggyback the manager's identity so replacements that
        // missed initialization still learn where to report.
        if sensor.manager.is_none() {
            sensor.manager = manager;
        }
    }

    fn accept_flood(
        &self,
        _sensor: &mut SensorState,
        _robot: NodeId,
        _loc: Point,
        _subarea: u32,
        _sensor_subarea: u32,
        _ctx: &CoordCtx<'_>,
    ) -> bool {
        false // floods are not used (§3.1)
    }

    fn myrobot_truth(
        &self,
        _sensor_loc: Point,
        _subarea: u32,
        _robot_locs: &[Point],
    ) -> Option<usize> {
        None // no myrobot concept
    }

    fn flow_update_cost(&self, flow: &FlowCtx<'_>, _robot: usize, from: Point) -> f64 {
        // Unicast to the manager + a one-hop hello, per update.
        let manager = flow.manager_loc.expect("centralized runs deploy a manager");
        flow.hops_for(from.distance(manager)) + 1.0
    }

    fn flow_report(
        &self,
        flow: &FlowCtx<'_>,
        failed_loc: Point,
        _subarea: u32,
        fleet: &dyn FlowFleet,
    ) -> FlowDispatch {
        let manager = flow.manager_loc.expect("centralized runs deploy a manager");
        let report_hops = flow.hops_for(failed_loc.distance(manager));
        // Manager picks the robot closest (current position).
        let r = fleet.nearest(failed_loc);
        // The request's first hop uses the manager's long-range radio;
        // any remaining distance is covered by sensor relays.
        let d = (manager.distance(fleet.position(r)) - flow.manager_range).max(0.0);
        let request_hops = if d > 0.0 { 1.0 + flow.hops_for(d) } else { 1.0 };
        FlowDispatch {
            robot: r,
            report_hops,
            request_hops: Some(request_hops),
        }
    }
}
