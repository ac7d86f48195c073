//! The fixed distributed algorithm (paper §3.2): the field is carved
//! into equal-size static subareas, one robot per subarea acting as
//! both manager and maintainer. Location updates flood only the
//! robot's own subarea.

use robonet_des::NodeId;
use robonet_geom::partition::{HexPartition, Partition, SquarePartition};
use robonet_geom::{Bounds, Point};
use robonet_wsn::SensorState;

use crate::config::{Algorithm, PartitionKind};

use super::{Announcement, CoordCtx, Coordinator, FlowCtx, FlowDispatch, FlowFleet};

/// Coordinator for [`Algorithm::Fixed`], parameterised by the
/// partition shape (the paper uses squares; hexagons measure its
/// "negligible difference" claim, §4.3.1).
#[derive(Debug)]
pub struct Fixed {
    kind: PartitionKind,
}

impl Fixed {
    /// Creates the coordinator for one partition shape.
    pub const fn new(kind: PartitionKind) -> Self {
        Fixed { kind }
    }

    /// The partition shape this coordinator carves.
    pub fn kind(&self) -> PartitionKind {
        self.kind
    }
}

impl Coordinator for Fixed {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Fixed(self.kind)
    }

    fn name(&self) -> &'static str {
        match self.kind {
            PartitionKind::Square => "fixed",
            PartitionKind::Hex => "fixed-hex",
        }
    }

    fn describe(&self) -> &'static str {
        match self.kind {
            PartitionKind::Square => {
                "equal static square subareas, one robot managing and \
                 maintaining each (§3.2)"
            }
            PartitionKind::Hex => {
                "fixed algorithm on an offset-row (hexagon-like) \
                 partition (§4.3.1 ablation)"
            }
        }
    }

    fn obs_namespace(&self) -> &'static str {
        match self.kind {
            PartitionKind::Square => "coord.fixed",
            PartitionKind::Hex => "coord.fixed-hex",
        }
    }

    fn build_partition(&self, bounds: Bounds, k: usize) -> Option<Box<dyn Partition>> {
        Some(match self.kind {
            PartitionKind::Square => Box::new(SquarePartition::new(bounds, k)),
            PartitionKind::Hex => Box::new(HexPartition::new(bounds, k)),
        })
    }

    fn seed_initial_role(
        &self,
        sensor: &mut SensorState,
        subarea: u32,
        robot_pos: &[Point],
        ctx: &CoordCtx<'_>,
    ) {
        let sub = subarea as usize;
        let robot = NodeId::new((ctx.n_sensors + sub) as u32);
        sensor.myrobot = Some((robot, robot_pos[sub]));
    }

    /// Guardians must share the guardee's subarea so reports stay
    /// inside the cell (§3.2).
    fn guardian_requires_same_subarea(&self) -> bool {
        true
    }

    fn location_announcement(&self, robot_index: usize) -> Announcement {
        Announcement::Flood {
            subarea: robot_index as u32,
        }
    }

    fn on_robot_hello(
        &self,
        sensor: &mut SensorState,
        robot: NodeId,
        loc: Point,
        _manager: Option<(NodeId, Point)>,
        ctx: &CoordCtx<'_>,
    ) {
        // Adopt only the own-subarea robot (relevant for freshly
        // installed replacements).
        if let (Some(p), Some(r)) = (ctx.partition, ctx.robot_index(robot)) {
            if p.subarea_of(sensor.loc) == r {
                sensor.myrobot = Some((robot, loc));
            }
        }
    }

    fn accept_flood(
        &self,
        sensor: &mut SensorState,
        robot: NodeId,
        loc: Point,
        subarea: u32,
        sensor_subarea: u32,
        _ctx: &CoordCtx<'_>,
    ) -> bool {
        // The flood is scoped to the robot's own subarea: sensors
        // inside it adopt the update and relay; everyone else drops it.
        if sensor_subarea == subarea {
            sensor.myrobot = Some((robot, loc));
            true
        } else {
            false
        }
    }

    fn myrobot_truth(
        &self,
        _sensor_loc: Point,
        subarea: u32,
        _robot_locs: &[Point],
    ) -> Option<usize> {
        // The correct manager is always the subarea robot.
        Some(subarea as usize)
    }

    fn flow_update_cost(&self, flow: &FlowCtx<'_>, robot: usize, _from: Point) -> f64 {
        // The flood covers the subarea's population (+ the robot's own
        // transmission).
        flow.subarea_population[robot] + 1.0
    }

    fn flow_report(
        &self,
        flow: &FlowCtx<'_>,
        failed_loc: Point,
        subarea: u32,
        fleet: &dyn FlowFleet,
    ) -> FlowDispatch {
        // The subarea's robot handles it: one position, no search.
        let r = subarea as usize;
        FlowDispatch {
            robot: r,
            report_hops: flow.hops_for(fleet.position(r).distance(failed_loc)),
            request_hops: None,
        }
    }
}
