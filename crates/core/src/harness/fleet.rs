//! The robot fleet: beacons, manager dispatch, legs, arrivals and
//! the location updates robots announce while they move.

use robonet_des::{NodeId, SimTime};
use robonet_geom::Point;
use robonet_net::GeoHeader;
use robonet_radio::TrafficClass;

use crate::coord::{Announcement, FleetView};
use crate::fault::FaultKind;
use crate::msg::AppMsg;
use crate::trace::TraceEvent;
use crate::world::LegRef;

use super::{Event, OutstandingDispatch, Simulation};

impl Simulation {
    pub(super) fn on_agent_tick(&mut self, now: SimTime, node: u32) {
        self.sched
            .schedule_after(self.cfg.beacon_period, Event::AgentTick { node });
        let id = NodeId::new(node);
        let r = self.robot_index(id);
        if let Some(r) = r {
            if self.robot_down[r] {
                return; // broken down: silent until repaired
            }
        }
        let loc = self.agent_position(now, id);
        self.radio.set_position(id, loc);
        self.send(now, id, None, TrafficClass::Beacon, AppMsg::Beacon { loc });
        // Fault-tolerance duties ride on the beacon clock (both are
        // no-ops in fault-free runs).
        match r {
            Some(r) => self.check_peer_takeover(now, r),
            None => self.check_dispatch_timeouts(now),
        }
    }

    pub(super) fn agent_position(&self, now: SimTime, id: NodeId) -> Point {
        match self.robot_index(id) {
            Some(r) => self.world.robots[r].position_at(now),
            None => {
                self.world
                    .field
                    .manager
                    .expect("manager beacons only when present")
                    .1
            }
        }
    }

    /// The central manager received a failure report: forward it to the
    /// robot currently closest to the failure (§3.1).
    pub(super) fn manager_dispatch(&mut self, now: SimTime, failed: NodeId, failed_loc: Point) {
        let retry_window = self.cfg.report_retry / 2;
        let faults_active = self.world.faults.is_some();
        let manager = self.manager.as_mut().expect("centralized manager exists");
        // Drop duplicate reports for a failure already being handled.
        if let Some(t) = manager.last_dispatch[failed.index()] {
            if now.saturating_duration_since(t) < retry_window {
                return;
            }
        }
        // With faults active a stalled dispatch is re-driven by the
        // timeout machinery, not by guardian retry reports.
        if faults_active && manager.outstanding.contains_key(&failed.as_u32()) {
            manager.last_dispatch[failed.index()] = Some(now);
            return;
        }
        self.dispatch_to_robot(now, failed, failed_loc, 1);
    }

    /// One dispatch attempt: pick a (non-suspect) robot and send the
    /// request. `attempt` ≥ 2 means a post-timeout re-dispatch.
    pub(super) fn dispatch_to_robot(
        &mut self,
        now: SimTime,
        failed: NodeId,
        failed_loc: Point,
        attempt: u32,
    ) {
        let faults_active = self.world.faults.is_some();
        let manager = self.manager.as_mut().expect("centralized manager exists");
        manager.last_dispatch[failed.index()] = Some(now);
        let fleet = FleetView {
            robot_locs: &manager.robot_locs,
            robot_queues: &manager.robot_queues,
            suspect: Some(&manager.suspect),
        };
        let best_robot = self
            .coord
            .choose_dispatch_robot(&fleet, failed_loc, self.cfg.dispatch)
            .expect("manager algorithms choose a robot");
        if faults_active {
            manager.outstanding.insert(
                failed.as_u32(),
                OutstandingDispatch {
                    robot: best_robot,
                    since: now,
                    attempts: attempt,
                    failed_loc,
                },
            );
        }
        let robot_node = self.world.robots[best_robot].id;
        let robot_loc = manager.robot_locs[best_robot];
        let (manager_id, _) = self
            .world
            .field
            .manager
            .expect("centralized manager exists");
        self.metrics.requests_sent += 1;
        if attempt >= 2 {
            self.metrics.faults.redispatches += 1;
        }
        // Injected link loss: the request dies en route; the timeout
        // re-drives it.
        if self.message_lost(now, FaultKind::DispatchLoss, manager_id) {
            return;
        }
        let msg = AppMsg::Request {
            failed,
            failed_loc,
            geo: GeoHeader::new(robot_node, robot_loc),
        };
        self.route_and_send(now, manager_id, msg, TrafficClass::RepairRequest, None);
    }

    pub(super) fn robot_enqueue(&mut self, now: SimTime, r: usize, failed: NodeId) {
        if let Some(leg) = self.world.dispatch(now, r, failed, &mut self.observer) {
            self.start_leg(r, leg);
        }
    }

    /// Robot `r` departs on `leg`: the world schedules its arrival, and
    /// the robot announces itself at every update-threshold point.
    pub(super) fn start_leg(&mut self, r: usize, leg: robonet_robot::motion::Leg) {
        let id = self
            .world
            .start_leg(r, &leg, &mut self.observer, &mut self.sched);
        for t in leg.update_times(self.cfg.update_threshold) {
            self.sched.schedule_at(t, Event::RobotUpdatePoint(id));
        }
    }

    pub(super) fn on_robot_update_point(&mut self, now: SimTime, leg: LegRef) {
        if !self.world.leg_is_current(leg) {
            return; // stale (robot re-planned)
        }
        let r = leg.robot();
        let loc = self.world.robots[r].position_at(now);
        self.radio.set_position(self.world.robots[r].id, loc);
        self.do_location_update(now, r, TrafficClass::LocationUpdate);
    }

    pub(super) fn on_robot_arrive(&mut self, now: SimTime, leg: LegRef) {
        let Some(arrival) = self
            .world
            .arrive(now, leg, &mut self.observer, &mut self.sched)
        else {
            return;
        };
        let (r, task, travel) = (leg.robot(), arrival.task, arrival.travel);
        let robot_node = self.world.robots[r].id;
        self.radio.set_position(robot_node, task.loc);
        // The repair completed: the manager's dispatch watchdog (if
        // any) stops waiting on it.
        if let Some(m) = self.manager.as_mut() {
            m.outstanding.remove(&task.failed.as_u32());
        }

        let s = task.failed.index();
        if arrival.installed {
            // The world installed the replacement; the new node starts
            // with fresh protocol state.
            self.sensors[s].reset_for_replacement();
            let ctx = self.world.coord_ctx(self.cfg.update_threshold);
            self.coord.seed_replacement(&mut self.sensors[s], &ctx);
            // With breakdowns in play the installer may be a takeover
            // robot from another subarea whose scoped floods this sensor
            // will never match; adopt it directly so the replacement is
            // never robotless. Fault-free the next flood seeds `myrobot`
            // before it is needed, so this stays behind the fault gate.
            if self.world.faults.is_some()
                && self.coord.uses_myrobot()
                && self.sensors[s].myrobot.is_none()
            {
                self.sensors[s].myrobot = Some((robot_node, task.loc));
            }
            self.radio.set_alive(task.failed, true);
            self.robot_tasks_done[r] += 1;
            self.metrics.travel_per_task.push(travel);
            self.metrics
                .repair_delay
                .push(now.duration_since(task.dispatched_at).as_secs_f64());
            // The new node announces itself so neighbours rebuild their
            // tables (§4.2(a)).
            let hello = AppMsg::Beacon {
                loc: self.sensors[s].loc,
            };
            self.send(now, task.failed, None, TrafficClass::Replacement, hello);
        } else {
            self.metrics.spurious_replacements += 1;
        }

        // Arrival is a moved-by-threshold point too: update location and
        // introduce the robot (and the manager) to the neighbourhood.
        self.do_location_update(now, r, TrafficClass::LocationUpdate);

        if let Some(leg) = arrival.next {
            self.start_leg(r, leg);
        }
    }

    /// Broadcast/unicast the robot's current location per the algorithm
    /// (§3.1–3.3). `class` is `Init` for the initialization announcement
    /// and `LocationUpdate` during operation (the Figure 4 metric).
    pub(super) fn do_location_update(&mut self, now: SimTime, r: usize, class: TrafficClass) {
        let loc = self.world.robots[r].position_at(now);
        let robot_node = self.world.robots[r].id;
        self.radio.set_position(robot_node, loc);
        // Injected loss on operational updates only (Init announcements
        // are part of the paper's assumed-reliable setup phase). The
        // robot believes it updated, so the cadence is unchanged.
        if class == TrafficClass::LocationUpdate
            && self.message_lost(now, FaultKind::UpdateLoss, robot_node)
        {
            self.world.robots[r].last_update_loc = loc;
            return;
        }
        let seq = self.world.robots[r].next_seq();
        match self.coord.location_announcement(r) {
            Announcement::ManagerUnicast => {
                let (m_id, m_loc) = self.world.field.manager.expect("manager exists");
                // Unicast to the manager via geographic routing...
                let queue_len = self.world.robots[r].outstanding_tasks() as u32;
                let msg = AppMsg::RobotToManagerUpdate {
                    robot: robot_node,
                    loc,
                    queue_len,
                    geo: GeoHeader::new(m_id, m_loc),
                };
                self.route_and_send(now, robot_node, msg, class, None);
                // ... plus a one-hop broadcast so nearby sensors can
                // deliver chasing repair requests (§3.1).
                let hello = AppMsg::RobotHello {
                    robot: robot_node,
                    loc,
                    manager: Some((m_id, m_loc)),
                };
                self.send(now, robot_node, None, class, hello);
            }
            Announcement::Flood { subarea } => {
                if class == TrafficClass::LocationUpdate {
                    self.observer.emit(|| TraceEvent::LocUpdateFlooded {
                        t: now.as_secs_f64(),
                        robot: robot_node,
                        seq: u64::from(seq),
                    });
                }
                let msg = AppMsg::RobotFlood {
                    robot: robot_node,
                    loc,
                    seq,
                    subarea,
                    defunct: None,
                };
                self.send(now, robot_node, None, class, msg);
            }
        }
        self.world.robots[r].last_update_loc = loc;
    }
}
