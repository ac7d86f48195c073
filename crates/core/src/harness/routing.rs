//! Routing glue: the radio upcalls, geographic routing of reports,
//! requests and robot updates, and delivery of routed messages.

use robonet_des::{NodeId, SimTime};
use robonet_geom::Point;
use robonet_net::{route_with, NeighborTable, RouteDecision};
use robonet_radio::engine::{RadioEvent, UpcallEntry};
use robonet_radio::medium::NO_LINK;
use robonet_radio::{Frame, TrafficClass};

use crate::msg::AppMsg;
use crate::trace::{DropReason, TraceEvent};

use super::{Event, Simulation};

impl Simulation {
    /// `true` when an active partition separates the immediate
    /// transmitter from the receiver; such frames die at the receiver.
    fn partition_blocks(&self, now: SimTime, src: NodeId, dst: NodeId) -> bool {
        let sp = self.node_position(now, src);
        let dp = self.node_position(now, dst);
        self.active_partitions.iter().any(|(until, a, b)| {
            now < *until
                && ((a.contains(sp) && b.contains(dp)) || (b.contains(sp) && a.contains(dp)))
        })
    }

    pub(super) fn on_radio(&mut self, now: SimTime, rev: RadioEvent) {
        let mut out = std::mem::take(&mut self.upcall_buf);
        {
            let radio = &mut self.radio;
            let sched = &mut self.sched;
            radio.handle(
                now,
                rev,
                &mut |at, e| {
                    sched.schedule_at(at, Event::Radio(e));
                },
                &mut out,
            );
        }
        // A healed partition blocks nothing more: drop it, so beacons
        // take the slot path again.
        if !self.active_partitions.is_empty() {
            self.active_partitions.retain(|(until, ..)| now < *until);
        }
        let n_sensors = self.sensors.len();
        for i in 0..out.entries().len() {
            match out.entries()[i] {
                UpcallEntry::Delivered { to, frame, link } => {
                    let f = out.frame(frame);
                    // The bulk of all deliveries: a sensor's beacon heard
                    // by a sensor over a static link, with no partition
                    // to consult, goes straight to its table slot.
                    if let AppMsg::Beacon { loc } = f.payload {
                        if link != NO_LINK
                            && f.src.index() < n_sensors
                            && to.index() < n_sensors
                            && self.active_partitions.is_empty()
                        {
                            self.hear_over_link(now, to, f.src, loc, link);
                            continue;
                        }
                    }
                    self.on_delivered(now, to, f);
                }
                UpcallEntry::TxComplete { src, frame, ok } => {
                    if !ok {
                        self.on_tx_failed(now, src, out.frame(frame));
                    }
                }
            }
        }
        out.clear();
        self.upcall_buf = out;
    }

    /// Sensor `to` heard sensor `from`'s beacon over static link `link`.
    /// Both are static and share a range, so the medium already checked
    /// that `from` is in `to`'s range, and the MAC delivers only to live
    /// nodes. An unwatched neighbour with an entry is a slot refresh;
    /// anything else takes [`SensorState::hear`](robonet_wsn::SensorState::hear).
    fn hear_over_link(&mut self, now: SimTime, to: NodeId, from: NodeId, loc: Point, link: u32) {
        debug_assert!(self.world.is_alive(to.index()));
        let slot = self.link_slot(to, from, link);
        self.sensors[to.index()].hear_slot(slot, from, loc, now);
    }

    /// The slot of sensor `from` in sensor `to`'s neighbour table: its
    /// rank among the sensors within `to`'s range. Computed the first
    /// time a beacon crosses `link` and cached per link; `to`'s slots
    /// are allocated with its first such beacon.
    fn link_slot(&mut self, to: NodeId, from: NodeId, link: u32) -> usize {
        let medium = self.radio.medium();
        if self.link_slots.is_empty() {
            self.link_slots = vec![0; medium.link_count()];
        }
        let cached = self.link_slots[link as usize];
        if cached > 0 {
            return cached as usize - 1;
        }
        let in_range = medium.static_hearers_of(to);
        let rank = in_range.iter().filter(|&&id| id < from.as_u32()).count();
        if !self.sensors[to.index()].neighbors.has_slots() {
            let n_sensors = self.sensors.len();
            let mut ids: Vec<NodeId> = in_range
                .iter()
                .filter(|&&id| (id as usize) < n_sensors)
                .map(|&id| NodeId::new(id))
                .collect();
            ids.sort_unstable();
            self.sensors[to.index()].init_slots(ids);
        }
        self.link_slots[link as usize] = rank as u32 + 1;
        rank
    }

    pub(super) fn radio_send(&mut self, now: SimTime, frame: Frame<AppMsg>) {
        let radio = &mut self.radio;
        let sched = &mut self.sched;
        radio.send(now, frame, &mut |at, e| {
            sched.schedule_at(at, Event::Radio(e));
        });
    }

    /// Sends `msg` from `src` to `dst` (to every hearer when `None`) as
    /// one `class` frame.
    pub(super) fn send(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: Option<NodeId>,
        class: TrafficClass,
        msg: AppMsg,
    ) {
        let frame = Frame {
            src,
            dst,
            bytes: msg.wire_bytes(),
            class,
            payload: msg,
        };
        self.radio_send(now, frame);
    }

    /// Routes a geo message held by `at` one hop on; `prev_loc` is where
    /// it came from (`None` where it originates).
    pub(super) fn route_and_send(
        &mut self,
        now: SimTime,
        at: NodeId,
        mut msg: AppMsg,
        class: TrafficClass,
        prev_loc: Option<Point>,
    ) {
        let at_loc = self.node_position(now, at);
        let mut hdr = *msg.geo().expect("route_and_send requires a geo header");
        let decision = if at.index() < self.sensors.len() {
            route_with(
                &mut self.route_scratch,
                at,
                at_loc,
                &self.sensors[at.index()].neighbors,
                &mut hdr,
                prev_loc,
            )
        } else {
            let mut table = std::mem::take(&mut self.oracle_scratch);
            self.fill_oracle_table(&mut table, now, at);
            let d = route_with(
                &mut self.route_scratch,
                at,
                at_loc,
                &table,
                &mut hdr,
                prev_loc,
            );
            self.oracle_scratch = table;
            d
        };
        match decision {
            RouteDecision::Deliver => self.handle_final(now, at, msg),
            RouteDecision::Forward(next) => {
                *msg.geo_mut().expect("checked above") = hdr;
                self.send(now, at, Some(next), class, msg);
            }
            RouteDecision::Drop(why) => {
                let reason = DropReason::from(why);
                self.metrics.packets_dropped.record(reason);
                self.observer.emit(|| TraceEvent::PacketDropped {
                    t: now.as_secs_f64(),
                    at,
                    reason,
                });
            }
        }
    }

    /// Location-service table for robots and the manager: every alive
    /// node within transmission range at its current position (§3.1's
    /// post-initialization knowledge; sensors are static).
    fn fill_oracle_table(&self, table: &mut NeighborTable, now: SimTime, at: NodeId) {
        table.clear();
        let medium = self.radio.medium();
        medium.for_each_hearer(at, |n, _| {
            let loc = if n.index() < self.sensors.len() {
                self.sensors[n.index()].loc
            } else {
                self.node_position(now, n)
            };
            table.update(n, loc, now);
        });
    }

    pub(super) fn node_position(&self, now: SimTime, id: NodeId) -> Point {
        if id.index() < self.sensors.len() {
            self.sensors[id.index()].loc
        } else {
            self.agent_position(now, id)
        }
    }

    pub(super) fn robot_index(&self, id: NodeId) -> Option<usize> {
        let i = id.index();
        let n = self.sensors.len();
        (i >= n && i < n + self.world.robots.len()).then(|| i - n)
    }

    fn on_delivered(&mut self, now: SimTime, to: NodeId, frame: &Frame<AppMsg>) {
        // A scheduled network partition severs links between its two
        // regions: frames whose immediate transmitter sits on the other
        // side die at the receiver. (Empty unless a timeline partition
        // is in force, so ordinary runs pay one Vec::is_empty.)
        if !self.active_partitions.is_empty() && self.partition_blocks(now, frame.src, to) {
            self.partition_drops += 1;
            return;
        }
        match frame.payload {
            AppMsg::Beacon { loc } => {
                // Robots overhear each other's beacons to maintain peer
                // heartbeats (allocated only when breakdowns can occur).
                if !self.peer_last_heard.is_empty() {
                    if let (Some(rt), Some(rs)) =
                        (self.robot_index(to), self.robot_index(frame.src))
                    {
                        self.peer_last_heard[rt][rs] = Some(now);
                    }
                }
                self.hear_guarded(now, to, frame.src, loc)
            }
            AppMsg::GuardianConfirm => {
                if to.index() < self.sensors.len() && self.world.is_alive(to.index()) {
                    self.sensors[to.index()].add_guardee(frame.src, now);
                }
            }
            AppMsg::RobotHello {
                robot,
                loc,
                manager,
            } => self.on_robot_hello(now, to, frame.src, robot, loc, manager),
            AppMsg::RobotFlood {
                robot,
                loc,
                seq,
                subarea,
                defunct,
            } => self.on_robot_flood(now, to, frame, robot, loc, seq, subarea, defunct),
            ref geo_msg @ (AppMsg::Report { .. }
            | AppMsg::Request { .. }
            | AppMsg::RobotToManagerUpdate { .. }) => {
                let hdr = geo_msg.geo().expect("geo variants carry headers");
                if hdr.dst == to {
                    let msg = frame.payload.clone();
                    self.handle_final(now, to, msg);
                } else {
                    let prev = self.node_position(now, frame.src);
                    let msg = frame.payload.clone();
                    self.route_and_send(now, to, msg, frame.class, Some(prev));
                }
            }
        }
    }

    /// A geo-routed message reached its destination.
    fn handle_final(&mut self, now: SimTime, at: NodeId, msg: AppMsg) {
        match msg {
            AppMsg::Report {
                failed,
                failed_loc,
                geo,
            } => {
                self.metrics.reports_delivered += 1;
                self.metrics.report_hops.push(geo.hops);
                self.observer.emit(|| TraceEvent::ReportDelivered {
                    t: now.as_secs_f64(),
                    manager: at,
                    failed,
                    hops: geo.hops,
                });
                if self.coord.dispatch_via_manager() {
                    self.manager_dispatch(now, failed, failed_loc);
                } else if let Some(r) = self.robot_index(at) {
                    self.robot_enqueue(now, r, failed);
                }
            }
            AppMsg::Request { failed, geo, .. } => {
                self.metrics.requests_delivered += 1;
                self.metrics.request_hops.push(geo.hops);
                if let Some(r) = self.robot_index(at) {
                    self.robot_enqueue(now, r, failed);
                }
            }
            AppMsg::RobotToManagerUpdate {
                robot,
                loc,
                queue_len,
                ..
            } => {
                let r = self.robot_index(robot);
                if let (Some(m), Some(r)) = (self.manager.as_mut(), r) {
                    m.robot_locs[r] = loc;
                    m.robot_queues[r] = queue_len;
                    // A talking robot is not a suspect.
                    m.suspect[r] = false;
                }
            }
            _ => {}
        }
    }

    /// A unicast frame exhausted its retries: for geo-routed traffic,
    /// evict the unreachable next hop (GPSR neighbour blacklisting) and
    /// re-route from the current holder.
    fn on_tx_failed(&mut self, now: SimTime, src: NodeId, frame: &Frame<AppMsg>) {
        if frame.payload.geo().is_none() {
            return; // confirms/hellos are best-effort
        }
        let Some(next) = frame.dst else { return };
        if src.index() < self.sensors.len() {
            self.sensors[src.index()].neighbors.remove(next);
        }
        if !self.radio.medium().is_alive(src) {
            self.metrics.packets_dropped.record(DropReason::MacGiveUp);
            self.observer.emit(|| TraceEvent::PacketDropped {
                t: now.as_secs_f64(),
                at: src,
                reason: DropReason::MacGiveUp,
            });
            return;
        }
        self.route_and_send(now, src, frame.payload.clone(), frame.class, None);
    }
}
