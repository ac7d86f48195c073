//! Sensor duties: beaconing, guardian watch and failure reports,
//! lifetime expiry, and what a sensor learns from robot announcements.

use robonet_des::{sampler, NodeId, SimDuration, SimTime};
use robonet_geom::Point;
use robonet_net::GeoHeader;
use robonet_radio::{Frame, TrafficClass};
use robonet_wsn::GuardianEvent;

use crate::fault::{FaultInjector, FaultKind};
use crate::msg::AppMsg;
use crate::trace::TraceEvent;
use crate::world::Expiry;

use super::{Event, Simulation};

impl Simulation {
    pub(super) fn on_sensor_tick(&mut self, now: SimTime, s: usize) {
        self.sched.schedule_after(
            self.cfg.beacon_period,
            Event::SensorTick { sensor: s as u32 },
        );
        if !self.world.is_alive(s) {
            return;
        }
        let loc = self.sensors[s].loc;
        let src = self.sensors[s].id;
        // Beacon to one-hop neighbours.
        self.send(now, src, None, TrafficClass::Beacon, AppMsg::Beacon { loc });

        let timeout = self.cfg.failure_timeout();

        // Evict neighbours that stopped beaconing (stale robots that
        // moved away, silently failed sensors).
        let cutoff = if now.as_nanos() > timeout.as_nanos() {
            now - timeout
        } else {
            SimTime::ZERO
        };
        self.sensors[s].neighbors.evict_stale(cutoff);

        // Report silent guardees. Fault-free runs report once and stop
        // watching; with faults active the guardian keeps the watch and
        // retries with exponential backoff until the guardee beacons
        // again (replaced) or the attempt budget runs out (explicit
        // orphan).
        let max_attempts = self
            .world
            .faults
            .as_ref()
            .map(|i| i.plan.max_report_attempts);
        let silent = self.sensors[s].silent_guardees(now, timeout);
        for g in silent {
            if !self.sensors[s].should_report(g, now) {
                continue;
            }
            if let Some(max_attempts) = max_attempts {
                let attempt = self.sensors[s].note_report_attempt(g);
                if attempt > max_attempts {
                    self.sensors[s].forget_failed_neighbor(g);
                    self.metrics.faults.reports_abandoned += 1;
                    continue;
                }
                let window = FaultInjector::report_backoff(self.cfg.report_retry, attempt);
                self.sensors[s].mark_reported(g, now, window);
                self.sensors[s].scrub_failed_neighbor(g);
                if attempt >= 2 && self.coord.evict_myrobot_on_retry() {
                    self.evict_stale_myrobot(s);
                }
                self.send_failure_report(now, s, g, attempt);
            } else {
                self.sensors[s].mark_reported(g, now, self.cfg.report_retry);
                self.sensors[s].forget_failed_neighbor(g);
                self.send_failure_report(now, s, g, 1);
            }
        }

        // Replace a lost guardian.
        if let GuardianEvent::GuardianLost(g) = self.sensors[s].check_guardian(now, timeout) {
            self.sensors[s].forget_failed_neighbor(g);
        }
        if self.sensors[s].guardian.is_none() && !self.sensors[s].neighbors.is_empty() {
            self.pick_and_confirm_guardian(now, s);
        }
    }

    fn pick_and_confirm_guardian(&mut self, now: SimTime, s: usize) {
        let n_sensors = self.sensors.len();
        let my_sub = self.world.sensor_subarea[s];
        let is_fixed = self.coord.guardian_requires_same_subarea();
        // Guardians must be sensors; in the fixed algorithm the pair must
        // share a subarea (§3.2). Sensors are static, so subarea can be
        // looked up from deployment data.
        let subareas = &self.world.sensor_subarea;
        let pick = self.sensors[s].pick_guardian(now, |id| {
            id.index() < n_sensors && (!is_fixed || subareas[id.index()] == my_sub)
        });
        if let Some(g) = pick {
            let src = self.sensors[s].id;
            let msg = AppMsg::GuardianConfirm;
            self.send(now, src, Some(g), TrafficClass::Init, msg);
        }
    }

    pub(super) fn on_fail(&mut self, now: SimTime, e: Expiry) {
        if let Some(sensor) = self.world.expire(now, e, &mut self.observer) {
            self.radio.set_alive(sensor, false);
        }
    }

    /// A sensor whose `myrobot` keeps ignoring reports drops it from
    /// its table, falling back to the next-closest known robot (dynamic
    /// algorithm only, via [`Coordinator::evict_myrobot_on_retry`]).
    fn evict_stale_myrobot(&mut self, s: usize) {
        if self.sensors[s].robot_locs.len() < 2 {
            return; // never discard the last known robot
        }
        if let Some((robot, _)) = self.sensors[s].myrobot {
            self.sensors[s].forget_robot(robot);
        }
    }

    fn send_failure_report(&mut self, now: SimTime, guardian: usize, failed: NodeId, attempt: u32) {
        let failed_loc = self.sensors[failed.index()].loc;
        let (dst, dst_loc) = self.coord.report_target(&self.sensors[guardian]);
        self.metrics.reports_sent += 1;
        if attempt >= 2 {
            self.metrics.faults.report_retries += 1;
        }
        let origin = self.sensors[guardian].id;
        self.observer.emit(|| {
            let t = now.as_secs_f64();
            if attempt <= 1 {
                TraceEvent::Detected {
                    t,
                    guardian: origin,
                    failed,
                }
            } else {
                TraceEvent::ReportRetried {
                    t,
                    guardian: origin,
                    failed,
                    attempt,
                }
            }
        });
        // Injected link loss: the report leaves the guardian but dies
        // en route; the retry machinery re-drives it.
        if self.message_lost(now, FaultKind::ReportLoss, origin) {
            return;
        }
        let msg = AppMsg::Report {
            failed,
            failed_loc,
            geo: GeoHeader::new(dst, dst_loc),
        };
        self.route_and_send(now, origin, msg, TrafficClass::FailureReport, None);
    }

    /// A node heard a location-bearing frame directly from `from`; it
    /// only enters the routing neighbour table if the advertised
    /// location is within the *receiver's own* transmission range, so
    /// asymmetric links (robot heard at 200 m by a 63 m sensor) never
    /// become forwarding edges.
    pub(super) fn hear_guarded(&mut self, now: SimTime, to: NodeId, from: NodeId, loc: Point) {
        if to.index() >= self.sensors.len() {
            return; // robots and the manager use the location service
        }
        if !self.world.is_alive(to.index()) {
            return;
        }
        // Robots move up to one update threshold between announcements;
        // only accept them as forwarding neighbours with that margin in
        // hand (the paper's rationale for the 20 m threshold: “to ensure
        // that the robots can receive failure messages all the time”,
        // §4.2). Static nodes get the full range.
        let margin = if from.index() < self.sensors.len() {
            0.0
        } else {
            self.cfg.update_threshold
        };
        let s = &mut self.sensors[to.index()];
        let r = self.radio.medium().tx_range(to) - margin;
        if s.loc.distance_sq(loc) <= r * r {
            s.hear(from, loc, now);
        }
    }

    pub(super) fn on_robot_hello(
        &mut self,
        now: SimTime,
        to: NodeId,
        src: NodeId,
        robot: NodeId,
        loc: Point,
        manager: Option<(NodeId, Point)>,
    ) {
        if to.index() >= self.sensors.len() {
            return;
        }
        self.hear_guarded(now, to, src, loc);
        if !self.world.is_alive(to.index()) {
            return;
        }
        let ctx = self.world.coord_ctx(self.cfg.update_threshold);
        self.coord
            .on_robot_hello(&mut self.sensors[to.index()], robot, loc, manager, &ctx);
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_robot_flood(
        &mut self,
        now: SimTime,
        to: NodeId,
        frame: &Frame<AppMsg>,
        robot: NodeId,
        loc: Point,
        seq: u32,
        subarea: u32,
        defunct: Option<NodeId>,
    ) {
        if to.index() >= self.sensors.len() || !self.world.is_alive(to.index()) {
            return;
        }
        // Hearing the robot itself also refreshes the routing table.
        if frame.src == robot {
            self.hear_guarded(now, to, frame.src, loc);
        }
        if !self.sensors[to.index()].dedup.accept(robot, seq) {
            return; // relay at most once per (robot, seq) — §3.2
        }
        // Takeover floods name the broken-down peer: forget it before
        // weighing the announcer, so `myrobot` can never stick to a
        // dead robot that happens to be closer.
        if let Some(dead) = defunct {
            self.sensors[to.index()].forget_robot(dead);
            // Never leave a sensor robotless: if the defunct robot was
            // the only one it knew, the announcer itself is the fallback
            // (the scoped `accept_flood` below may not adopt it when the
            // sensor sits outside the flooded subarea).
            if self.sensors[to.index()].myrobot.is_none() {
                self.sensors[to.index()].myrobot = Some((robot, loc));
            }
        }
        let s_loc = self.sensors[to.index()].loc;
        let ctx = self.world.coord_ctx(self.cfg.update_threshold);
        let my_sub = self.world.sensor_subarea[to.index()];
        let mut relay = self.coord.accept_flood(
            &mut self.sensors[to.index()],
            robot,
            loc,
            subarea,
            my_sub,
            &ctx,
        );
        // §6 future-work optimisation: border-retransmit self-pruning —
        // a sensor deep inside the transmitter's coverage adds little
        // new area by relaying, so only the outer ring (beyond
        // `min_frac` of the *transmitter's* range) retransmits.
        if let Some(min_frac) = self.cfg.broadcast_prune {
            let from_loc = self.node_position(now, frame.src);
            let range = min_frac * self.radio.medium().tx_range(frame.src);
            if s_loc.distance_sq(from_loc) < range * range {
                relay = false;
            }
        }
        if relay {
            let msg = AppMsg::RobotFlood {
                robot,
                loc,
                seq,
                subarea,
                defunct,
            };
            let bytes = msg.wire_bytes();
            let relay_frame = Frame {
                src: to,
                dst: None,
                bytes,
                class: frame.class,
                payload: msg,
            };
            // Desynchronise the flood: without a random forwarding delay
            // every receiver of one broadcast contends in the same 620 µs
            // window and the relays collide en masse (the classic
            // broadcast-storm problem; flooding implementations jitter
            // exactly like this).
            let jitter =
                sampler::uniform_duration(&mut self.jitter_rng, SimDuration::from_millis(50));
            self.sched.schedule_after(
                jitter,
                Event::RelaySend {
                    frame: Box::new(relay_frame),
                },
            );
        }
    }
}
