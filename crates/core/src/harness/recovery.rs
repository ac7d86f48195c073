//! Recovery under injected faults: message loss, robot breakdowns and
//! repairs, peer takeover, dispatch timeouts, and how the harness
//! carries out the fault timeline ([`FaultHooks`]).

use robonet_des::{NodeId, SimDuration, SimTime};
use robonet_geom::ConvexPolygon;
use robonet_radio::TrafficClass;

use crate::coord::Announcement;
use crate::fault::{FaultInjector, FaultKind};
use crate::msg::AppMsg;
use crate::trace::TraceEvent;
use crate::world::{FaultHooks, World};

use super::{Event, OutstandingDispatch, Simulation};

impl Simulation {
    /// Manager-side watchdog (runs on the manager's beacon clock):
    /// dispatches older than the plan's timeout mark their robot
    /// suspect and go to the next-closest non-suspect robot, up to the
    /// attempt budget.
    pub(super) fn check_dispatch_timeouts(&mut self, now: SimTime) {
        let Some(inj) = self.world.faults.as_ref() else {
            return;
        };
        let timeout = inj.plan.dispatch_timeout;
        let max_attempts = inj.plan.max_dispatch_attempts;
        let Some(m) = self.manager.as_mut() else {
            return;
        };
        let expired: Vec<(u32, OutstandingDispatch)> = m
            .outstanding
            .iter()
            .filter(|(_, od)| now.saturating_duration_since(od.since) >= timeout)
            .map(|(&failed, &od)| (failed, od))
            .collect();
        for (failed, od) in expired {
            let m = self.manager.as_mut().expect("checked above");
            m.outstanding.remove(&failed);
            m.suspect[od.robot] = true;
            self.metrics.faults.dispatch_timeouts += 1;
            self.observer.emit(|| TraceEvent::DispatchTimedOut {
                t: now.as_secs_f64(),
                failed: NodeId::new(failed),
                attempt: od.attempts,
            });
            if od.attempts >= max_attempts {
                self.metrics.faults.dispatches_abandoned += 1;
            } else {
                self.dispatch_to_robot(now, NodeId::new(failed), od.failed_loc, od.attempts + 1);
            }
        }
    }

    /// Whether the fault plan drops a `kind` message `node` originates
    /// (never on a fault-free run). A drop is counted and traced.
    pub(super) fn message_lost(&mut self, now: SimTime, kind: FaultKind, node: NodeId) -> bool {
        let lost = self
            .world
            .faults
            .as_mut()
            .is_some_and(|inj| inj.drop_message(kind));
        if lost {
            let stats = &mut self.metrics.faults;
            match kind {
                FaultKind::ReportLoss => stats.report_drops += 1,
                FaultKind::DispatchLoss => stats.dispatch_drops += 1,
                _ => stats.update_drops += 1,
            }
            self.observer.emit(|| TraceEvent::FaultInjected {
                t: now.as_secs_f64(),
                kind,
                node,
            });
        }
        lost
    }

    /// An injected breakdown fires: the robot either degrades to
    /// `slow_factor` speed or dies on the spot (silent radio, current
    /// task pushed back onto its queue) until an optional in-place
    /// repair.
    pub(super) fn on_robot_breakdown(&mut self, now: SimTime, r: usize) {
        if self.robot_down[r] {
            return;
        }
        let slowdown = self.world.injector().breakdown_is_slowdown();
        let robot_node = self.world.robots[r].id;
        if slowdown {
            self.metrics.faults.robot_slowdowns += 1;
            let factor = self.world.injector().plan.slow_factor;
            self.replan_at_speed(now, r, self.cfg.robot_speed * factor);
            self.observer.emit(|| TraceEvent::FaultInjected {
                t: now.as_secs_f64(),
                kind: FaultKind::Slowdown,
                node: robot_node,
            });
            // A slowed robot keeps breaking down on the same clock.
            self.schedule_next_breakdown(r);
        } else {
            self.kill_robot(now, r);
            let repair = self.world.injector().plan.breakdown_repair;
            if let Some(repair) = repair {
                self.sched
                    .schedule_at(now + repair, Event::RobotRepair { robot: r as u32 });
            }
        }
    }

    /// In-place repair completes: the robot rejoins, re-announces, and
    /// resumes its queued work.
    pub(super) fn on_robot_repair(&mut self, now: SimTime, r: usize) {
        if !self.robot_down[r] {
            return;
        }
        self.robot_down[r] = false;
        self.takeover_done[r] = false;
        // Reset peers' suspicion so the re-announcement isn't raced by a
        // stale takeover declaration.
        for table in &mut self.peer_last_heard {
            table[r] = None;
        }
        self.metrics.faults.robot_repairs += 1;
        let robot_node = self.world.robots[r].id;
        self.radio.set_alive(robot_node, true);
        self.observer.emit(|| TraceEvent::RobotRepaired {
            t: now.as_secs_f64(),
            robot: robot_node,
        });
        // Re-announce so sensors (and the manager) re-adopt the robot.
        self.do_location_update(now, r, TrafficClass::LocationUpdate);
        if let Some(leg) = self.world.robots[r].resume(now) {
            self.start_leg(r, leg);
        }
        self.schedule_next_breakdown(r);
    }

    fn schedule_next_breakdown(&mut self, r: usize) {
        let delay = self
            .world
            .faults
            .as_mut()
            .and_then(FaultInjector::next_breakdown_delay);
        if let Some(delay) = delay {
            self.sched
                .schedule_after(delay, Event::RobotBreakdown { robot: r as u32 });
        }
    }

    /// Interrupts any current leg, changes speed, and resumes — the
    /// replanned leg (new speed, partial travel credited) replaces the
    /// in-flight one.
    fn replan_at_speed(&mut self, now: SimTime, r: usize, speed: f64) {
        let was_moving = self.world.cut_leg(now, r, &mut self.observer);
        self.world.robots[r].set_speed(speed);
        if was_moving {
            let loc = self.world.robots[r].position_at(now);
            self.radio.set_position(self.world.robots[r].id, loc);
            if let Some(leg) = self.world.robots[r].resume(now) {
                self.start_leg(r, leg);
            }
        }
    }

    /// A robot checks its peer heartbeats (its own beacon clock): a
    /// peer silent past the plan's window is presumed dead, and this
    /// robot floods a takeover announcement scoped to the dead peer's
    /// subarea (fixed) or unscoped (dynamic), naming it `defunct` so
    /// sensors drop it. First detector wins; repair resets the flag.
    pub(super) fn check_peer_takeover(&mut self, now: SimTime, r: usize) {
        if self.peer_last_heard.is_empty() {
            return; // breakdowns not in the plan
        }
        let periods = self.world.injector().plan.peer_timeout_periods;
        let timeout =
            SimDuration::from_secs(self.cfg.beacon_period.as_secs_f64() * f64::from(periods));
        for p in 0..self.world.robots.len() {
            if p == r || self.takeover_done[p] {
                continue;
            }
            let Some(last) = self.peer_last_heard[r][p] else {
                continue; // never heard: out of range, not diagnosable
            };
            if now.saturating_duration_since(last) < timeout {
                continue;
            }
            // Only flood-announcing algorithms take over peer duties;
            // the centralized manager handles exclusion itself.
            let Announcement::Flood { subarea } = self.coord.location_announcement(p) else {
                continue;
            };
            self.takeover_done[p] = true;
            self.metrics.faults.takeovers += 1;
            let dead = self.world.robots[p].id;
            let robot_node = self.world.robots[r].id;
            let loc = self.world.robots[r].position_at(now);
            self.observer.emit(|| TraceEvent::TakeoverAssumed {
                t: now.as_secs_f64(),
                robot: robot_node,
                dead,
                subarea,
            });
            let seq = self.world.robots[r].next_seq();
            let msg = AppMsg::RobotFlood {
                robot: robot_node,
                loc,
                seq,
                subarea,
                defunct: Some(dead),
            };
            self.send(now, robot_node, None, TrafficClass::LocationUpdate, msg);
        }
    }
}

/// Blackout victims die through [`Simulation::on_fail`]: same
/// incarnation guard, same trace events as a lifetime expiry.
impl FaultHooks for Simulation {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }

    fn fail_sensor(&mut self, now: SimTime, s: usize) {
        self.on_fail(now, self.world.expiry(s));
    }

    fn robot_in_service(&self, r: usize) -> bool {
        !self.robot_down[r]
    }

    /// Takes a robot out of service on the spot: silent radio, current
    /// leg interrupted, in-flight motion events gone stale. Shared by
    /// the probabilistic breakdown path (which may schedule a repair)
    /// and attrition waves (which never do).
    fn kill_robot(&mut self, now: SimTime, r: usize) {
        self.metrics.faults.robot_breakdowns += 1;
        self.robot_down[r] = true;
        self.world.cut_leg(now, r, &mut self.observer);
        let robot_node = self.world.robots[r].id;
        let loc = self.world.robots[r].position_at(now);
        self.radio.set_position(robot_node, loc);
        self.radio.set_alive(robot_node, false);
        self.observer.emit(|| TraceEvent::RobotDied {
            t: now.as_secs_f64(),
            robot: robot_node,
        });
    }

    fn install_partition(&mut self, until: SimTime, a: ConvexPolygon, b: ConvexPolygon) {
        self.active_partitions.push((until, a, b));
    }
}
