//! Offline aggregation of JSONL run artifacts.
//!
//! Rebuilds the paper's per-failure overhead numbers (travel, report
//! hops, repair delay) from a trace written by
//! [`JsonlSink`](super::JsonlSink), without re-running the simulation.
//! Travel and hop averages are computed with the same helpers
//! ([`mean_f64`], [`mean_u32`]) over the same samples in the same order
//! as the in-process [`Summary`](crate::metrics::Summary), so they
//! reproduce it bit-exactly.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

use robonet_des::NodeId;

use crate::metrics::{mean_f64, mean_u32, DropBreakdown};
use crate::trace::TraceEvent;

use super::sink::{for_each_event_line, TruncatedTail};

/// Everything `robonet stats` reconstructs from one JSONL artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAggregate {
    /// Total events parsed.
    pub events: u64,
    /// `failure` events seen.
    pub failures: u64,
    /// `detected` events seen.
    pub detections: u64,
    /// `report_delivered` events seen.
    pub reports_delivered: u64,
    /// `dispatched` events seen.
    pub dispatches: u64,
    /// `replaced` events seen.
    pub replacements: u64,
    /// Travel metres of each replacement, in event order — the same
    /// samples as `Metrics::travel_per_task`.
    pub travel_per_task: Vec<f64>,
    /// Hops of each delivered report, in event order — the same samples
    /// as `Metrics::report_hops`.
    pub report_hops: Vec<u32>,
    /// Dispatch→installation delay per replacement, in seconds: each
    /// `replaced` event minus the last `dispatched` event that gave the
    /// installing robot its task for that sensor — the dispatch the run
    /// itself measures from. Matches the in-process samples to within
    /// float rounding (the run subtracts nanosecond timestamps).
    pub repair_delay: Vec<f64>,
    /// Packet drops by reason, from `packet_dropped` events.
    pub drops: DropBreakdown,
    /// `loc_update_flooded` events seen.
    pub loc_update_floods: u64,
    /// `robot_leg_started` events seen.
    pub legs_started: u64,
    /// `robot_leg_ended` events seen (arrivals and cut legs).
    pub legs_ended: u64,
    /// Metres driven on every ended leg, whether or not the leg ended
    /// in a replacement.
    pub leg_travel: f64,
    /// `fault_injected` events seen.
    pub faults_injected: u64,
    /// `report_retried` events seen.
    pub report_retries: u64,
    /// `dispatch_timed_out` events seen.
    pub dispatch_timeouts: u64,
    /// `robot_died` events seen.
    pub robot_deaths: u64,
    /// `robot_repaired` events seen.
    pub robot_repairs: u64,
    /// `takeover_assumed` events seen.
    pub takeovers: u64,
    /// `telemetry_sample` events seen.
    pub telemetry_samples: u64,
    /// `invariant_violated` events seen.
    pub invariant_violations: u64,
    /// Present when the artifact ended mid-record (crashed or
    /// still-writing producer); the aggregate covers the complete
    /// prefix. Set only by [`TraceAggregate::from_jsonl`]: the tally a
    /// [`ReplayState`](super::ReplayState) holds leaves it `None`, and
    /// its [`Replayer`](super::Replayer) reports the tail itself. Kept
    /// because the benchmark reads it.
    pub truncated: Option<TruncatedTail>,
    /// Per `(robot, sensor)`, the time of the dispatch that robot's task
    /// for the sensor dates from: a robot holds one task per sensor, so
    /// a later dispatch to it replaces the earlier. The hasher has fixed
    /// keys: with a per-process random one, whether a removal leaves a
    /// tombstone, and so whether a later insert grows the table, varied
    /// between runs, and with it the benchmark's exact allocation count.
    pending_dispatch: HashMap<(NodeId, NodeId), f64, BuildHasherDefault<DefaultHasher>>,
}

impl TraceAggregate {
    /// Parses a whole JSONL document (one event per non-empty line,
    /// with an optional versioned header on the first line).
    ///
    /// Fails on the first malformed line or unsupported schema
    /// version, identifying it by 1-based line number — a truncated or
    /// hand-edited artifact should be loud, not silently half-counted.
    /// The one exception: an unterminated final line (crashed or
    /// still-writing producer) sets [`TraceAggregate::truncated`] and
    /// the complete prefix is aggregated normally.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut agg = TraceAggregate::default();
        agg.truncated = for_each_event_line(text, |event| agg.ingest(event))?;
        Ok(agg)
    }

    /// Counts one event. The one tally of a trace: `robonet stats` and
    /// replay both feed it.
    pub(crate) fn ingest(&mut self, event: &TraceEvent) {
        self.events += 1;
        match event {
            TraceEvent::Failure { .. } => self.failures += 1,
            TraceEvent::Detected { .. } => self.detections += 1,
            TraceEvent::ReportDelivered { hops, .. } => {
                self.reports_delivered += 1;
                self.report_hops.push(*hops);
            }
            TraceEvent::Dispatched {
                t, robot, failed, ..
            } => {
                self.dispatches += 1;
                self.pending_dispatch.insert((*robot, *failed), *t);
            }
            TraceEvent::Replaced {
                t,
                robot,
                sensor,
                travel,
                ..
            } => {
                self.replacements += 1;
                self.travel_per_task.push(*travel);
                if let Some(dispatched_at) = self.pending_dispatch.remove(&(*robot, *sensor)) {
                    self.repair_delay.push(t - dispatched_at);
                }
            }
            TraceEvent::PacketDropped { reason, .. } => self.drops.record(*reason),
            TraceEvent::LocUpdateFlooded { .. } => self.loc_update_floods += 1,
            TraceEvent::RobotLegStarted { .. } => self.legs_started += 1,
            TraceEvent::RobotLegEnded { travel, .. } => {
                self.legs_ended += 1;
                self.leg_travel += travel;
            }
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
            TraceEvent::ReportRetried { .. } => self.report_retries += 1,
            TraceEvent::DispatchTimedOut { .. } => self.dispatch_timeouts += 1,
            TraceEvent::RobotDied { .. } => self.robot_deaths += 1,
            TraceEvent::RobotRepaired { .. } => self.robot_repairs += 1,
            TraceEvent::TakeoverAssumed { .. } => self.takeovers += 1,
            TraceEvent::TelemetrySample { .. } => self.telemetry_samples += 1,
            TraceEvent::InvariantViolated { .. } => self.invariant_violations += 1,
        }
    }

    /// Figure 2's number: average travel per replaced failure (0.0 when
    /// no replacements) — bit-identical to
    /// `Summary::avg_travel_per_failure` for a complete trace.
    pub fn avg_travel_per_failure(&self) -> f64 {
        mean_f64(&self.travel_per_task).unwrap_or(0.0)
    }

    /// Figure 3's number: average report hops (0.0 when no reports) —
    /// bit-identical to `Summary::avg_report_hops` for a complete
    /// trace.
    pub fn avg_report_hops(&self) -> f64 {
        mean_u32(&self.report_hops).unwrap_or(0.0)
    }

    /// Mean dispatch→installation delay (0.0 when no replacements
    /// matched a dispatch).
    pub fn avg_repair_delay(&self) -> f64 {
        mean_f64(&self.repair_delay).unwrap_or(0.0)
    }

    /// Fleet travel: the metres of every ended leg, the run's `fleet
    /// travel` (the sum of the robot odometers). A leg a breakdown, a
    /// slowdown or attrition cuts short ends too, with the metres
    /// actually driven, as its odometer credit; only legs still under
    /// way at the horizon are in neither figure.
    pub fn total_travel(&self) -> f64 {
        self.leg_travel
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::sink::event_to_jsonl;
    use crate::trace::DropReason;
    use robonet_geom::Point;

    fn jsonl(events: &[TraceEvent]) -> String {
        let mut out = String::new();
        for e in events {
            out.push_str(&event_to_jsonl(e));
            out.push('\n');
        }
        out
    }

    #[test]
    fn aggregates_a_repair_story() {
        let events = vec![
            TraceEvent::Failure {
                t: 1.0,
                sensor: NodeId::new(5),
            },
            TraceEvent::Detected {
                t: 2.0,
                guardian: NodeId::new(3),
                failed: NodeId::new(5),
            },
            TraceEvent::ReportDelivered {
                t: 2.5,
                manager: NodeId::new(200),
                failed: NodeId::new(5),
                hops: 3,
            },
            TraceEvent::Dispatched {
                t: 2.5,
                robot: NodeId::new(200),
                failed: NodeId::new(5),
                departed: true,
            },
            TraceEvent::ReportDelivered {
                t: 3.0,
                manager: NodeId::new(200),
                failed: NodeId::new(6),
                hops: 5,
            },
            TraceEvent::RobotLegEnded {
                t: 62.5,
                robot: NodeId::new(200),
                travel: 100.0,
            },
            TraceEvent::Replaced {
                t: 62.5,
                robot: NodeId::new(200),
                sensor: NodeId::new(5),
                travel: 100.0,
                loc: Point::new(1.0, 2.0),
            },
            TraceEvent::PacketDropped {
                t: 70.0,
                at: NodeId::new(9),
                reason: DropReason::MacGiveUp,
            },
            TraceEvent::LocUpdateFlooded {
                t: 71.0,
                robot: NodeId::new(200),
                seq: 1,
            },
        ];
        let agg = TraceAggregate::from_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(agg.events, 9);
        assert_eq!(agg.failures, 1);
        assert_eq!(agg.detections, 1);
        assert_eq!(agg.reports_delivered, 2);
        assert_eq!(agg.dispatches, 1);
        assert_eq!(agg.replacements, 1);
        assert_eq!(agg.avg_travel_per_failure(), 100.0);
        assert_eq!(agg.avg_report_hops(), 4.0);
        assert_eq!(agg.repair_delay, vec![60.0]);
        assert_eq!(agg.avg_repair_delay(), 60.0);
        assert_eq!(agg.drops.mac_give_up, 1);
        assert_eq!(agg.drops.total(), 1);
        assert_eq!(agg.loc_update_floods, 1);
        assert_eq!(agg.total_travel(), 100.0);
    }

    #[test]
    fn delays_pair_with_the_installing_robots_dispatch() {
        // Robot 201's order stalls and robot 200 is sent instead; then
        // the same sensor fails, is replaced, and fails again. Each
        // delay runs from the dispatch that gave the installer its task.
        let events = vec![
            TraceEvent::Dispatched {
                t: 5.0,
                robot: NodeId::new(201),
                failed: NodeId::new(5),
                departed: true,
            },
            TraceEvent::Dispatched {
                t: 10.0,
                robot: NodeId::new(200),
                failed: NodeId::new(5),
                departed: true,
            },
            TraceEvent::Replaced {
                t: 15.0,
                robot: NodeId::new(200),
                sensor: NodeId::new(5),
                travel: 10.0,
                loc: Point::new(0.0, 0.0),
            },
            TraceEvent::Dispatched {
                t: 100.0,
                robot: NodeId::new(200),
                failed: NodeId::new(5),
                departed: true,
            },
            TraceEvent::Replaced {
                t: 108.0,
                robot: NodeId::new(200),
                sensor: NodeId::new(5),
                travel: 10.0,
                loc: Point::new(0.0, 0.0),
            },
        ];
        let agg = TraceAggregate::from_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(agg.repair_delay, vec![5.0, 8.0]);
    }

    #[test]
    fn fleet_travel_counts_legs_that_end_in_no_replacement() {
        // A stalled order is redispatched: robot 201 drives a leg and
        // turns back without installing, robot 200 does the repair.
        // Fleet travel is every metre driven; Figure 2's samples are
        // the replacements' legs only.
        let events = vec![
            TraceEvent::RobotLegEnded {
                t: 20.0,
                robot: NodeId::new(201),
                travel: 30.0,
            },
            TraceEvent::RobotLegEnded {
                t: 40.0,
                robot: NodeId::new(200),
                travel: 12.5,
            },
            TraceEvent::Replaced {
                t: 40.0,
                robot: NodeId::new(200),
                sensor: NodeId::new(5),
                travel: 12.5,
                loc: Point::new(0.0, 0.0),
            },
        ];
        let agg = TraceAggregate::from_jsonl(&jsonl(&events)).unwrap();
        assert_eq!(agg.legs_ended, 2);
        assert_eq!(agg.total_travel(), 42.5);
        assert_eq!(agg.avg_travel_per_failure(), 12.5);
    }

    #[test]
    fn blank_lines_are_tolerated_bad_lines_are_located() {
        let good = jsonl(&[TraceEvent::Failure {
            t: 1.0,
            sensor: NodeId::new(5),
        }]);
        let text = format!("{good}\n\n{good}");
        let agg = TraceAggregate::from_jsonl(&text).unwrap();
        assert_eq!(agg.failures, 2);

        let broken = format!("{good}{{\"ev\":\"nope\",\"t\":0.0}}\n");
        let err = TraceAggregate::from_jsonl(&broken).unwrap_err();
        assert!(err.starts_with("line 2:"), "error was: {err}");
    }

    #[test]
    fn versioned_header_is_accepted_unknown_versions_rejected() {
        use crate::obs::sink::trace_header;
        let good = jsonl(&[TraceEvent::Failure {
            t: 1.0,
            sensor: NodeId::new(5),
        }]);
        let text = format!("{}\n{good}", trace_header());
        let agg = TraceAggregate::from_jsonl(&text).unwrap();
        assert_eq!(agg.failures, 1);
        assert_eq!(agg.events, 1, "the header is not an event");

        let future = format!("{{\"schema\":\"robonet-trace\",\"schema_version\":2}}\n{good}");
        let err = TraceAggregate::from_jsonl(&future).unwrap_err();
        assert!(err.contains("schema_version 2"), "error was: {err}");
    }

    #[test]
    fn empty_artifact_aggregates_to_zeroes() {
        let agg = TraceAggregate::from_jsonl("").unwrap();
        assert_eq!(agg.events, 0);
        assert_eq!(agg.avg_travel_per_failure(), 0.0);
        assert_eq!(agg.avg_report_hops(), 0.0);
        assert_eq!(agg.avg_repair_delay(), 0.0);
    }
}
