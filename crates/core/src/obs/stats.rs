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

use robonet_des::NodeId;

use crate::metrics::{mean_f64, mean_u32};
use crate::trace::{DropReason, TraceEvent};

use super::sink::{for_each_event_line, TruncatedTail};

/// Per-reason drop tallies reconstructed from `packet_dropped` events.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropCounts {
    /// Hop budget exhausted.
    pub ttl_expired: u64,
    /// No usable neighbour on the path.
    pub no_neighbors: u64,
    /// MAC retries exhausted.
    pub mac_give_up: u64,
}

impl DropCounts {
    /// Sum over all reasons.
    pub fn total(&self) -> u64 {
        self.ttl_expired + self.no_neighbors + self.mac_give_up
    }

    /// Increments the tally for `reason`.
    pub fn record(&mut self, reason: DropReason) {
        match reason {
            DropReason::TtlExpired => self.ttl_expired += 1,
            DropReason::NoNeighbors => self.no_neighbors += 1,
            DropReason::MacGiveUp => self.mac_give_up += 1,
        }
    }
}

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
    /// Packet drops by reason.
    pub drops: DropCounts,
    /// `loc_update_flooded` events seen.
    pub loc_update_floods: u64,
    /// `robot_leg_started` events seen.
    pub legs_started: u64,
    /// `robot_leg_ended` events seen.
    pub legs_ended: u64,
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
    /// Present when the artifact ended mid-record (crashed or
    /// still-writing producer); the aggregate covers the complete
    /// prefix.
    pub truncated: Option<TruncatedTail>,
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
        let mut pending_dispatch: HashMap<(NodeId, NodeId), f64> = HashMap::new();
        let tail = for_each_event_line(text, |event| agg.ingest(event, &mut pending_dispatch))?;
        agg.truncated = tail;
        Ok(agg)
    }

    /// `pending` holds, per `(robot, sensor)`, the time of the dispatch
    /// that robot's task for the sensor dates from: a robot holds one
    /// task per sensor, so a later dispatch to it replaces the earlier.
    fn ingest(&mut self, event: &TraceEvent, pending: &mut HashMap<(NodeId, NodeId), f64>) {
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
                pending.insert((*robot, *failed), *t);
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
                if let Some(dispatched_at) = pending.remove(&(*robot, *sensor)) {
                    self.repair_delay.push(t - dispatched_at);
                }
            }
            TraceEvent::PacketDropped { reason, .. } => self.drops.record(*reason),
            TraceEvent::LocUpdateFlooded { .. } => self.loc_update_floods += 1,
            TraceEvent::RobotLegStarted { .. } => self.legs_started += 1,
            TraceEvent::RobotLegEnded { .. } => self.legs_ended += 1,
            TraceEvent::FaultInjected { .. } => self.faults_injected += 1,
            TraceEvent::ReportRetried { .. } => self.report_retries += 1,
            TraceEvent::DispatchTimedOut { .. } => self.dispatch_timeouts += 1,
            TraceEvent::RobotDied { .. } => self.robot_deaths += 1,
            TraceEvent::RobotRepaired { .. } => self.robot_repairs += 1,
            TraceEvent::TakeoverAssumed { .. } => self.takeovers += 1,
            // Telemetry is a view of the run, not part of it — the
            // aggregate counts protocol work, so samples and health
            // verdicts only bump the total event count above.
            TraceEvent::TelemetrySample { .. } | TraceEvent::InvariantViolated { .. } => {}
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

    /// Total metres of completed legs.
    pub fn total_travel(&self) -> f64 {
        self.travel_per_task.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::sink::event_to_jsonl;
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
        assert_eq!(agg.events, 8);
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
