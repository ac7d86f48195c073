//! Structured event tracing.
//!
//! The *protocol-level* story of a run — failures, detections,
//! dispatches, replacements — as typed events. Runs emit them into an
//! [`EventSink`](crate::obs::EventSink); a
//! [`RingSink`](crate::obs::RingSink) keeps the last few in memory for
//! debugging and storyline output in tools.

use robonet_des::NodeId;
use robonet_geom::Point;

/// Why a packet never reached its destination.
///
/// Extends the network layer's routing-only reasons with the MAC-level
/// give-up (retries exhausted), so drop accounting covers every loss
/// site in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Hop budget exhausted (stale locations or a perimeter loop).
    TtlExpired,
    /// A node on the path had no usable neighbours.
    NoNeighbors,
    /// The MAC gave up after exhausting retransmission attempts.
    MacGiveUp,
}

impl DropReason {
    /// Stable snake_case label used in JSONL artifacts and counter names.
    pub fn label(self) -> &'static str {
        match self {
            DropReason::TtlExpired => "ttl_expired",
            DropReason::NoNeighbors => "no_neighbors",
            DropReason::MacGiveUp => "mac_give_up",
        }
    }

    /// Parses a [`DropReason::label`] back (for artifact ingestion).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "ttl_expired" => Some(DropReason::TtlExpired),
            "no_neighbors" => Some(DropReason::NoNeighbors),
            "mac_give_up" => Some(DropReason::MacGiveUp),
            _ => None,
        }
    }
}

impl From<robonet_net::DropReason> for DropReason {
    fn from(r: robonet_net::DropReason) -> Self {
        match r {
            robonet_net::DropReason::TtlExpired => DropReason::TtlExpired,
            robonet_net::DropReason::NoNeighbors => DropReason::NoNeighbors,
        }
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One protocol-level event.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A sensor's lifetime expired.
    Failure {
        /// Simulated time in seconds.
        t: f64,
        /// The failed sensor.
        sensor: NodeId,
    },
    /// A guardian noticed a silent guardee and originated a report.
    Detected {
        /// Simulated time in seconds.
        t: f64,
        /// The detecting guardian.
        guardian: NodeId,
        /// The failed node being reported.
        failed: NodeId,
    },
    /// A failure report reached its manager (robot or central manager).
    ReportDelivered {
        /// Simulated time in seconds.
        t: f64,
        /// Who received it.
        manager: NodeId,
        /// The failed node.
        failed: NodeId,
        /// Hops the report travelled.
        hops: u32,
    },
    /// A robot accepted a replacement task.
    Dispatched {
        /// Simulated time in seconds.
        t: f64,
        /// The maintainer robot.
        robot: NodeId,
        /// The failed node.
        failed: NodeId,
        /// `true` if the robot departed immediately (it was idle).
        departed: bool,
    },
    /// A robot installed a replacement.
    Replaced {
        /// Simulated time in seconds.
        t: f64,
        /// The maintainer robot.
        robot: NodeId,
        /// The revived sensor.
        sensor: NodeId,
        /// Metres driven for this task's final leg.
        travel: f64,
        /// Where the installation happened.
        loc: Point,
    },
    /// A packet was lost in flight (routing dead end or MAC give-up).
    PacketDropped {
        /// Simulated time in seconds.
        t: f64,
        /// The node holding the packet when it was dropped.
        at: NodeId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A robot flooded a location update through its subarea (§3.2).
    LocUpdateFlooded {
        /// Simulated time in seconds.
        t: f64,
        /// The announcing robot.
        robot: NodeId,
        /// The update's dedup sequence number.
        seq: u64,
    },
    /// A robot started driving one leg of a replacement task.
    RobotLegStarted {
        /// Simulated time in seconds.
        t: f64,
        /// The maintainer robot.
        robot: NodeId,
        /// The failed node this leg serves.
        failed: NodeId,
        /// Departure point.
        from: Point,
        /// Destination point.
        to: Point,
    },
    /// A robot finished a leg (arrived at its destination).
    RobotLegEnded {
        /// Simulated time in seconds.
        t: f64,
        /// The maintainer robot.
        robot: NodeId,
        /// Metres driven on this leg.
        travel: f64,
    },
    /// The fault injector fired: a message was dropped at origin or a
    /// robot degraded.
    FaultInjected {
        /// Simulated time in seconds.
        t: f64,
        /// What was injected.
        kind: crate::fault::FaultKind,
        /// The node the fault hit (sender of the lost message, or the
        /// degraded robot).
        node: NodeId,
    },
    /// A guardian re-sent a failure report after its retry window
    /// expired without the guardee recovering.
    ReportRetried {
        /// Simulated time in seconds.
        t: f64,
        /// The retrying guardian.
        guardian: NodeId,
        /// The failed node being re-reported.
        failed: NodeId,
        /// Attempt number (2 = first retry).
        attempt: u32,
    },
    /// The manager's dispatch timed out without evidence the robot took
    /// the job; it is re-dispatching.
    DispatchTimedOut {
        /// Simulated time in seconds.
        t: f64,
        /// The failed node whose repair stalled.
        failed: NodeId,
        /// The dispatch attempt that timed out (1 = original).
        attempt: u32,
    },
    /// A robot broke down and went silent.
    RobotDied {
        /// Simulated time in seconds.
        t: f64,
        /// The broken robot.
        robot: NodeId,
    },
    /// A broken robot finished its in-place repair and rejoined.
    RobotRepaired {
        /// Simulated time in seconds.
        t: f64,
        /// The repaired robot.
        robot: NodeId,
    },
    /// A live robot presumed a silent peer dead and announced itself to
    /// the peer's subarea.
    TakeoverAssumed {
        /// Simulated time in seconds.
        t: f64,
        /// The robot taking over.
        robot: NodeId,
        /// The presumed-dead peer.
        dead: NodeId,
        /// Subarea tag of the takeover flood (`u32::MAX` = unscoped).
        subarea: u32,
    },
    /// A periodic telemetry snapshot from the live sampler (only
    /// present when the run enables `sample_every`).
    TelemetrySample {
        /// Simulated time in seconds.
        t: f64,
        /// The gauges captured at this instant.
        sample: crate::obs::timeline::TelemetrySnapshot,
    },
    /// The online health monitor caught a conservation invariant out of
    /// balance — the simulation and its event ledger disagree.
    InvariantViolated {
        /// Simulated time in seconds.
        t: f64,
        /// Which invariant failed.
        invariant: crate::obs::timeline::Invariant,
        /// The value the ledger predicts.
        expected: u64,
        /// The value the simulation reports.
        actual: u64,
    },
}

impl TraceEvent {
    /// Event time in seconds.
    pub fn time(&self) -> f64 {
        match self {
            TraceEvent::Failure { t, .. }
            | TraceEvent::Detected { t, .. }
            | TraceEvent::ReportDelivered { t, .. }
            | TraceEvent::Dispatched { t, .. }
            | TraceEvent::Replaced { t, .. }
            | TraceEvent::PacketDropped { t, .. }
            | TraceEvent::LocUpdateFlooded { t, .. }
            | TraceEvent::RobotLegStarted { t, .. }
            | TraceEvent::RobotLegEnded { t, .. }
            | TraceEvent::FaultInjected { t, .. }
            | TraceEvent::ReportRetried { t, .. }
            | TraceEvent::DispatchTimedOut { t, .. }
            | TraceEvent::RobotDied { t, .. }
            | TraceEvent::RobotRepaired { t, .. }
            | TraceEvent::TakeoverAssumed { t, .. }
            | TraceEvent::TelemetrySample { t, .. }
            | TraceEvent::InvariantViolated { t, .. } => *t,
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::Failure { t, sensor } => write!(f, "[{t:9.1}s] {sensor} failed"),
            TraceEvent::Detected {
                t,
                guardian,
                failed,
            } => {
                write!(f, "[{t:9.1}s] {guardian} detected silence of {failed}")
            }
            TraceEvent::ReportDelivered {
                t,
                manager,
                failed,
                hops,
            } => {
                write!(
                    f,
                    "[{t:9.1}s] report of {failed} reached {manager} in {hops} hops"
                )
            }
            TraceEvent::Dispatched {
                t,
                robot,
                failed,
                departed,
            } => write!(
                f,
                "[{t:9.1}s] {robot} tasked with {failed}{}",
                if *departed { ", departing" } else { ", queued" }
            ),
            TraceEvent::Replaced {
                t,
                robot,
                sensor,
                travel,
                loc,
            } => {
                write!(
                    f,
                    "[{t:9.1}s] {robot} replaced {sensor} at {loc} after {travel:.0} m"
                )
            }
            TraceEvent::PacketDropped { t, at, reason } => {
                write!(f, "[{t:9.1}s] packet dropped at {at} ({reason})")
            }
            TraceEvent::LocUpdateFlooded { t, robot, seq } => {
                write!(f, "[{t:9.1}s] {robot} flooded location update #{seq}")
            }
            TraceEvent::RobotLegStarted {
                t,
                robot,
                failed,
                from,
                to,
            } => {
                write!(f, "[{t:9.1}s] {robot} departs {from} -> {to} for {failed}")
            }
            TraceEvent::RobotLegEnded { t, robot, travel } => {
                write!(f, "[{t:9.1}s] {robot} arrived after {travel:.0} m")
            }
            TraceEvent::FaultInjected { t, kind, node } => {
                write!(f, "[{t:9.1}s] fault injected at {node}: {kind}")
            }
            TraceEvent::ReportRetried {
                t,
                guardian,
                failed,
                attempt,
            } => write!(
                f,
                "[{t:9.1}s] {guardian} re-reported {failed} (attempt {attempt})"
            ),
            TraceEvent::DispatchTimedOut { t, failed, attempt } => write!(
                f,
                "[{t:9.1}s] dispatch for {failed} timed out (attempt {attempt})"
            ),
            TraceEvent::RobotDied { t, robot } => {
                write!(f, "[{t:9.1}s] {robot} broke down")
            }
            TraceEvent::RobotRepaired { t, robot } => {
                write!(f, "[{t:9.1}s] {robot} repaired and back in service")
            }
            TraceEvent::TakeoverAssumed {
                t,
                robot,
                dead,
                subarea,
            } => {
                if *subarea == u32::MAX {
                    write!(f, "[{t:9.1}s] {robot} assumed takeover from {dead}")
                } else {
                    write!(
                        f,
                        "[{t:9.1}s] {robot} assumed takeover of subarea {subarea} from {dead}"
                    )
                }
            }
            TraceEvent::TelemetrySample { t, sample } => {
                write!(
                    f,
                    "[{t:9.1}s] telemetry: {} alive, {} down, {} open, coverage {:.3}",
                    sample.alive,
                    sample.down,
                    sample.open_total(),
                    sample.coverage
                )
            }
            TraceEvent::InvariantViolated {
                t,
                invariant,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "[{t:9.1}s] INVARIANT VIOLATED: {invariant} expected {expected}, got {actual}"
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_labels_round_trip() {
        for reason in [
            DropReason::TtlExpired,
            DropReason::NoNeighbors,
            DropReason::MacGiveUp,
        ] {
            assert_eq!(DropReason::from_label(reason.label()), Some(reason));
        }
        assert_eq!(DropReason::from_label("cosmic_rays"), None);
    }

    #[test]
    fn display_is_readable() {
        let text = TraceEvent::Replaced {
            t: 123.456,
            robot: NodeId::new(200),
            sensor: NodeId::new(7),
            travel: 88.2,
            loc: Point::new(10.0, 20.0),
        }
        .to_string();
        assert!(text.contains("n200"));
        assert!(text.contains("replaced n7"));
        assert!(text.contains("88 m"));
    }
}
