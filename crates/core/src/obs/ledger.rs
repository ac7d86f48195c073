//! The repair ledger: matching lifecycle events to open failures.
//!
//! A repair runs failure → detection → report → dispatch → replacement,
//! and each of those trace events belongs to one open failure. Span
//! assembly and trace replay each hold a [`RepairLedger`] fed the same
//! events; a live run's telemetry `open_*` gauges and health check read
//! its span assembler's. So open repairs by milestone mean one thing in
//! `robonet spans`, `robonet replay` and the live run. Per sensor, over
//! a FIFO of
//! [`OpenRepair`]s:
//!
//! - `failure` opens a repair at the back of the queue;
//! - `detected`, `report_delivered` and `dispatched` stamp the earliest
//!   open repair still lacking that milestone and never overwrite a
//!   stamp, so retries and duplicates change nothing and no repair's
//!   milestone moves backwards;
//! - a `dispatched` when every open repair is already dispatched is a
//!   redispatch (the recovery protocol re-sending a stalled repair);
//! - an event for a sensor with no open repair is unmatched;
//! - `replaced` closes the front repair and hands it back.

use std::collections::{HashMap, VecDeque};

use crate::trace::TraceEvent;

/// A repair-lifecycle milestone, in causal order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Milestone {
    /// The sensor failed.
    Failure,
    /// A guardian detected the failure.
    Detected,
    /// The failure report reached a manager.
    ReportDelivered,
    /// A robot was dispatched.
    Dispatched,
}

impl Milestone {
    /// The trace event name that marks this milestone.
    pub fn label(self) -> &'static str {
        match self {
            Milestone::Failure => "failure",
            Milestone::Detected => "detected",
            Milestone::ReportDelivered => "report_delivered",
            Milestone::Dispatched => "dispatched",
        }
    }
}

/// One failure not yet replaced: when it first reached each milestone.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenRepair {
    /// When the sensor failed.
    pub failed_at: f64,
    /// First guardian detection.
    pub detected_at: Option<f64>,
    /// First report delivery.
    pub report_at: Option<f64>,
    /// First dispatch.
    pub dispatched_at: Option<f64>,
}

impl OpenRepair {
    /// The furthest milestone stamped.
    pub fn reached(&self) -> Milestone {
        if self.dispatched_at.is_some() {
            Milestone::Dispatched
        } else if self.report_at.is_some() {
            Milestone::ReportDelivered
        } else if self.detected_at.is_some() {
            Milestone::Detected
        } else {
            Milestone::Failure
        }
    }
}

/// The per-sensor FIFO of open repairs (see the module docs for the
/// matching policy).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepairLedger {
    // Hashed, not ordered: a flow-engine trace fails tens of thousands
    // of sensors, and only `open_repairs` needs sensor order. An
    // emptied queue stays allocated for the sensor's next failure.
    open: HashMap<u32, VecDeque<OpenRepair>>,
    /// Events that matched no open repair (a `replaced`, `detected`,
    /// `report_delivered` or `dispatched` for a sensor with none).
    pub unmatched: u64,
    /// Dispatches for a sensor whose open repairs were all dispatched.
    pub redispatches: u64,
}

impl RepairLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one event (those outside the repair lifecycle are
    /// ignored). Returns the closed repair when `event` is a `replaced`
    /// that matched one.
    pub fn apply(&mut self, event: &TraceEvent) -> Option<OpenRepair> {
        type Stamp = fn(&mut OpenRepair) -> &mut Option<f64>;
        let (sensor, t, stamp): (_, _, Stamp) = match *event {
            TraceEvent::Failure { t, sensor } => {
                let repair = OpenRepair {
                    failed_at: t,
                    ..OpenRepair::default()
                };
                self.open
                    .entry(sensor.as_u32())
                    .or_default()
                    .push_back(repair);
                return None;
            }
            TraceEvent::Detected { t, failed, .. } => (failed, t, |r| &mut r.detected_at),
            TraceEvent::ReportDelivered { t, failed, .. } => (failed, t, |r| &mut r.report_at),
            TraceEvent::Dispatched { t, failed, .. } => (failed, t, |r| &mut r.dispatched_at),
            TraceEvent::Replaced { sensor, .. } => {
                let closed = self
                    .open
                    .get_mut(&sensor.as_u32())
                    .and_then(VecDeque::pop_front);
                if closed.is_none() {
                    self.unmatched += 1;
                }
                return closed;
            }
            _ => return None,
        };
        match self.open.get_mut(&sensor.as_u32()) {
            Some(queue) if !queue.is_empty() => {
                match queue.iter_mut().map(stamp).find(|at| at.is_none()) {
                    Some(at) => *at = Some(t),
                    None if matches!(event, TraceEvent::Dispatched { .. }) => {
                        self.redispatches += 1;
                    }
                    None => {}
                }
            }
            _ => self.unmatched += 1,
        }
        None
    }

    /// Open repairs across all sensors.
    pub fn open_count(&self) -> usize {
        self.open.values().map(VecDeque::len).sum()
    }

    /// Open repairs by furthest milestone, indexed by `Milestone as
    /// usize` (failure, detected, report delivered, dispatched).
    pub fn stage_counts(&self) -> [u32; 4] {
        let mut counts = [0u32; 4];
        for repair in self.open.values().flatten() {
            counts[repair.reached() as usize] += 1;
        }
        counts
    }

    /// Open repairs in sensor-id order (FIFO within a sensor).
    pub fn open_repairs(&self) -> impl Iterator<Item = (u32, &OpenRepair)> {
        let mut ids: Vec<u32> = self.open.keys().copied().collect();
        ids.sort_unstable();
        ids.into_iter()
            .flat_map(move |id| self.open[&id].iter().map(move |r| (id, r)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_des::NodeId;
    use robonet_geom::Point;

    const S: NodeId = NodeId::new(4);

    fn failure(t: f64) -> TraceEvent {
        TraceEvent::Failure { t, sensor: S }
    }

    fn detected(t: f64) -> TraceEvent {
        TraceEvent::Detected {
            t,
            guardian: NodeId::new(1),
            failed: S,
        }
    }

    fn dispatched(t: f64) -> TraceEvent {
        TraceEvent::Dispatched {
            t,
            robot: NodeId::new(100),
            failed: S,
            departed: true,
        }
    }

    fn replaced(t: f64) -> TraceEvent {
        TraceEvent::Replaced {
            t,
            robot: NodeId::new(100),
            sensor: S,
            travel: 1.0,
            loc: Point::new(0.0, 0.0),
        }
    }

    #[test]
    fn labels_are_the_trace_event_names() {
        let all = [
            Milestone::Failure,
            Milestone::Detected,
            Milestone::ReportDelivered,
            Milestone::Dispatched,
        ];
        let labels: Vec<_> = all.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            ["failure", "detected", "report_delivered", "dispatched"]
        );
    }

    #[test]
    fn stamps_go_to_the_earliest_repair_lacking_them() {
        let mut ledger = RepairLedger::new();
        for ev in [failure(1.0), detected(2.0), failure(3.0), detected(4.0)] {
            ledger.apply(&ev);
        }
        assert_eq!(ledger.stage_counts(), [0, 2, 0, 0]);
        ledger.apply(&dispatched(5.0));
        ledger.apply(&dispatched(6.0));
        ledger.apply(&dispatched(7.0));
        assert_eq!(ledger.stage_counts(), [0, 0, 0, 2]);
        assert_eq!(ledger.redispatches, 1);
        let closed = ledger.apply(&replaced(8.0)).unwrap();
        assert_eq!((closed.failed_at, closed.dispatched_at), (1.0, Some(5.0)));
        assert_eq!(ledger.open_count(), 1);
    }

    #[test]
    fn events_without_an_open_repair_are_unmatched() {
        let mut ledger = RepairLedger::new();
        assert_eq!(ledger.apply(&replaced(1.0)), None);
        ledger.apply(&detected(2.0));
        ledger.apply(&failure(3.0));
        assert!(ledger.apply(&replaced(4.0)).is_some());
        ledger.apply(&dispatched(5.0));
        assert_eq!(ledger.unmatched, 3);
        assert_eq!(ledger.redispatches, 0);
        assert_eq!(ledger.open_count(), 0);
    }
}
