//! Causal repair-lifecycle spans: per-failure latency decomposition.
//!
//! The paper evaluates *overheads* (travel metres, hops); the quantity
//! a maintained network actually feels is **dead time** — how long a
//! coverage hole exists between a sensor's failure and its replacement.
//! This module correlates the loose event stream
//! (`failure` → `detected` → `report_delivered` → `dispatched` →
//! `robot_leg_ended` → `replaced`) into one [`RepairSpan`] per repaired
//! failure, decomposed into causal stages:
//!
//! | stage | interval | meaning |
//! |---|---|---|
//! | `detection` | failure → detected | guardian timeout + probe |
//! | `report_transit` | detected → report_delivered | multi-hop report |
//! | `dispatch_decision` | report_delivered → dispatched | manager decision (incl. centralized's request transit) |
//! | `travel` | dispatched → final leg end | queue wait + robot motion |
//! | `install` | final leg end → replaced | installation (0 in this model) |
//!
//! The stages sum to the end-to-end dead time ([`RepairSpan::total`]).
//! Each stage is an `Option`: the flow-level simulator emits no
//! `detected`/`report_delivered` events, so its spans carry only the
//! stages its event stream supports.
//!
//! The [`SpanAssembler`] is usable **online** (tee the live event
//! stream through a [`SpanSink`], or let the harness feed its internal
//! assembler) and **offline** ([`SpanAssembler::from_jsonl`] over a
//! trace artifact); both paths share one `ingest` and produce
//! byte-identical tables for the same events. Anomalies — failures
//! never repaired, events that match no open span, out-of-order
//! timestamps — are flagged on the [`SpanReport`], never panicked on.

use std::collections::HashMap;

use robonet_des::NodeId;

use crate::trace::TraceEvent;

use super::ledger::{Milestone, OpenRepair, RepairLedger};
use super::quantile::QuantileSketch;
use super::sink::{for_each_event_line, TruncatedTail};

/// One causal stage of a repair lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Failure → guardian detection.
    Detection,
    /// Detection → report reaches a manager.
    ReportTransit,
    /// Report delivery → robot dispatched (for the centralized
    /// algorithm this includes the manager→robot request transit).
    DispatchDecision,
    /// Dispatch → the serving robot's final leg ends (includes queue
    /// wait while the robot finishes earlier tasks).
    Travel,
    /// Final leg end → replacement recorded (0 in the current model;
    /// reserved for a future installation-time model).
    Install,
}

impl Stage {
    /// Every stage, in causal (and report) order.
    pub const ALL: [Stage; 5] = [
        Stage::Detection,
        Stage::ReportTransit,
        Stage::DispatchDecision,
        Stage::Travel,
        Stage::Install,
    ];

    /// Snake_case stage name used in reports and CSV.
    pub fn label(self) -> &'static str {
        match self {
            Stage::Detection => "detection",
            Stage::ReportTransit => "report_transit",
            Stage::DispatchDecision => "dispatch_decision",
            Stage::Travel => "travel",
            Stage::Install => "install",
        }
    }

    /// Registry subsystem for this stage's gauges (`span.<stage>`).
    pub fn subsystem(self) -> &'static str {
        match self {
            Stage::Detection => "span.detection",
            Stage::ReportTransit => "span.report_transit",
            Stage::DispatchDecision => "span.dispatch_decision",
            Stage::Travel => "span.travel",
            Stage::Install => "span.install",
        }
    }
}

/// One repaired failure's decomposed latency. All durations in sim
/// seconds; a `None` stage means the trace carried no event for it.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairSpan {
    /// The failed (and replaced) sensor.
    pub sensor: NodeId,
    /// The robot that performed the replacement.
    pub robot: NodeId,
    /// When the sensor failed.
    pub failed_at: f64,
    /// When the replacement completed.
    pub replaced_at: f64,
    /// Failure → detection.
    pub detection: Option<f64>,
    /// Detection → report delivered.
    pub report_transit: Option<f64>,
    /// Report delivered → dispatched.
    pub dispatch_decision: Option<f64>,
    /// Dispatched → final leg end.
    pub travel: Option<f64>,
    /// Final leg end → replaced.
    pub install: Option<f64>,
}

impl RepairSpan {
    /// End-to-end dead time: failure → replacement.
    pub fn total(&self) -> f64 {
        self.replaced_at - self.failed_at
    }

    /// Duration of `stage`, if the trace carried its events.
    pub fn stage(&self, stage: Stage) -> Option<f64> {
        match stage {
            Stage::Detection => self.detection,
            Stage::ReportTransit => self.report_transit,
            Stage::DispatchDecision => self.dispatch_decision,
            Stage::Travel => self.travel,
            Stage::Install => self.install,
        }
    }
}

/// A failure that never closed: no `replaced` event arrived before the
/// trace ended.
#[derive(Debug, Clone, PartialEq)]
pub struct OrphanSpan {
    /// The sensor that failed.
    pub sensor: NodeId,
    /// When it failed.
    pub failed_at: f64,
    /// The furthest lifecycle milestone the failure reached.
    pub reached: Milestone,
}

/// Correlates a stream of [`TraceEvent`]s into [`RepairSpan`]s.
///
/// Feed it events in trace order via [`ingest`](Self::ingest) (or use
/// it as an [`EventSink`](super::EventSink) through [`SpanSink`]), then
/// call [`finish`](Self::finish) for the [`SpanReport`]. Every output
/// ordering is deterministic: closed spans appear in replacement
/// order, orphans sorted by `(failed_at, sensor)` — hash-map iteration
/// never reaches the report.
#[derive(Debug, Default)]
pub struct SpanAssembler {
    ledger: RepairLedger,
    last_leg_end: HashMap<NodeId, f64>,
    closed: Vec<RepairSpan>,
    failures: u64,
    out_of_order: u64,
    stage_sketches: [QuantileSketch; 5],
    total_sketch: QuantileSketch,
}

impl SpanAssembler {
    /// Creates an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// The open-repair ledger (failed, not yet replaced).
    pub fn ledger(&self) -> &RepairLedger {
        &self.ledger
    }

    /// Number of spans closed so far.
    pub fn closed_count(&self) -> usize {
        self.closed.len()
    }

    /// Consumes one event. Never panics on malformed streams: events
    /// that match no open span count as unmatched, negative stage
    /// intervals bump `out_of_order` and drop that stage to `None`.
    pub fn ingest(&mut self, event: &TraceEvent) {
        let closed = self.ledger.apply(event);
        match event {
            TraceEvent::Failure { .. } => self.failures += 1,
            TraceEvent::RobotLegEnded { t, robot, .. } => {
                self.last_leg_end.insert(*robot, *t);
            }
            TraceEvent::Replaced {
                t, robot, sensor, ..
            } => {
                if let Some(span) = closed {
                    self.close(span, *sensor, *t, *robot);
                }
            }
            _ => {}
        }
    }

    fn close(&mut self, span: OpenRepair, sensor: NodeId, replaced_at: f64, robot: NodeId) {
        // The serving robot's final leg ends at the replacement instant;
        // accept its recorded leg end only if it falls inside the span
        // (a stale end from an earlier task must not leak in).
        let leg_end = self
            .last_leg_end
            .get(&robot)
            .copied()
            .filter(|&e| e >= span.failed_at && e <= replaced_at)
            .unwrap_or(replaced_at);
        let detection = self.interval(Some(span.failed_at), span.detected_at);
        let report_transit = self.interval(span.detected_at, span.report_at);
        let dispatch_decision = self.interval(span.report_at, span.dispatched_at);
        let travel = self.interval(span.dispatched_at, Some(leg_end));
        let install = self.interval(Some(leg_end), Some(replaced_at));
        let closed = RepairSpan {
            sensor,
            robot,
            failed_at: span.failed_at,
            replaced_at,
            detection,
            report_transit,
            dispatch_decision,
            travel,
            install,
        };
        for (stage, sketch) in Stage::ALL.iter().zip(self.stage_sketches.iter_mut()) {
            if let Some(d) = closed.stage(*stage) {
                sketch.observe(d);
            }
        }
        self.total_sketch.observe(closed.total());
        self.closed.push(closed);
    }

    /// `to - from` when both ends are known and ordered; a negative
    /// interval marks out-of-order events and yields `None`.
    fn interval(&mut self, from: Option<f64>, to: Option<f64>) -> Option<f64> {
        let d = to? - from?;
        if d < 0.0 {
            self.out_of_order += 1;
            None
        } else {
            Some(d)
        }
    }

    /// Closes the books: remaining open spans become orphans (sorted by
    /// `(failed_at, sensor)` for determinism).
    pub fn finish(self) -> SpanReport {
        let mut orphans: Vec<OrphanSpan> = self
            .ledger
            .open_repairs()
            .map(|(sensor, s)| OrphanSpan {
                sensor: NodeId::new(sensor),
                failed_at: s.failed_at,
                reached: s.reached(),
            })
            .collect();
        orphans.sort_by(|a, b| {
            a.failed_at
                .total_cmp(&b.failed_at)
                .then(a.sensor.as_u32().cmp(&b.sensor.as_u32()))
        });
        SpanReport {
            spans: self.closed,
            orphans,
            failures: self.failures,
            unmatched_events: self.ledger.unmatched,
            out_of_order: self.out_of_order,
            redispatches: self.ledger.redispatches,
            truncated: None,
            stage_sketches: self.stage_sketches,
            total_sketch: self.total_sketch,
        }
    }

    /// Assembles spans offline from a JSONL trace artifact (the
    /// `robonet spans` path). Accepts a versioned header line, skips
    /// blanks, and fails loudly with a 1-based line number on the
    /// first malformed record — exactly like `robonet stats`. An
    /// unterminated final line (crashed or still-writing producer)
    /// sets [`SpanReport::truncated`] instead; the complete prefix is
    /// assembled normally.
    pub fn from_jsonl(text: &str) -> Result<SpanReport, String> {
        let mut assembler = SpanAssembler::new();
        let tail = for_each_event_line(text, |event| assembler.ingest(event))?;
        let mut report = assembler.finish();
        report.truncated = tail;
        Ok(report)
    }
}

/// Everything span assembly learned from one run or trace.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanReport {
    /// Closed spans, in replacement order.
    pub spans: Vec<RepairSpan>,
    /// Failures never repaired, sorted by `(failed_at, sensor)`.
    pub orphans: Vec<OrphanSpan>,
    /// `failure` events seen.
    pub failures: u64,
    /// Events that matched no open span (e.g. a `replaced` with no
    /// preceding `failure`).
    pub unmatched_events: u64,
    /// Stage intervals dropped because their events were out of order.
    pub out_of_order: u64,
    /// Dispatches beyond the first for an already-dispatched failure —
    /// the recovery protocol re-dispatching a stalled repair.
    pub redispatches: u64,
    /// Present when an offline artifact ended mid-record; the report
    /// covers the complete prefix. Always `None` for online assembly.
    pub truncated: Option<TruncatedTail>,
    stage_sketches: [QuantileSketch; 5],
    total_sketch: QuantileSketch,
}

/// One row of the per-stage latency table.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage label (`"detection"` … `"install"`, or `"total"`).
    pub stage: &'static str,
    /// Spans that carried this stage.
    pub count: u64,
    /// Exact mean duration (s).
    pub mean_s: f64,
    /// Median, from the streaming sketch (s).
    pub p50_s: f64,
    /// 95th percentile, from the streaming sketch (s).
    pub p95_s: f64,
    /// 99th percentile, from the streaming sketch (s).
    pub p99_s: f64,
    /// Exact maximum (s).
    pub max_s: f64,
}

impl SpanReport {
    /// Replacements that closed a span.
    pub fn replacements(&self) -> u64 {
        self.spans.len() as u64
    }

    /// The streaming sketch behind one stage's percentiles.
    pub fn stage_sketch(&self, stage: Stage) -> &QuantileSketch {
        let i = Stage::ALL.iter().position(|s| *s == stage).unwrap();
        &self.stage_sketches[i]
    }

    /// The streaming sketch over end-to-end dead time.
    pub fn total_sketch(&self) -> &QuantileSketch {
        &self.total_sketch
    }

    /// Publishes the decomposition into a [`MetricsRegistry`]:
    /// assembly counters under `span.assembler.*` and per-stage
    /// p50/p95/p99 gauges under `span.<stage>.*` (stages with no
    /// observations are omitted).
    ///
    /// [`MetricsRegistry`]: super::MetricsRegistry
    pub fn snapshot_into(&self, registry: &mut super::MetricsRegistry) {
        registry.set("span.assembler", "spans", self.replacements());
        registry.set("span.assembler", "orphans", self.orphans.len() as u64);
        registry.set("span.assembler", "unmatched_events", self.unmatched_events);
        registry.set("span.assembler", "out_of_order", self.out_of_order);
        registry.set("span.assembler", "redispatches", self.redispatches);
        let stages = Stage::ALL
            .iter()
            .map(|s| (s.subsystem(), self.stage_sketch(*s)))
            .chain(std::iter::once(("span.total", &self.total_sketch)));
        for (subsystem, sketch) in stages {
            if sketch.count() == 0 {
                continue;
            }
            registry.set_gauge(subsystem, "p50_s", sketch.quantile(0.50).unwrap_or(0.0));
            registry.set_gauge(subsystem, "p95_s", sketch.quantile(0.95).unwrap_or(0.0));
            registry.set_gauge(subsystem, "p99_s", sketch.quantile(0.99).unwrap_or(0.0));
        }
    }

    /// The latency table: one row per stage in causal order, then a
    /// `total` row. Stages no span carried (count 0) are omitted.
    pub fn stage_rows(&self) -> Vec<StageRow> {
        let mut rows = Vec::with_capacity(6);
        for (stage, sketch) in Stage::ALL.iter().zip(self.stage_sketches.iter()) {
            if let Some(row) = sketch_row(stage.label(), sketch) {
                rows.push(row);
            }
        }
        if let Some(row) = sketch_row("total", &self.total_sketch) {
            rows.push(row);
        }
        rows
    }
}

fn sketch_row(stage: &'static str, sketch: &QuantileSketch) -> Option<StageRow> {
    if sketch.count() == 0 {
        return None;
    }
    Some(StageRow {
        stage,
        count: sketch.count(),
        mean_s: sketch.mean().unwrap_or(0.0),
        p50_s: sketch.quantile(0.50).unwrap_or(0.0),
        p95_s: sketch.quantile(0.95).unwrap_or(0.0),
        p99_s: sketch.quantile(0.99).unwrap_or(0.0),
        max_s: sketch.max().unwrap_or(0.0),
    })
}

/// An [`EventSink`](super::EventSink) adapter: tee the live event
/// stream into span assembly during a run. The flow-level simulator's
/// `run_with_spans` uses it; the packet-level harness keeps its own
/// assembler so spans work even when only a ring sink is attached.
#[derive(Debug, Default)]
pub struct SpanSink {
    assembler: SpanAssembler,
}

impl SpanSink {
    /// Creates a sink with an empty assembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes assembly and yields the report.
    pub fn into_report(self) -> SpanReport {
        self.assembler.finish()
    }
}

impl super::EventSink for SpanSink {
    fn record(&mut self, event: &TraceEvent) {
        self.assembler.ingest(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::DropReason;
    use robonet_geom::Point;

    fn full_story(sensor: u32, offset: f64) -> Vec<TraceEvent> {
        vec![
            TraceEvent::Failure {
                t: offset,
                sensor: NodeId::new(sensor),
            },
            TraceEvent::Detected {
                t: offset + 4.0,
                guardian: NodeId::new(1),
                failed: NodeId::new(sensor),
            },
            TraceEvent::ReportDelivered {
                t: offset + 4.5,
                manager: NodeId::new(200),
                failed: NodeId::new(sensor),
                hops: 2,
            },
            TraceEvent::Dispatched {
                t: offset + 5.0,
                robot: NodeId::new(200),
                failed: NodeId::new(sensor),
                departed: true,
            },
            TraceEvent::RobotLegEnded {
                t: offset + 65.0,
                robot: NodeId::new(200),
                travel: 120.0,
            },
            TraceEvent::Replaced {
                t: offset + 65.0,
                robot: NodeId::new(200),
                sensor: NodeId::new(sensor),
                travel: 120.0,
                loc: Point::new(3.0, 4.0),
            },
        ]
    }

    #[test]
    fn decomposes_a_full_lifecycle() {
        let mut a = SpanAssembler::new();
        for ev in full_story(7, 10.0) {
            a.ingest(&ev);
        }
        let report = a.finish();
        assert_eq!(report.failures, 1);
        assert_eq!(report.replacements(), 1);
        assert!(report.orphans.is_empty());
        assert_eq!(report.unmatched_events, 0);
        let span = &report.spans[0];
        assert_eq!(span.sensor, NodeId::new(7));
        assert_eq!(span.robot, NodeId::new(200));
        assert_eq!(span.detection, Some(4.0));
        assert_eq!(span.report_transit, Some(0.5));
        assert_eq!(span.dispatch_decision, Some(0.5));
        assert_eq!(span.travel, Some(60.0));
        assert_eq!(span.install, Some(0.0));
        assert_eq!(span.total(), 65.0);
        let sum: f64 = Stage::ALL.iter().filter_map(|s| span.stage(*s)).sum();
        assert_eq!(sum, span.total(), "stages sum to end-to-end dead time");
    }

    #[test]
    fn flow_level_stream_yields_travel_only() {
        // fastsim emits no detected/report_delivered events.
        let events = vec![
            TraceEvent::Failure {
                t: 2.0,
                sensor: NodeId::new(9),
            },
            TraceEvent::Dispatched {
                t: 2.0,
                robot: NodeId::new(100),
                failed: NodeId::new(9),
                departed: true,
            },
            TraceEvent::RobotLegEnded {
                t: 42.0,
                robot: NodeId::new(100),
                travel: 80.0,
            },
            TraceEvent::Replaced {
                t: 42.0,
                robot: NodeId::new(100),
                sensor: NodeId::new(9),
                travel: 80.0,
                loc: Point::new(0.0, 0.0),
            },
        ];
        let mut a = SpanAssembler::new();
        for ev in &events {
            a.ingest(ev);
        }
        let report = a.finish();
        let span = &report.spans[0];
        assert_eq!(span.detection, None);
        assert_eq!(span.report_transit, None);
        assert_eq!(span.dispatch_decision, None);
        assert_eq!(span.travel, Some(40.0));
        assert_eq!(span.install, Some(0.0));
        let rows = report.stage_rows();
        let labels: Vec<_> = rows.iter().map(|r| r.stage).collect();
        assert_eq!(labels, vec!["travel", "install", "total"]);
    }

    #[test]
    fn unclosed_failures_become_sorted_orphans() {
        let mut a = SpanAssembler::new();
        a.ingest(&TraceEvent::Failure {
            t: 9.0,
            sensor: NodeId::new(4),
        });
        a.ingest(&TraceEvent::Failure {
            t: 3.0,
            sensor: NodeId::new(8),
        });
        a.ingest(&TraceEvent::Detected {
            t: 10.0,
            guardian: NodeId::new(1),
            failed: NodeId::new(4),
        });
        assert_eq!(a.ledger().open_count(), 2);
        let report = a.finish();
        assert_eq!(report.failures, 2);
        assert_eq!(report.replacements(), 0);
        assert_eq!(report.orphans.len(), 2);
        assert_eq!(report.orphans[0].sensor, NodeId::new(8), "sorted by time");
        assert_eq!(report.orphans[0].reached, Milestone::Failure);
        assert_eq!(report.orphans[1].sensor, NodeId::new(4));
        assert_eq!(report.orphans[1].reached, Milestone::Detected);
    }

    #[test]
    fn unmatched_and_out_of_order_events_are_flagged_not_fatal() {
        let mut a = SpanAssembler::new();
        // A replacement with no preceding failure.
        a.ingest(&TraceEvent::Replaced {
            t: 5.0,
            robot: NodeId::new(100),
            sensor: NodeId::new(1),
            travel: 1.0,
            loc: Point::new(0.0, 0.0),
        });
        // A detection for a sensor that never failed.
        a.ingest(&TraceEvent::Detected {
            t: 6.0,
            guardian: NodeId::new(2),
            failed: NodeId::new(3),
        });
        // An out-of-order detection (before the failure's timestamp).
        a.ingest(&TraceEvent::Failure {
            t: 10.0,
            sensor: NodeId::new(5),
        });
        a.ingest(&TraceEvent::Detected {
            t: 8.0,
            guardian: NodeId::new(2),
            failed: NodeId::new(5),
        });
        a.ingest(&TraceEvent::Replaced {
            t: 20.0,
            robot: NodeId::new(100),
            sensor: NodeId::new(5),
            travel: 1.0,
            loc: Point::new(0.0, 0.0),
        });
        let report = a.finish();
        assert_eq!(report.unmatched_events, 2);
        assert_eq!(report.out_of_order, 1);
        assert_eq!(report.replacements(), 1, "only the matched close counts");
        assert_eq!(report.spans[0].detection, None, "bad stage dropped");
        assert_eq!(report.spans[0].total(), 10.0, "total survives");
    }

    #[test]
    fn repeated_failures_of_one_sensor_resolve_fifo() {
        let mut a = SpanAssembler::new();
        for offset in [0.0, 100.0] {
            for ev in full_story(7, offset) {
                a.ingest(&ev);
            }
        }
        let report = a.finish();
        assert_eq!(report.replacements(), 2);
        assert_eq!(report.spans[0].failed_at, 0.0);
        assert_eq!(report.spans[1].failed_at, 100.0);
        assert!(report.orphans.is_empty());
    }

    #[test]
    fn retried_detections_are_benign_and_first_wins() {
        let mut a = SpanAssembler::new();
        a.ingest(&TraceEvent::Failure {
            t: 0.0,
            sensor: NodeId::new(7),
        });
        for t in [4.0, 9.0] {
            // A report retry re-emits `detected` for the same failure.
            a.ingest(&TraceEvent::Detected {
                t,
                guardian: NodeId::new(1),
                failed: NodeId::new(7),
            });
        }
        a.ingest(&TraceEvent::Replaced {
            t: 20.0,
            robot: NodeId::new(100),
            sensor: NodeId::new(7),
            travel: 5.0,
            loc: Point::new(0.0, 0.0),
        });
        let report = a.finish();
        assert_eq!(report.unmatched_events, 0, "retries are not anomalies");
        assert_eq!(report.spans[0].detection, Some(4.0), "first detection wins");
    }

    #[test]
    fn redispatch_is_counted_and_first_dispatch_keeps_the_stage_clock() {
        let mut a = SpanAssembler::new();
        a.ingest(&TraceEvent::Failure {
            t: 0.0,
            sensor: NodeId::new(7),
        });
        a.ingest(&TraceEvent::Dispatched {
            t: 5.0,
            robot: NodeId::new(100),
            failed: NodeId::new(7),
            departed: true,
        });
        // The dispatch stalls (lost order / dead robot); the manager
        // re-dispatches to another robot.
        a.ingest(&TraceEvent::Dispatched {
            t: 30.0,
            robot: NodeId::new(101),
            failed: NodeId::new(7),
            departed: true,
        });
        a.ingest(&TraceEvent::RobotLegEnded {
            t: 60.0,
            robot: NodeId::new(101),
            travel: 40.0,
        });
        a.ingest(&TraceEvent::Replaced {
            t: 60.0,
            robot: NodeId::new(101),
            sensor: NodeId::new(7),
            travel: 40.0,
            loc: Point::new(0.0, 0.0),
        });
        let report = a.finish();
        assert_eq!(report.redispatches, 1);
        assert_eq!(
            report.unmatched_events, 0,
            "a re-dispatch is not an anomaly"
        );
        assert!(report.orphans.is_empty());
        assert_eq!(report.replacements(), 1);
        let span = &report.spans[0];
        assert_eq!(
            span.travel,
            Some(55.0),
            "clock runs from the first dispatch"
        );
        assert_eq!(span.total(), 60.0);
    }

    #[test]
    fn other_events_are_ignored() {
        let mut a = SpanAssembler::new();
        a.ingest(&TraceEvent::PacketDropped {
            t: 1.0,
            at: NodeId::new(1),
            reason: DropReason::TtlExpired,
        });
        a.ingest(&TraceEvent::LocUpdateFlooded {
            t: 2.0,
            robot: NodeId::new(100),
            seq: 1,
        });
        a.ingest(&TraceEvent::RobotLegStarted {
            t: 3.0,
            robot: NodeId::new(100),
            failed: NodeId::new(1),
            from: Point::new(0.0, 0.0),
            to: Point::new(1.0, 1.0),
        });
        let report = a.finish();
        assert_eq!(report.failures, 0);
        assert_eq!(report.unmatched_events, 0);
        assert!(report.stage_rows().is_empty());
    }

    #[test]
    fn span_sink_assembles_while_recording() {
        use crate::obs::EventSink;
        let mut sink = SpanSink::new();
        assert!(sink.is_enabled());
        for ev in full_story(3, 0.0) {
            sink.record(&ev);
        }
        let report = sink.into_report();
        assert_eq!(report.replacements(), 1);
        assert_eq!(report.spans[0].sensor, NodeId::new(3));
    }

    #[test]
    fn from_jsonl_matches_online_ingestion() {
        use crate::obs::sink::event_to_jsonl;
        let events: Vec<TraceEvent> = [full_story(1, 0.0), full_story(2, 50.0)].concat();
        let mut online = SpanAssembler::new();
        let mut text = String::new();
        for ev in &events {
            online.ingest(ev);
            text.push_str(&event_to_jsonl(ev));
            text.push('\n');
        }
        let offline = SpanAssembler::from_jsonl(&text).unwrap();
        assert_eq!(online.finish(), offline, "online/offline parity");
    }
}
