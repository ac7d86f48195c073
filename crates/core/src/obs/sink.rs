//! Event sinks: where [`TraceEvent`]s go.
//!
//! The simulation emits events through one `&mut dyn EventSink`;
//! implementations decide what happens to them — nothing
//! ([`NullSink`]), a bounded in-memory ring ([`RingSink`]), a streamed
//! JSONL artifact ([`JsonlSink`]), or several of those at once
//! ([`TeeSink`]).

use std::borrow::Cow;
use std::collections::VecDeque;
use std::io::Write;

use robonet_des::NodeId;
use robonet_geom::Point;

use super::json::{self, FieldValue, JsonValue, ObjectWriter};
use crate::trace::{DropReason, TraceEvent};

/// Current version of the JSONL trace artifact schema. Bump when the
/// line format changes incompatibly; readers reject other versions.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

/// The versioned header line a [`JsonlSink`] writes before any event.
pub fn trace_header() -> String {
    let mut w = ObjectWriter::new();
    w.field_str("schema", "robonet-trace");
    w.field_u64("schema_version", TRACE_SCHEMA_VERSION);
    w.finish()
}

/// The fields of one decoded trace line, in source order.
type Fields<'a> = [(Cow<'a, str>, FieldValue<'a>)];

/// The value of `key` in `fields`; a later duplicate key wins, as in
/// [`json::parse`].
fn get<'f>(fields: &'f Fields<'_>, key: &str) -> Option<&'f FieldValue<'f>> {
    fields.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v)
}

/// `Some` when `fields` are a trace header (carrying the verdict on its
/// version), `None` when they are an ordinary event line.
fn header_verdict(fields: &Fields<'_>) -> Option<Result<(), String>> {
    let schema = get(fields, "schema").and_then(FieldValue::as_str)?;
    Some(if schema != "robonet-trace" {
        Err(format!("unknown trace schema '{schema}'"))
    } else {
        match get(fields, "schema_version").and_then(FieldValue::as_u64) {
            Some(TRACE_SCHEMA_VERSION) => Ok(()),
            Some(other) => Err(format!(
                "unsupported trace schema_version {other} \
                 (this build reads version {TRACE_SCHEMA_VERSION})"
            )),
            None => Err("trace header missing 'schema_version'".to_string()),
        }
    })
}

/// The unterminated, unparseable final line of a trace — the signature
/// a crashed (or still-writing) producer leaves behind. Readers treat
/// it as "trace ends here", not as corruption: `robonet stats`,
/// `spans` and `replay` all report it and aggregate the complete
/// prefix, and `replay --follow` keeps the bytes buffered until the
/// rest of the line arrives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TruncatedTail {
    /// 1-based line number of the partial line.
    pub line: usize,
    /// Bytes already present of the partial line.
    pub bytes: usize,
}

impl std::fmt::Display for TruncatedTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "line {}: truncated tail ({} bytes of an unterminated record)",
            self.line, self.bytes
        )
    }
}

/// Incremental trace-line reader: feed it chunks of a JSONL artifact
/// (in any split, mid-line is fine) and it hands complete parsed
/// events to the callback, holding the unterminated tail until more
/// bytes arrive. This is the one reader behind
/// [`for_each_event_line`] — and therefore `robonet stats`, `spans`,
/// `timeline` and `replay` — and behind `replay --follow`'s live tailing, so
/// offline and follow-mode parsing can never drift.
#[derive(Debug, Default)]
pub struct LineCursor {
    /// Bytes of the current, not-yet-terminated line.
    partial: String,
    /// 1-based number of the line currently in `partial`.
    line_no: usize,
    /// Whether a non-blank line has been consumed (header position).
    seen_any: bool,
}

impl LineCursor {
    /// A cursor at the start of an artifact.
    pub fn new() -> Self {
        LineCursor {
            partial: String::new(),
            line_no: 1,
            seen_any: false,
        }
    }

    /// Consumes `chunk`, invoking `f` for every *complete* event line
    /// it closes. Complete lines are decoded straight from `chunk`;
    /// only the bytes after the last `'\n'` are copied, to wait for
    /// the next feed.
    ///
    /// # Errors
    ///
    /// The first malformed complete record or unsupported schema
    /// version fails with its 1-based line number.
    pub fn feed(&mut self, chunk: &str, mut f: impl FnMut(&TraceEvent)) -> Result<(), String> {
        let mut rest = chunk;
        while let Some(nl) = rest.find('\n') {
            let line = &rest[..nl];
            rest = &rest[nl + 1..];
            if self.partial.is_empty() {
                self.consume_line(line, &mut f)?;
            } else {
                // The line straddles two feeds.
                let mut whole = std::mem::take(&mut self.partial);
                whole.push_str(line);
                self.consume_line(&whole, &mut f)?;
            }
            self.line_no += 1;
        }
        self.partial.push_str(rest);
        Ok(())
    }

    /// Closes the artifact. A leftover unterminated line is decoded if
    /// it is complete JSON (producers are not required to end the file
    /// with a newline); if it does not parse it is reported as a
    /// [`TruncatedTail`] rather than an error.
    pub fn finish(
        mut self,
        mut f: impl FnMut(&TraceEvent),
    ) -> Result<Option<TruncatedTail>, String> {
        let line = std::mem::take(&mut self.partial);
        if line.trim().is_empty() {
            return Ok(None);
        }
        match json::parse_fields(&line) {
            Ok(fields) => self.consume_fields(&fields, &mut f).map(|()| None),
            Err(_) => Ok(Some(TruncatedTail {
                line: self.line_no,
                bytes: line.len(),
            })),
        }
    }

    /// Bytes currently buffered as an unterminated line.
    pub fn pending_bytes(&self) -> usize {
        self.partial.len()
    }

    /// 1-based line number the cursor is currently reading.
    pub fn line_no(&self) -> usize {
        self.line_no
    }

    fn consume_line(&mut self, line: &str, f: &mut impl FnMut(&TraceEvent)) -> Result<(), String> {
        if line.trim().is_empty() {
            return Ok(());
        }
        let fields = json::parse_fields(line).map_err(|e| format!("line {}: {e}", self.line_no))?;
        self.consume_fields(&fields, f)
    }

    /// Handles one parsed non-blank line: the first may be the header,
    /// every other one is an event.
    fn consume_fields(
        &mut self,
        fields: &Fields<'_>,
        f: &mut impl FnMut(&TraceEvent),
    ) -> Result<(), String> {
        let line_no = self.line_no;
        let at = |e: String| format!("line {line_no}: {e}");
        if !std::mem::replace(&mut self.seen_any, true) {
            if let Some(verdict) = header_verdict(fields) {
                return verdict.map_err(at);
            }
        }
        f(&event_from_fields(fields).map_err(at)?);
        Ok(())
    }
}

/// Walks a JSONL trace artifact: skips blank lines, validates the
/// versioned header on the first non-blank line (legacy headerless
/// traces are accepted), and hands each parsed event to `f`.
///
/// Fails on the first malformed record or unsupported schema version,
/// identifying the offending 1-based line number — a truncated or
/// hand-edited artifact should be loud, not silently half-counted.
/// The one exception is an *unterminated* final line that is not valid
/// JSON: that is the normal residue of a crashed or still-writing
/// producer, returned as `Ok(Some(TruncatedTail))` so every reader
/// degrades gracefully. `robonet stats`, `spans`, `timeline` and
/// `replay` all read through this walker, so their error surfaces stay
/// identical.
pub fn for_each_event_line(
    text: &str,
    mut f: impl FnMut(&TraceEvent),
) -> Result<Option<TruncatedTail>, String> {
    let mut cursor = LineCursor::new();
    cursor.feed(text, &mut f)?;
    cursor.finish(&mut f)
}

/// A consumer of simulation events.
///
/// `is_enabled` lets emitters skip constructing events entirely when
/// nobody is listening — the zero-cost path seed-pinned figure sweeps
/// rely on.
pub trait EventSink {
    /// Whether this sink wants events at all. Emitters may (and do)
    /// skip event construction when this is `false`.
    fn is_enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn record(&mut self, event: &TraceEvent);

    /// Flushes any buffered output; called once at the end of a run.
    fn finish(&mut self) {}

    /// Surrenders the in-memory [`RingSink`] if this sink is one (or one
    /// of its children is), for embedding into the run's `Outcome`.
    fn take_trace(&mut self) -> Option<RingSink> {
        None
    }
}

/// A borrowed sink: forwards events and `finish` to the owner's sink,
/// so an engine can box a sink it does not own. The owner keeps its
/// trace — `take_trace` stays `None`.
impl<S: EventSink + ?Sized> EventSink for &mut S {
    fn is_enabled(&self) -> bool {
        (**self).is_enabled()
    }

    fn record(&mut self, event: &TraceEvent) {
        (**self).record(event);
    }

    fn finish(&mut self) {
        (**self).finish();
    }
}

/// Discards everything; `is_enabled` is `false`.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl EventSink for NullSink {
    fn is_enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _event: &TraceEvent) {}
}

/// Keeps the last `capacity` events in memory; the oldest are evicted
/// once the ring is full.
#[derive(Debug, Clone, Default)]
pub struct RingSink {
    events: VecDeque<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

impl RingSink {
    /// A ring retaining at most `capacity` events (0 disables).
    pub fn with_capacity(capacity: usize) -> Self {
        RingSink {
            // Reserve the full bound: the ring really does fill up to
            // `capacity` before evicting, and an under-reserved VecDeque
            // would reallocate mid-run.
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained lifecycle of one node: every event mentioning it.
    pub fn lifecycle_of(&self, node: NodeId) -> Vec<&TraceEvent> {
        self.events
            .iter()
            .filter(|e| match e {
                TraceEvent::Failure { sensor, .. } => *sensor == node,
                TraceEvent::Detected {
                    guardian, failed, ..
                } => *guardian == node || *failed == node,
                TraceEvent::ReportDelivered {
                    manager, failed, ..
                } => *manager == node || *failed == node,
                TraceEvent::Dispatched { robot, failed, .. } => *robot == node || *failed == node,
                TraceEvent::Replaced { robot, sensor, .. } => *robot == node || *sensor == node,
                TraceEvent::PacketDropped { at, .. } => *at == node,
                TraceEvent::LocUpdateFlooded { robot, .. } => *robot == node,
                TraceEvent::RobotLegStarted { robot, failed, .. } => {
                    *robot == node || *failed == node
                }
                TraceEvent::RobotLegEnded { robot, .. } => *robot == node,
                TraceEvent::FaultInjected { node: n, .. } => *n == node,
                TraceEvent::ReportRetried {
                    guardian, failed, ..
                } => *guardian == node || *failed == node,
                TraceEvent::DispatchTimedOut { failed, .. } => *failed == node,
                TraceEvent::RobotDied { robot, .. } | TraceEvent::RobotRepaired { robot, .. } => {
                    *robot == node
                }
                TraceEvent::TakeoverAssumed { robot, dead, .. } => *robot == node || *dead == node,
                TraceEvent::TelemetrySample { .. } | TraceEvent::InvariantViolated { .. } => false,
            })
            .collect()
    }
}

impl EventSink for RingSink {
    fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    fn record(&mut self, event: &TraceEvent) {
        if self.capacity == 0 {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }

    fn take_trace(&mut self) -> Option<RingSink> {
        Some(std::mem::take(self))
    }
}

/// Streams every event as one line of JSON to a writer.
///
/// # Panics
///
/// Write failures panic: the sink records a run artifact the caller
/// asked for, and silently truncating it would corrupt downstream
/// aggregation (`robonet stats`).
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    events_written: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`, immediately writing the versioned header line;
    /// every recorded event then becomes one JSONL line.
    pub fn new(mut writer: W) -> Self {
        writer
            .write_all(trace_header().as_bytes())
            .and_then(|()| writer.write_all(b"\n"))
            .expect("write trace header");
        JsonlSink {
            writer,
            events_written: 0,
        }
    }

    /// Number of events written so far (the header line not included).
    pub fn events_written(&self) -> u64 {
        self.events_written
    }

    /// Unwraps the inner writer (flushing first).
    pub fn into_inner(mut self) -> W {
        self.writer.flush().expect("flush trace output");
        self.writer
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &TraceEvent) {
        let line = event_to_jsonl(event);
        self.writer
            .write_all(line.as_bytes())
            .and_then(|()| self.writer.write_all(b"\n"))
            .expect("write trace event");
        self.events_written += 1;
    }

    fn finish(&mut self) {
        self.writer.flush().expect("flush trace output");
    }
}

/// Fans events out to several sinks.
#[derive(Default)]
pub struct TeeSink {
    sinks: Vec<Box<dyn EventSink>>,
}

impl TeeSink {
    /// An empty tee (disabled until a sink is added).
    pub fn new() -> Self {
        TeeSink::default()
    }

    /// Adds a downstream sink.
    pub fn push(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }
}

impl EventSink for TeeSink {
    fn is_enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.is_enabled())
    }

    fn record(&mut self, event: &TraceEvent) {
        for sink in &mut self.sinks {
            if sink.is_enabled() {
                sink.record(event);
            }
        }
    }

    fn finish(&mut self) {
        for sink in &mut self.sinks {
            sink.finish();
        }
    }

    fn take_trace(&mut self) -> Option<RingSink> {
        self.sinks.iter_mut().find_map(|s| s.take_trace())
    }
}

/// Serializes one event as a flat JSON object (no trailing newline).
///
/// The schema is part of the artifact contract documented in DESIGN.md:
/// every line carries `"ev"` (snake_case event kind) and `"t"` (sim
/// seconds); node ids are raw `u32`s; coordinates are unpacked into
/// scalar fields so lines stay flat.
pub fn event_to_jsonl(event: &TraceEvent) -> String {
    let mut w = ObjectWriter::new();
    match event {
        TraceEvent::Failure { t, sensor } => {
            w.field_str("ev", "failure");
            w.field_f64("t", *t);
            w.field_u64("sensor", u64::from(sensor.as_u32()));
        }
        TraceEvent::Detected {
            t,
            guardian,
            failed,
        } => {
            w.field_str("ev", "detected");
            w.field_f64("t", *t);
            w.field_u64("guardian", u64::from(guardian.as_u32()));
            w.field_u64("failed", u64::from(failed.as_u32()));
        }
        TraceEvent::ReportDelivered {
            t,
            manager,
            failed,
            hops,
        } => {
            w.field_str("ev", "report_delivered");
            w.field_f64("t", *t);
            w.field_u64("manager", u64::from(manager.as_u32()));
            w.field_u64("failed", u64::from(failed.as_u32()));
            w.field_u64("hops", u64::from(*hops));
        }
        TraceEvent::Dispatched {
            t,
            robot,
            failed,
            departed,
        } => {
            w.field_str("ev", "dispatched");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
            w.field_u64("failed", u64::from(failed.as_u32()));
            w.field_bool("departed", *departed);
        }
        TraceEvent::Replaced {
            t,
            robot,
            sensor,
            travel,
            loc,
        } => {
            w.field_str("ev", "replaced");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
            w.field_u64("sensor", u64::from(sensor.as_u32()));
            w.field_f64("travel", *travel);
            w.field_f64("x", loc.x);
            w.field_f64("y", loc.y);
        }
        TraceEvent::PacketDropped { t, at, reason } => {
            w.field_str("ev", "packet_dropped");
            w.field_f64("t", *t);
            w.field_u64("at", u64::from(at.as_u32()));
            w.field_str("reason", reason.label());
        }
        TraceEvent::LocUpdateFlooded { t, robot, seq } => {
            w.field_str("ev", "loc_update_flooded");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
            w.field_u64("seq", *seq);
        }
        TraceEvent::RobotLegStarted {
            t,
            robot,
            failed,
            from,
            to,
        } => {
            w.field_str("ev", "robot_leg_started");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
            w.field_u64("failed", u64::from(failed.as_u32()));
            w.field_f64("from_x", from.x);
            w.field_f64("from_y", from.y);
            w.field_f64("to_x", to.x);
            w.field_f64("to_y", to.y);
        }
        TraceEvent::RobotLegEnded { t, robot, travel } => {
            w.field_str("ev", "robot_leg_ended");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
            w.field_f64("travel", *travel);
        }
        TraceEvent::FaultInjected { t, kind, node } => {
            w.field_str("ev", "fault_injected");
            w.field_f64("t", *t);
            w.field_str("kind", kind.label());
            w.field_u64("node", u64::from(node.as_u32()));
        }
        TraceEvent::ReportRetried {
            t,
            guardian,
            failed,
            attempt,
        } => {
            w.field_str("ev", "report_retried");
            w.field_f64("t", *t);
            w.field_u64("guardian", u64::from(guardian.as_u32()));
            w.field_u64("failed", u64::from(failed.as_u32()));
            w.field_u64("attempt", u64::from(*attempt));
        }
        TraceEvent::DispatchTimedOut { t, failed, attempt } => {
            w.field_str("ev", "dispatch_timed_out");
            w.field_f64("t", *t);
            w.field_u64("failed", u64::from(failed.as_u32()));
            w.field_u64("attempt", u64::from(*attempt));
        }
        TraceEvent::RobotDied { t, robot } => {
            w.field_str("ev", "robot_died");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
        }
        TraceEvent::RobotRepaired { t, robot } => {
            w.field_str("ev", "robot_repaired");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
        }
        TraceEvent::TakeoverAssumed {
            t,
            robot,
            dead,
            subarea,
        } => {
            w.field_str("ev", "takeover_assumed");
            w.field_f64("t", *t);
            w.field_u64("robot", u64::from(robot.as_u32()));
            w.field_u64("dead", u64::from(dead.as_u32()));
            w.field_u64("subarea", u64::from(*subarea));
        }
        TraceEvent::TelemetrySample { t, sample } => {
            w.field_str("ev", "telemetry_sample");
            w.field_f64("t", *t);
            w.field_u64("alive", u64::from(sample.alive));
            w.field_u64("down", u64::from(sample.down));
            w.field_u64("failures", sample.failures);
            w.field_u64("replaced", sample.replaced);
            w.field_f64("coverage", sample.coverage);
            w.field_u64("open_failure", u64::from(sample.open_failure));
            w.field_u64("open_detected", u64::from(sample.open_detected));
            w.field_u64("open_reported", u64::from(sample.open_reported));
            w.field_u64("open_dispatched", u64::from(sample.open_dispatched));
            // Per-robot vectors as compact strings so lines stay flat.
            w.field_str("queues", &sample.queues_string());
            w.field_str("busy", &sample.busy_string());
            w.field_u64("in_flight", u64::from(sample.in_flight));
            w.field_u64("sched_queue", u64::from(sample.sched_queue));
        }
        TraceEvent::InvariantViolated {
            t,
            invariant,
            expected,
            actual,
        } => {
            w.field_str("ev", "invariant_violated");
            w.field_f64("t", *t);
            w.field_str("invariant", invariant.label());
            w.field_u64("expected", *expected);
            w.field_u64("actual", *actual);
        }
    }
    w.finish()
}

fn node(v: &Fields<'_>, key: &str) -> Result<NodeId, String> {
    u32::try_from(uint(v, key)?)
        .map(NodeId::new)
        .map_err(|_| format!("field '{key}' out of NodeId range"))
}

fn num(v: &Fields<'_>, key: &str) -> Result<f64, String> {
    get(v, key)
        .and_then(FieldValue::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field '{key}'"))
}

fn uint(v: &Fields<'_>, key: &str) -> Result<u64, String> {
    get(v, key)
        .and_then(FieldValue::as_u64)
        .ok_or_else(|| format!("missing or non-integer field '{key}'"))
}

fn uint32(v: &Fields<'_>, key: &str) -> Result<u32, String> {
    u32::try_from(uint(v, key)?).map_err(|_| format!("field '{key}' out of u32 range"))
}

fn text<'f>(v: &'f Fields<'_>, key: &str) -> Result<&'f str, String> {
    get(v, key)
        .and_then(FieldValue::as_str)
        .ok_or_else(|| format!("missing or non-string field '{key}'"))
}

/// Parses one JSONL line back into a [`TraceEvent`].
///
/// The inverse of [`event_to_jsonl`]; `robonet stats` uses it to rebuild
/// a run's story from the artifact. A later duplicate key wins.
pub fn event_from_jsonl(line: &str) -> Result<TraceEvent, String> {
    let fields = json::parse_fields(line).map_err(|e| e.to_string())?;
    event_from_fields(&fields)
}

fn event_from_fields(v: &Fields<'_>) -> Result<TraceEvent, String> {
    let kind = get(v, "ev")
        .and_then(FieldValue::as_str)
        .ok_or("missing 'ev' field")?;
    let t = num(v, "t")?;
    match kind {
        "failure" => Ok(TraceEvent::Failure {
            t,
            sensor: node(v, "sensor")?,
        }),
        "detected" => Ok(TraceEvent::Detected {
            t,
            guardian: node(v, "guardian")?,
            failed: node(v, "failed")?,
        }),
        "report_delivered" => Ok(TraceEvent::ReportDelivered {
            t,
            manager: node(v, "manager")?,
            failed: node(v, "failed")?,
            hops: u32::try_from(uint(v, "hops")?).map_err(|_| "hops out of range")?,
        }),
        "dispatched" => Ok(TraceEvent::Dispatched {
            t,
            robot: node(v, "robot")?,
            failed: node(v, "failed")?,
            departed: matches!(
                get(v, "departed"),
                Some(FieldValue::Other(JsonValue::Bool(true)))
            ),
        }),
        "replaced" => Ok(TraceEvent::Replaced {
            t,
            robot: node(v, "robot")?,
            sensor: node(v, "sensor")?,
            travel: num(v, "travel")?,
            loc: Point::new(num(v, "x")?, num(v, "y")?),
        }),
        "packet_dropped" => {
            let label = get(v, "reason")
                .and_then(FieldValue::as_str)
                .ok_or("missing 'reason' field")?;
            Ok(TraceEvent::PacketDropped {
                t,
                at: node(v, "at")?,
                reason: DropReason::from_label(label)
                    .ok_or_else(|| format!("unknown drop reason '{label}'"))?,
            })
        }
        "loc_update_flooded" => Ok(TraceEvent::LocUpdateFlooded {
            t,
            robot: node(v, "robot")?,
            seq: uint(v, "seq")?,
        }),
        "robot_leg_started" => Ok(TraceEvent::RobotLegStarted {
            t,
            robot: node(v, "robot")?,
            failed: node(v, "failed")?,
            from: Point::new(num(v, "from_x")?, num(v, "from_y")?),
            to: Point::new(num(v, "to_x")?, num(v, "to_y")?),
        }),
        "robot_leg_ended" => Ok(TraceEvent::RobotLegEnded {
            t,
            robot: node(v, "robot")?,
            travel: num(v, "travel")?,
        }),
        "fault_injected" => {
            let label = get(v, "kind")
                .and_then(FieldValue::as_str)
                .ok_or("missing 'kind' field")?;
            Ok(TraceEvent::FaultInjected {
                t,
                kind: crate::fault::FaultKind::from_label(label)
                    .ok_or_else(|| format!("unknown fault kind '{label}'"))?,
                node: node(v, "node")?,
            })
        }
        "report_retried" => Ok(TraceEvent::ReportRetried {
            t,
            guardian: node(v, "guardian")?,
            failed: node(v, "failed")?,
            attempt: u32::try_from(uint(v, "attempt")?).map_err(|_| "attempt out of range")?,
        }),
        "dispatch_timed_out" => Ok(TraceEvent::DispatchTimedOut {
            t,
            failed: node(v, "failed")?,
            attempt: u32::try_from(uint(v, "attempt")?).map_err(|_| "attempt out of range")?,
        }),
        "robot_died" => Ok(TraceEvent::RobotDied {
            t,
            robot: node(v, "robot")?,
        }),
        "robot_repaired" => Ok(TraceEvent::RobotRepaired {
            t,
            robot: node(v, "robot")?,
        }),
        "takeover_assumed" => Ok(TraceEvent::TakeoverAssumed {
            t,
            robot: node(v, "robot")?,
            dead: node(v, "dead")?,
            subarea: u32::try_from(uint(v, "subarea")?).map_err(|_| "subarea out of range")?,
        }),
        "telemetry_sample" => Ok(TraceEvent::TelemetrySample {
            t,
            sample: crate::obs::timeline::TelemetrySnapshot {
                alive: uint32(v, "alive")?,
                down: uint32(v, "down")?,
                failures: uint(v, "failures")?,
                replaced: uint(v, "replaced")?,
                coverage: num(v, "coverage")?,
                open_failure: uint32(v, "open_failure")?,
                open_detected: uint32(v, "open_detected")?,
                open_reported: uint32(v, "open_reported")?,
                open_dispatched: uint32(v, "open_dispatched")?,
                robot_queues: crate::obs::timeline::TelemetrySnapshot::queues_from_string(text(
                    v, "queues",
                )?)?,
                robot_busy: crate::obs::timeline::TelemetrySnapshot::busy_from_string(text(
                    v, "busy",
                )?)?,
                in_flight: uint32(v, "in_flight")?,
                sched_queue: uint32(v, "sched_queue")?,
            },
        }),
        "invariant_violated" => {
            let label = text(v, "invariant")?;
            Ok(TraceEvent::InvariantViolated {
                t,
                invariant: crate::obs::timeline::Invariant::from_label(label)
                    .ok_or_else(|| format!("unknown invariant '{label}'"))?,
                expected: uint(v, "expected")?,
                actual: uint(v, "actual")?,
            })
        }
        other => Err(format!("unknown event kind '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_event_kinds() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Failure {
                t: 1.5,
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
                t: 2.6,
                robot: NodeId::new(200),
                failed: NodeId::new(5),
                departed: true,
            },
            TraceEvent::Replaced {
                t: 60.0,
                robot: NodeId::new(200),
                sensor: NodeId::new(5),
                travel: 88.24744186046512,
                loc: Point::new(10.5, -20.25),
            },
            TraceEvent::PacketDropped {
                t: 3.0,
                at: NodeId::new(17),
                reason: DropReason::TtlExpired,
            },
            TraceEvent::LocUpdateFlooded {
                t: 4.0,
                robot: NodeId::new(201),
                seq: 9,
            },
            TraceEvent::RobotLegStarted {
                t: 2.6,
                robot: NodeId::new(200),
                failed: NodeId::new(5),
                from: Point::new(0.0, 0.0),
                to: Point::new(10.5, -20.25),
            },
            TraceEvent::RobotLegEnded {
                t: 60.0,
                robot: NodeId::new(200),
                travel: 88.24744186046512,
            },
            TraceEvent::FaultInjected {
                t: 5.0,
                kind: crate::fault::FaultKind::ReportLoss,
                node: NodeId::new(3),
            },
            TraceEvent::ReportRetried {
                t: 6.0,
                guardian: NodeId::new(3),
                failed: NodeId::new(5),
                attempt: 2,
            },
            TraceEvent::DispatchTimedOut {
                t: 7.0,
                failed: NodeId::new(5),
                attempt: 1,
            },
            TraceEvent::RobotDied {
                t: 8.0,
                robot: NodeId::new(201),
            },
            TraceEvent::RobotRepaired {
                t: 9.0,
                robot: NodeId::new(201),
            },
            TraceEvent::TakeoverAssumed {
                t: 10.0,
                robot: NodeId::new(200),
                dead: NodeId::new(201),
                subarea: 1,
            },
            TraceEvent::TelemetrySample {
                t: 100.0,
                sample: crate::obs::timeline::TelemetrySnapshot {
                    alive: 30,
                    down: 2,
                    failures: 5,
                    replaced: 3,
                    coverage: 0.8754321098,
                    open_failure: 1,
                    open_detected: 0,
                    open_reported: 0,
                    open_dispatched: 1,
                    robot_queues: vec![0, 2, 1],
                    robot_busy: vec![false, true, false],
                    in_flight: 4,
                    sched_queue: 37,
                },
            },
            TraceEvent::InvariantViolated {
                t: 100.0,
                invariant: crate::obs::timeline::Invariant::RepairConservation,
                expected: 5,
                actual: 4,
            },
        ]
    }

    #[test]
    fn every_event_kind_round_trips() {
        for ev in all_event_kinds() {
            let line = event_to_jsonl(&ev);
            let back = event_from_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line was: {line}");
        }
    }

    #[test]
    fn jsonl_sink_streams_header_then_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in all_event_kinds() {
            sink.record(&ev);
        }
        sink.finish();
        assert_eq!(sink.events_written(), all_event_kinds().len() as u64);
        let text = String::from_utf8(sink.into_inner()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), all_event_kinds().len() + 1);
        assert_eq!(lines[0], trace_header(), "first line is the header");
        for line in &lines[1..] {
            event_from_jsonl(line).unwrap();
        }
    }

    #[test]
    fn event_walker_validates_headers_and_locates_errors() {
        let event_line = event_to_jsonl(&TraceEvent::Failure {
            t: 1.0,
            sensor: NodeId::new(5),
        });

        // Headered, headerless, and blank-padded artifacts all walk.
        for text in [
            format!("{}\n{event_line}\n", trace_header()),
            format!("{event_line}\n"),
            format!("\n{}\n\n{event_line}\n", trace_header()),
        ] {
            let mut n = 0;
            for_each_event_line(&text, |_| n += 1).unwrap();
            assert_eq!(n, 1, "one event in: {text:?}");
        }

        // Unknown versions and schemas are rejected with a line number.
        let future = r#"{"schema":"robonet-trace","schema_version":99}"#;
        let err = for_each_event_line(future, |_| {}).unwrap_err();
        assert!(
            err.starts_with("line 1:") && err.contains("schema_version 99"),
            "error was: {err}"
        );
        let alien = r#"{"schema":"otherformat","schema_version":1}"#;
        let err = for_each_event_line(alien, |_| {}).unwrap_err();
        assert!(err.contains("unknown trace schema"), "error was: {err}");
        let unversioned = r#"{"schema":"robonet-trace"}"#;
        let err = for_each_event_line(unversioned, |_| {}).unwrap_err();
        assert!(err.contains("schema_version"), "error was: {err}");

        // A malformed record names its own line, past the header.
        let broken = format!("{}\n{event_line}\nnot json\n", trace_header());
        let err = for_each_event_line(&broken, |_| {}).unwrap_err();
        assert!(err.starts_with("line 3:"), "error was: {err}");
    }

    #[test]
    fn truncated_final_line_is_typed_not_fatal() {
        let event_line = event_to_jsonl(&TraceEvent::Failure {
            t: 1.0,
            sensor: NodeId::new(5),
        });
        // A producer died (or is still writing) mid-record: the whole
        // prefix parses and the ragged tail is reported, not fatal.
        let half = &event_line[..event_line.len() / 2];
        let text = format!("{}\n{event_line}\n{half}", trace_header());
        let mut n = 0;
        let tail = for_each_event_line(&text, |_| n += 1).unwrap();
        assert_eq!(n, 1, "the complete prefix is still walked");
        let tail = tail.expect("ragged tail must be reported");
        assert_eq!(tail.line, 3);
        assert_eq!(tail.bytes, half.len());
        assert!(
            tail.to_string().contains("line 3"),
            "display names the line"
        );

        // A complete artifact — terminated or not — has no tail.
        let whole = format!("{}\n{event_line}\n", trace_header());
        assert_eq!(for_each_event_line(&whole, |_| {}).unwrap(), None);
        let unterminated = format!("{}\n{event_line}", trace_header());
        let mut n = 0;
        let tail = for_each_event_line(&unterminated, |_| n += 1).unwrap();
        assert_eq!((n, tail), (1, None), "valid unterminated line is an event");

        // A *terminated* malformed line is still corruption, even at
        // the end of the artifact.
        let corrupt = format!("{}\n{half}\n", trace_header());
        let err = for_each_event_line(&corrupt, |_| {}).unwrap_err();
        assert!(err.starts_with("line 2:"), "error was: {err}");
    }

    #[test]
    fn line_cursor_is_split_agnostic() {
        // Any chunking of the byte stream — even one byte at a time —
        // yields the same events as a single feed. This is the contract
        // `replay --follow` leans on when tailing a file mid-write.
        let events = all_event_kinds();
        let mut text = trace_header().to_string();
        text.push('\n');
        for ev in &events {
            text.push_str(&event_to_jsonl(ev));
            text.push('\n');
        }

        let mut whole = Vec::new();
        let mut cursor = LineCursor::new();
        cursor.feed(&text, |e| whole.push(e.clone())).unwrap();
        assert!(cursor.finish(|_| {}).unwrap().is_none());
        assert_eq!(whole, events);

        let mut bytewise = Vec::new();
        let mut cursor = LineCursor::new();
        for i in 0..text.len() {
            cursor
                .feed(&text[i..i + 1], |e| bytewise.push(e.clone()))
                .unwrap();
        }
        assert!(cursor.finish(|_| {}).unwrap().is_none());
        assert_eq!(bytewise, whole, "chunking must not change the walk");

        // Mid-line, the cursor reports how much tail it is holding.
        let mut cursor = LineCursor::new();
        cursor.feed("{\"ev\":\"fail", |_| {}).unwrap();
        assert_eq!(cursor.pending_bytes(), 11);
        assert_eq!(cursor.line_no(), 1);
        let tail = cursor.finish(|_| {}).unwrap().expect("ragged tail");
        assert_eq!(tail, TruncatedTail { line: 1, bytes: 11 });
    }

    #[test]
    fn null_sink_is_disabled() {
        let mut sink = NullSink;
        assert!(!sink.is_enabled());
        sink.record(&TraceEvent::Failure {
            t: 0.0,
            sensor: NodeId::new(0),
        });
        assert!(sink.take_trace().is_none());
    }

    #[test]
    fn ring_sink_retains_and_surrenders_trace() {
        let mut sink = RingSink::with_capacity(2);
        assert!(sink.is_enabled());
        for ev in all_event_kinds().into_iter().take(3) {
            sink.record(&ev);
        }
        assert_eq!(sink.len(), 2);
        assert_eq!(sink.dropped(), 1);
        let trace = sink.take_trace().unwrap();
        assert_eq!(trace.len(), 2);
        assert_eq!(sink.len(), 0, "take_trace leaves an empty ring");
    }

    fn failure(t: f64, sensor: u32) -> TraceEvent {
        TraceEvent::Failure {
            t,
            sensor: NodeId::new(sensor),
        }
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut ring = RingSink::with_capacity(0);
        assert!(!ring.is_enabled());
        ring.record(&failure(1.0, 1));
        assert!(ring.is_empty());
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut ring = RingSink::with_capacity(3);
        for i in 0..5 {
            ring.record(&failure(i as f64, i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.dropped(), 2);
        let times: Vec<f64> = ring.events().map(TraceEvent::time).collect();
        assert_eq!(times, vec![2.0, 3.0, 4.0]);
    }

    #[test]
    fn large_capacity_preallocates_fully() {
        // Regression: with_capacity used to clamp the reservation at 4096
        // even though the ring legitimately grows to `capacity`.
        let capacity = 10_000;
        let mut ring = RingSink::with_capacity(capacity);
        assert!(ring.events.capacity() >= capacity);
        let before = ring.events.capacity();
        for i in 0..capacity + 5 {
            ring.record(&failure(i as f64, i as u32));
        }
        assert_eq!(ring.len(), capacity);
        assert_eq!(ring.dropped(), 5);
        assert_eq!(
            ring.events.capacity(),
            before,
            "filling to capacity must not reallocate"
        );
    }

    #[test]
    fn lifecycle_filters_by_node() {
        let mut ring = RingSink::with_capacity(16);
        ring.record(&failure(1.0, 7));
        ring.record(&TraceEvent::Detected {
            t: 2.0,
            guardian: NodeId::new(3),
            failed: NodeId::new(7),
        });
        ring.record(&TraceEvent::Replaced {
            t: 3.0,
            robot: NodeId::new(100),
            sensor: NodeId::new(7),
            travel: 88.0,
            loc: Point::new(1.0, 2.0),
        });
        ring.record(&failure(9.9, 8));
        assert_eq!(ring.lifecycle_of(NodeId::new(7)).len(), 3);
        assert_eq!(ring.lifecycle_of(NodeId::new(100)).len(), 1);
        assert_eq!(ring.lifecycle_of(NodeId::new(42)).len(), 0);
    }

    #[test]
    fn tee_fans_out_and_reports_enabled() {
        let mut tee = TeeSink::new();
        assert!(!tee.is_enabled(), "empty tee is disabled");
        tee.push(Box::new(NullSink));
        assert!(!tee.is_enabled(), "all-null tee is still disabled");
        tee.push(Box::new(RingSink::with_capacity(8)));
        tee.push(Box::new(JsonlSink::new(Vec::new())));
        assert!(tee.is_enabled());
        for ev in all_event_kinds() {
            tee.record(&ev);
        }
        tee.finish();
        let trace = tee.take_trace().expect("ring child keeps a trace");
        assert_eq!(trace.len(), 8.min(all_event_kinds().len()));
    }

    #[test]
    fn unknown_kind_and_bad_fields_are_rejected() {
        assert!(event_from_jsonl(r#"{"ev":"warp","t":1.0}"#).is_err());
        assert!(event_from_jsonl(r#"{"t":1.0}"#).is_err());
        assert!(event_from_jsonl(r#"{"ev":"failure"}"#).is_err());
        assert!(event_from_jsonl(r#"{"ev":"failure","t":1.0,"sensor":-3}"#).is_err());
        assert!(
            event_from_jsonl(r#"{"ev":"packet_dropped","t":1.0,"at":1,"reason":"gremlins"}"#)
                .is_err()
        );
        assert!(event_from_jsonl("not json at all").is_err());
        assert_eq!(
            event_from_jsonl("[1]").unwrap_err(),
            "missing 'ev' field",
            "a non-object line has no fields"
        );
        // 2^64 is one past u64::MAX.
        assert_eq!(
            event_from_jsonl(
                r#"{"ev":"loc_update_flooded","t":1.0,"robot":200,"seq":18446744073709551616}"#
            )
            .unwrap_err(),
            "missing or non-integer field 'seq'"
        );
    }

    #[test]
    fn later_duplicate_key_wins() {
        let ev = event_from_jsonl(r#"{"ev":"failure","t":1.0,"sensor":3,"sensor":4}"#).unwrap();
        assert_eq!(
            ev,
            TraceEvent::Failure {
                t: 1.0,
                sensor: NodeId::new(4)
            }
        );
        let escaped = r#"{"ev":"failure","t":1.0,"sensor":3,"s\u0065nsor":5}"#;
        assert!(matches!(
            event_from_jsonl(escaped),
            Ok(TraceEvent::Failure { sensor, .. }) if sensor == NodeId::new(5)
        ));
    }

    #[test]
    fn line_with_a_mebibyte_string_decodes() {
        // Quadratic string scanning made this line cost ~5e11 byte checks.
        let note = "π".repeat(1 << 19);
        let line = format!(r#"{{"ev":"failure","t":2.0,"note":"{note}","sensor":9}}"#);
        assert!(line.len() > 1 << 20);
        let ev = event_from_jsonl(&line).unwrap();
        assert_eq!(
            ev,
            TraceEvent::Failure {
                t: 2.0,
                sensor: NodeId::new(9)
            }
        );
    }
}
