//! Observability: event sinks, metrics registry, and run artifacts.
//!
//! This module is the one place the simulation's three observation
//! channels meet:
//!
//! - **Events** — protocol-level [`TraceEvent`](crate::trace::TraceEvent)s
//!   flow into an [`EventSink`]. [`NullSink`] keeps disabled runs
//!   zero-cost, [`RingSink`] is the classic bounded in-memory trace,
//!   [`JsonlSink`] streams line-delimited JSON to a writer (the
//!   `robonet run --trace-out` artifact), and [`TeeSink`] fans out to
//!   several sinks at once.
//! - **Metrics** — a [`MetricsRegistry`] of `subsystem.name` counters
//!   and log2 [`Log2Histogram`]s, snapshotted at the end of a run and
//!   embedded in the run manifest.
//! - **Spans** — a [`SpanAssembler`] correlates the event stream into
//!   causal [`RepairSpan`]s (failure → detection → report → dispatch →
//!   travel → install), online during a run or offline over a JSONL
//!   artifact, with per-stage percentiles from a fixed-memory
//!   [`QuantileSketch`].
//! - **Repair ledger** — a [`RepairLedger`] matches each lifecycle
//!   event to the open failure it belongs to and tracks how far every
//!   open repair got ([`Milestone`]). Span assembly, [`ReplayState`]
//!   and the live [`HealthMonitor`] each hold one, so open repairs by
//!   milestone mean one thing in every view.
//! - **Profiling** — wall-clock phase numbers from
//!   [`robonet_des::SchedulerProfile`], surfaced by the CLI.
//!
//! [`TraceAggregate`] closes the loop: it re-reads a JSONL artifact and
//! reproduces the paper's per-failure overhead table (`robonet stats`)
//! without re-running the simulation; `robonet spans` does the same for
//! the latency decomposition.
//!
//! # Naming convention
//!
//! Counters are `subsystem.name` with lowercase dotted segments; the
//! subsystem is the crate-level component that observed the fact
//! (`des.scheduler`, `radio.mac`, `net.routing`, `coord.<algorithm>`,
//! `robot.fleet`), and the name may itself be dotted for families such
//! as `drops.ttl_expired`.
//!
//! Everything here is hand-rolled (see [`json`]) — no new dependencies.

pub mod detsum;
pub mod json;
pub mod ledger;
pub mod quantile;
pub mod registry;
pub mod replay;
pub mod sink;
pub mod span;
pub mod stats;
pub mod timeline;

pub use detsum::DetSum;
pub use ledger::{Milestone, OpenRepair, RepairLedger};
pub use quantile::{QuantileSketch, RELATIVE_ERROR, ZERO_THRESHOLD};
pub use registry::{Log2Histogram, MetricsRegistry, HISTOGRAM_BUCKETS};
pub use replay::{Film, LegRecord, OutageRecord, ReplaySetup, ReplayState, Replayer, SensorPhase};
pub use sink::{
    event_from_jsonl, event_to_jsonl, for_each_event_line, trace_header, EventSink, JsonlSink,
    LineCursor, NullSink, RingSink, TeeSink, TruncatedTail, TRACE_SCHEMA_VERSION,
};
pub use span::{OrphanSpan, RepairSpan, SpanAssembler, SpanReport, SpanSink, Stage, StageRow};
pub use stats::{DropCounts, TraceAggregate};
pub use timeline::{Checkpoint, HealthMonitor, Invariant, TelemetrySnapshot, Timeline};

pub use crate::trace::DropReason;
