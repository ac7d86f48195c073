//! Operations and their output checks.
//!
//! An operation is one simulation cell, one flow cell, one set-up or
//! one trace fold. It fails when it panics or its output breaks an
//! invariant; failed operations are printed and counted against the
//! operations attempted, never skipped. Every check is an invariant of
//! the program (no behaviour golden), so a correct change to the
//! simulator never has to edit the benchmark.

use std::panic::{catch_unwind, AssertUnwindSafe};

use robonet_core::obs::{ReplaySetup, Replayer};
use robonet_core::{ScenarioConfig, SpanAssembler, Timeline, TraceAggregate};

use crate::cell::{self, CellRun};
use crate::workload::Cell;

/// Operations attempted and failed.
#[derive(Debug, Default)]
pub struct Ops {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or failed a check.
    pub failed: u64,
}

impl Ops {
    /// Runs one operation, counting it, catching a panic and printing
    /// any failure to stderr. Returns the output when it passed.
    pub fn run<T>(&mut self, what: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        let err = match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(out)) => return Some(out),
            Ok(Err(e)) => e,
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "non-string panic payload".to_string());
                format!("panicked: {msg}")
            }
        };
        self.failed += 1;
        eprintln!("perfbench: operation failed: {what}: {err}");
        None
    }

    /// Records a failure found outside any single operation (for
    /// example, two runs of one seed disagreeing).
    pub fn fail(&mut self, what: &str, err: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!("perfbench: operation failed: {what}: {err}");
    }
}

/// What the live run that wrote a trace reported, for the folds to
/// agree with.
#[derive(Debug, Clone)]
pub struct LiveRun {
    /// The run's configuration (replay re-derives geometry from it).
    pub cfg: ScenarioConfig,
    /// Failures the run counted.
    pub failures: u64,
    /// Replacements the run counted.
    pub replacements: u64,
    /// Events the sink wrote.
    pub events_written: u64,
    /// Telemetry samples the cadence implies.
    pub samples: u64,
}

impl LiveRun {
    /// What `run`, a run of `cell` that wrote a trace, reported; `None`
    /// when it wrote none.
    pub fn of(cell: &Cell, run: &CellRun) -> Option<LiveRun> {
        Some(LiveRun {
            cfg: cell.cfg.clone(),
            failures: run.counts.failures,
            replacements: run.counts.replacements,
            events_written: run.tap.as_ref()?.events(),
            samples: cell::expected_samples(cell),
        })
    }
}

/// The four offline folds that `robonet stats|spans|timeline|replay`
/// perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// `TraceAggregate::from_jsonl`.
    Stats,
    /// `SpanAssembler::from_jsonl`.
    Spans,
    /// `Timeline::from_jsonl`.
    Timeline,
    /// `Replayer` fed the whole trace.
    Replay,
}

impl Fold {
    /// All four, in `robonet` subcommand order.
    pub const ALL: [Fold; 4] = [Fold::Stats, Fold::Spans, Fold::Timeline, Fold::Replay];

    /// Metric-name fragment (`obs.fold.<name>_s`).
    pub fn name(self) -> &'static str {
        match self {
            Fold::Stats => "stats",
            Fold::Spans => "spans",
            Fold::Timeline => "timeline",
            Fold::Replay => "replay",
        }
    }
}

fn expect_eq(what: &str, folded: u64, live: u64) -> Result<(), String> {
    if folded == live {
        Ok(())
    } else {
        Err(format!("{what}: trace says {folded}, live run said {live}"))
    }
}

/// Runs `fold` over `text` and checks it against the live run. A
/// truncated trace fails every fold: the live run ended cleanly, so a
/// ragged tail means bytes were lost.
pub fn fold(fold: Fold, text: &str, live: &LiveRun) -> Result<(), String> {
    match fold {
        Fold::Stats => {
            let agg = TraceAggregate::from_jsonl(text)?;
            if let Some(tail) = agg.truncated {
                return Err(format!("truncated trace: {tail}"));
            }
            expect_eq("failures", agg.failures, live.failures)?;
            expect_eq("replacements", agg.replacements, live.replacements)?;
            expect_eq("events", agg.events, live.events_written)
        }
        Fold::Spans => {
            let report = SpanAssembler::from_jsonl(text)?;
            if let Some(tail) = report.truncated {
                return Err(format!("truncated trace: {tail}"));
            }
            expect_eq("spans", report.spans.len() as u64, live.replacements)
        }
        Fold::Timeline => {
            let (timeline, tail) = Timeline::from_jsonl(text)?;
            if let Some(tail) = tail {
                return Err(format!("truncated trace: {tail}"));
            }
            if !timeline.violations.is_empty() {
                return Err(format!(
                    "{} invariant violations in the trace",
                    timeline.violations.len()
                ));
            }
            expect_eq("telemetry samples", timeline.len() as u64, live.samples)
        }
        Fold::Replay => {
            let mut replayer = Replayer::new(&ReplaySetup::from_config(&live.cfg));
            replayer.feed(text)?;
            let (state, tail) = replayer.finish()?;
            if let Some(tail) = tail {
                return Err(format!("truncated trace: {tail}"));
            }
            expect_eq("replayed events", state.events, live.events_written)?;
            expect_eq("replayed failures", state.counts().failures, live.failures)
        }
    }
}
