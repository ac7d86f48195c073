//! Replay state-machine properties promised by `core::obs::replay`:
//! `state_at(T)` is *exactly* a full replay of the trace truncated at
//! `T`, chunking never matters, and a ragged tail only costs the
//! incomplete record.

use std::io::Write;
use std::sync::{Arc, Mutex};

use robonet::prelude::*;
use robonet_core::obs::for_each_event_line;
use robonet_core::obs::replay::{state_at, ReplaySetup, Replayer};
use robonet_core::trace::TraceEvent;
use robonet_core::{JsonlSink, TraceAggregate};

/// An `io::Write` the test can keep a handle to after the simulation
/// takes ownership of the sink.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).expect("JSONL is UTF-8")
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One traced run plus everything the properties need: the raw JSONL
/// text, the parsed event list, and the geometry the trace came from.
fn traced_run(alg: Algorithm) -> (ScenarioConfig, String, Vec<TraceEvent>) {
    let cfg = ScenarioConfig::paper(1, alg).with_seed(7).scaled(32.0);
    let buf = SharedBuf::default();
    Simulation::with_sink(cfg.clone(), Box::new(JsonlSink::new(buf.clone()))).run_to_completion();
    let text = buf.contents();
    let mut events = Vec::new();
    let tail = for_each_event_line(&text, |ev| events.push(ev.clone())).expect("trace parses");
    assert!(tail.is_none(), "a completed run leaves no ragged tail");
    assert!(events.len() > 50, "trace is non-trivial: {}", events.len());
    (cfg, text, events)
}

/// Truncates the trace text to exactly the event lines with
/// `time() <= t` (plus the header), mirroring what a reader would see
/// of a file cut off at that instant.
fn truncate_at(text: &str, events: &[TraceEvent], t: f64) -> String {
    let keep = events.iter().filter(|ev| ev.time() <= t).count();
    // Line 1 is the schema header; the next `keep` lines are events.
    text.lines()
        .take(1 + keep)
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The core acceptance property: for any cut time `T`, `state_at(T)`
/// over the full event list equals a from-scratch replay of the trace
/// text truncated at `T`. The state machine is a pure left fold — no
/// hidden dependence on events beyond the cut. Its tally equals
/// `robonet stats`'s aggregate of the same truncated text, pending
/// dispatches included.
#[test]
fn state_at_equals_replay_of_truncated_trace() {
    for alg in [
        Algorithm::Centralized,
        Algorithm::Fixed(PartitionKind::Square),
        Algorithm::Dynamic,
    ] {
        let (cfg, text, events) = traced_run(alg);
        let setup = ReplaySetup::from_config(&cfg);

        // Cut at event timestamps (tie groups stay whole), plus before
        // the first and after the last event.
        let n = events.len();
        let mut cuts = vec![-1.0, 0.0, f64::INFINITY];
        for idx in [0, 1, n / 7, n / 3, n / 2, (3 * n) / 4, n - 2, n - 1] {
            cuts.push(events[idx].time());
        }
        for t in cuts {
            let direct = state_at(&setup, &events, t);

            let truncated = truncate_at(&text, &events, t);
            let mut replayer = Replayer::new(&setup);
            replayer.feed(&truncated).expect("truncated prefix parses");
            let (replayed, tail) = replayer.finish().expect("clean finish");
            assert!(tail.is_none(), "whole lines only");

            assert_eq!(
                direct, replayed,
                "{alg}: state_at({t}) diverged from replaying the truncated trace"
            );
            let stats = TraceAggregate::from_jsonl(&truncated).expect("truncated prefix parses");
            assert_eq!(
                *direct.counts(),
                stats,
                "{alg}: replay's tally at {t} diverged from the stats aggregate"
            );
        }
    }
}

/// Chunking is invisible: feeding the trace byte-by-byte-ish (ragged
/// 7-byte chunks that split every line and most UTF-8-irrelevant
/// boundaries) ends in the same state as one big feed.
#[test]
fn chunked_feed_matches_single_feed() {
    let (cfg, text, _) = traced_run(Algorithm::Dynamic);
    let setup = ReplaySetup::from_config(&cfg);

    let mut whole = Replayer::new(&setup);
    whole.feed(&text).expect("full feed");
    let (whole, _) = whole.finish().expect("clean finish");

    let mut ragged = Replayer::new(&setup);
    let bytes = text.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let end = (i + 7).min(bytes.len());
        ragged
            .feed(std::str::from_utf8(&bytes[i..end]).expect("trace is ASCII"))
            .expect("chunk feed");
        i = end;
    }
    let (ragged, _) = ragged.finish().expect("clean finish");
    assert_eq!(whole, ragged, "chunk boundaries leaked into the state");
}

/// A trace cut mid-record costs exactly the incomplete record: the
/// replayed state equals the state over the complete prefix, and the
/// tail is reported rather than swallowed or fatal.
#[test]
fn ragged_tail_only_drops_the_incomplete_record() {
    let (cfg, text, events) = traced_run(Algorithm::Dynamic);
    let setup = ReplaySetup::from_config(&cfg);

    // Cut 10 bytes into the final record.
    let last_line_start = text.trim_end().rfind('\n').expect("multi-line") + 1;
    let cut = &text[..last_line_start + 10];

    let mut replayer = Replayer::new(&setup);
    replayer.feed(cut).expect("prefix parses");
    let (state, tail) = replayer.finish().expect("tail is not an error");
    let tail = tail.expect("ragged tail reported");
    assert_eq!(tail.line, text.lines().count(), "tail names the cut line");

    let complete_prefix = state_at(&setup, &events[..events.len() - 1], f64::INFINITY);
    assert_eq!(
        state, complete_prefix,
        "state covers exactly the complete prefix"
    );
}
