//! Property tests for the observability layer: the streaming quantile
//! sketch against exact order statistics, the quickselect percentile
//! against a sort-based reference, the span assembler's accounting
//! invariants over randomized well-formed repair workloads, the one
//! repair ledger behind span assembly and replay over duplicate-ridden
//! lifecycles, and the trace-line decoder against
//! the event writer and `json::parse`: adversarial values, reordered,
//! duplicated, padded and unknown keys, every proper prefix of a line,
//! and a trace whose last line is cut.

use std::collections::BTreeMap;

use robonet_core::metrics::percentile;
use robonet_core::obs::json::{self, JsonValue};
use robonet_core::obs::{
    event_from_jsonl, event_to_jsonl, for_each_event_line, trace_header, Milestone, QuantileSketch,
    RepairLedger, ReplayState, SpanAssembler, TruncatedTail, RELATIVE_ERROR, ZERO_THRESHOLD,
};
use robonet_core::trace::TraceEvent;
use robonet_des::check::{self, Outcome};
use robonet_des::rng::{Rng, Xoshiro256};
use robonet_des::NodeId;
use robonet_geom::Point;

/// Sketch quantiles stay within the advertised relative rank-error
/// bound of the exact order statistic at the same rank, for any sample
/// above the zero threshold.
#[test]
fn sketch_tracks_exact_order_statistics() {
    check::forall(
        "sketch_tracks_exact_order_statistics",
        &check::pair(
            check::vec_of(check::f64s(1e-4..1e5), 1..200),
            check::f64s(0.0..1.0),
        ),
        |(values, q)| {
            let mut sketch = QuantileSketch::new();
            for &v in values {
                sketch.observe(v);
            }
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            // Same rank convention as `metrics::percentile`'s lower
            // order statistic.
            let rank = (q * (sorted.len() - 1) as f64).floor() as usize;
            let exact = sorted[rank];
            let approx = sketch.quantile(*q).expect("non-empty sketch");
            assert!(exact > ZERO_THRESHOLD, "generator stays above threshold");
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= RELATIVE_ERROR,
                "q={q}: exact {exact}, sketch {approx}, rel {rel}"
            );
            assert_eq!(sketch.count(), values.len() as u64);
            assert_eq!(sketch.min(), sorted.first().copied());
            assert_eq!(sketch.max(), sorted.last().copied());
            Outcome::Pass
        },
    );
}

/// The quickselect percentile is bit-identical to the full-sort
/// reference implementation it replaced (the `Summary` determinism
/// guarantee rests on this).
#[test]
fn quickselect_percentile_matches_sorted_reference() {
    check::forall(
        "quickselect_percentile_matches_sorted_reference",
        &check::pair(
            check::vec_of(check::f64s(0.0..1e6), 1..150),
            check::f64s(0.0..1.0),
        ),
        |(values, p)| {
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
            let rank = p * (sorted.len() - 1) as f64;
            let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
            let frac = rank - lo as f64;
            let reference = sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
            let fast = percentile(values, *p).expect("non-empty");
            assert!(
                fast.to_bits() == reference.to_bits(),
                "p={p}: reference {reference}, quickselect {fast}"
            );
            Outcome::Pass
        },
    );
}

/// One randomized repair lifecycle: stage delays plus whether the
/// repair completes before the horizon.
type Lifecycle = (f64, f64, f64, f64, bool);

fn lifecycles() -> check::Gen<Vec<Lifecycle>> {
    let one = check::pair(
        check::quad(
            check::f64s(0.0..5000.0), // failed_at
            check::f64s(0.1..60.0),   // detection delay
            check::f64s(0.1..30.0),   // report + dispatch delay
            check::f64s(1.0..600.0),  // travel duration
        ),
        check::bools(),
    )
    .map(|&((f, d, r, t), repaired)| (f, d, r, t, repaired));
    check::vec_of(one, 1..40)
}

/// Span-assembly accounting invariant: on a well-formed trace every
/// `Replaced` closes exactly one open span, orphan count equals
/// failures minus replacements, nothing is unmatched or out of order,
/// and each span's stages sum to its end-to-end dead time.
#[test]
fn assembler_conserves_failures() {
    check::forall("assembler_conserves_failures", &lifecycles(), |cycles| {
        let mut asm = SpanAssembler::new();
        let mut expected_repairs = 0u64;
        for (i, &(failed_at, detect, report, travel, repaired)) in cycles.iter().enumerate() {
            let sensor = NodeId::new(i as u32);
            let robot = NodeId::new(10_000 + i as u32);
            asm.ingest(&TraceEvent::Failure {
                t: failed_at,
                sensor,
            });
            asm.ingest(&TraceEvent::Detected {
                t: failed_at + detect,
                guardian: NodeId::new(20_000 + i as u32),
                failed: sensor,
            });
            asm.ingest(&TraceEvent::ReportDelivered {
                t: failed_at + detect + report,
                manager: NodeId::new(30_000 + i as u32),
                failed: sensor,
                hops: 3,
            });
            asm.ingest(&TraceEvent::Dispatched {
                t: failed_at + detect + report,
                robot,
                failed: sensor,
                departed: true,
            });
            if repaired {
                let done = failed_at + detect + report + travel;
                asm.ingest(&TraceEvent::RobotLegEnded {
                    t: done,
                    robot,
                    travel,
                });
                asm.ingest(&TraceEvent::Replaced {
                    t: done,
                    robot,
                    sensor,
                    travel,
                    loc: Point::new(0.0, 0.0),
                });
                expected_repairs += 1;
            }
        }
        let report = asm.finish();
        assert_eq!(report.failures, cycles.len() as u64);
        assert_eq!(report.replacements(), expected_repairs);
        assert_eq!(
            report.orphans.len() as u64,
            report.failures - expected_repairs,
            "orphans account for every unrepaired failure"
        );
        assert_eq!(report.unmatched_events, 0, "well-formed trace");
        assert_eq!(report.out_of_order, 0, "timestamps are causal");
        for span in &report.spans {
            let stage_sum: f64 = [
                span.detection,
                span.report_transit,
                span.dispatch_decision,
                span.travel,
                span.install,
            ]
            .iter()
            .flatten()
            .sum();
            let total = span.replaced_at - span.failed_at;
            assert!(
                (stage_sum - total).abs() < 1e-9,
                "stages sum to dead time: {stage_sum} vs {total}"
            );
            assert!((span.total() - total).abs() < 1e-9);
        }
        Outcome::Pass
    });
}

/// One lifecycle event: `(kind, sensor)` with kind 0 = failure,
/// 1 = detected, 2 = report delivered, 3 = dispatched, 4 = replaced.
type LedgerStep = (usize, u32);

/// Interleaved lifecycles of three sensors in any order: repeated
/// failures, duplicate detections and reports, re-dispatches (to
/// either of two robots), and events with no open failure at all.
fn ledger_steps() -> check::Gen<Vec<LedgerStep>> {
    check::vec_of(check::pair(check::usizes(0..5), check::u32s(0..3)), 1..60)
}

fn ledger_event(i: usize, &(kind, sensor): &LedgerStep) -> TraceEvent {
    let t = i as f64;
    let sensor = NodeId::new(sensor);
    let robot = NodeId::new(100 + (i % 2) as u32);
    match kind {
        0 => TraceEvent::Failure { t, sensor },
        1 => TraceEvent::Detected {
            t,
            guardian: NodeId::new(50),
            failed: sensor,
        },
        2 => TraceEvent::ReportDelivered {
            t,
            manager: robot,
            failed: sensor,
            hops: 2,
        },
        3 => TraceEvent::Dispatched {
            t,
            robot,
            failed: sensor,
            departed: true,
        },
        _ => TraceEvent::Replaced {
            t,
            robot,
            sensor,
            travel: 1.0,
            loc: Point::new(0.0, 0.0),
        },
    }
}

/// Each open repair's furthest milestone, per sensor in FIFO order.
fn milestones(ledger: &RepairLedger) -> BTreeMap<u32, Vec<Milestone>> {
    let mut out: BTreeMap<u32, Vec<Milestone>> = BTreeMap::new();
    for (sensor, repair) in ledger.open_repairs() {
        out.entry(sensor).or_default().push(repair.reached());
    }
    out
}

/// Feeds `events` to replay and span assembly, asserting after every
/// event that the two agree on the open repairs per milestone and that
/// no open repair moved backwards.
fn assert_ledgers_agree_and_advance(events: &[TraceEvent]) {
    let mut replay = ReplayState::discovering();
    let mut spans = SpanAssembler::new();
    let mut before: [BTreeMap<u32, Vec<Milestone>>; 2] = Default::default();
    for (i, ev) in events.iter().enumerate() {
        replay.apply(ev);
        spans.ingest(ev);
        let ledgers = [replay.ledger(), spans.ledger()];
        let counts = ledgers.map(RepairLedger::stage_counts);
        assert!(
            counts[1] == counts[0],
            "replay/spans disagree after event {i} ({ev:?}): {counts:?}"
        );
        for (ledger, was) in ledgers.iter().zip(before.iter_mut()) {
            if let TraceEvent::Replaced { sensor, .. } = ev {
                // The closed repair leaves the front of its queue.
                if let Some(queue) = was.get_mut(&sensor.as_u32()).filter(|q| !q.is_empty()) {
                    queue.remove(0);
                }
            }
            let now = milestones(ledger);
            for (sensor, old) in was.iter() {
                let new = now.get(sensor).map_or(&[][..], Vec::as_slice);
                assert!(new.len() >= old.len(), "a repair vanished at event {i}");
                for (old, new) in old.iter().zip(new) {
                    assert!(
                        new >= old,
                        "sensor {sensor} moved back from {} to {} at event {i}: {ev:?}",
                        old.label(),
                        new.label()
                    );
                }
            }
            *was = now;
        }
    }
}

/// The two holders of the repair ledger never disagree on open
/// repairs per milestone, and no repair's milestone ever decreases,
/// however many duplicates and re-dispatches the stream carries.
#[test]
fn ledgers_agree_and_never_move_backwards() {
    check::forall(
        "ledgers_agree_and_never_move_backwards",
        &ledger_steps(),
        |steps| {
            let events: Vec<TraceEvent> = steps
                .iter()
                .enumerate()
                .map(|(i, step)| ledger_event(i, step))
                .collect();
            assert_ledgers_agree_and_advance(&events);
            Outcome::Pass
        },
    );
}

/// The shrunk counterexample from when replay and the live health
/// check kept their own stage ledgers: a duplicate report after the dispatch
/// moved the repair back to `report_delivered` (`[0, 0, 1, 0]`).
#[test]
fn a_duplicate_report_after_dispatch_keeps_the_repair_dispatched() {
    let steps = [(0, 0), (1, 0), (2, 0), (3, 0), (2, 0)];
    let events: Vec<TraceEvent> = steps
        .iter()
        .enumerate()
        .map(|(i, step)| ledger_event(i, step))
        .collect();
    assert_ledgers_agree_and_advance(&events);
    let mut spans = SpanAssembler::new();
    for ev in &events {
        spans.ingest(ev);
    }
    assert_eq!(spans.ledger().stage_counts(), [0, 0, 0, 1]);
}

/// Splitting any observation stream across any number of per-cell
/// sketches and folding them back in a random order is bit-identical to
/// observing everything in one sketch: bucket counts, count, min, max —
/// and the sum, which is fixed-point accumulated precisely so this
/// holds despite f64 addition being non-associative.
#[test]
fn sketch_merge_is_order_independent_bitwise() {
    check::forall(
        "sketch_merge_is_order_independent_bitwise",
        &check::triple(
            check::vec_of(check::f64s(1e-4..1e6), 1..120),
            check::usizes(2..6),
            check::u64_any(),
        ),
        |(values, cells, shuffle_seed)| {
            let mut whole = QuantileSketch::new();
            let mut parts: Vec<QuantileSketch> =
                (0..*cells).map(|_| QuantileSketch::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                whole.observe(v);
                parts[i % cells].observe(v);
            }
            // Fold the parts in a seed-derived pseudo-random order.
            let mut order: Vec<usize> = (0..*cells).collect();
            for i in (1..order.len()).rev() {
                let j = (shuffle_seed.wrapping_mul(i as u64 + 1) % (i as u64 + 1)) as usize;
                order.swap(i, j);
            }
            let mut folded = QuantileSketch::new();
            for &i in &order {
                folded.merge(&parts[i]);
            }
            assert_eq!(folded, whole, "merge must equal direct observation");
            assert_eq!(
                folded.sum().to_bits(),
                whole.sum().to_bits(),
                "sums are bit-identical, not merely close"
            );
            for q in [0.0, 0.5, 0.95, 1.0] {
                assert_eq!(folded.quantile(q), whole.quantile(q), "q = {q}");
            }
            Outcome::Pass
        },
    );
}

/// Folding per-cell metrics registries (counters + histograms) in any
/// order produces the same snapshot: counters add, histogram buckets
/// add elementwise, histogram sums are fixed-point. Gauges are per-run
/// derived statistics and must vanish from any merged snapshot.
#[test]
fn registry_merge_is_order_independent_bitwise() {
    use robonet_core::obs::MetricsRegistry;

    check::forall(
        "registry_merge_is_order_independent_bitwise",
        &check::pair(
            check::vec_of(
                check::triple(
                    check::usizes(0..3),
                    check::u64s(0..1000),
                    check::f64s(1e-3..1e4),
                ),
                1..60,
            ),
            check::bools(),
        ),
        |(entries, reverse)| {
            const NAMES: [(&str, &str); 3] = [
                ("radio.mac", "tx"),
                ("net.routing", "hops"),
                ("des.scheduler", "pops"),
            ];
            // Deal entries round-robin into 3 per-cell registries and
            // also into one direct registry.
            let mut direct = MetricsRegistry::new();
            let mut parts: Vec<MetricsRegistry> = (0..3).map(|_| MetricsRegistry::new()).collect();
            for (i, (which, count, value)) in entries.iter().enumerate() {
                let (subsystem, name) = NAMES[*which];
                direct.add(subsystem, name, *count);
                direct.observe(subsystem, name, *value);
                parts[i % 3].add(subsystem, name, *count);
                parts[i % 3].observe(subsystem, name, *value);
            }
            // Gauges must be dropped by the merge no matter where they live.
            parts[0].set_gauge("span.total", "p95_s", 12.5);
            let mut folded = MetricsRegistry::new();
            folded.set_gauge("span.total", "p50_s", 3.5);
            if *reverse {
                for p in parts.iter().rev() {
                    folded.merge(p);
                }
            } else {
                for p in parts.iter() {
                    folded.merge(p);
                }
            }
            for (subsystem, name) in NAMES {
                assert_eq!(
                    folded.counter(subsystem, name),
                    direct.counter(subsystem, name),
                    "{subsystem}.{name} counter"
                );
                match (
                    folded.histogram(subsystem, name),
                    direct.histogram(subsystem, name),
                ) {
                    (None, None) => {}
                    (Some(f), Some(d)) => {
                        assert_eq!(f.buckets(), d.buckets(), "{subsystem}.{name} buckets");
                        assert_eq!(f.count(), d.count());
                        assert_eq!(
                            f.sum().to_bits(),
                            d.sum().to_bits(),
                            "{subsystem}.{name} sum is bit-identical"
                        );
                        assert_eq!(f.max(), d.max());
                    }
                    (f, d) => panic!("{subsystem}.{name}: presence differs: {f:?} vs {d:?}"),
                }
            }
            assert_eq!(folded.gauges().count(), 0, "merge drops every gauge");
            Outcome::Pass
        },
    );
}

/// A kind index and the raw words [`event_of`] builds an event from.
type EventSeed = (usize, Vec<u64>);

/// Number of [`TraceEvent`] kinds [`event_of`] covers.
const EVENT_KINDS: usize = 17;

fn event_seeds() -> check::Gen<EventSeed> {
    check::pair(
        check::usizes(0..EVENT_KINDS),
        check::vec_of(check::u64_any(), 16..17),
    )
}

/// An `f64` from raw bits: every finite bit pattern (subnormals and
/// `-0.0` included), ordinary fractions and whole numbers, and the
/// awkward values shortest-round-trip printing must get right.
fn real(bits: u64) -> f64 {
    const AWKWARD: [f64; 8] = [
        -0.0,
        1.7976931348623157e308,
        -1.7976931348623157e308,
        f64::MIN_POSITIVE,
        5e-324,
        -2.225073858507201e-308,
        0.30000000000000004,
        9007199254740993.0,
    ];
    match bits % 4 {
        0 => Some(f64::from_bits(bits))
            .filter(|v| v.is_finite())
            .unwrap_or(0.5),
        1 => (bits >> 20) as f64 / 1024.0,
        2 => (bits >> 40) as f64,
        _ => AWKWARD[(bits >> 2) as usize % AWKWARD.len()],
    }
}

/// `bits`, one time in four replaced by a boundary value: ids reach
/// `u32::MAX` and counters such as `seq`, `expected` and `actual`
/// reach `u64::MAX`.
fn adversarial_word(bits: u64) -> u64 {
    const EDGES: [u64; 7] = [
        0,
        u32::MAX as u64,
        u32::MAX as u64 + 1,
        1 << 53,
        (1 << 53) + 1,
        u64::MAX - 1,
        u64::MAX,
    ];
    match bits % 4 {
        0 => EDGES[(bits >> 2) as usize % EDGES.len()],
        _ => bits,
    }
}

/// The event [`event_of`] builds from `words` put through
/// [`adversarial_word`].
fn adversarial_event((kind, words): &EventSeed) -> TraceEvent {
    let words: Vec<u64> = words.iter().map(|&w| adversarial_word(w)).collect();
    event_of(*kind, &words)
}

/// The event of kind `kind % EVENT_KINDS` whose fields are drawn from
/// `words` (missing words read as zero, so shrunk seeds stay valid).
fn event_of(kind: usize, words: &[u64]) -> TraceEvent {
    use robonet_core::fault::FaultKind;
    use robonet_core::obs::timeline::{Invariant, TelemetrySnapshot};
    use robonet_core::trace::DropReason;

    let w = |i: usize| words.get(i).copied().unwrap_or(0);
    let node = |i: usize| NodeId::new(w(i) as u32);
    let point = |i: usize| Point::new(real(w(i)), real(w(i + 1)));
    let t = real(w(0));
    match kind % EVENT_KINDS {
        0 => TraceEvent::Failure { t, sensor: node(1) },
        1 => TraceEvent::Detected {
            t,
            guardian: node(1),
            failed: node(2),
        },
        2 => TraceEvent::ReportDelivered {
            t,
            manager: node(1),
            failed: node(2),
            hops: w(3) as u32,
        },
        3 => TraceEvent::Dispatched {
            t,
            robot: node(1),
            failed: node(2),
            departed: w(3) % 2 == 1,
        },
        4 => TraceEvent::Replaced {
            t,
            robot: node(1),
            sensor: node(2),
            travel: real(w(3)),
            loc: point(4),
        },
        5 => TraceEvent::PacketDropped {
            t,
            at: node(1),
            reason: [
                DropReason::TtlExpired,
                DropReason::NoNeighbors,
                DropReason::MacGiveUp,
            ][(w(2) % 3) as usize],
        },
        6 => TraceEvent::LocUpdateFlooded {
            t,
            robot: node(1),
            seq: w(2),
        },
        7 => TraceEvent::RobotLegStarted {
            t,
            robot: node(1),
            failed: node(2),
            from: point(3),
            to: point(5),
        },
        8 => TraceEvent::RobotLegEnded {
            t,
            robot: node(1),
            travel: real(w(2)),
        },
        9 => TraceEvent::FaultInjected {
            t,
            kind: [
                FaultKind::ReportLoss,
                FaultKind::DispatchLoss,
                FaultKind::UpdateLoss,
                FaultKind::Breakdown,
                FaultKind::Slowdown,
            ][(w(1) % 5) as usize],
            node: node(2),
        },
        10 => TraceEvent::ReportRetried {
            t,
            guardian: node(1),
            failed: node(2),
            attempt: w(3) as u32,
        },
        11 => TraceEvent::DispatchTimedOut {
            t,
            failed: node(1),
            attempt: w(2) as u32,
        },
        12 => TraceEvent::RobotDied { t, robot: node(1) },
        13 => TraceEvent::RobotRepaired { t, robot: node(1) },
        14 => TraceEvent::TakeoverAssumed {
            t,
            robot: node(1),
            dead: node(2),
            subarea: w(3) as u32,
        },
        15 => {
            let robots = (w(15) % 6) as usize;
            TraceEvent::TelemetrySample {
                t,
                sample: TelemetrySnapshot {
                    alive: w(1) as u32,
                    down: w(2) as u32,
                    failures: w(3),
                    replaced: w(4),
                    coverage: real(w(5)),
                    open_failure: w(6) as u32,
                    open_detected: w(7) as u32,
                    open_reported: w(8) as u32,
                    open_dispatched: w(9) as u32,
                    robot_queues: (0..robots).map(|i| (w(10 + i) >> 32) as u32).collect(),
                    robot_busy: (0..robots).map(|i| w(10 + i) % 2 == 1).collect(),
                    in_flight: w(13) as u32,
                    sched_queue: w(14) as u32,
                },
            }
        }
        _ => TraceEvent::InvariantViolated {
            t,
            invariant: [Invariant::RepairConservation, Invariant::FleetLiveness]
                [(w(1) % 2) as usize],
            expected: w(2),
            actual: w(3),
        },
    }
}

/// Every `f64` an event carries, in field order.
fn event_reals(ev: &TraceEvent) -> Vec<f64> {
    let mut out = vec![ev.time()];
    match ev {
        TraceEvent::Replaced { travel, loc, .. } => out.extend([*travel, loc.x, loc.y]),
        TraceEvent::RobotLegStarted { from, to, .. } => out.extend([from.x, from.y, to.x, to.y]),
        TraceEvent::RobotLegEnded { travel, .. } => out.push(*travel),
        TraceEvent::TelemetrySample { sample, .. } => out.push(sample.coverage),
        _ => {}
    }
    out
}

/// Serializes a parsed value with sorted, unique keys: the line as
/// `json::parse` understood it, duplicates resolved.
fn canonical(v: &JsonValue, out: &mut String) {
    match v {
        JsonValue::Null => out.push_str("null"),
        JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        // An overflowing literal parses to infinity, which `write_f64`
        // would turn into `null`.
        JsonValue::Number(n) if n.is_infinite() => {
            out.push_str(if *n > 0.0 { "1e999" } else { "-1e999" })
        }
        JsonValue::Number(n) => json::write_f64(out, *n),
        JsonValue::String(s) => json::write_str(out, s),
        JsonValue::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                canonical(item, out);
            }
            out.push(']');
        }
        JsonValue::Object(map) => {
            out.push('{');
            for (i, (key, value)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                json::write_str(out, key);
                out.push(':');
                canonical(value, out);
            }
            out.push('}');
        }
    }
}

/// A decode result as `json::parse` sees it: an event compares by its
/// canonical line, which holds every integer as an `f64` like the
/// parsed value the other side of each comparison comes from.
fn as_parsed(decoded: Result<TraceEvent, String>) -> Result<String, String> {
    decoded.map(|ev| {
        let mut out = String::new();
        canonical(
            &json::parse(&event_to_jsonl(&ev)).expect("lines parse"),
            &mut out,
        );
        out
    })
}

/// The keys of a trace line.
fn keys_of(line: &str) -> Vec<String> {
    let value = json::parse(line).expect("generated lines parse");
    value
        .as_object()
        .expect("lines are objects")
        .keys()
        .cloned()
        .collect()
}

/// `key` with its first character written as a `\u` escape.
fn escaped_key(key: &str) -> String {
    let mut chars = key.chars();
    let first = chars.next().expect("keys are not empty");
    format!("\\u{:04x}{}", first as u32, chars.as_str())
}

/// Every event kind survives `event_to_jsonl` → `event_from_jsonl`
/// unchanged, each `f64` bit for bit.
#[test]
fn trace_lines_round_trip_every_event_kind() {
    check::forall(
        "trace_lines_round_trip_every_event_kind",
        &event_seeds(),
        |(kind, words)| {
            let ev = event_of(*kind, words);
            let line = event_to_jsonl(&ev);
            let back = event_from_jsonl(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(back, ev, "line was: {line}");
            let (want, got) = (event_reals(&ev), event_reals(&back));
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "f64 bits of {line}");
            Outcome::Pass
        },
    );
}

/// On mutated lines the trace decoder is exactly as strict as
/// `json::parse`: it never accepts a line `json::parse` rejects, and on
/// every line `json::parse` accepts it decodes what the parsed value
/// says (a later duplicate key wins, an escaped key is the same key).
#[test]
fn trace_decoder_is_no_laxer_than_json_parse() {
    const INSERTS: &[u8] = b"{}[]\":,\\ 0-.eEtfnu/x\n";
    const GARBAGE: [&str; 6] = ["x", ",", "}", " 1", "{}", "\"\""];
    check::forall(
        "trace_decoder_is_no_laxer_than_json_parse",
        &check::triple(event_seeds(), check::usizes(0..6), check::u64_any()),
        |((kind, words), mutation, pick)| {
            let ev = event_of(*kind, words);
            let mut line = event_to_jsonl(&ev);
            let keys = keys_of(&line);
            let at = *pick as usize % (line.len() + 1);
            let key = &keys[*pick as usize % keys.len()];
            match mutation {
                0 if at < line.len() => {
                    line.remove(at);
                }
                1 => line.insert(at, INSERTS[(*pick >> 32) as usize % INSERTS.len()] as char),
                2 => line.truncate(at),
                3 => line.push_str(GARBAGE[(*pick >> 32) as usize % GARBAGE.len()]),
                4 => {
                    // Repeat a field with another event's value for it.
                    let other = event_to_jsonl(&event_of(*kind, &words[words.len().min(1)..]));
                    let value = json::parse(&other).expect("generated lines parse");
                    let mut repeat = format!(",\"{key}\":");
                    canonical(value.get(key).expect("same kind, same keys"), &mut repeat);
                    line.insert_str(line.len() - 1, &repeat);
                }
                _ => {
                    let quoted = format!("\"{key}\":");
                    let escaped = format!("\"{}\":", escaped_key(key));
                    line = line.replacen(&quoted, &escaped, 1);
                }
            }
            match json::parse(&line) {
                Err(e) => assert_eq!(
                    event_from_jsonl(&line),
                    Err(e.to_string()),
                    "the decoder must reject a line json::parse rejects, \
                     with the same error: {line}"
                ),
                Ok(value) => {
                    let mut resolved = String::new();
                    canonical(&value, &mut resolved);
                    assert_eq!(
                        as_parsed(event_from_jsonl(&line)),
                        as_parsed(event_from_jsonl(&resolved)),
                        "line {line} vs its parsed form {resolved}"
                    );
                }
            }
            Outcome::Pass
        },
    );
}

/// A repeated key, plain or escaped, resolves to its later value.
#[test]
fn trace_decoder_takes_the_later_duplicate() {
    check::forall(
        "trace_decoder_takes_the_later_duplicate",
        &check::triple(event_seeds(), check::u64_any(), check::bools()),
        |((kind, words), pick, escape)| {
            let ev = event_of(*kind, words);
            let later = event_of(
                *kind,
                &words.iter().map(|w| w.rotate_left(17)).collect::<Vec<_>>(),
            );
            let (line, later_line) = (event_to_jsonl(&ev), event_to_jsonl(&later));
            let keys = keys_of(&line);
            let key = &keys[*pick as usize % keys.len()];
            let later_value = json::parse(&later_line).expect("generated lines parse");
            let later_value = later_value.get(key).expect("same kind, same keys");
            let mut repeat = String::from(",\"");
            repeat.push_str(&if *escape {
                escaped_key(key)
            } else {
                key.clone()
            });
            repeat.push_str("\":");
            canonical(later_value, &mut repeat);
            let mut doubled = line.clone();
            doubled.insert_str(line.len() - 1, &repeat);

            let mut expected = json::parse(&line).expect("generated lines parse");
            if let JsonValue::Object(map) = &mut expected {
                map.insert(key.clone(), later_value.clone());
            }
            let mut expected_line = String::new();
            canonical(&expected, &mut expected_line);
            assert_eq!(
                as_parsed(event_from_jsonl(&doubled)),
                as_parsed(event_from_jsonl(&expected_line)),
                "{doubled}"
            );
            Outcome::Pass
        },
    );
}

/// Asserts that `text` decodes to `ev`, each `f64` bit for bit.
fn assert_decodes_to(text: &str, ev: &TraceEvent) {
    let back = event_from_jsonl(text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
    assert_eq!(&back, ev, "line was: {text:?}");
    let bits = |v: Vec<f64>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(event_reals(&back)),
        bits(event_reals(ev)),
        "f64 bits of {text:?}"
    );
}

/// The `(key, value)` texts of a flat trace line, in source order and
/// exactly as written.
fn field_texts(line: &str) -> Vec<(String, String)> {
    let inner = line
        .strip_prefix('{')
        .and_then(|l| l.strip_suffix('}'))
        .expect("trace lines are flat objects");
    let mut fields = Vec::new();
    let mut push = |field: &str| {
        let colon = field.find("\":").expect("a key string, then ':'") + 1;
        fields.push((field[..colon].to_string(), field[colon + 1..].to_string()));
    };
    let (mut start, mut in_string, mut escaped) = (0, false, false);
    for (i, c) in inner.char_indices() {
        match (in_string, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (_, false, '"') => in_string = !in_string,
            (false, _, ',') => {
                push(&inner[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    push(&inner[start..]);
    fields
}

/// `fields` written back as one object, with `ws()` between every two
/// tokens and around the object.
fn object_text(fields: &[(String, String)], mut ws: impl FnMut() -> &'static str) -> String {
    let mut out = String::from(ws());
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push_str(ws());
            out.push(',');
        }
        for token in [key.as_str(), ":", value] {
            out.push_str(ws());
            out.push_str(token);
        }
    }
    out.push_str(ws());
    out.push('}');
    out.push_str(ws());
    out
}

/// A uniform index below `n`.
fn pick(rng: &mut Xoshiro256, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// Every event kind, with boundary ids and counters and awkward
/// floats, decodes bit for bit from its written line, and still does
/// after the line's keys are shuffled, after a key is repeated at the
/// end (the later value wins over an odd earlier one), after an
/// unknown key is inserted, after JSON whitespace is put between its
/// tokens, and after all four at once.
#[test]
fn trace_codec_survives_reordering_duplicates_noise_and_whitespace() {
    const WHITESPACE: [&str; 7] = ["", " ", "\t", "\r", "\n", "\r\n", " \t\r\n "];
    const UNKNOWN_KEYS: [&str; 6] = [
        "\"\"",
        "\"e\"",
        "\"tt\"",
        "\"sensors\"",
        "\"ev \"",
        "\"\\u0074x\"",
    ];
    const ODD_VALUES: [&str; 10] = [
        "0",
        "-1.5e-3",
        "18446744073709551616",
        "\"x\"",
        "\"\\u00e9\\n\"",
        "true",
        "false",
        "null",
        "{}",
        "[1,{\"ev\":\"failure\",\"t\":[]}]",
    ];
    check::forall(
        "trace_codec_survives_reordering_duplicates_noise_and_whitespace",
        &check::pair(event_seeds(), check::u64_any()),
        |(seed, shuffle)| {
            let ev = adversarial_event(seed);
            let line = event_to_jsonl(&ev);
            assert_decodes_to(&line, &ev);
            let fields = field_texts(&line);
            assert_eq!(object_text(&fields, || ""), line, "fields split losslessly");
            let mut rng = Xoshiro256::seed_from_u64(*shuffle);

            let mut shuffled = fields.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, pick(&mut rng, i + 1));
            }
            let doubled = |fields: &[(String, String)], rng: &mut Xoshiro256| {
                let mut out = fields.to_vec();
                let i = pick(rng, out.len());
                out[i].1 = ODD_VALUES[pick(rng, ODD_VALUES.len())].to_string();
                out.push(fields[i].clone());
                out
            };
            let noisy = |fields: &[(String, String)], rng: &mut Xoshiro256| {
                let mut out = fields.to_vec();
                let key = UNKNOWN_KEYS[pick(rng, UNKNOWN_KEYS.len())].to_string();
                let value = ODD_VALUES[pick(rng, ODD_VALUES.len())].to_string();
                out.insert(pick(rng, out.len() + 1), (key, value));
                out
            };

            assert_decodes_to(&object_text(&shuffled, || ""), &ev);
            assert_decodes_to(&object_text(&doubled(&fields, &mut rng), || ""), &ev);
            assert_decodes_to(&object_text(&noisy(&fields, &mut rng), || ""), &ev);
            let mut ws_rng = Xoshiro256::seed_from_u64(shuffle.rotate_left(32));
            let mut ws = || WHITESPACE[pick(&mut ws_rng, WHITESPACE.len())];
            assert_decodes_to(&object_text(&fields, &mut ws), &ev);
            let everything = noisy(&doubled(&shuffled, &mut rng), &mut rng);
            assert_decodes_to(&object_text(&everything, &mut ws), &ev);
            Outcome::Pass
        },
    );
}

/// Every proper prefix of a trace line is rejected with `json::parse`'s
/// error, and a trace whose last line is cut walks every complete line
/// and reports the cut one as a `TruncatedTail` with its line number
/// and byte count.
#[test]
fn trace_decoder_rejects_every_prefix_and_reports_a_cut_tail() {
    check::forall(
        "trace_decoder_rejects_every_prefix_and_reports_a_cut_tail",
        &check::pair(check::vec_of(event_seeds(), 1..4), check::u64_any()),
        |(seeds, cut)| {
            let events: Vec<TraceEvent> = seeds.iter().map(adversarial_event).collect();
            let lines: Vec<String> = events.iter().map(event_to_jsonl).collect();
            let last = lines.last().expect("at least one event");
            assert!(last.is_ascii(), "every byte offset is a character boundary");
            for end in 0..last.len() {
                let prefix = &last[..end];
                let want = json::parse(prefix).expect_err("a proper prefix of an object");
                assert_eq!(
                    event_from_jsonl(prefix),
                    Err(want.to_string()),
                    "{prefix:?}"
                );
            }

            let end = 1 + *cut as usize % (last.len() - 1);
            let mut text = trace_header();
            text.push('\n');
            for line in &lines[..lines.len() - 1] {
                text.push_str(line);
                text.push('\n');
            }
            text.push_str(&last[..end]);
            let mut seen = Vec::new();
            let tail = for_each_event_line(&text, |e| seen.push(e.clone()))
                .unwrap_or_else(|e| panic!("a cut tail is not an error: {e}"));
            assert_eq!(seen, events[..events.len() - 1]);
            assert_eq!(
                tail,
                Some(TruncatedTail {
                    line: lines.len() + 1,
                    bytes: end,
                })
            );
            Outcome::Pass
        },
    );
}
