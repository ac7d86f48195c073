//! Quick-mode self-test of the benchmark: every metric is printed once
//! with its unit, `BENCHMARK.json` names the same metrics and
//! workloads, exact counts repeat bit for bit, and a damaged trace
//! counts as a failed operation instead of vanishing.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::Command;

use robonet_core::obs::json::{self, JsonValue, SpannedNode};
use robonet_perfbench::cell;
use robonet_perfbench::check::{self, Fold, LiveRun, Ops};
use robonet_perfbench::report::{END_TO_END, EXACT, PER_LAYER};
use robonet_perfbench::workload::{self, NAMES};

/// Runs one quick benchmark invocation and returns its stdout lines.
fn quick(workload: &str, seed: u64, trace: bool) -> Vec<String> {
    let bin = if trace {
        env!("CARGO_BIN_EXE_perfbench-traced")
    } else {
        env!("CARGO_BIN_EXE_perfbench")
    };
    let out = Command::new(bin)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "0.01", "--quick"])
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{workload}: exit {:?}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

/// The ledger line (second to last) of a run's output.
fn ledger(lines: &[String]) -> String {
    let line = lines[lines.len() - 2].clone();
    let parsed = json::parse(&line).expect("the ledger line is JSON");
    assert!(parsed.get("ledger").is_some(), "not a ledger line: {line}");
    line
}

/// The exact count `key` in a ledger line.
fn exact(ledger: &str, key: &str) -> u64 {
    json::parse(ledger)
        .expect("the ledger line is JSON")
        .get("ledger")
        .and_then(|l| l.get("exact"))
        .and_then(|e| e.get(key))
        .and_then(JsonValue::as_u64)
        .unwrap_or_else(|| panic!("{key} missing or not a count in {ledger}"))
}

/// The fields of an object, in source order and with duplicates kept.
fn fields(node: &SpannedNode) -> &[(usize, String, json::SpannedValue)] {
    match node {
        SpannedNode::Object(f) => f,
        other => panic!("expected an object, found {}", other.type_name()),
    }
}

#[test]
fn every_metric_appears_exactly_once_with_its_unit() {
    for name in NAMES {
        for trace in [false, true] {
            let lines = quick(name, 1, trace);
            let line = lines.last().expect("a result line");
            let result = json::parse_relaxed(line).expect("the result line is JSON");
            let top = fields(&result.node);
            let keys: Vec<&str> = top.iter().map(|(_, k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                ["correct", "attempted", "failed", "metrics"],
                "{name}: {line}"
            );
            assert_eq!(top[0].2.node, SpannedNode::Bool(true), "{name}: {line}");
            assert_eq!(top[2].2.node, SpannedNode::Number(0.0), "{name}: {line}");
            let metrics = fields(&top[3].2.node);
            let table = if trace { PER_LAYER } else { END_TO_END };
            assert_eq!(metrics.len(), table.len(), "{name}: no extra metrics");
            for m in table {
                let found: Vec<_> = metrics.iter().filter(|(_, k, _)| k == m.name).collect();
                assert_eq!(found.len(), 1, "{name}: {} once", m.name);
                let entry = fields(&found[0].2.node);
                assert_eq!(entry.len(), 2, "{name}: {} has value and unit", m.name);
                assert_eq!(entry[0].1, "value");
                assert!(
                    matches!(entry[0].2.node, SpannedNode::Number(_)),
                    "{name}: {} value",
                    m.name
                );
                assert_eq!(entry[1].1, "unit");
                assert_eq!(
                    entry[1].2.node,
                    SpannedNode::String(m.unit.to_string()),
                    "{name}: {} unit",
                    m.name
                );
            }
        }
    }
}

#[test]
fn benchmark_json_lists_the_same_metrics_and_workloads() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let bench = json::parse(&text).expect("BENCHMARK.json is JSON");
    let listed = |key: &str| -> Vec<(String, String)> {
        match bench.get(key) {
            Some(JsonValue::Array(items)) => items
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(JsonValue::as_str)
                            .unwrap_or_else(|| panic!("{key} entry without {f}"))
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect(),
            _ => panic!("BENCHMARK.json has no {key} list"),
        }
    };
    let table = |t: &[robonet_perfbench::report::Metric]| -> Vec<(String, String)> {
        t.iter()
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(END_TO_END));
    assert_eq!(listed("per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = match bench.get("workloads") {
        Some(JsonValue::Array(items)) => items
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).expect("name"))
            .collect(),
        _ => panic!("BENCHMARK.json has no workloads list"),
    };
    assert_eq!(workloads, NAMES);
}

#[test]
fn exact_counts_repeat_bit_for_bit() {
    for name in NAMES {
        let a = ledger(&quick(name, 7, false));
        let b = ledger(&quick(name, 7, false));
        assert_eq!(a, b, "{name}: untraced runs disagree");
        let traced = ledger(&quick(name, 7, true));
        let again = ledger(&quick(name, 7, true));
        assert_eq!(traced, again, "{name}: traced runs disagree");
        for key in EXACT.iter().filter(|k| **k != "alloc.analyze.count") {
            assert_eq!(
                exact(&a, key),
                exact(&traced, key),
                "{name}: {key} traced vs untraced"
            );
        }
        exact(&traced, "alloc.analyze.count");
    }
}

#[test]
fn a_truncated_trace_is_a_failed_operation() {
    let w = workload::build("observed_repair", 3, true).expect("workload");
    let c = &w.analysis[0];
    let run = cell::run(c, true, false);
    let live = LiveRun::of(c, &run).expect("observed runs keep their trace");
    let tap = run.tap.expect("observed runs keep their trace");
    let text = tap.text();
    let mut ops = Ops::default();
    for f in Fold::ALL {
        assert!(ops.run(f.name(), || check::fold(f, &text, &live)).is_some());
    }
    assert_eq!((ops.attempted, ops.failed), (4, 0), "the whole trace folds");

    // Cut the last record in half: every fold must count a failure.
    let cut = text.trim_end().len() - 10;
    let truncated = &text[..cut];
    for f in Fold::ALL {
        assert!(ops
            .run(f.name(), || check::fold(f, truncated, &live))
            .is_none());
    }
    assert_eq!((ops.attempted, ops.failed), (8, 4));
}
