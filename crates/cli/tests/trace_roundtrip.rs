//! End-to-end check of the trace artifact pipeline: `robonet run
//! --trace-out` → JSONL + manifest on disk → `robonet stats` printing
//! the same per-failure figures the run itself reported.

use robonet_cli::run_cli;

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

#[test]
fn trace_out_and_stats_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join("roundtrip.jsonl");
    let trace_s = trace.to_str().expect("utf-8 tmpdir");

    let run_out = run_cli(&args(&[
        "run",
        "--alg",
        "dynamic",
        "--k",
        "1",
        "--scale",
        "64",
        "--seed",
        "7",
        "--trace-out",
        trace_s,
    ]))
    .expect("traced run succeeds");
    assert!(run_out.contains("trace written:"));
    assert!(run_out.contains("dropped packets:"));

    // Every artifact line is one well-formed JSON object.
    let text = std::fs::read_to_string(&trace).expect("trace file exists");
    assert!(!text.is_empty());
    for (i, line) in text.lines().enumerate() {
        robonet_core::obs::json::parse(line)
            .unwrap_or_else(|e| panic!("line {}: bad JSON: {e:?}", i + 1));
    }

    // The trace leads with a versioned schema header.
    let first = text.lines().next().expect("trace has lines");
    let header = robonet_core::obs::json::parse(first).expect("header parses");
    assert_eq!(
        header.get("schema").and_then(|v| v.as_str()),
        Some("robonet-trace")
    );
    assert_eq!(
        header.get("schema_version").and_then(|v| v.as_u64()),
        Some(robonet_core::obs::TRACE_SCHEMA_VERSION)
    );

    // The manifest sits next to the trace and parses as one object.
    let manifest = dir.join("roundtrip.manifest.json");
    let mtext = std::fs::read_to_string(&manifest).expect("manifest exists");
    let m = robonet_core::obs::json::parse(mtext.trim()).expect("manifest parses");
    assert_eq!(m.get("algorithm").and_then(|v| v.as_str()), Some("dynamic"));
    assert_eq!(m.get("seed").and_then(|v| v.as_u64()), Some(7));
    assert!(m.get("counters").is_some(), "counter snapshot present");
    assert_eq!(
        m.get("schema_version").and_then(|v| v.as_u64()),
        Some(robonet_core::obs::TRACE_SCHEMA_VERSION),
        "manifest carries the schema version"
    );

    // `stats` reproduces the run's own headline lines verbatim — the
    // averages are recomputed from the artifact yet bit-identical.
    let stats_out = run_cli(&args(&["stats", trace_s])).expect("stats succeeds");
    for key in [
        "failures:",
        "replacements:",
        "travel per failure:",
        "report hops:",
    ] {
        let from_run = run_out
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("run output missing `{key}`"));
        let from_stats = stats_out
            .lines()
            .find(|l| l.starts_with(key))
            .unwrap_or_else(|| panic!("stats output missing `{key}`"));
        assert_eq!(from_run, from_stats, "`{key}` line must match exactly");
    }
}

#[test]
fn trace_ring_and_trace_out_record_the_same_run() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let run_to = |name: &str, ring: bool| {
        let trace = dir.join(name);
        let mut argv = args(&["run", "--alg", "dynamic", "--k", "1", "--scale", "64"]);
        argv.extend(args(&[
            "--seed",
            "7",
            "--trace-out",
            trace.to_str().unwrap(),
        ]));
        if ring {
            argv.extend(args(&["--trace", "5"]));
        }
        let out = run_cli(&argv).expect("traced run succeeds");
        (
            out,
            std::fs::read_to_string(&trace).expect("trace file exists"),
        )
    };
    let (out, both) = run_to("tee_both.jsonl", true);
    let (_, alone) = run_to("tee_alone.jsonl", false);

    // The ring rides alongside the stream without changing a byte of it.
    assert_eq!(
        both, alone,
        "--trace must not perturb the --trace-out stream"
    );
    let mut events = Vec::new();
    robonet_core::obs::for_each_event_line(&both, |ev| events.push(ev.to_string()))
        .expect("complete trace");
    assert_eq!(
        events.len(),
        both.lines().count() - 1,
        "every line after the header"
    );
    assert!(events.len() > 5);

    // The ring printed exactly the stream's last 5 events.
    let printed: Vec<&str> = out
        .lines()
        .skip_while(|l| *l != "last 5 protocol events:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .map(str::trim_start)
        .collect();
    assert_eq!(printed, events[events.len() - 5..], "{out}");
}

#[test]
fn stats_rejects_missing_and_malformed_input() {
    assert!(run_cli(&args(&["stats"])).is_err(), "usage error");
    assert!(
        run_cli(&args(&["stats", "/nonexistent/no.jsonl"])).is_err(),
        "missing file"
    );

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let bad = dir.join("bad.jsonl");
    std::fs::write(&bad, "{\"ev\":\"not_a_kind\",\"t\":0.0}\n").unwrap();
    let err = run_cli(&args(&["stats", bad.to_str().unwrap()])).unwrap_err();
    assert!(err.contains("line 1"), "error locates the line: {err}");
}

#[test]
fn truncated_trace_degrades_to_a_note_over_the_complete_prefix() {
    // A trace cut off mid-write (crashed or still-writing producer):
    // valid header, one valid event, then a line truncated partway
    // through its JSON object. The analyzers cover the complete prefix
    // and flag the ragged tail instead of erroring out.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let cut = dir.join("truncated.jsonl");
    std::fs::write(
        &cut,
        format!(
            "{}\n{}\n{}",
            robonet_core::obs::trace_header(),
            "{\"ev\":\"failure\",\"t\":1.5,\"sensor\":3}",
            "{\"ev\":\"replaced\",\"t\":9.0,\"rob"
        ),
    )
    .unwrap();
    let cut_s = cut.to_str().unwrap();
    for verb in ["stats", "spans", "replay"] {
        let out = run_cli(&args(&[verb, cut_s]))
            .unwrap_or_else(|e| panic!("{verb} must tolerate a ragged tail: {e}"));
        assert!(
            out.contains("truncated tail"),
            "{verb}: output flags the tail: {out}"
        );
        assert!(
            out.contains("line 3"),
            "{verb}: note locates the cut: {out}"
        );
        assert!(
            out.contains("complete prefix"),
            "{verb}: note says what the figures cover: {out}"
        );
    }
    // The complete prefix is actually analyzed: the failure made it in.
    let stats = run_cli(&args(&["stats", cut_s])).unwrap();
    assert!(stats.contains("failures:             1"), "{stats}");

    // A *terminated* malformed line is still a hard, located error.
    let bad = dir.join("corrupt.jsonl");
    std::fs::write(
        &bad,
        format!(
            "{}\n{}\n{}\n",
            robonet_core::obs::trace_header(),
            "{\"ev\":\"failure\",\"t\":1.5,\"sensor\":3}",
            "{\"ev\":\"replaced\",\"t\":9.0,\"rob"
        ),
    )
    .unwrap();
    for verb in ["stats", "spans", "replay"] {
        let err = run_cli(&args(&[verb, bad.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("line 3"), "{verb}: error locates it: {err}");
    }
}

#[test]
fn unknown_schema_version_is_rejected() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let future = dir.join("future.jsonl");
    std::fs::write(
        &future,
        "{\"schema\":\"robonet-trace\",\"schema_version\":99}\n\
         {\"ev\":\"failure\",\"t\":1.5,\"sensor\":3}\n",
    )
    .unwrap();
    for verb in ["stats", "spans"] {
        let err = run_cli(&args(&[verb, future.to_str().unwrap()])).unwrap_err();
        assert!(
            err.contains("schema_version 99"),
            "{verb}: error names the version: {err}"
        );
        assert!(
            err.contains("version 1"),
            "{verb}: error names the supported version: {err}"
        );
    }
}

#[test]
fn spans_analyzer_decomposes_a_trace() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join("spans_single.jsonl");
    let trace_s = trace.to_str().unwrap();
    run_cli(&args(&[
        "run",
        "--alg",
        "dynamic",
        "--k",
        "1",
        "--scale",
        "64",
        "--seed",
        "7",
        "--trace-out",
        trace_s,
    ]))
    .expect("traced run succeeds");

    // Text mode: labelled by the manifest's algorithm, all packet-level
    // stages present.
    let text = run_cli(&args(&["spans", trace_s])).expect("spans succeeds");
    assert!(text.contains("dynamic:"), "manifest label used: {text}");
    for stage in [
        "detection",
        "report_transit",
        "dispatch_decision",
        "travel",
        "install",
        "total",
    ] {
        assert!(text.contains(stage), "missing stage `{stage}`: {text}");
    }

    // CSV mode: header plus one line per (algorithm, stage).
    let csv = run_cli(&args(&["spans", trace_s, "--csv"])).expect("spans --csv succeeds");
    let mut lines = csv.lines();
    assert_eq!(
        lines.next(),
        Some("algorithm,stage,count,mean_s,p50_s,p95_s,p99_s,max_s")
    );
    assert!(lines.all(|l| l.starts_with("dynamic,")));
}

#[test]
fn spans_by_alg_lays_traces_side_by_side() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let mut traces = Vec::new();
    for alg in ["fixed", "centralized"] {
        let trace = dir.join(format!("spans_{alg}.jsonl"));
        run_cli(&args(&[
            "run",
            "--alg",
            alg,
            "--k",
            "1",
            "--scale",
            "64",
            "--seed",
            "7",
            "--trace-out",
            trace.to_str().unwrap(),
        ]))
        .expect("traced run succeeds");
        traces.push(trace);
    }
    let csv = run_cli(&args(&[
        "spans",
        traces[0].to_str().unwrap(),
        traces[1].to_str().unwrap(),
        "--by-alg",
        "--csv",
    ]))
    .expect("spans --by-alg succeeds");
    assert!(csv.lines().any(|l| l.starts_with("fixed,")));
    assert!(csv.lines().any(|l| l.starts_with("centralized,")));
    let text = run_cli(&args(&[
        "spans",
        traces[0].to_str().unwrap(),
        traces[1].to_str().unwrap(),
        "--by-alg",
    ]))
    .expect("spans text succeeds");
    assert!(text.contains("fixed:") && text.contains("centralized:"));
}

/// `stats` and `replay` of a sampled trace with message loss and robot
/// breakdowns: drops, robot deaths and repairs, and telemetry samples
/// all reach the summaries, which must stay byte-identical to the
/// committed goldens (regenerate with `ROBONET_UPDATE_GOLDEN=1`).
#[test]
fn lossy_sampled_summaries_match_goldens() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let trace = dir.join("lossy_sampled.jsonl");
    let trace_s = trace.to_str().unwrap();
    run_cli(&args(&[
        "run",
        "--alg",
        "centralized",
        "--k",
        "2",
        "--scale",
        "64",
        "--seed",
        "1",
        "--loss",
        "0.2",
        "--breakdown",
        "8000",
        "--breakdown-repair",
        "600",
        "--sample-every",
        "100",
        "--trace-out",
        trace_s,
    ]))
    .expect("traced run succeeds");
    let golden_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden");
    for verb in ["stats", "replay"] {
        let out = run_cli(&args(&[verb, trace_s]))
            .unwrap_or_else(|e| panic!("{verb} succeeds: {e}"))
            .replace(trace_s, "<trace>");
        let path = golden_dir.join(format!("{verb}_lossy_centralized.txt"));
        if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &out).expect("write golden");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"));
        assert_eq!(out, golden, "{verb}: output drifted from {path:?}");
    }
}
