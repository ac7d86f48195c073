//! Cross-crate checks for the observability layer: JSONL artifacts
//! must reproduce the in-process summary exactly, and attaching sinks
//! must never perturb the simulation itself.

use std::io::Write;
use std::sync::{Arc, Mutex};

use robonet::prelude::*;
use robonet_core::obs::TraceAggregate;
use robonet_core::{FaultPlan, JsonlSink};

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

fn small(alg: Algorithm) -> ScenarioConfig {
    ScenarioConfig::paper(2, alg).with_seed(77).scaled(32.0)
}

#[test]
fn jsonl_artifact_reproduces_summary_exactly() {
    // A lossy run re-dispatches stalled repairs, so the trace carries
    // dispatches no replacement follows — the case that pairing by
    // sensor alone got wrong. Faults go in before scaling, as `robonet
    // run --loss` does, so the recovery timers compress too.
    let lossy = ScenarioConfig::paper(2, Algorithm::Centralized)
        .with_seed(77)
        .with_faults(FaultPlan::message_loss(0.2))
        .scaled(32.0);
    let configs = [
        small(Algorithm::Centralized),
        small(Algorithm::Fixed(PartitionKind::Square)),
        small(Algorithm::Dynamic),
        lossy,
    ];
    for cfg in configs {
        let alg = cfg.algorithm;
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        let outcome = Simulation::with_sink(cfg, Box::new(sink)).run_to_completion();
        let summary = outcome.metrics.summary();

        let text = buf.contents();
        assert!(!text.is_empty(), "{alg}: trace should not be empty");
        let agg = TraceAggregate::from_jsonl(&text)
            .unwrap_or_else(|e| panic!("{alg}: artifact must parse: {e}"));

        // The acceptance bar: averages recomputed from the artifact are
        // bit-identical to the in-process figures, not merely close.
        assert_eq!(
            agg.avg_travel_per_failure().to_bits(),
            summary.avg_travel_per_failure.to_bits(),
            "{alg}: travel drifted"
        );
        assert_eq!(
            agg.avg_report_hops().to_bits(),
            summary.avg_report_hops.to_bits(),
            "{alg}: report hops drifted"
        );
        assert_eq!(agg.failures, summary.failures_occurred, "{alg}");
        assert_eq!(agg.replacements, summary.replacements, "{alg}");
        assert_eq!(
            agg.drops.total(),
            summary.packets_dropped.total(),
            "{alg}: drop counts drifted"
        );
        // The delay is rebuilt from second-valued timestamps, the run's
        // from nanosecond ones: one sample per replacement, same mean.
        assert_eq!(agg.repair_delay.len() as u64, summary.replacements, "{alg}");
        assert!(
            (agg.avg_repair_delay() - summary.avg_repair_delay).abs() < 1e-6,
            "{alg}: repair delay {} vs run {}",
            agg.avg_repair_delay(),
            summary.avg_repair_delay
        );
    }
}

#[test]
fn observing_a_run_does_not_change_it() {
    let plain = Simulation::run(small(Algorithm::Dynamic));
    let buf = SharedBuf::default();
    let observed = Simulation::with_sink(small(Algorithm::Dynamic), Box::new(JsonlSink::new(buf)))
        .run_to_completion();
    // Bit-identical summaries: the sink sees the run, never steers it.
    assert_eq!(plain.metrics.summary(), observed.metrics.summary());
    assert_eq!(plain.events_processed, observed.events_processed);
}

#[test]
fn registry_snapshot_agrees_with_metrics() {
    let outcome = Simulation::run(small(Algorithm::Centralized));
    let m = &outcome.metrics;
    let c = &m.counters;
    assert_eq!(
        c.counter("coord.centralized", "replacements"),
        m.replacements
    );
    assert_eq!(
        c.counter("net.routing", "drops.ttl_expired"),
        m.packets_dropped.ttl_expired
    );
    assert_eq!(
        c.counter("des.scheduler", "events_dispatched"),
        outcome.profile.events_dispatched
    );
    let hops = c
        .histogram("net.routing", "report_hops")
        .expect("hop histogram recorded");
    assert_eq!(hops.count(), m.report_hops.len() as u64);
    let travel = c
        .histogram("robot.fleet", "travel_m")
        .expect("travel histogram recorded");
    assert_eq!(travel.count(), m.travel_per_task.len() as u64);
}

/// The seed-pinned configuration behind the golden spans tables —
/// deliberately the same run `scripts/ci.sh` traces for its golden
/// artifact, so the committed CSVs also gate the CLI path.
fn golden_cfg(alg: Algorithm) -> ScenarioConfig {
    ScenarioConfig::paper(1, alg).with_seed(7).scaled(64.0)
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("spans_{name}.csv"))
}

/// Golden repair-lifecycle decomposition, plus the online/offline
/// parity acceptance bar: assembling spans live (sink tee during the
/// run) and replaying the JSONL artifact afterwards must render
/// byte-identical tables for every algorithm.
///
/// Regenerate the committed tables with `ROBONET_UPDATE_GOLDEN=1
/// cargo test -q golden_spans`.
#[test]
fn golden_spans_tables_online_offline_parity() {
    use robonet_core::{report, SpanAssembler};
    for alg in [
        Algorithm::Centralized,
        Algorithm::Fixed(PartitionKind::Square),
        Algorithm::Dynamic,
    ] {
        let buf = SharedBuf::default();
        let sink = JsonlSink::new(buf.clone());
        let mut outcome =
            Simulation::with_sink(golden_cfg(alg), Box::new(sink)).run_to_completion();

        // Online: the assembler teed off the live event stream.
        let online = outcome.spans.take().expect("sinked run assembles spans");
        // Offline: the same events replayed from the JSONL artifact.
        let offline = SpanAssembler::from_jsonl(&buf.contents())
            .unwrap_or_else(|e| panic!("{alg}: artifact must replay: {e}"));

        let label = golden_cfg(alg).algorithm.name().to_string();
        let online_csv = report::spans_csv(&[(label.clone(), online)]);
        let offline_csv = report::spans_csv(&[(label.clone(), offline)]);
        assert_eq!(
            online_csv, offline_csv,
            "{alg}: online and offline span assembly must render identically"
        );

        let path = golden_path(&label);
        if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &online_csv).expect("write golden table");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{alg}: missing golden table {path:?}: {e}"));
        assert_eq!(
            online_csv, golden,
            "{alg}: span decomposition drifted from {path:?} \
             (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
        );
    }
}

/// Span gauges and assembler counters surface in the registry snapshot
/// when (and only when) the run was observed.
#[test]
fn span_metrics_surface_in_registry() {
    let buf = SharedBuf::default();
    let mut outcome = Simulation::with_sink(
        small(Algorithm::Dynamic),
        Box::new(JsonlSink::new(buf.clone())),
    )
    .run_to_completion();
    let report = outcome.spans.take().expect("observed run has spans");
    let c = &outcome.metrics.counters;
    assert_eq!(
        c.counter("span.assembler", "spans"),
        report.replacements(),
        "assembler counter matches the report"
    );
    for stage in ["span.detection", "span.travel", "span.total"] {
        for q in ["p50_s", "p95_s", "p99_s"] {
            assert!(
                c.gauge(stage, q).is_some(),
                "{stage}.{q} gauge should be published"
            );
        }
    }

    // An unobserved run publishes none of this.
    let plain = Simulation::run(small(Algorithm::Dynamic));
    assert!(plain.spans.is_none());
    assert_eq!(plain.metrics.counters.gauge("span.total", "p50_s"), None);
}

#[test]
fn scheduler_profile_is_populated() {
    let outcome = Simulation::run(small(Algorithm::Dynamic));
    let p = outcome.profile;
    assert_eq!(p.events_dispatched, outcome.events_processed);
    assert!(p.queue_high_water > 0);
    assert!(p.sim_seconds > 0.0);
    assert!(p.wall_seconds > 0.0);
}
