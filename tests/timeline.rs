//! Cross-crate checks for the telemetry timeline and health monitor:
//! sampling must be deterministic and inert (a sampled run's protocol
//! figures are bit-identical to an unsampled one), the offline CSV must
//! be byte-identical to one rendered from the live sampler's values,
//! and the committed golden timelines gate the whole path.

use std::io::Write;
use std::sync::{Arc, Mutex};

use robonet::prelude::*;
use robonet_core::obs::timeline::Timeline;
use robonet_core::JsonlSink;
use robonet_des::SimDuration;

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

const ALGS: [Algorithm; 3] = [
    Algorithm::Centralized,
    Algorithm::Fixed(PartitionKind::Square),
    Algorithm::Dynamic,
];

fn small(alg: Algorithm) -> ScenarioConfig {
    ScenarioConfig::paper(2, alg).with_seed(77).scaled(32.0)
}

fn sampled(alg: Algorithm, every_s: f64) -> ScenarioConfig {
    let mut cfg = small(alg);
    cfg.sample_every = Some(SimDuration::from_secs(every_s));
    cfg
}

fn traced_run(cfg: ScenarioConfig) -> (robonet_core::Outcome, String) {
    let buf = SharedBuf::default();
    let sink = JsonlSink::new(buf.clone());
    let outcome = Simulation::with_sink(cfg, Box::new(sink)).run_to_completion();
    let text = buf.contents();
    (outcome, text)
}

/// Sampling at any cadence is a pure function of (config, seed): the
/// whole trace — protocol events and telemetry samples interleaved —
/// comes out byte-identical across repeated runs.
#[test]
fn sampling_at_any_cadence_is_bit_identical_across_same_seed_runs() {
    for cadence in [50.0, 100.0, 333.0] {
        let (_, a) = traced_run(sampled(Algorithm::Dynamic, cadence));
        let (_, b) = traced_run(sampled(Algorithm::Dynamic, cadence));
        assert!(!a.is_empty());
        assert_eq!(
            a, b,
            "cadence {cadence}: same-seed traces must be byte-identical"
        );
        assert!(
            a.contains("\"ev\":\"telemetry_sample\""),
            "cadence {cadence}: trace must carry samples"
        );
    }
}

/// The sampler observes the run without steering it: every protocol
/// figure of a sampled run is bit-identical to the unsampled run.
#[test]
fn sampling_does_not_perturb_the_run() {
    for alg in ALGS {
        let plain = Simulation::run(small(alg));
        let (observed, _) = traced_run(sampled(alg, 100.0));
        assert_eq!(
            plain.metrics.summary(),
            observed.metrics.summary(),
            "{alg}: sampling must not change protocol results"
        );
    }
}

/// A run without `--sample-every` emits no telemetry at all — the trace
/// is byte-identical to what pre-timeline releases produced (the
/// committed golden spans tables gate the exact bytes; this pins the
/// absence of the new record kinds).
#[test]
fn unsampled_runs_emit_no_telemetry_records() {
    let (outcome, text) = traced_run(small(Algorithm::Dynamic));
    assert!(!text.contains("telemetry_sample"));
    assert!(!text.contains("invariant_violated"));
    assert!(outcome.metrics.telemetry_timeline.is_empty());
    assert_eq!(outcome.metrics.invariant_violations, 0);
}

/// The acceptance bar: the timeline rebuilt offline from the JSONL
/// artifact equals the live run's, samples and violations alike, and
/// so renders byte-identical CSV, for every algorithm.
#[test]
fn offline_timeline_csv_is_bit_exact_against_live_sampler() {
    for alg in ALGS {
        let (outcome, text) = traced_run(sampled(alg, 100.0));

        let live = &outcome.metrics.telemetry_timeline;
        assert!(!live.is_empty(), "{alg}: sampler must have fired");

        let (offline, tail) =
            Timeline::from_jsonl(&text).unwrap_or_else(|e| panic!("{alg}: artifact parses: {e}"));
        assert!(tail.is_none(), "{alg}: complete artifact");
        assert_eq!(
            *live, offline,
            "{alg}: the live timeline must equal the artifact's"
        );
        assert_eq!(
            offline.violations.len(),
            0,
            "{alg}: healthy run must not trip the monitor"
        );
        assert_eq!(
            live.csv(),
            offline.csv(),
            "{alg}: offline CSV must be byte-identical to the live sampler's"
        );
        assert_eq!(
            outcome.metrics.invariant_violations, 0,
            "{alg}: healthy run must not count violations"
        );
    }
}

/// Every advertised series is plottable from a real run, and gauges
/// stay within their physical bounds.
#[test]
fn sampled_gauges_are_internally_consistent() {
    let (outcome, _) = traced_run(sampled(Algorithm::Dynamic, 100.0));
    let n_sensors = outcome.config.n_sensors() as u32;
    let n_robots = outcome.config.n_robots();
    let tl = &outcome.metrics.telemetry_timeline;
    for name in robonet_core::obs::timeline::SERIES {
        let series = tl.series(name).expect("advertised series resolves");
        assert_eq!(series.len(), tl.len(), "{name}: one point per sample");
    }
    for (t, s) in &tl.samples {
        assert_eq!(s.alive + s.down, n_sensors, "t={t}: alive+down=deployed");
        assert_eq!(s.robot_queues.len(), n_robots, "t={t}");
        assert_eq!(s.robot_busy.len(), n_robots, "t={t}");
        assert!((0.0..=1.0).contains(&s.coverage), "t={t}: coverage bounded");
        assert_eq!(
            u64::from(s.open_total()),
            s.failures - s.replaced,
            "t={t}: ledger conserves failures"
        );
    }
}

/// On a lossy run (duplicate reports, redispatches) every sample's
/// `open_*` gauges equal the open repairs per milestone that span
/// assembly of the same trace holds at that point.
#[test]
fn open_gauges_match_span_assembly_on_a_lossy_run() {
    use robonet_core::obs::for_each_event_line;
    use robonet_core::trace::TraceEvent;
    use robonet_core::{FaultPlan, SpanAssembler};

    let mut cfg = ScenarioConfig::paper(2, Algorithm::Centralized)
        .with_seed(1)
        .with_faults(FaultPlan::message_loss(0.2))
        .scaled(16.0);
    cfg.sample_every = Some(SimDuration::from_secs(100.0));
    let (_, text) = traced_run(cfg);
    let mut spans = SpanAssembler::new();
    let mut samples = 0;
    for_each_event_line(&text, |ev| {
        if let TraceEvent::TelemetrySample { t, sample } = ev {
            let gauges = [
                sample.open_failure,
                sample.open_detected,
                sample.open_reported,
                sample.open_dispatched,
            ];
            assert_eq!(gauges, spans.ledger().stage_counts(), "t={t}");
            samples += 1;
        }
        spans.ingest(ev);
    })
    .expect("trace parses");
    assert!(samples > 0);
    assert!(spans.finish().redispatches > 0, "the run re-dispatches");
}

/// The flow-level fast path samples too (when sinked): same record
/// kinds, same conservation, zero violations.
#[test]
fn fastsim_emits_parseable_samples() {
    use robonet_core::fastsim;
    let buf = SharedBuf::default();
    let mut sink = JsonlSink::new(buf.clone());
    let cfg = sampled(Algorithm::Dynamic, 100.0);
    fastsim::run_with_sink(&cfg, &mut sink);
    let (tl, tail) = Timeline::from_jsonl(&buf.contents()).expect("fastsim artifact parses");
    assert!(tail.is_none());
    assert!(!tl.is_empty(), "fastsim sampler must fire");
    assert_eq!(tl.violations.len(), 0, "fastsim ledger must balance");
}

/// Queue depth means the same on both engines: tasks dispatched but
/// not yet installed, including the one a busy robot is driving to, so
/// a busy robot's queue is never empty. In a fault-free run each task
/// is either a repair the ledger holds open at `dispatched` or a false
/// alarm: a `dispatched` for a sensor with no open failure (a guardian
/// declared a live sensor failed). The robot
/// queues a false alarm like any task and installs nothing when it
/// gets there, but the ledger never opens it, so it sits in the queue
/// gauges outside `open_dispatched` until that robot's leg for it
/// ends. Folded from each engine's trace over seeds 1–20, the gauges
/// must add up exactly.
#[test]
fn robot_queues_count_every_dispatched_task_on_both_engines() {
    use robonet_core::fastsim;
    let seeds: Vec<u64> = (1..=20).collect();
    let jobs = robonet_des::pool::resolve_jobs(Some(2));
    let cells = robonet_des::pool::scatter_map(&seeds, jobs, |_, &seed| {
        for alg in ALGS {
            let mut cfg = ScenarioConfig::paper(2, alg).with_seed(seed).scaled(16.0);
            cfg.sample_every = Some(SimDuration::from_secs(50.0));
            let (_, packet) = traced_run(cfg.clone());
            let flow = SharedBuf::default();
            fastsim::run_with_sink(&cfg, &mut JsonlSink::new(flow.clone()));
            for (engine, trace) in [("packet", packet), ("flow", flow.contents())] {
                check_queue_gauges(&format!("{alg} seed {seed} {engine}"), &trace);
            }
        }
    });
    for cell in cells {
        if let Err(panic) = cell {
            panic!("{panic}");
        }
    }
}

/// Checks every telemetry sample in `trace` against the false alarms
/// folded from the events before it.
fn check_queue_gauges(run: &str, trace: &str) {
    use robonet_core::obs::for_each_event_line;
    use robonet_core::trace::TraceEvent;
    use std::collections::{HashMap, HashSet};
    // Open failures per sensor, each robot's false-alarm tasks, and the
    // sensor each robot's current leg drives to.
    let mut open: HashMap<NodeId, u32> = HashMap::new();
    let mut false_alarms: HashMap<NodeId, HashSet<NodeId>> = HashMap::new();
    let mut heading: HashMap<NodeId, NodeId> = HashMap::new();
    let mut samples = 0;
    for_each_event_line(trace, |event| match event {
        TraceEvent::Failure { sensor, .. } => *open.entry(*sensor).or_default() += 1,
        TraceEvent::Replaced { sensor, .. } => *open.entry(*sensor).or_default() -= 1,
        TraceEvent::Dispatched { robot, failed, .. }
            if open.get(failed).copied().unwrap_or(0) == 0 =>
        {
            false_alarms.entry(*robot).or_default().insert(*failed);
        }
        TraceEvent::RobotLegStarted { robot, failed, .. } => {
            heading.insert(*robot, *failed);
        }
        TraceEvent::RobotLegEnded { robot, .. } => {
            if let (Some(failed), Some(alarms)) =
                (heading.remove(robot), false_alarms.get_mut(robot))
            {
                alarms.remove(&failed);
            }
        }
        TraceEvent::TelemetrySample { t, sample } => {
            samples += 1;
            let queued_false: usize = false_alarms.values().map(HashSet::len).sum();
            assert_eq!(
                u64::from(sample.queued_total()),
                u64::from(sample.open_dispatched) + queued_false as u64,
                "{run} t={t}: queues must hold every dispatched repair and false alarm"
            );
            for (r, (&q, &busy)) in sample
                .robot_queues
                .iter()
                .zip(&sample.robot_busy)
                .enumerate()
            {
                assert!(
                    q >= u32::from(busy),
                    "{run} t={t}: robot {r} is busy with an empty queue"
                );
            }
        }
        _ => {}
    })
    .expect("trace parses");
    assert!(samples > 0, "{run}: the sampler must fire");
}

/// The seed-pinned configuration behind the golden timeline CSVs —
/// deliberately the same run `scripts/ci.sh` traces for its golden
/// artifact, so the committed CSVs also gate the CLI path.
fn golden_cfg(alg: Algorithm) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(1, alg).with_seed(7).scaled(64.0);
    cfg.sample_every = Some(SimDuration::from_secs(100.0));
    cfg
}

fn golden_path(name: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("timeline_{name}.csv"))
}

/// Golden telemetry timelines for all three algorithms.
///
/// Regenerate the committed tables with `ROBONET_UPDATE_GOLDEN=1
/// cargo test -q golden_timeline`.
#[test]
fn golden_timeline_csvs() {
    for alg in ALGS {
        let (_, text) = traced_run(golden_cfg(alg));
        let (tl, _) = Timeline::from_jsonl(&text).expect("artifact parses");
        let csv = tl.csv();

        let label = golden_cfg(alg).algorithm.name().to_string();
        let path = golden_path(&label);
        if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
            std::fs::write(&path, &csv).expect("write golden timeline");
            continue;
        }
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("{alg}: missing golden timeline {path:?}: {e}"));
        assert_eq!(
            csv, golden,
            "{alg}: telemetry timeline drifted from {path:?} \
             (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
        );
    }
}
