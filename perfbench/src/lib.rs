//! The robonet benchmark: three workloads run through the simulator's
//! public API, timed from outside.
//!
//! One invocation runs one workload for one seed in one of two modes.
//! Untraced (binary `perfbench`, `run.py --trace 0`) measures the
//! end-to-end metrics; traced (binary `perfbench-traced`, which counts
//! heap allocations, `run.py --trace 1`) measures the per-layer ones. Each run
//! prints a diagnostics line, an exact-count ledger line and, last, the
//! result line `{"correct", "attempted", "failed", "metrics"}`. See
//! README.md for the workloads and what each metric should move.

pub mod alloc;
pub mod cell;
pub mod check;
pub mod noise;
pub mod report;
pub mod workload;

use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use robonet_core::field_deployment;
use robonet_core::obs::json::ObjectWriter;

use crate::cell::{CellRun, Counts, LayerTimes};
use crate::check::{Fold, LiveRun, Ops};
use crate::noise::{Probe, Sample};
use crate::report::{median, min, Values};
use crate::workload::{alg_name, Engine, Workload};

/// Timed `field_deployment` passes per traced run.
const DEPLOY_PASSES: usize = 9;
/// Fewest untraced run repetitions, however short `--seconds` is.
const MIN_UNTRACED_REPS: usize = 5;

/// Parsed command line.
#[derive(Debug, Clone)]
pub(crate) struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the run phase measures for.
    pub seconds: f64,
    /// Tiny horizons for the self-test.
    pub quick: bool,
    /// Commit id recorded in the diagnostics.
    pub commit: String,
    /// File the diagnostics and ledger lines are appended to.
    pub log: Option<String>,
}

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S [--quick] [--commit ID] [--log FILE]";

/// Parses `argv` (without the program name).
pub(crate) fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        quick: false,
        commit: "unknown".to_string(),
        log: None,
    };
    let (mut seen_seed, mut seen_seconds) = (false, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => {
                args.seed = value.parse().map_err(|e| format!("bad --seed: {e}"))?;
                seen_seed = true;
            }
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("bad --seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seen_seconds = true;
            }
            "--commit" => args.commit = value.clone(),
            "--log" => args.log = Some(value.clone()),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if args.workload.is_empty() || !seen_seed || !seen_seconds {
        return Err(format!("missing a required flag\n{USAGE}"));
    }
    Ok(args)
}

/// Entry point shared by both binaries. `traced` is true only in
/// `perfbench-traced`, which installs the counting allocator and
/// measures the per-layer metrics; `perfbench` measures the end-to-end
/// ones.
pub fn main_with(traced: bool) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::build(&args.workload, args.seed, args.quick) else {
        eprintln!(
            "perfbench: unknown workload {} (one of {})",
            args.workload,
            workload::NAMES.join(", ")
        );
        return ExitCode::from(2);
    };
    let out = execute(&w, &args, traced);
    let lines = [
        out.diagnostics_line(&w, &args, traced),
        out.ledger_line(&w, &args, traced),
    ];
    if let Some(path) = &args.log {
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| f.write_all(format!("{}\n{}\n", lines[0], lines[1]).as_bytes()));
        if let Err(e) = appended {
            eprintln!("perfbench: cannot append to {path}: {e}");
        }
    }
    let result = match out.result_line(traced) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    println!("{}\n{}\n{result}", lines[0], lines[1]);
    ExitCode::SUCCESS
}

/// Everything one invocation measured.
#[derive(Debug, Default)]
pub(crate) struct Outcome {
    /// Operations attempted and failed.
    pub ops: Ops,
    /// Metric values (end-to-end or per-layer, by mode).
    pub values: Values,
    /// Exact counts for the ledger.
    pub exact: Values,
    /// Timed samples with their noise.
    pub samples: Vec<Sample>,
    /// Per cell: the microseconds of each of its untraced runs.
    pub cell_us: Vec<Vec<u64>>,
}

impl Outcome {
    fn diagnostics_line(&self, w: &Workload, args: &Args, traced: bool) -> String {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let samples: Vec<String> = self.samples.iter().map(Sample::json).collect();
        let cell_us: Vec<String> = self
            .cell_us
            .iter()
            .map(|runs| {
                let runs: Vec<String> = runs.iter().map(u64::to_string).collect();
                format!("[{}]", runs.join(","))
            })
            .collect();
        let mut d = ObjectWriter::new();
        d.field_str("workload", w.name)
            .field_u64("seed", args.seed)
            .field_u64("trace", u64::from(traced))
            .field_str("commit", &args.commit)
            .field_u64("nproc", nproc as u64)
            .field_raw("samples", &format!("[{}]", samples.join(",")))
            .field_raw("cell_us", &format!("[{}]", cell_us.join(",")));
        let mut line = ObjectWriter::new();
        line.field_raw("diagnostics", &d.finish());
        line.finish()
    }

    fn ledger_line(&self, w: &Workload, args: &Args, traced: bool) -> String {
        let mut l = ObjectWriter::new();
        l.field_str("workload", w.name)
            .field_u64("seed", args.seed)
            .field_u64("trace", u64::from(traced))
            .field_raw("exact", &self.exact.plain_json(report::EXACT));
        let mut line = ObjectWriter::new();
        line.field_raw("ledger", &l.finish());
        line.finish()
    }

    /// The final result line.
    fn result_line(&self, traced: bool) -> Result<String, String> {
        let table = if traced {
            report::PER_LAYER
        } else {
            report::END_TO_END
        };
        let mut line = ObjectWriter::new();
        line.field_bool("correct", self.ops.failed == 0)
            .field_u64("attempted", self.ops.attempted)
            .field_u64("failed", self.ops.failed)
            .field_raw(
                "metrics",
                &self.values.metrics_json(table, self.ops.failed > 0)?,
            );
        Ok(line.finish())
    }
}

/// One repetition of the run phase: every cell once.
struct Rep {
    run_s: f64,
    cells: Vec<CellRun>,
}

impl Rep {
    fn totals(&self) -> Counts {
        let mut total = Counts::default();
        for c in &self.cells {
            total.add(&c.counts);
        }
        total
    }
}

/// Compares a repetition's per-cell counts with the reference run's.
fn same_counts(w: &Workload, reference: &Rep, rep: &Rep, what: &str, ops: &mut Ops) {
    for (i, (a, b)) in reference.cells.iter().zip(&rep.cells).enumerate() {
        if a.counts != b.counts {
            ops.fail(
                &format!("{} cell {} {what}", w.name, w.cells[i].label()),
                &format!("work counts differ: {:?} vs {:?}", a.counts, b.counts),
            );
        }
    }
}

/// Builds every cell's world once: (total seconds, seconds in
/// `Simulation::new`).
fn setup_pass(w: &Workload, ops: &mut Ops) -> (f64, f64) {
    let (mut total, mut harness) = (0.0, 0.0);
    for c in &w.cells {
        let what = format!("{} setup {}", w.name, c.label());
        if let Some(s) = ops.run(&what, || Ok(cell::setup_once(c))) {
            total += s;
            if c.engine == Engine::Packet {
                harness += s;
            }
        }
    }
    (total, harness)
}

/// The traces the analysis phase folds, and its timings.
struct Analysis {
    /// Each trace with what its live run reported.
    traces: Vec<(String, LiveRun)>,
    bytes: u64,
    /// Per fold: every recorded pass's time over all traces.
    per_fold: Vec<Vec<f64>>,
    /// Per (fold, trace), fold-major: every recorded time of that one
    /// fold over that one trace.
    per_item: Vec<Vec<f64>>,
}

impl Analysis {
    /// Records each analysis cell's trace in one sampled run, outside
    /// every timing.
    fn prepare(w: &Workload, ops: &mut Ops) -> Option<Analysis> {
        let mut traces = Vec::with_capacity(w.analysis.len());
        let mut bytes = 0;
        for c in &w.analysis {
            let what = format!("{} observed {}", w.name, c.label());
            let run = ops.run(&what, || {
                let r = cell::run(c, true, false);
                r.counts.check()?;
                Ok(r)
            })?;
            let tap = run.tap.as_ref()?;
            bytes += tap.bytes();
            traces.push((tap.text(), LiveRun::of(c, &run)?));
        }
        let items = Fold::ALL.len() * traces.len();
        Some(Analysis {
            traces,
            bytes,
            per_fold: vec![Vec::new(); Fold::ALL.len()],
            per_item: vec![Vec::new(); items],
        })
    }

    /// Runs and checks the four folds once over every trace; returns
    /// their total time.
    fn pass(&mut self, w: &Workload, ops: &mut Ops, record: bool) -> f64 {
        let mut total = 0.0;
        for (i, f) in Fold::ALL.iter().enumerate() {
            let what = format!("{} fold {}", w.name, f.name());
            let mut s = 0.0;
            for (j, (text, live)) in self.traces.iter().enumerate() {
                let t = Instant::now();
                ops.run(&what, || check::fold(*f, text, live));
                let item = t.elapsed().as_secs_f64();
                if record {
                    self.per_item[i * self.traces.len() + j].push(item);
                }
                s += item;
            }
            if record {
                self.per_fold[i].push(s);
            }
            total += s;
        }
        total
    }

    /// `analyze_s`: the sum over every (fold, trace) of its shortest
    /// recorded time.
    fn best_total(&self) -> f64 {
        self.per_item.iter().map(|v| min(v)).sum()
    }

    /// One timed pass, recorded as an analysis sample.
    fn timed_pass(&mut self, w: &Workload, out: &mut Outcome) {
        let probe = Probe::now();
        let total = self.pass(w, &mut out.ops, true);
        out.samples.push(Sample::since("analyze", total, probe));
    }
}

/// The state of one invocation's measurement.
struct Bench<'a> {
    w: &'a Workload,
    out: Outcome,
    /// Every set-up batch's time.
    setup: Vec<f64>,
    /// Per set-up batch: `Simulation::new` time of one set-up.
    harness_new: Vec<f64>,
    /// Present once the reference repetition has run; from then on
    /// set-up batches and analysis passes interleave with the cells.
    analysis: Option<Analysis>,
}

impl Bench<'_> {
    /// One timed batch of `setup_batch` set-ups of every cell; returns
    /// its time.
    fn setup_batch(&mut self) -> f64 {
        let probe = Probe::now();
        let (mut total, mut harness) = (0.0, 0.0);
        for _ in 0..self.w.setup_batch {
            let (t, h) = setup_pass(self.w, &mut self.out.ops);
            total += t;
            harness += h;
        }
        self.harness_new.push(harness / self.w.setup_batch as f64);
        self.out.samples.push(Sample::since("setup", total, probe));
        total
    }

    /// Runs every cell once, then (once the analysis is prepared) one
    /// set-up batch and one analysis pass; `None` if any cell failed.
    ///
    /// Interleaving the phases makes each of them sample the host's
    /// speed over the whole run, as the run phase does, instead of
    /// catching a few instants.
    fn rep(&mut self, traced: bool) -> Option<Rep> {
        let w = self.w;
        let n = w.cells.len();
        let mut cells = Vec::with_capacity(n);
        let mut ok = true;
        let probe = Probe::now();
        for (i, c) in w.cells.iter().enumerate() {
            let what = format!("{} cell {}", w.name, c.label());
            let r = self.out.ops.run(&what, || {
                let r = cell::run(c, w.observed, traced);
                r.counts.check()?;
                Ok(r)
            });
            match r {
                Some(r) => {
                    if !traced {
                        self.out.cell_us.resize(n, Vec::new());
                        self.out.cell_us[i].push((r.run_s * 1e6).round() as u64);
                    }
                    cells.push(r);
                }
                None => ok = false,
            }
        }
        let run_s = cells.iter().map(|c| c.run_s).sum();
        let phase = if traced { "run.traced" } else { "run" };
        self.out.samples.push(Sample::since(phase, run_s, probe));
        if self.analysis.is_some() {
            let s = self.setup_batch();
            self.setup.push(s);
            if let Some(a) = self.analysis.as_mut() {
                a.timed_pass(w, &mut self.out);
            }
        }
        ok.then_some(Rep { run_s, cells })
    }
}

/// Set-up, run and analysis phases for one workload.
///
/// A warm-up set-up comes first, then one reference repetition, which
/// also fixes `peak_rss_mb` (set-up plus one full run); the traces to
/// fold are recorded after it. Further repetitions follow, each
/// ending with one set-up batch and one analysis pass, until
/// `--seconds` have passed.
pub(crate) fn execute(w: &Workload, args: &Args, traced: bool) -> Outcome {
    let mut b = Bench {
        w,
        out: Outcome::default(),
        setup: Vec::new(),
        harness_new: Vec::new(),
        analysis: None,
    };
    setup_pass(w, &mut b.out.ops); // warm-up, untimed

    let start = Instant::now();
    let Some(reference) = b.rep(false) else {
        return b.out;
    };
    let peak_rss = noise::peak_rss_mb();
    let Some(mut analysis) = Analysis::prepare(w, &mut b.out.ops) else {
        b.out
            .ops
            .fail(&format!("{} analysis", w.name), "no trace to fold");
        return b.out;
    };
    analysis.pass(w, &mut b.out.ops, false); // warm-up, untimed
    b.analysis = Some(analysis);

    let mut untraced_s = vec![reference.run_s];
    let mut best_cell_s: Vec<f64> = reference.cells.iter().map(|c| c.run_s).collect();
    let mut traced_reps = Vec::new();
    loop {
        if traced {
            if let Some(rep) = b.rep(true) {
                same_counts(w, &reference, &rep, "traced vs untraced", &mut b.out.ops);
                traced_reps.push(rep);
            }
        }
        let enough = if traced {
            !traced_reps.is_empty()
        } else {
            untraced_s.len() >= MIN_UNTRACED_REPS
        };
        if (enough && start.elapsed().as_secs_f64() >= args.seconds) || b.out.ops.failed > 0 {
            break;
        }
        if let Some(rep) = b.rep(false) {
            same_counts(w, &reference, &rep, "repeat", &mut b.out.ops);
            untraced_s.push(rep.run_s);
            for (best, c) in best_cell_s.iter_mut().zip(&rep.cells) {
                *best = best.min(c.run_s);
            }
        }
    }

    let Bench {
        mut out,
        setup,
        harness_new,
        analysis,
        ..
    } = b;
    let mut analysis = analysis.expect("set before the loop");
    let totals = reference.totals();
    exact_counts(&mut out.exact, &totals);
    if !traced {
        // Best times, not medians: the host's speed changes every few
        // hundred milliseconds, so the share of a run spent slow
        // varies from run to run, while each run catches the fast
        // mode in its shortest samples. Short samples (one cell, one
        // fold over one trace) catch it most often.
        out.values.float("setup_s", min(&setup));
        out.values.float("run_s", best_cell_s.iter().sum());
        out.values.float("analyze_s", analysis.best_total());
        out.values.float("peak_rss_mb", peak_rss);
        return out;
    }
    layer_metrics(&mut out.values, w, &totals, &traced_reps, &untraced_s);
    out.values.float("harness.new_s", median(&harness_new));
    let (_, allocs) = alloc::count(|| setup_pass(w, &mut out.ops));
    out.values.int("alloc.setup.count", allocs.count);
    let deploy: Vec<f64> = (0..DEPLOY_PASSES)
        .map(|_| {
            w.cells
                .iter()
                .map(|c| {
                    let t = Instant::now();
                    std::hint::black_box(field_deployment(&c.cfg));
                    t.elapsed().as_secs_f64()
                })
                .sum()
        })
        .collect();
    out.values.float("geom.deploy_s", median(&deploy));
    let (_, allocs) = alloc::count(|| analysis.pass(w, &mut out.ops, false));
    out.exact.int("alloc.analyze.count", allocs.count);
    out.values.int("alloc.analyze.count", allocs.count);
    let fold_names = [
        "obs.fold.stats_s",
        "obs.fold.spans_s",
        "obs.fold.timeline_s",
        "obs.fold.replay_s",
    ];
    let mut fold_total = 0.0;
    for (name, times) in fold_names.iter().zip(&analysis.per_fold) {
        let t = median(times);
        fold_total += t;
        out.values.float(name, t);
    }
    out.values.float(
        "obs.fold.mb_per_s",
        analysis.bytes as f64 / 1e6 / fold_total,
    );
    out
}

/// The ledger's exact counts from the reference repetition.
fn exact_counts(exact: &mut Values, t: &Counts) {
    exact.int("des.events", t.events);
    exact.int("des.queue_high_water", t.queue_high_water);
    exact.int("des.wheel.overflow_promotions", t.overflow_promotions);
    exact.int("radio.collisions", t.collisions);
    exact.int("net.drops", t.drops);
    exact.int("coord.replacements", t.replacements);
    exact.int("fastsim.failures", t.flow_failures);
    exact.int("obs.samples", t.samples);
}

/// Per-layer metrics from the traced repetitions.
fn layer_metrics(v: &mut Values, w: &Workload, t: &Counts, reps: &[Rep], untraced_s: &[f64]) {
    let run_s = median(&reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    let layer = |f: fn(&LayerTimes) -> f64| -> f64 {
        median(
            &reps
                .iter()
                .map(|r| r.cells.iter().map(|c| f(&c.layers)).sum())
                .collect::<Vec<_>>(),
        )
    };
    let radio_s = layer(|l| l.radio_s);
    let attributed = layer(LayerTimes::attributed);
    let packet = w.cells.iter().any(|c| c.engine == Engine::Packet);
    let flow_s = median(
        &reps
            .iter()
            .map(|r| {
                r.cells
                    .iter()
                    .zip(&w.cells)
                    .filter(|(_, c)| c.engine == Engine::Flow)
                    .map(|(run, _)| run.run_s)
                    .sum()
            })
            .collect::<Vec<_>>(),
    );
    let per_ns = |secs: f64, n: u64| if n == 0 { 0.0 } else { secs * 1e9 / n as f64 };

    for (name, value) in [
        ("des.events", t.events),
        ("des.queue_high_water", t.queue_high_water),
        ("des.wheel.overflow_promotions", t.overflow_promotions),
        ("radio.data_tx", t.data_tx),
        ("radio.ack_tx", t.ack_tx),
        ("radio.collisions", t.collisions),
        ("net.beacon_tx", t.beacon_tx),
        ("net.flood_tx", t.flood_tx),
        ("net.drops", t.drops),
        ("coord.failures", t.failures),
        ("coord.replacements", t.replacements),
        ("fastsim.failures", t.flow_failures),
        ("obs.sink.events", t.sink_events),
        ("obs.sink.bytes", t.sink_bytes),
        ("obs.samples", t.samples),
    ] {
        v.int(name, value);
    }
    let events_per_s = if packet && run_s > 0.0 {
        t.events as f64 / run_s
    } else {
        0.0
    };
    v.float("des.events_per_s", events_per_s);
    v.float(
        "des.unattributed_s",
        if packet { run_s - attributed } else { 0.0 },
    );
    v.float(
        "radio.delivery_ratio",
        cell::ratio(t.delivered, t.delivered + t.mac_dropped),
    );
    v.float("radio.self_s", radio_s);
    v.float("radio.ns_per_frame", per_ns(radio_s, t.data_tx + t.ack_tx));
    v.float(
        "net.report_hops_mean",
        if t.reports_delivered == 0 {
            0.0
        } else {
            t.report_hops as f64 / t.reports_delivered as f64
        },
    );
    v.float("net.self_s", layer(|l| l.net_s));
    v.float(
        "coord.repair_ratio",
        cell::ratio(t.replacements, t.failures),
    );
    v.float("robot.travel_m", t.travel_m);
    v.float("coord.self_s", layer(|l| l.coord_s));
    v.float("fastsim.ns_per_failure", per_ns(flow_s, t.flow_failures));
    v.float("obs.sink.record_s", layer(|l| l.record_s));
    v.float("obs.sampler_s", layer(|l| l.sampler_s));
    for (alg, name) in [
        ("centralized", "cell.centralized.run_s"),
        ("fixed", "cell.fixed.run_s"),
        ("dynamic", "cell.dynamic.run_s"),
    ] {
        let secs = median(
            &reps
                .iter()
                .map(|r| {
                    r.cells
                        .iter()
                        .zip(&w.cells)
                        .filter(|(_, c)| alg_name(c.cfg.algorithm) == alg)
                        .map(|(run, _)| run.run_s)
                        .sum()
                })
                .collect::<Vec<_>>(),
        );
        v.float(name, secs);
    }
    let first = reps.first();
    let mut allocs = alloc::Allocs::default();
    for c in first.map_or(&[][..], |r| &r.cells[..]) {
        allocs.add(c.allocs);
    }
    v.int("alloc.run.count", allocs.count);
    v.int("alloc.run.bytes", allocs.bytes);
    let untraced = median(untraced_s);
    v.float(
        "trace.overhead_ratio",
        if untraced > 0.0 {
            run_s / untraced
        } else {
            0.0
        },
    );
}
