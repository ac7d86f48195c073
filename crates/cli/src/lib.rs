//! Implementation of the `robonet` command-line interface.
//!
//! Kept as a library so argument parsing and command dispatch are unit
//! testable; `main.rs` is a thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod replay;
pub mod timeline;

pub use replay::REPLAY_FLAGS;
pub use timeline::TIMELINE_FLAGS;

use std::fmt::Write as _;

use robonet_bench::{average_series, sweep, sweep_result, SweepOptions};
use robonet_core::obs::json::{self, ObjectWriter};
use robonet_core::obs::TRACE_SCHEMA_VERSION;
use robonet_core::report::{self, Row};
use robonet_core::{
    compile_scenario, Algorithm, DispatchPolicy, FaultPlan, JsonlSink, Outcome, Overrides,
    RingSink, ScenarioConfig, Simulation, SpanAssembler, TeeSink, TraceAggregate,
};
use robonet_des::SimDuration;

/// Every flag `robonet run` accepts, with whether it takes a value —
/// the single source of truth the usage text is audited against (see
/// the `usage_documents_every_run_flag` test).
pub const RUN_FLAGS: &[(&str, bool)] = &[
    ("--scenario", true),
    ("--alg", true),
    ("--k", true),
    ("--sensors", true),
    ("--scale", true),
    ("--seed", true),
    ("--prune", true),
    ("--dispatch", true),
    ("--trace", true),
    ("--trace-out", true),
    ("--progress", false),
    ("--loss", true),
    ("--report-loss", true),
    ("--dispatch-loss", true),
    ("--update-loss", true),
    ("--breakdown", true),
    ("--breakdown-repair", true),
    ("--slow-prob", true),
    ("--slow-factor", true),
    ("--sample-every", true),
    ("--profile-out", true),
];

/// The usage text (returned so tests can audit it against the parser).
pub fn usage_text() -> String {
    "robonet — robot-assisted sensor replacement simulator (Mei et al., ICDCS 2006)\n\
     \n\
     USAGE:\n\
     \x20 robonet run     --alg <fixed|fixed-hex|dynamic|centralized> [--k N]\n\
     \x20                 [--scenario FILE.rjson]\n\
     \x20                 [--sensors N] [--scale F] [--seed N] [--prune F]\n\
     \x20                 [--dispatch <nearest|nearest-idle>]\n\
     \x20                 [--trace N] [--trace-out FILE] [--progress]\n\
     \x20                 [--loss P] [--report-loss P] [--dispatch-loss P]\n\
     \x20                 [--update-loss P] [--breakdown MEAN_SECS]\n\
     \x20                 [--breakdown-repair SECS] [--slow-prob P] [--slow-factor F]\n\
     \x20                 [--sample-every SECS] [--profile-out FILE]\n\
     \x20 robonet stats   <run.jsonl>\n\
     \x20 robonet timeline <run.jsonl> [--csv] [--svg FILE] [--series a,b,c]\n\
     \x20                 [--compare other.jsonl]...\n\
     \x20 robonet spans   <run.jsonl>... [--csv] [--by-alg]\n\
     \x20 robonet replay  <run.jsonl|-> [--at T] [--svg FILE] [--heatmap FILE]\n\
     \x20                 [--waterfall FILE] [--metric <failures|latency>]\n\
     \x20                 [--grid N] [--rows N] [--duration SECS] [--follow]\n\
     \x20                 [--poll-ms N]\n\
     \x20 robonet figures [--scale F] [--seeds a,b] [--ks 2,3,4] [--jobs N]\n\
     \x20 robonet sweep   [--scale F] [--seeds a,b] [--ks 2,3,4] [--jobs N]\n\
     \n\
     `--scale F` compresses simulated time F× (default 16; use 1 for the\n\
     paper's full 64000 s runs). Only Figure 2's travel per failure survives\n\
     compression; report hops, update cost and repair ratio drift at large F\n\
     (see `ScenarioConfig::scaled`).\n\
     `--scenario FILE.rjson` loads a declarative scenario (field geometry,\n\
     non-uniform deployment regions, fleet spec, scheduled fault timeline)\n\
     instead of building the run from flags; see scenarios/ for the\n\
     library and DESIGN.md §14 for the format. Scalar flags given\n\
     alongside (`--alg`, `--k`, `--sensors`, `--scale`, `--seed`, and\n\
     the fault flags) override the file's values; a scenario encoding\n\
     the defaults runs byte-identical to the flag-driven run, and the\n\
     run manifest records the scenario name as provenance.\n\
     `--sensors N` deploys exactly N sensors at the paper's density: the\n\
     k x k fleet keeps N/k^2 sensors per robot cell (N must divide evenly)\n\
     and the robot cell side scales so density stays at 50 sensors per\n\
     200 m x 200 m — the geometry of CI's 1k/5k/10k-sensor scale gate.\n\
     `--jobs N` fans sweep cells across N worker threads (default: the\n\
     `ROBONET_JOBS` env var, else all cores); output is byte-identical\n\
     for any value — parallelism only changes the wall-clock.\n\
     `--trace N` keeps the last N protocol events in memory and prints them;\n\
     `--trace-out FILE` streams every protocol event to FILE as JSON lines\n\
     and writes a run manifest (config, seed, counters) next to it; with\n\
     `-` as FILE the events stream to stdout (summary moves to stderr, no\n\
     manifest) so a run pipes straight into `robonet replay --follow -`.\n\
     `robonet stats` aggregates such a file back into the per-failure\n\
     overhead table without re-running the simulation.\n\
     `--sample-every SECS` arms the telemetry timeline: the run emits a\n\
     deterministic telemetry_sample event every SECS sim seconds (live\n\
     gauges: alive/down sensors, coverage, open repairs by stage, robot\n\
     queues, in-flight frames, scheduler queue) and an online health\n\
     monitor cross-checks conservation invariants at each sample,\n\
     emitting invariant_violated events instead of silently diverging.\n\
     Without the flag runs are byte-identical to earlier releases.\n\
     `robonet timeline` charts those samples from a trace: plain CSV of\n\
     every series (the default and `--csv`), or a multi-series sim-time\n\
     SVG chart (`--svg`, series picked with `--series`); `--compare`\n\
     overlays the same series from more traces, one palette color per\n\
     trace, labelled from their manifests.\n\
     `--profile-out FILE` writes the scheduler profile (event counts,\n\
     timer-wheel occupancy, per-subsystem wall-clock attribution) as\n\
     JSON after the run. Wall-clock figures are non-deterministic —\n\
     diagnostics only, never part of determinism gates.\n\
     `robonet spans` decomposes each repair in a trace into causal stages\n\
     (detection, report transit, dispatch, travel, install) and prints\n\
     per-stage p50/p95/p99; `--by-alg` lays several traces side by side.\n\
     `robonet replay` reconstructs world state from a trace: the state\n\
     summary at the end (or at sim time T with `--at T`), an SMIL-animated\n\
     field replay (`--svg`, one loop lasting `--duration` wall seconds,\n\
     Voronoi overlay included), a per-cell density heatmap (`--heatmap`\n\
     on a `--grid N` lattice of `--metric` failure counts or mean repair\n\
     latency), and a per-failure span waterfall (`--waterfall`, bucketed\n\
     beyond `--rows N`). Geometry-dependent figures recover the exact\n\
     deployment from the run manifest next to the trace. `--follow` tails\n\
     a growing trace file (or `-` for stdin), printing rolling dashboards\n\
     to stderr and the final state — identical to an offline replay of\n\
     the finished artifact — to stdout; `--poll-ms N` sets how often the\n\
     tail re-checks the file for new bytes (default 40 ms).\n\
     `--progress` prints sim-time/wall-time/open-span heartbeats to stderr.\n\
     \n\
     Fault injection (deterministic, from a dedicated seed stream):\n\
     `--loss P` drops reports, dispatch requests and location updates each\n\
     with probability P at the origin (`--report-loss`/`--dispatch-loss`/\n\
     `--update-loss` set them individually); `--breakdown MEAN_SECS` gives\n\
     each robot exponential breakdowns, repaired in place after\n\
     `--breakdown-repair SECS` if set (otherwise permanent); `--slow-prob P`\n\
     turns that fraction of breakdowns into a slowdown to `--slow-factor F`\n\
     of normal speed instead of a death. Any fault flag also arms the\n\
     recovery protocol: guardian report retries with exponential backoff,\n\
     manager dispatch timeouts with re-dispatch, and peer takeover floods."
        .to_string()
}

/// Prints the usage text to stderr.
pub fn print_usage() {
    eprintln!("{}", usage_text());
}

/// Parses and executes `args`, returning the stdout text.
///
/// # Errors
///
/// Returns a message describing the first invalid argument.
pub fn run_cli(args: &[String]) -> Result<String, String> {
    let Some((command, rest)) = args.split_first() else {
        return Err("missing command".into());
    };
    match command.as_str() {
        "run" => cmd_run(rest),
        "stats" => cmd_stats(rest),
        "timeline" => timeline::cmd_timeline(rest),
        "spans" => cmd_spans(rest),
        "replay" => replay::cmd_replay(rest),
        "figures" => cmd_figures(rest),
        "sweep" => cmd_sweep(rest),
        "help" | "--help" | "-h" => {
            print_usage();
            Ok(String::new())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Parses an algorithm name by resolving it through the coordination
/// registry ([`robonet_core::coord::registry`]) — the same table that
/// defines [`Algorithm::name`], so the two can never drift apart.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, String> {
    Algorithm::parse(name).ok_or_else(|| {
        let known: Vec<&str> = robonet_core::coord::names().collect();
        format!(
            "unknown algorithm `{name}` (expected one of: {})",
            known.join(", ")
        )
    })
}

struct RunArgs {
    scenario: Option<String>,
    alg: Algorithm,
    k: usize,
    sensors: Option<usize>,
    scale: f64,
    seed: u64,
    /// Which scalar flags appeared explicitly — with `--scenario`, only
    /// explicit flags override the file's values; the defaults above
    /// otherwise only exist for the flag-driven path.
    explicit_alg: bool,
    explicit_k: bool,
    explicit_scale: bool,
    explicit_seed: bool,
    prune: Option<f64>,
    dispatch: DispatchPolicy,
    trace: usize,
    trace_out: Option<String>,
    progress: bool,
    faults: Option<FaultPlan>,
    sample_every: Option<f64>,
    profile_out: Option<String>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        scenario: None,
        alg: Algorithm::Dynamic,
        k: 2,
        sensors: None,
        scale: 16.0,
        seed: 1,
        explicit_alg: false,
        explicit_k: false,
        explicit_scale: false,
        explicit_seed: false,
        prune: None,
        dispatch: DispatchPolicy::Nearest,
        trace: 0,
        trace_out: None,
        progress: false,
        faults: None,
        sample_every: None,
        profile_out: None,
    };
    let mut plan = FaultPlan::default();
    let mut faulty = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {flag}"))
        };
        let parse_f64 =
            |v: &str| -> Result<f64, String> { v.parse().map_err(|e| format!("bad {flag}: {e}")) };
        match flag.as_str() {
            "--scenario" => out.scenario = Some(value()?.to_string()),
            "--alg" => {
                out.alg = parse_algorithm(value()?)?;
                out.explicit_alg = true;
            }
            "--k" => {
                out.k = value()?.parse().map_err(|e| format!("bad --k: {e}"))?;
                out.explicit_k = true;
            }
            "--sensors" => {
                out.sensors = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --sensors: {e}"))?,
                );
            }
            "--scale" => {
                out.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                out.explicit_scale = true;
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("bad --seed: {e}"))?;
                out.explicit_seed = true;
            }
            "--prune" => {
                out.prune = Some(value()?.parse().map_err(|e| format!("bad --prune: {e}"))?);
            }
            "--dispatch" => {
                out.dispatch = match value()? {
                    "nearest" => DispatchPolicy::Nearest,
                    "nearest-idle" => DispatchPolicy::NearestIdle,
                    other => return Err(format!("unknown dispatch policy `{other}`")),
                };
            }
            "--trace" => {
                out.trace = value()?.parse().map_err(|e| format!("bad --trace: {e}"))?;
            }
            "--trace-out" => out.trace_out = Some(value()?.to_string()),
            "--progress" => out.progress = true,
            "--sample-every" => {
                out.sample_every = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("bad --sample-every: {e}"))?,
                );
            }
            "--profile-out" => out.profile_out = Some(value()?.to_string()),
            "--loss" => {
                let p = parse_f64(value()?)?;
                plan.report_loss = p;
                plan.dispatch_loss = p;
                plan.update_loss = p;
                faulty = true;
            }
            "--report-loss" => {
                plan.report_loss = parse_f64(value()?)?;
                faulty = true;
            }
            "--dispatch-loss" => {
                plan.dispatch_loss = parse_f64(value()?)?;
                faulty = true;
            }
            "--update-loss" => {
                plan.update_loss = parse_f64(value()?)?;
                faulty = true;
            }
            "--breakdown" => {
                plan.breakdown_mean = Some(SimDuration::from_secs(parse_f64(value()?)?));
                faulty = true;
            }
            "--breakdown-repair" => {
                plan.breakdown_repair = Some(SimDuration::from_secs(parse_f64(value()?)?));
                faulty = true;
            }
            "--slow-prob" => {
                plan.slow_prob = parse_f64(value()?)?;
                faulty = true;
            }
            "--slow-factor" => {
                plan.slow_factor = parse_f64(value()?)?;
                faulty = true;
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    out.faults = faulty.then_some(plan);
    Ok(out)
}

fn cmd_run(args: &[String]) -> Result<String, String> {
    let parsed = parse_run_args(args)?;
    let (mut cfg, scale) = if let Some(path) = parsed.scenario.as_deref() {
        // Declarative path: the file supplies everything, explicitly
        // given scalar flags override it (`compile` mirrors the flag
        // path's construction order, so a scenario that encodes the
        // defaults runs byte-identical to the flag-driven run).
        let source =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let overrides = Overrides {
            algorithm: parsed.explicit_alg.then_some(parsed.alg),
            k: parsed.explicit_k.then_some(parsed.k),
            sensors: parsed.sensors,
            scale: parsed.explicit_scale.then_some(parsed.scale),
            seed: parsed.explicit_seed.then_some(parsed.seed),
            faults: parsed.faults.clone(),
        };
        let compiled = compile_scenario(&source, &overrides).map_err(|e| format!("{path}:{e}"))?;
        (compiled.cfg, compiled.scale)
    } else {
        let mut cfg = ScenarioConfig::paper(parsed.k, parsed.alg).with_seed(parsed.seed);
        if let Some(n) = parsed.sensors {
            // Paper-density deployment hitting `n` sensors exactly (the
            // same geometry as the scale benchmarks): the per-robot cell
            // side grows with sqrt(sensors_per_robot / 50) so sensor
            // density — and with it MAC contention and neighbour degree —
            // stays at the paper's 50 sensors per 200 m × 200 m cell.
            let fleet = parsed.k * parsed.k;
            let spr = n / fleet;
            if spr * fleet != n {
                return Err(format!(
                    "--sensors {n} does not divide evenly into the {}x{} fleet",
                    parsed.k, parsed.k
                ));
            }
            cfg.sensors_per_robot = spr;
            cfg.area_per_robot_side = 200.0 * (spr as f64 / 50.0).sqrt();
        }
        // Faults go in before scaling so the plan's timers compress with
        // the rest of the scenario.
        cfg.faults = parsed.faults.clone();
        if parsed.scale > 1.0 {
            cfg = cfg.scaled(parsed.scale);
        }
        (cfg, parsed.scale)
    };
    cfg.broadcast_prune = parsed.prune;
    cfg.dispatch = parsed.dispatch;
    // The sampling cadence is in sim seconds as given — deliberately
    // not compressed by --scale, so a 100 s cadence means the same
    // thing at every scale.
    cfg.sample_every = parsed.sample_every.map(SimDuration::from_secs);
    cfg.validate()?;

    // `--trace N` keeps the last N events in a ring, which comes back
    // as `Outcome::trace`; `--trace-out` streams every event as JSONL.
    let mut sinks = TeeSink::new();
    if parsed.trace > 0 {
        sinks.push(Box::new(RingSink::with_capacity(parsed.trace)));
    }
    match parsed.trace_out.as_deref() {
        // `-` streams the events themselves to stdout (line-buffered,
        // so a `--follow -` consumer sees them as they happen); the
        // human-readable summary then moves to stderr and no manifest
        // is written.
        Some("-") => sinks.push(Box::new(JsonlSink::new(std::io::stdout()))),
        Some(path) => {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file `{path}`: {e}"))?;
            sinks.push(Box::new(JsonlSink::new(std::io::BufWriter::new(file))));
        }
        None => {}
    }
    let mut sim = Simulation::with_sink(cfg, Box::new(sinks));
    if parsed.progress {
        sim.enable_progress(std::time::Duration::from_secs(1));
    }
    if parsed.profile_out.is_some() {
        sim.enable_subsystem_profile();
    }
    let mut outcome = sim.run_to_completion();
    let span_report = outcome.spans.take();
    let m = &outcome.metrics;
    let s = m.summary();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} | {} robots | {} sensors | {:.0} s simulated (scale {}x)",
        outcome.config.algorithm,
        outcome.config.n_robots(),
        outcome.config.n_sensors(),
        outcome.config.sim_time.as_secs_f64(),
        scale,
    );
    let _ = writeln!(out, "failures:             {}", s.failures_occurred);
    let _ = writeln!(out, "replacements:         {}", s.replacements);
    let _ = writeln!(
        out,
        "travel per failure:   {:.1} m",
        s.avg_travel_per_failure
    );
    let _ = writeln!(out, "report hops:          {:.2}", s.avg_report_hops);
    if let Some(h) = s.avg_request_hops {
        let _ = writeln!(out, "request hops:         {h:.2}");
    }
    let _ = writeln!(
        out,
        "update tx / failure:  {:.1}",
        s.loc_update_tx_per_failure
    );
    let _ = writeln!(
        out,
        "report delivery:      {:.2}%",
        s.report_delivery_ratio * 100.0
    );
    let _ = writeln!(out, "repair delay:         {:.1} s", s.avg_repair_delay);
    let _ = writeln!(out, "fleet travel:         {:.0} m", s.total_travel);
    let d = &s.packets_dropped;
    let _ = writeln!(
        out,
        "dropped packets:      {} (ttl {}, no-neighbor {}, mac {})",
        d.total(),
        d.ttl_expired,
        d.no_neighbors,
        d.mac_give_up
    );
    // Fault/recovery lines appear only for runs with a live fault plan,
    // keeping fault-free output byte-identical to earlier releases.
    if outcome
        .config
        .faults
        .as_ref()
        .is_some_and(|p| !p.is_inert())
    {
        let fs = &m.faults;
        let _ = writeln!(
            out,
            "faults injected:      {} msg drops (report {}, dispatch {}, update {}), \
             {} breakdowns, {} slowdowns",
            fs.report_drops + fs.dispatch_drops + fs.update_drops,
            fs.report_drops,
            fs.dispatch_drops,
            fs.update_drops,
            fs.robot_breakdowns,
            fs.robot_slowdowns
        );
        let _ = writeln!(
            out,
            "recovery:             {} report retries ({} abandoned), {} dispatch timeouts \
             ({} redispatched, {} abandoned), {} robot repairs, {} takeovers",
            fs.report_retries,
            fs.reports_abandoned,
            fs.dispatch_timeouts,
            fs.redispatches,
            fs.dispatches_abandoned,
            fs.robot_repairs,
            fs.takeovers
        );
    }
    // Health verdicts appear only for sampled runs with actual drift,
    // keeping unsampled output byte-identical to earlier releases.
    if m.invariant_violations > 0 {
        let _ = writeln!(
            out,
            "INVARIANT VIOLATIONS: {} (see invariant_violated trace events)",
            m.invariant_violations
        );
    }
    let _ = writeln!(out, "profile:              {}", outcome.profile);
    let _ = writeln!(out, "\ntransmissions by class:\n{}", m.tx);
    if let Some(report) = span_report {
        let label = outcome.config.algorithm.name().to_string();
        let _ = writeln!(out, "\nrepair-lifecycle stages:");
        out.push_str(&report::spans_text(&[(label, report)]));
    }
    if let Some(path) = parsed.trace_out.as_deref().filter(|p| *p != "-") {
        let manifest = manifest_path_for(path);
        std::fs::write(&manifest, run_manifest_json(&outcome))
            .map_err(|e| format!("cannot write manifest `{manifest}`: {e}"))?;
        let _ = writeln!(out, "\ntrace written:        {path}");
        let _ = writeln!(out, "manifest written:     {manifest}");
    }
    if let Some(path) = parsed.profile_out.as_deref() {
        std::fs::write(path, profile_json(&outcome.profile))
            .map_err(|e| format!("cannot write profile `{path}`: {e}"))?;
        let _ = writeln!(out, "profile written:      {path}");
    }
    if !outcome.trace.is_empty() {
        let _ = writeln!(out, "last {} protocol events:", outcome.trace.len());
        for ev in outcome.trace.events() {
            let _ = writeln!(out, "  {ev}");
        }
    }
    // When the trace owns stdout, the summary moves wholesale to
    // stderr so the JSONL stream stays machine-parseable.
    if parsed.trace_out.as_deref() == Some("-") {
        eprint!("{out}");
        return Ok(String::new());
    }
    Ok(out)
}

/// One JSON object describing where a run's wall-clock went: scheduler
/// throughput, timer-wheel occupancy, and per-subsystem attribution.
/// Wall-clock figures are machine- and load-dependent, so this artifact
/// is explicitly non-deterministic and excluded from determinism gates
/// (unlike the trace and the manifest, which must be byte-stable).
fn profile_json(profile: &robonet_des::SchedulerProfile) -> String {
    let mut wheel = ObjectWriter::new();
    wheel.field_u64("front_high_water", profile.wheel.front_high_water as u64);
    wheel.field_u64("lane0_high_water", profile.wheel.lane0_high_water as u64);
    wheel.field_u64(
        "overflow_high_water",
        profile.wheel.overflow_high_water as u64,
    );
    wheel.field_u64("overflow_promotions", profile.wheel.overflow_promotions);
    let sub = &profile.subsystems;
    let mut subsystems = ObjectWriter::new();
    subsystems.field_f64("radio_s", sub.radio_s);
    subsystems.field_f64("routing_s", sub.routing_s);
    subsystems.field_f64("coord_s", sub.coord_s);
    subsystems.field_f64("obs_sink_s", sub.obs_sink_s);
    subsystems.field_f64("total_s", sub.total());
    let mut w = ObjectWriter::new();
    w.field_u64("events_dispatched", profile.events_dispatched);
    w.field_u64("queue_high_water", profile.queue_high_water as u64);
    w.field_f64("sim_seconds", profile.sim_seconds);
    w.field_f64("wall_seconds", profile.wall_seconds);
    w.field_raw("wheel", &wheel.finish());
    w.field_raw("subsystems", &subsystems.finish());
    let mut json = w.finish();
    json.push('\n');
    json
}

/// `run.jsonl` → `run.manifest.json` (any other name just gains the
/// `.manifest.json` suffix).
pub(crate) fn manifest_path_for(trace_path: &str) -> String {
    let stem = trace_path.strip_suffix(".jsonl").unwrap_or(trace_path);
    format!("{stem}.manifest.json")
}

/// One JSON object describing a traced run: the scenario knobs that
/// produced the artifact, the headline summary figures, and the full
/// per-subsystem counter snapshot.
fn run_manifest_json(outcome: &Outcome) -> String {
    let cfg = &outcome.config;
    let s = outcome.metrics.summary();
    let mut summary = ObjectWriter::new();
    summary.field_u64("failures", s.failures_occurred);
    summary.field_u64("replacements", s.replacements);
    summary.field_f64("avg_travel_per_failure", s.avg_travel_per_failure);
    summary.field_f64("avg_report_hops", s.avg_report_hops);
    summary.field_f64("total_travel", s.total_travel);
    summary.field_u64("packets_dropped", s.packets_dropped.total());
    let mut w = ObjectWriter::new();
    w.field_u64("schema_version", TRACE_SCHEMA_VERSION);
    w.field_str("algorithm", cfg.algorithm.name());
    // Scenario provenance, present only for `--scenario` runs so every
    // pre-scenario manifest stays byte-identical.
    if let Some(name) = cfg.scenario_name.as_deref() {
        w.field_str("scenario", name);
    }
    w.field_u64("seed", cfg.seed);
    w.field_u64("k", cfg.k as u64);
    w.field_u64("robots", cfg.n_robots() as u64);
    w.field_u64("sensors", cfg.n_sensors() as u64);
    w.field_f64("sim_time_s", cfg.sim_time.as_secs_f64());
    // Deployment geometry: with these two fields `robonet replay` can
    // re-derive the exact sensor/robot positions of the producing run
    // (older manifests fall back to paper density and 1 m/s).
    w.field_f64("area_per_robot_side", cfg.area_per_robot_side);
    w.field_f64("robot_speed", cfg.robot_speed);
    w.field_raw("summary", &summary.finish());
    w.field_raw("counters", &outcome.metrics.counters.counters_json());
    let mut json = w.finish();
    json.push('\n');
    json
}

/// `robonet stats <run.jsonl>`: re-derives the paper's per-failure
/// overhead table from a trace artifact, without re-running. Travel and
/// hop averages match the producing run's output exactly; the repair
/// delay is reconstructed from event timestamps and matches it to
/// within float rounding.
fn cmd_stats(args: &[String]) -> Result<String, String> {
    let [path] = args else {
        return Err("usage: robonet stats <run.jsonl>".into());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    let agg = TraceAggregate::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(out, "{} events from {path}", agg.events);
    let _ = writeln!(out, "failures:             {}", agg.failures);
    let _ = writeln!(out, "replacements:         {}", agg.replacements);
    let _ = writeln!(
        out,
        "travel per failure:   {:.1} m",
        agg.avg_travel_per_failure()
    );
    let _ = writeln!(out, "report hops:          {:.2}", agg.avg_report_hops());
    let _ = writeln!(
        out,
        "repair delay:         {:.1} s (reconstructed)",
        agg.avg_repair_delay()
    );
    let _ = writeln!(out, "fleet travel:         {:.0} m", agg.total_travel());
    let d = &agg.drops;
    let _ = writeln!(
        out,
        "dropped packets:      {} (ttl {}, no-neighbor {}, mac {})",
        d.total(),
        d.ttl_expired,
        d.no_neighbors,
        d.mac_give_up
    );
    let _ = writeln!(out, "loc-update floods:    {}", agg.loc_update_floods);
    let _ = writeln!(
        out,
        "robot legs:           {} started, {} completed",
        agg.legs_started, agg.legs_ended
    );
    if let Some(tail) = agg.truncated {
        let _ = writeln!(out, "note: {tail} — figures cover the complete prefix");
    }
    Ok(out)
}

/// `robonet spans <run.jsonl>... [--csv] [--by-alg]`: replays trace
/// artifacts through the span assembler and prints the per-stage
/// latency decomposition. With `--by-alg`, several traces are laid side
/// by side, each labelled by the algorithm recorded in its manifest
/// (falling back to the file name).
fn cmd_spans(args: &[String]) -> Result<String, String> {
    let mut csv = false;
    let mut by_alg = false;
    let mut paths: Vec<&String> = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--csv" => csv = true,
            "--by-alg" => by_alg = true,
            other if other.starts_with("--") => {
                return Err(format!("unknown argument `{other}`"));
            }
            _ => paths.push(arg),
        }
    }
    if paths.is_empty() {
        return Err("usage: robonet spans <run.jsonl>... [--csv] [--by-alg]".into());
    }
    if paths.len() > 1 && !by_alg {
        return Err("several traces given: pass --by-alg for a side-by-side table".into());
    }
    let mut tables = Vec::with_capacity(paths.len());
    let mut notes = String::new();
    for path in paths {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let report = SpanAssembler::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
        if let Some(tail) = report.truncated {
            let _ = writeln!(
                notes,
                "# note: {path}: {tail} — spans cover the complete prefix"
            );
        }
        tables.push((trace_label(path), report));
    }
    let table = if csv {
        report::spans_csv(&tables)
    } else {
        report::spans_text(&tables)
    };
    Ok(format!("{notes}{table}"))
}

/// Label for a trace in a side-by-side table: the `algorithm` recorded
/// in the run manifest next to the trace, else the trace's file stem.
pub(crate) fn trace_label(trace_path: &str) -> String {
    let from_manifest = std::fs::read_to_string(manifest_path_for(trace_path))
        .ok()
        .and_then(|text| json::parse(&text).ok())
        .and_then(|v| {
            v.get("algorithm")
                .and_then(|a| a.as_str().map(String::from))
        });
    from_manifest.unwrap_or_else(|| {
        std::path::Path::new(trace_path).file_stem().map_or_else(
            || trace_path.to_string(),
            |s| s.to_string_lossy().into_owned(),
        )
    })
}

fn cmd_figures(args: &[String]) -> Result<String, String> {
    let mut opts = SweepOptions::from_args(args.iter().cloned())?;
    if opts.scale == 1.0 && !args.iter().any(|a| a == "--scale") {
        opts.scale = 16.0;
    }
    let rows = sweep(&opts);
    let mut out = String::new();
    for (title, metric) in [
        (
            "Figure 2: average traveling distance per failure (m)",
            (|r: &Row| Some(r.summary.avg_travel_per_failure)) as fn(&Row) -> Option<f64>,
        ),
        ("Figure 3a: average hops per failure report", |r: &Row| {
            Some(r.summary.avg_report_hops)
        }),
        (
            "Figure 3b: average hops per repair request (centralized)",
            |r: &Row| r.summary.avg_request_hops,
        ),
        (
            "Figure 4: location-update transmissions per failure",
            |r: &Row| Some(r.summary.loc_update_tx_per_failure),
        ),
    ] {
        let _ = writeln!(out, "{title}");
        for (alg, robots, v) in average_series(&rows, metric) {
            let _ = writeln!(out, "  {alg:<12} {robots:>2} robots: {v:>9.2}");
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

fn cmd_sweep(args: &[String]) -> Result<String, String> {
    let mut opts = SweepOptions::from_args(args.iter().cloned())?;
    if opts.scale == 1.0 && !args.iter().any(|a| a == "--scale") {
        opts.scale = 16.0;
    }
    let result = sweep_result(&opts);
    let mut out = String::new();
    let _ = writeln!(out, "{}", Row::csv_header());
    for r in &result.rows() {
        let _ = writeln!(out, "{}", r.to_csv());
    }
    if !result.failed.is_empty() {
        let _ = writeln!(out, "\n# failed cells");
        for f in &result.failed {
            let _ = writeln!(out, "#   {f}");
        }
    }
    let _ = writeln!(out, "\n# merged aggregate over completed cells");
    for line in result.merged.report().lines() {
        let _ = writeln!(out, "# {line}");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_core::PartitionKind;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn algorithm_names_parse() {
        assert_eq!(parse_algorithm("dynamic").unwrap(), Algorithm::Dynamic);
        assert_eq!(
            parse_algorithm("fixed").unwrap(),
            Algorithm::Fixed(PartitionKind::Square)
        );
        assert_eq!(
            parse_algorithm("fixed-hex").unwrap(),
            Algorithm::Fixed(PartitionKind::Hex)
        );
        assert_eq!(
            parse_algorithm("centralized").unwrap(),
            Algorithm::Centralized
        );
        assert!(parse_algorithm("voronoi").is_err());
    }

    #[test]
    fn parse_round_trips_every_registered_algorithm() {
        for entry in robonet_core::coord::registry() {
            let alg = entry.algorithm;
            assert_eq!(
                parse_algorithm(alg.name()),
                Ok(alg),
                "parse(name({alg:?})) must round-trip"
            );
        }
    }

    #[test]
    fn unknown_algorithm_error_lists_registered_names() {
        let err = parse_algorithm("voronoi").unwrap_err();
        for entry in robonet_core::coord::registry() {
            assert!(
                err.contains(entry.name),
                "error should mention `{}`: {err}",
                entry.name
            );
        }
    }

    #[test]
    fn run_args_defaults_and_overrides() {
        let a = parse_run_args(&args(&[])).unwrap();
        assert_eq!(a.alg, Algorithm::Dynamic);
        assert_eq!(a.k, 2);
        assert_eq!(a.scale, 16.0);

        let a = parse_run_args(&args(&[
            "--alg",
            "centralized",
            "--k",
            "3",
            "--seed",
            "9",
            "--dispatch",
            "nearest-idle",
            "--prune",
            "0.4",
        ]))
        .unwrap();
        assert_eq!(a.alg, Algorithm::Centralized);
        assert_eq!(a.k, 3);
        assert_eq!(a.seed, 9);
        assert_eq!(a.dispatch, DispatchPolicy::NearestIdle);
        assert_eq!(a.prune, Some(0.4));
    }

    #[test]
    fn bad_arguments_are_reported() {
        assert!(parse_run_args(&args(&["--bogus"])).is_err());
        assert!(parse_run_args(&args(&["--k"])).is_err(), "missing value");
        assert!(parse_run_args(&args(&["--dispatch", "magic"])).is_err());
        assert!(run_cli(&args(&["destroy"])).is_err());
        assert!(run_cli(&args(&[])).is_err());
    }

    #[test]
    fn run_command_executes_a_small_simulation() {
        let out = run_cli(&args(&[
            "run", "--alg", "dynamic", "--k", "1", "--scale", "64",
        ]))
        .expect("run succeeds");
        assert!(out.contains("failures:"));
        assert!(out.contains("replacements:"));
        assert!(out.contains("transmissions by class"));
    }

    #[test]
    fn scenario_flag_tracks_explicit_overrides() {
        let a = parse_run_args(&args(&["--scenario", "x.rjson"])).unwrap();
        assert_eq!(a.scenario.as_deref(), Some("x.rjson"));
        assert!(!a.explicit_alg && !a.explicit_k && !a.explicit_scale && !a.explicit_seed);

        let a = parse_run_args(&args(&[
            "--scenario",
            "x.rjson",
            "--seed",
            "7",
            "--scale",
            "32",
        ]))
        .unwrap();
        assert!(a.explicit_seed && a.explicit_scale);
        assert!(!a.explicit_alg && !a.explicit_k);
        assert_eq!(a.seed, 7);
        assert_eq!(a.scale, 32.0);
    }

    #[test]
    fn scenario_errors_name_the_file_and_position() {
        let dir = std::env::temp_dir().join("robonet-scenario-err-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.rjson");
        std::fs::write(&path, "{\n  \"name\": \"x\",\n  \"robots\": 4,\n}").unwrap();
        let err = run_cli(&args(&["run", "--scenario", path.to_str().unwrap()])).unwrap_err();
        assert!(err.contains("bad.rjson:3:"), "{err}");
        assert!(err.contains("unknown key"), "{err}");

        let err = run_cli(&args(&["run", "--scenario", "/no/such.rjson"])).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn progress_flag_parses() {
        let a = parse_run_args(&args(&["--progress"])).unwrap();
        assert!(a.progress);
        assert!(!parse_run_args(&args(&[])).unwrap().progress);
    }

    #[test]
    fn fault_flags_build_a_plan() {
        assert!(parse_run_args(&args(&[])).unwrap().faults.is_none());
        let a = parse_run_args(&args(&["--loss", "0.05"])).unwrap();
        let plan = a.faults.expect("--loss arms the fault plan");
        assert_eq!(plan.report_loss, 0.05);
        assert_eq!(plan.dispatch_loss, 0.05);
        assert_eq!(plan.update_loss, 0.05);

        let a = parse_run_args(&args(&[
            "--report-loss",
            "0.1",
            "--breakdown",
            "4000",
            "--breakdown-repair",
            "500",
            "--slow-prob",
            "0.5",
            "--slow-factor",
            "0.25",
        ]))
        .unwrap();
        let plan = a.faults.unwrap();
        assert_eq!(plan.report_loss, 0.1);
        assert_eq!(plan.dispatch_loss, 0.0);
        assert_eq!(plan.breakdown_mean, Some(SimDuration::from_secs(4000.0)));
        assert_eq!(plan.breakdown_repair, Some(SimDuration::from_secs(500.0)));
        assert_eq!(plan.slow_prob, 0.5);
        assert_eq!(plan.slow_factor, 0.25);
        assert!(parse_run_args(&args(&["--loss", "nope"])).is_err());
    }

    /// Dummy value accepted by every value-taking run flag.
    fn dummy_value(flag: &str) -> &'static str {
        match flag {
            "--alg" => "dynamic",
            "--dispatch" => "nearest",
            "--scenario" => "scenarios/paper_baseline.rjson",
            "--trace-out" => "/tmp/t.jsonl",
            "--k" | "--trace" | "--seed" | "--sensors" => "1",
            _ => "0.5",
        }
    }

    #[test]
    fn parser_accepts_every_declared_run_flag() {
        for &(flag, takes_value) in RUN_FLAGS {
            let argv = if takes_value {
                args(&[flag, dummy_value(flag)])
            } else {
                args(&[flag])
            };
            parse_run_args(&argv).unwrap_or_else(|e| panic!("declared flag {flag} rejected: {e}"));
        }
        // Coverage over time is a telemetry series (`--sample-every`);
        // its old flag stays gone.
        let err = parse_run_args(&args(&["--coverage", "100"])).err();
        assert_eq!(err.as_deref(), Some("unknown argument `--coverage`"));
    }

    #[test]
    fn usage_documents_every_run_flag_and_documents_nothing_extra() {
        let usage = usage_text();
        // Every flag the parser accepts appears in the usage text.
        for &(flag, _) in RUN_FLAGS {
            assert!(usage.contains(flag), "usage text is missing `{flag}`");
        }
        // Every `--flag` token in the run section parses (tokens of the
        // other subcommands are excluded by their own usage lines).
        let run_section: String = usage
            .lines()
            .skip_while(|l| !l.contains("robonet run"))
            .take_while(|l| !l.contains("robonet stats"))
            .collect::<Vec<_>>()
            .join(" ");
        for token in run_section.split(|c: char| !(c.is_alphanumeric() || c == '-')) {
            if let Some(flag) = token.strip_prefix("--").map(|_| token) {
                assert!(
                    RUN_FLAGS.iter().any(|&(f, _)| f == flag),
                    "usage documents `{flag}` but the parser does not accept it"
                );
            }
        }
    }

    #[test]
    fn usage_documents_every_replay_flag_and_documents_nothing_extra() {
        let usage = usage_text();
        // Every flag the replay parser accepts appears in the usage text.
        for &(flag, _) in REPLAY_FLAGS {
            assert!(usage.contains(flag), "usage text is missing `{flag}`");
        }
        // Every `--flag` token in the replay usage section parses.
        let replay_section: String = usage
            .lines()
            .skip_while(|l| !l.contains("robonet replay"))
            .take_while(|l| !l.contains("robonet figures"))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(
            replay_section.contains("--at"),
            "replay usage section not found"
        );
        for token in replay_section.split(|c: char| !(c.is_alphanumeric() || c == '-')) {
            if let Some(flag) = token.strip_prefix("--").map(|_| token) {
                assert!(
                    REPLAY_FLAGS.iter().any(|&(f, _)| f == flag),
                    "usage documents `{flag}` but the replay parser does not accept it"
                );
            }
        }
    }

    #[test]
    fn usage_documents_every_timeline_flag_and_documents_nothing_extra() {
        let usage = usage_text();
        // Every flag the timeline parser accepts appears in the usage text.
        for &(flag, _) in TIMELINE_FLAGS {
            assert!(usage.contains(flag), "usage text is missing `{flag}`");
        }
        // Every `--flag` token in the timeline usage section parses.
        let timeline_section: String = usage
            .lines()
            .skip_while(|l| !l.contains("robonet timeline"))
            .take_while(|l| !l.contains("robonet spans"))
            .collect::<Vec<_>>()
            .join(" ");
        assert!(
            timeline_section.contains("--series"),
            "timeline usage section not found"
        );
        for token in timeline_section.split(|c: char| !(c.is_alphanumeric() || c == '-')) {
            if let Some(flag) = token.strip_prefix("--").map(|_| token) {
                assert!(
                    TIMELINE_FLAGS.iter().any(|&(f, _)| f == flag),
                    "usage documents `{flag}` but the timeline parser does not accept it"
                );
            }
        }
    }

    #[test]
    fn sample_every_and_profile_out_flags_parse() {
        let a = parse_run_args(&args(&[
            "--sample-every",
            "100",
            "--profile-out",
            "/tmp/p.json",
        ]))
        .unwrap();
        assert_eq!(a.sample_every, Some(100.0));
        assert_eq!(a.profile_out.as_deref(), Some("/tmp/p.json"));
        let a = parse_run_args(&args(&[])).unwrap();
        assert!(a.sample_every.is_none() && a.profile_out.is_none());
        assert!(parse_run_args(&args(&["--sample-every", "often"])).is_err());
    }

    #[test]
    fn profile_json_has_every_section() {
        let profile = robonet_des::SchedulerProfile::default();
        let json = profile_json(&profile);
        let v = json::parse(&json).expect("valid JSON");
        for key in ["events_dispatched", "wall_seconds", "wheel", "subsystems"] {
            assert!(v.get(key).is_some(), "missing `{key}`: {json}");
        }
        let sub = v.get("subsystems").unwrap();
        for key in ["radio_s", "routing_s", "coord_s", "obs_sink_s", "total_s"] {
            assert!(sub.get(key).is_some(), "missing subsystems.{key}: {json}");
        }
    }

    #[test]
    fn spans_argument_errors_are_clear() {
        let err = run_cli(&args(&["spans"])).unwrap_err();
        assert!(err.contains("usage"), "{err}");
        let err = run_cli(&args(&["spans", "a.jsonl", "b.jsonl"])).unwrap_err();
        assert!(err.contains("--by-alg"), "{err}");
        let err = run_cli(&args(&["spans", "--frobnicate", "a.jsonl"])).unwrap_err();
        assert!(err.contains("unknown argument"), "{err}");
    }

    #[test]
    fn spans_missing_file_names_the_path() {
        let err = run_cli(&args(&["spans", "/no/such/trace.jsonl"])).unwrap_err();
        assert!(err.contains("/no/such/trace.jsonl"), "{err}");
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn sweep_command_emits_csv_and_aggregate() {
        let out = run_cli(&args(&[
            "sweep", "--scale", "64", "--ks", "1", "--seeds", "1", "--jobs", "2",
        ]))
        .expect("sweep succeeds");
        let mut lines = out.lines();
        assert!(lines.next().unwrap().starts_with("algorithm,robots,seed"));
        let csv_rows = out.lines().skip(1).take_while(|l| !l.is_empty()).count();
        assert_eq!(csv_rows, 3, "3 algorithms");
        assert!(out.contains("# merged aggregate over completed cells"));
        assert!(out.contains("# cells               3"));
        assert!(!out.contains("# failed cells"), "no failures expected");
    }
}
