//! `robonet replay` — the trace analyzer: offline state reconstruction
//! (`--at`), SMIL field animation (`--svg`), density heatmaps
//! (`--heatmap`), span waterfalls (`--waterfall`) and live tail-follow
//! (`--follow`).
//!
//! All trace semantics live in `robonet_core::obs::replay`; this module
//! only parses flags, recovers the [`ReplaySetup`] from the run
//! manifest sitting next to the trace, and composes the replayed data
//! into `robonet_viz` figure specs. Every output is byte-deterministic
//! for a given artifact, so CI can golden-gate the rendered SVGs.

use std::fmt::Write as _;
use std::io::BufRead as _;

use robonet_core::obs::replay::{Film, ReplaySetup, ReplayState, Replayer};
use robonet_core::obs::{for_each_event_line, TruncatedTail};
use robonet_core::{SpanAssembler, SpanReport, Stage};
use robonet_geom::voronoi::voronoi_cells;
use robonet_viz::anim::{AnimLeg, AnimRobot, AnimScene, AnimSensor};
use robonet_viz::heatmap::{HeatMetric, Heatmap};
use robonet_viz::waterfall::{Waterfall, WaterfallRow};

use crate::manifest_path_for;

/// Every flag `robonet replay` accepts, with whether it takes a value —
/// audited against the usage text and the parser exactly like
/// [`RUN_FLAGS`](crate::RUN_FLAGS).
pub const REPLAY_FLAGS: &[(&str, bool)] = &[
    ("--at", true),
    ("--svg", true),
    ("--heatmap", true),
    ("--waterfall", true),
    ("--metric", true),
    ("--grid", true),
    ("--rows", true),
    ("--duration", true),
    ("--follow", false),
    ("--poll-ms", true),
];

/// What a heatmap cell aggregates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HeatKind {
    /// Failure count per cell.
    Failures,
    /// Mean end-to-end repair latency per cell.
    Latency,
}

#[derive(Debug)]
struct ReplayArgs {
    path: String,
    at: Option<f64>,
    svg: Option<String>,
    heatmap: Option<String>,
    waterfall: Option<String>,
    metric: HeatKind,
    grid: usize,
    rows: usize,
    duration: f64,
    follow: bool,
    poll_ms: u64,
}

fn parse_replay_args(args: &[String]) -> Result<ReplayArgs, String> {
    let mut out = ReplayArgs {
        path: String::new(),
        at: None,
        svg: None,
        heatmap: None,
        waterfall: None,
        metric: HeatKind::Failures,
        grid: 10,
        rows: 40,
        duration: 20.0,
        follow: false,
        poll_ms: 40,
    };
    let mut path: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("missing value for {arg}"))
        };
        match arg.as_str() {
            "--at" => {
                out.at = Some(value()?.parse().map_err(|e| format!("bad --at: {e}"))?);
            }
            "--svg" => out.svg = Some(value()?.to_string()),
            "--heatmap" => out.heatmap = Some(value()?.to_string()),
            "--waterfall" => out.waterfall = Some(value()?.to_string()),
            "--metric" => {
                out.metric = match value()? {
                    "failures" => HeatKind::Failures,
                    "latency" => HeatKind::Latency,
                    other => return Err(format!("unknown heat metric `{other}`")),
                };
            }
            "--grid" => {
                out.grid = value()?.parse().map_err(|e| format!("bad --grid: {e}"))?;
                if out.grid == 0 {
                    return Err("bad --grid: must be at least 1".into());
                }
            }
            "--rows" => {
                out.rows = value()?.parse().map_err(|e| format!("bad --rows: {e}"))?;
                if out.rows == 0 {
                    return Err("bad --rows: must be at least 1".into());
                }
            }
            "--duration" => {
                out.duration = value()?
                    .parse()
                    .map_err(|e| format!("bad --duration: {e}"))?;
            }
            "--follow" => out.follow = true,
            "--poll-ms" => {
                out.poll_ms = value()?
                    .parse()
                    .map_err(|e| format!("bad --poll-ms: {e}"))?;
                if out.poll_ms == 0 {
                    return Err("bad --poll-ms: must be at least 1".into());
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown argument `{other}`"));
            }
            _ => {
                if path.replace(arg.to_string()).is_some() {
                    return Err("replay takes exactly one trace (or `-`)".into());
                }
            }
        }
    }
    out.path = path.ok_or("usage: robonet replay <run.jsonl|-> [flags]")?;
    if out.follow && (out.at.is_some() || out.svg.is_some() || out.heatmap.is_some()) {
        return Err(
            "--follow renders live dashboards; combine artifacts with an offline replay instead"
                .into(),
        );
    }
    if out.follow && out.waterfall.is_some() {
        return Err(
            "--follow cannot write a waterfall; re-run replay offline once the trace is complete"
                .into(),
        );
    }
    Ok(out)
}

/// `robonet replay <run.jsonl|-> [...]` — see [`REPLAY_FLAGS`].
pub fn cmd_replay(args: &[String]) -> Result<String, String> {
    let parsed = parse_replay_args(args)?;
    if parsed.follow {
        return if parsed.path == "-" {
            follow_stdin()
        } else {
            follow_file(&parsed.path, parsed.poll_ms)
        };
    }
    let text = if parsed.path == "-" {
        let mut text = String::new();
        std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut text)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        text
    } else {
        std::fs::read_to_string(&parsed.path)
            .map_err(|e| format!("cannot read `{}`: {e}", parsed.path))?
    };
    let setup = load_setup(&parsed.path)?;
    let heat = parsed.heatmap.as_ref().map(|_| parsed.metric);
    let folded = Folded::fold(
        &text,
        &parsed.path,
        setup.as_ref(),
        parsed.at,
        parsed.svg.is_some() || heat == Some(HeatKind::Failures),
        parsed.waterfall.is_some() || heat == Some(HeatKind::Latency),
    )?;
    let mut out = summary(&folded.state, parsed.at, folded.tail);

    if let Some(svg_path) = &parsed.svg {
        let setup = setup
            .as_ref()
            .ok_or_else(|| needs_manifest("--svg", &parsed.path))?;
        let scene = film_scene(setup, folded.film(), parsed.duration);
        write_artifact(svg_path, &robonet_viz::anim::render(&scene, 640))?;
        let _ = writeln!(out, "replay animation written: {svg_path}");
    }
    if let Some(heat_path) = &parsed.heatmap {
        let setup = setup
            .as_ref()
            .ok_or_else(|| needs_manifest("--heatmap", &parsed.path))?;
        let heat = heatmap_spec(setup, &folded, parsed.metric, parsed.grid);
        write_artifact(heat_path, &heat.render(480))?;
        let _ = writeln!(out, "heatmap written: {heat_path}");
    }
    if let Some(wf_path) = &parsed.waterfall {
        let wf = waterfall_spec(setup.as_ref(), folded.spans(), parsed.rows);
        write_artifact(wf_path, &wf.render(760))?;
        let _ = writeln!(out, "waterfall written: {wf_path}");
    }
    Ok(out)
}

/// Everything `robonet replay` reads from a trace, folded in one pass:
/// the state, and the film and the spans when a figure needs them.
struct Folded {
    state: ReplayState,
    film: Option<Film>,
    spans: Option<SpanReport>,
    tail: Option<TruncatedTail>,
}

impl Folded {
    /// Folds the events of `text` up to `at` (all of them without it):
    /// `--at T` analyzes the trace as of T, so the state, the film and
    /// the span decomposition all see only that prefix.
    fn fold(
        text: &str,
        path: &str,
        setup: Option<&ReplaySetup>,
        at: Option<f64>,
        film: bool,
        spans: bool,
    ) -> Result<Folded, String> {
        let mut state = setup.map_or_else(ReplayState::discovering, ReplayState::new);
        let mut film = film.then(Film::new);
        let mut assembler = spans.then(SpanAssembler::new);
        let tail = for_each_event_line(text, |ev| {
            if at.is_none_or(|t| ev.time() <= t) {
                state.apply(ev);
                if let Some(film) = film.as_mut() {
                    film.ingest(ev);
                }
                if let Some(assembler) = assembler.as_mut() {
                    assembler.ingest(ev);
                }
            }
        })
        .map_err(|e| format!("{path}: {e}"))?;
        Ok(Folded {
            state,
            film,
            spans: assembler.map(SpanAssembler::finish),
            tail,
        })
    }

    fn film(&self) -> &Film {
        self.film
            .as_ref()
            .expect("a figure drawn from the film folds one")
    }

    fn spans(&self) -> &SpanReport {
        self.spans
            .as_ref()
            .expect("a figure drawn from spans folds them")
    }
}

/// The run manifest next to the trace, if there is one. Replaying a
/// bare pipe or a trace whose manifest was deleted still works — nodes
/// are discovered from the events — but position-dependent figures
/// need the recovered deployment.
fn load_setup(trace_path: &str) -> Result<Option<ReplaySetup>, String> {
    if trace_path == "-" {
        return Ok(None);
    }
    let manifest = manifest_path_for(trace_path);
    match std::fs::read_to_string(&manifest) {
        Ok(text) => ReplaySetup::from_manifest(&text)
            .map(Some)
            .map_err(|e| format!("{manifest}: {e}")),
        Err(_) => Ok(None),
    }
}

fn needs_manifest(flag: &str, trace_path: &str) -> String {
    format!(
        "{flag} needs the deployment geometry: no readable manifest at `{}`",
        manifest_path_for(trace_path)
    )
}

fn write_artifact(path: &str, svg: &str) -> Result<(), String> {
    std::fs::write(path, svg).map_err(|e| format!("cannot write `{path}`: {e}"))
}

/// Composes the full-run film into an animated scene: every sensor at
/// its deployed position flashing through its outages, every robot
/// driving its recorded legs, Voronoi cells of the initial fleet as an
/// overlay. Open legs and outages are closed at the film horizon, the
/// last event but at least 1 s.
fn film_scene(setup: &ReplaySetup, film: &Film, playback_s: f64) -> AnimScene {
    let dur = film.t_end.max(1.0);
    let n_sensors = setup.n_sensors() as u32;
    let mut sensors: Vec<AnimSensor> = setup
        .sensor_pos
        .iter()
        .map(|&loc| AnimSensor {
            loc,
            outages: Vec::new(),
        })
        .collect();
    for o in &film.outages {
        if let Some(s) = sensors.get_mut(o.sensor as usize) {
            s.outages.push((o.start, o.end.unwrap_or(dur)));
        }
    }
    let mut robots: Vec<AnimRobot> = setup
        .robot_home
        .iter()
        .enumerate()
        .map(|(r, &home)| AnimRobot {
            label: format!("R{r}"),
            home,
            legs: Vec::new(),
        })
        .collect();
    for leg in &film.legs {
        if let Some(rb) = leg
            .robot
            .checked_sub(n_sensors)
            .and_then(|i| robots.get_mut(i as usize))
        {
            rb.legs.push(AnimLeg {
                from: leg.from,
                to: leg.to,
                start: leg.start,
                end: leg.end.unwrap_or(dur),
            });
        }
    }
    AnimScene {
        title: format!("{} replay", setup.algorithm),
        bounds: setup.bounds,
        duration_s: dur,
        playback_s,
        sensors,
        robots,
        cells: voronoi_cells(&setup.robot_home, &setup.bounds),
    }
}

/// Failure density (unit samples, summed) or repair latency (dead-time
/// samples, averaged) over the deployed sensor positions.
fn heatmap_spec(setup: &ReplaySetup, folded: &Folded, kind: HeatKind, grid: usize) -> Heatmap {
    let sensor_loc = |id: u32| setup.sensor_pos.get(id as usize).copied();
    let (title, unit, metric, samples) = match kind {
        HeatKind::Failures => {
            let samples = folded
                .film()
                .outages
                .iter()
                .filter_map(|o| sensor_loc(o.sensor).or(o.loc).map(|loc| (loc, 1.0)))
                .collect();
            (
                format!("failure density — {}", setup.algorithm),
                "failures".to_string(),
                HeatMetric::Sum,
                samples,
            )
        }
        HeatKind::Latency => {
            let samples = folded
                .spans()
                .spans
                .iter()
                .filter_map(|s| sensor_loc(s.sensor.as_u32()).map(|loc| (loc, s.total())))
                .collect();
            (
                format!("repair latency — {}", setup.algorithm),
                "s".to_string(),
                HeatMetric::Mean,
                samples,
            )
        }
    };
    Heatmap {
        title,
        unit,
        bounds: setup.bounds,
        grid,
        metric,
        samples,
    }
}

/// One waterfall row per repaired failure, segmented by lifecycle
/// stage; `viz::waterfall` sorts and (beyond `max_rows`) buckets them.
fn waterfall_spec(setup: Option<&ReplaySetup>, report: &SpanReport, max_rows: usize) -> Waterfall {
    let rows = report
        .spans
        .iter()
        .map(|span| WaterfallRow {
            label: format!("s{} @ {:.0} s", span.sensor.as_u32(), span.failed_at),
            start: span.failed_at,
            segments: Stage::ALL
                .iter()
                .enumerate()
                .filter_map(|(i, st)| span.stage(*st).map(|d| (i, d)))
                .collect(),
        })
        .collect();
    Waterfall {
        title: format!(
            "repair lifecycle — {} ({} repairs, {} open)",
            setup.map_or("trace", |s| s.algorithm.as_str()),
            report.spans.len(),
            report.orphans.len()
        ),
        stage_names: Stage::ALL.iter().map(|s| s.label().to_string()).collect(),
        rows,
        max_rows,
    }
}

/// How many events between rolling dashboard lines in follow mode.
const DASHBOARD_EVERY: u64 = 256;

/// Follows a pipe on stdin (`robonet run --trace-out - | robonet
/// replay --follow -`): rolling dashboards to stderr while the
/// producer runs, the final state summary to stdout at EOF.
fn follow_stdin() -> Result<String, String> {
    let mut replayer = Replayer::discovering();
    let stdin = std::io::stdin();
    let mut lock = stdin.lock();
    let mut line = String::new();
    let mut next_dash = DASHBOARD_EVERY;
    loop {
        line.clear();
        let n = lock
            .read_line(&mut line)
            .map_err(|e| format!("cannot read stdin: {e}"))?;
        if n == 0 {
            break;
        }
        replayer.feed(&line)?;
        if replayer.state().events >= next_dash {
            eprintln!("{}", replayer.state().dashboard());
            next_dash += DASHBOARD_EVERY;
        }
    }
    let (state, tail) = replayer.finish()?;
    eprintln!("{}", state.dashboard());
    Ok(summary(&state, None, tail))
}

/// Tails a trace file being written by a live `robonet run
/// --trace-out FILE`: poll + seek every `poll_ms` milliseconds, a
/// ragged final line buffered until the rest arrives. The follow ends
/// when the producer's manifest exists and a poll reads no new bytes —
/// the run is over and the trace drained.
fn follow_file(path: &str, poll_ms: u64) -> Result<String, String> {
    use std::io::{Read as _, Seek as _, SeekFrom};
    let manifest = manifest_path_for(path);
    let mut replayer = Replayer::discovering();
    let mut pos: u64 = 0;
    loop {
        let mut chunk = Vec::new();
        if let Ok(mut f) = std::fs::File::open(path) {
            f.seek(SeekFrom::Start(pos))
                .map_err(|e| format!("cannot seek `{path}`: {e}"))?;
            f.read_to_end(&mut chunk)
                .map_err(|e| format!("cannot read `{path}`: {e}"))?;
        }
        if chunk.is_empty() {
            // Trace drained and the producer has signed off (the
            // manifest is the last artifact a run writes).
            if pos > 0 && std::path::Path::new(&manifest).exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(poll_ms));
            continue;
        }
        pos += chunk.len() as u64;
        // Trace JSONL is pure ASCII; a split multi-byte sequence can
        // only mean a foreign file.
        let text =
            std::str::from_utf8(&chunk).map_err(|_| format!("`{path}` is not UTF-8 JSONL"))?;
        replayer.feed(text).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("{}", replayer.state().dashboard());
    }
    let (live, tail) = replayer.finish()?;
    // With the manifest on disk the deployment geometry is now
    // recoverable; re-fold the finished artifact so the final summary
    // is byte-identical to `robonet replay <path>` run offline.
    if let Some(setup) = load_setup(path)? {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
        let folded = Folded::fold(&text, path, Some(&setup), None, false, false)?;
        return Ok(summary(&folded.state, None, folded.tail));
    }
    Ok(summary(&live, None, tail))
}

/// The state summary, rendered at `at` when given, with a note when the
/// trace ended mid-record.
fn summary(state: &ReplayState, at: Option<f64>, tail: Option<TruncatedTail>) -> String {
    let mut out = match at {
        Some(t) => state.summary_at(t),
        None => state.summary(),
    };
    if let Some(tail) = tail {
        let _ = writeln!(out, "note: {tail} — state covers the complete prefix");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    /// Dummy value accepted by every value-taking replay flag.
    fn dummy_value(flag: &str) -> &'static str {
        match flag {
            "--svg" | "--heatmap" | "--waterfall" => "/tmp/out.svg",
            "--metric" => "latency",
            "--grid" | "--rows" | "--poll-ms" => "4",
            _ => "100.5",
        }
    }

    #[test]
    fn parser_accepts_every_declared_replay_flag() {
        for &(flag, takes_value) in REPLAY_FLAGS {
            let argv = if takes_value {
                args(&["t.jsonl", flag, dummy_value(flag)])
            } else {
                args(&["t.jsonl", flag])
            };
            parse_replay_args(&argv)
                .unwrap_or_else(|e| panic!("declared flag {flag} rejected: {e}"));
        }
    }

    #[test]
    fn replay_args_defaults_and_overrides() {
        let a = parse_replay_args(&args(&["run.jsonl"])).unwrap();
        assert_eq!(a.path, "run.jsonl");
        assert_eq!(a.at, None);
        assert_eq!(a.grid, 10);
        assert_eq!(a.rows, 40);
        assert_eq!(a.duration, 20.0);
        assert!(!a.follow);
        assert_eq!(a.poll_ms, 40);

        let a = parse_replay_args(&args(&["run.jsonl", "--follow", "--poll-ms", "250"])).unwrap();
        assert!(a.follow);
        assert_eq!(a.poll_ms, 250);

        let a = parse_replay_args(&args(&[
            "-",
            "--at",
            "1200.5",
            "--svg",
            "a.svg",
            "--metric",
            "latency",
            "--grid",
            "8",
            "--rows",
            "12",
            "--duration",
            "30",
        ]))
        .unwrap();
        assert_eq!(a.path, "-");
        assert_eq!(a.at, Some(1200.5));
        assert_eq!(a.svg.as_deref(), Some("a.svg"));
        assert_eq!(a.metric, HeatKind::Latency);
        assert_eq!(a.grid, 8);
        assert_eq!(a.rows, 12);
        assert_eq!(a.duration, 30.0);
    }

    #[test]
    fn replay_arg_errors_are_clear() {
        assert!(parse_replay_args(&args(&[])).is_err(), "needs a path");
        assert!(parse_replay_args(&args(&["a", "b"])).is_err(), "one path");
        assert!(parse_replay_args(&args(&["t", "--at"])).is_err());
        assert!(parse_replay_args(&args(&["t", "--grid", "0"])).is_err());
        assert!(parse_replay_args(&args(&["t", "--metric", "vibes"])).is_err());
        assert!(parse_replay_args(&args(&["t", "--poll-ms", "0"])).is_err());
        assert!(parse_replay_args(&args(&["t", "--poll-ms", "fast"])).is_err());
        assert!(parse_replay_args(&args(&["t", "--bogus"])).is_err());
        let err = parse_replay_args(&args(&["t", "--follow", "--svg", "a.svg"])).unwrap_err();
        assert!(err.contains("--follow"), "{err}");
        let err = parse_replay_args(&args(&["t", "--follow", "--waterfall", "w.svg"])).unwrap_err();
        assert!(err.contains("--follow"), "{err}");
    }

    #[test]
    fn missing_trace_names_the_path() {
        let err = cmd_replay(&args(&["/no/such/run.jsonl"])).unwrap_err();
        assert!(err.contains("/no/such/run.jsonl"), "{err}");
        assert!(err.contains("cannot read"), "{err}");
    }
}
