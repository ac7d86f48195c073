//! Tracks sensing coverage over time while robots repair failures — the
//! quantity the whole maintenance system exists to protect ("keep the
//! coverage", paper §1). Prints a CSV timeline plus an ASCII sparkline,
//! comparing a maintained network against one with no robots at all
//! (by disabling replacement through an empty-lifetime thought
//! experiment: we simply count what coverage the dead set would give).
//!
//!     cargo run --release --example coverage_timeline

use robonet::prelude::*;
use robonet::wsn::coverage::{coverage_fraction, GRID_RESOLUTION, SENSING_RANGE};

fn main() {
    let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
        .with_seed(9)
        .scaled(16.0);
    // Every telemetry sample carries the covered fraction and the
    // number of sensors down.
    cfg.sample_every = Some(SimDuration::from_secs(100.0));
    let bounds = cfg.bounds();
    let n_sensors = cfg.n_sensors();
    let outcome = Simulation::run(cfg);
    let tl: Vec<(f64, f64, u32)> = outcome
        .metrics
        .telemetry_timeline
        .samples
        .iter()
        .map(|(t, sample)| (*t, sample.coverage, sample.down))
        .collect();

    println!("time_s,coverage,dead_sensors");
    for &(t, cov, dead) in &tl {
        println!("{t:.0},{cov:.4},{dead}");
    }

    // Sparkline of coverage (80%..100% band).
    let glyphs = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let line: String = tl
        .iter()
        .map(|&(_, cov, _)| {
            let idx = (((cov - 0.80) / 0.20) * (glyphs.len() as f64 - 1.0))
                .clamp(0.0, glyphs.len() as f64 - 1.0) as usize;
            glyphs[idx]
        })
        .collect();
    eprintln!();
    eprintln!("coverage (80%–100%):  {line}");
    let min_cov = tl.iter().map(|&(_, c, _)| c).fold(1.0f64, f64::min);
    let max_dead = tl.iter().map(|&(_, _, d)| d).max().unwrap_or(0);
    eprintln!(
        "minimum coverage {:.1}% — never more than {max_dead}/{n_sensors} sensors down at once",
        min_cov * 100.0
    );

    // Counterfactual: if nothing were ever replaced, how would coverage
    // look with that many cumulative failures?
    let failures = outcome.metrics.failures_occurred.min(n_sensors as u64) as usize;
    let mut rng = robonet::des::rng::stream(9, "counterfactual");
    let sensors = robonet::geom::deploy::uniform(&mut rng, &bounds, n_sensors);
    let mut alive = vec![true; n_sensors];
    for a in alive.iter_mut().take(failures) {
        *a = false;
    }
    let unmaintained = coverage_fraction(&bounds, &sensors, &alive, SENSING_RANGE, GRID_RESOLUTION);
    eprintln!(
        "without replacement, the {failures} failures of this run would leave ~{:.1}% coverage",
        unmaintained * 100.0
    );
}
