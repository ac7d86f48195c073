//! Degradation curve: how gracefully each algorithm's repair pipeline
//! absorbs injected message loss. Sweeps the uniform loss probability
//! over reports, dispatch requests and location updates and tracks the
//! replacement ratio and the p95 repair delay — the retry/timeout
//! recovery protocol should hold the ratio near the fault-free level
//! through 10% loss, paying only in delay.
//!
//! Read the 0% row as the *paper's* protocol, not as an upper bound:
//! any active fault plan arms guardian report retries, which also
//! recover reports lost to natural MAC collisions and TTL drops, so
//! the lossy rows can out-repair the one-shot fault-free baseline.
//! The degradation signal is the trend *within* the lossy rows.
//!
//! All (algorithm × loss) cells run on the deterministic work-stealing
//! pool, so the curve is identical whatever the worker count. Each cell
//! runs observed (a small ring attached) so its repair spans are
//! assembled; the sweep engine runs cells unobserved, hence the pool
//! directly.
//!
//! Usage: `cargo run --release -p robonet-bench --bin degradation_curve`

use robonet_core::{
    Algorithm, FaultPlan, Outcome, PartitionKind, RingSink, ScenarioConfig, Simulation,
};
use robonet_des::pool::{resolve_jobs, scatter_map};

const SCALE: f64 = 64.0;
const LOSS: [f64; 4] = [0.0, 0.01, 0.05, 0.10];

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Centralized,
    Algorithm::Fixed(PartitionKind::Square),
    Algorithm::Dynamic,
];

fn cell_config(alg: Algorithm, loss: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(2, alg).with_seed(1).scaled(SCALE);
    if loss > 0.0 {
        cfg.faults = Some(FaultPlan::message_loss(loss).scaled(SCALE));
    }
    cfg
}

/// Runs `cfg` with a small ring attached, which switches on the span
/// assembly the p95 delay is read from.
fn observed_run(cfg: &ScenarioConfig) -> Outcome {
    Simulation::with_sink(cfg.clone(), Box::new(RingSink::with_capacity(16))).run_to_completion()
}

fn main() {
    println!("\nLoss-degradation curve (k=2, time-compressed x{SCALE}):");
    println!(
        "  {:<12} {:>6} {:>10} {:>12} {:>14}",
        "algorithm", "loss", "repaired", "ratio", "p95 delay (s)"
    );
    let cells: Vec<(Algorithm, f64)> = ALGORITHMS
        .iter()
        .flat_map(|&alg| LOSS.iter().map(move |&loss| (alg, loss)))
        .collect();
    let outcomes = scatter_map(&cells, resolve_jobs(None), |_, &(alg, loss)| {
        observed_run(&cell_config(alg, loss))
    });
    for (&(alg, loss), outcome) in cells.iter().zip(outcomes) {
        let outcome = outcome.unwrap_or_else(|p| panic!("degradation {p}"));
        let s = outcome.metrics.summary();
        let p95 = outcome
            .spans
            .as_ref()
            .expect("an observed run assembles spans")
            .total_sketch()
            .quantile(0.95)
            .expect("every cell repairs some failures");
        println!(
            "  {:<12} {:>5.0}% {:>4}/{:<5} {:>11.3} {:>14.1}",
            format!("{alg:?}").to_lowercase(),
            loss * 100.0,
            s.replacements,
            s.failures_occurred,
            s.replacements as f64 / s.failures_occurred.max(1) as f64,
            p95
        );
    }
}
