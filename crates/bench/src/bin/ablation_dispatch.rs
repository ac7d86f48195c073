//! Ablation of the centralized manager's dispatch rule: the paper's
//! "closest robot" (§3.1) vs a `NearestIdle` extension where robots
//! piggyback queue lengths on their location updates and the manager
//! prefers idle robots. Run under increasing load (shrinking mean
//! lifetime) to expose the trade-off between extra travel and queueing
//! delay.
//!
//! Usage: `cargo run --release -p robonet-bench --bin ablation_dispatch`

use robonet_bench::run_cells;
use robonet_core::{Algorithm, DispatchPolicy, ScenarioConfig};
use robonet_des::SimDuration;

const SCALE: f64 = 64.0;

fn main() {
    let axis: Vec<(f64, DispatchPolicy)> = [250.0, 125.0, 62.5]
        .into_iter()
        .flat_map(|lifetime| {
            [DispatchPolicy::Nearest, DispatchPolicy::NearestIdle].map(|p| (lifetime, p))
        })
        .collect();
    let cells = run_cells(
        axis.iter()
            .map(|&(lifetime, policy)| {
                let mut cfg = ScenarioConfig::paper(2, Algorithm::Centralized)
                    .with_seed(1)
                    .scaled(SCALE);
                cfg.mean_lifetime = SimDuration::from_secs(lifetime);
                cfg.dispatch = policy;
                cfg
            })
            .collect(),
    );
    println!("\nDispatch-policy ablation (centralized, time-compressed x{SCALE}):");
    for (&(lifetime, policy), cell) in axis.iter().zip(&cells) {
        let s = cell.metrics.summary();
        println!(
            "  lifetime {lifetime:>6.1}s {policy:<12?}: delay {:>6.1}s travel {:>6.1}m repaired {:>4}/{:<4}",
            s.avg_repair_delay, s.avg_travel_per_failure, s.replacements, s.failures_occurred
        );
    }
}
