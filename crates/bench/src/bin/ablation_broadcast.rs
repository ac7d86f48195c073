//! Ablation for the paper's §6 future work: "more efficient location
//! update mechanisms to reduce the messaging overhead in the dynamic
//! and the fixed algorithms" — here, border-retransmit self-pruning
//! (only sensors at least a fraction of the radio range from the
//! transmitter relay a flood). Measures the messaging saved and the
//! price paid in `myrobot` accuracy.
//!
//! Usage: `cargo run --release -p robonet-bench --bin ablation_broadcast`

use robonet_bench::run_cells;
use robonet_core::{Algorithm, ScenarioConfig};

const SCALE: f64 = 64.0;

fn main() {
    let cells = run_cells(
        [None, Some(0.3), Some(0.5), Some(0.7)]
            .into_iter()
            .map(|prune| {
                let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
                    .with_seed(1)
                    .scaled(SCALE);
                cfg.broadcast_prune = prune;
                cfg
            })
            .collect(),
    );
    println!("\nBroadcast-pruning ablation (dynamic algorithm, time-compressed x{SCALE}):");
    for cell in &cells {
        let s = cell.metrics.summary();
        let label = cell
            .config
            .broadcast_prune
            .map_or("off".to_string(), |f| format!("{f:.1}"));
        println!(
            "  prune {label:<4}: updates {:>6.1} tx/failure, myrobot accuracy {:>5.1}%, \
             delivery {:>5.1}%, travel {:>6.1} m",
            s.loc_update_tx_per_failure,
            s.myrobot_accuracy * 100.0,
            s.report_delivery_ratio * 100.0,
            s.avg_travel_per_failure
        );
    }
}
