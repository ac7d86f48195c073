//! Ablation for the paper's §4.3.1 remark: "other partition methods
//! (e.g., hexagon partition) show negligible difference in the
//! overheads" for the fixed algorithm. Runs square vs hexagonal
//! partitions and prints both overheads side by side.
//!
//! Usage: `cargo run --release -p robonet-bench --bin ablation_partition`

use robonet_bench::run_cells;
use robonet_core::{Algorithm, PartitionKind, ScenarioConfig};

const SCALE: f64 = 64.0;

fn main() {
    let axis: Vec<(PartitionKind, usize)> = [PartitionKind::Square, PartitionKind::Hex]
        .into_iter()
        .flat_map(|kind| [2, 3].map(|k| (kind, k)))
        .collect();
    let cells = run_cells(
        axis.iter()
            .map(|&(kind, k)| {
                ScenarioConfig::paper(k, Algorithm::Fixed(kind))
                    .with_seed(1)
                    .scaled(SCALE)
            })
            .collect(),
    );
    println!("\nPartition ablation (fixed algorithm, time-compressed x{SCALE}):");
    for (&(kind, _), cell) in axis.iter().zip(&cells) {
        let s = cell.metrics.summary();
        println!(
            "  {:<10} {:>2} robots: travel {:>6.1} m/failure, updates {:>6.1} tx/failure",
            format!("{kind:?}"),
            cell.config.n_robots(),
            s.avg_travel_per_failure,
            s.loc_update_tx_per_failure
        );
    }
}
