//! Golden gate for the flow engine at fleet scale: `fastsim::run` at
//! k in {10, 14, 20} x the three algorithms, seeds 1-3, 1000 s on the
//! paper's unscaled timers — the cell shape of the benchmark's
//! `flow_fleet` workload — plus rows that reach the rest of the
//! engine: 16,000 s at k = 10, where queues form and robots chain
//! legs; the hexagonal fixed partition; and a lossy k = 14 run, whose
//! report retries move report instants. The `FastSummary` lines,
//! floats included, must be byte-identical to the committed
//! `tests/golden/flow_fleet.txt` (regenerate intentional changes with
//! `ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-core --test
//! flow_fleet`).

use std::fmt::Write as _;
use std::path::Path;

use robonet_core::fault::FaultPlan;
use robonet_core::{fastsim, Algorithm, PartitionKind, ScenarioConfig};
use robonet_des::SimDuration;

const ALGORITHMS: [(&str, Algorithm); 3] = [
    ("centralized", Algorithm::Centralized),
    ("fixed", Algorithm::Fixed(PartitionKind::Square)),
    ("dynamic", Algorithm::Dynamic),
];

/// The paper's scenario at `k` for `alg`, run for `secs` seconds.
fn cell(k: usize, alg: Algorithm, seed: u64, secs: f64) -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(k, alg).with_seed(seed);
    cfg.sim_time = SimDuration::from_secs(secs);
    cfg
}

#[test]
fn flow_fleet_summaries_match_golden() {
    let mut summaries = String::new();
    let mut row = |label: String, cfg: &ScenarioConfig| {
        writeln!(summaries, "{label}: {:?}", fastsim::run(cfg)).unwrap();
    };
    for seed in 1..=3 {
        // Seed 1 keeps the unsuffixed labels the golden started with.
        let suffix = if seed == 1 {
            String::new()
        } else {
            format!(" seed={seed}")
        };
        for k in [10, 14, 20] {
            for (name, alg) in ALGORITHMS {
                row(format!("k{k}.{name}{suffix}"), &cell(k, alg, seed, 1_000.0));
            }
        }
    }
    for (name, alg) in ALGORITHMS {
        row(format!("k10.{name} t=16000s"), &cell(10, alg, 1, 16_000.0));
    }
    for k in [10, 14] {
        let hex = Algorithm::Fixed(PartitionKind::Hex);
        row(format!("k{k}.fixed-hex"), &cell(k, hex, 1, 1_000.0));
    }
    let mut lossy = cell(14, Algorithm::Centralized, 1, 1_000.0);
    lossy.faults = Some(FaultPlan::message_loss(0.1));
    row("k14.centralized loss=0.1".into(), &lossy);

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/flow_fleet.txt");
    if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &summaries).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {golden_path:?}: {e}"));
    assert_eq!(
        summaries, golden,
        "flow fleet summaries drifted from {golden_path:?} (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
    );
}
