//! Golden gate for the flow engine at fleet scale: `fastsim::run` at
//! k in {10, 14, 20} x the three algorithms, seed 1, 1000 s on the
//! paper's unscaled timers — the cell shape of the benchmark's
//! `flow_fleet` workload. The `FastSummary` lines, floats included,
//! must be byte-identical to the committed `tests/golden/flow_fleet.txt`
//! (regenerate intentional changes with `ROBONET_UPDATE_GOLDEN=1 cargo
//! test -q -p robonet-core --test flow_fleet`).

use std::fmt::Write as _;
use std::path::Path;

use robonet_core::{fastsim, Algorithm, PartitionKind, ScenarioConfig};
use robonet_des::SimDuration;

#[test]
fn flow_fleet_summaries_match_golden() {
    let algorithms = [
        ("centralized", Algorithm::Centralized),
        ("fixed", Algorithm::Fixed(PartitionKind::Square)),
        ("dynamic", Algorithm::Dynamic),
    ];
    let mut summaries = String::new();
    for k in [10, 14, 20] {
        for (name, alg) in algorithms {
            let mut cfg = ScenarioConfig::paper(k, alg).with_seed(1);
            cfg.sim_time = SimDuration::from_secs(1_000.0);
            writeln!(summaries, "k{k}.{name}: {:?}", fastsim::run(&cfg)).unwrap();
        }
    }

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
