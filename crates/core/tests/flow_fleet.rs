//! Golden gate for the flow engine at fleet scale: `fastsim::run` at
//! k in {10, 14, 20} x the three algorithms, seeds 1-3, 1000 s on the
//! paper's unscaled timers — the cell shape of the benchmark's
//! `flow_fleet` workload — plus rows that reach the rest of the
//! engine: 16,000 s at k = 10, where queues form and robots chain
//! legs, and at k = 20 for the two nearest-robot algorithms, whose
//! long queued legs and many re-armed lifetimes keep the fleet moving;
//! the hexagonal fixed partition; a lossy k = 14 run, whose report
//! retries move report instants; a region-weighted run whose dense
//! core wears out twice as fast (per-sensor lifetime factors); and the
//! shortest horizon the configuration accepts, one nanosecond past a
//! beacon period, where almost every initial lifetime ends after the
//! horizon. The `FastSummary` lines,
//! floats included, must be byte-identical to the committed
//! `tests/golden/flow_fleet.txt` (regenerate intentional changes with
//! `ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-core --test
//! flow_fleet`).

use std::fmt::Write as _;
use std::path::Path;

use robonet_core::fault::FaultPlan;
use robonet_core::{fastsim, Algorithm, DeployRegion, PartitionKind, ScenarioConfig};
use robonet_des::SimDuration;
use robonet_geom::{ConvexPolygon, Point};

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

/// A core of a quarter of the field's side at its centre, holding
/// sensors at four times the background density that wear out twice as
/// fast (the `dense_core` scenario's region at fleet scale).
fn dense_core(side: f64) -> DeployRegion {
    let (lo, hi) = (side * 3.0 / 8.0, side * 5.0 / 8.0);
    DeployRegion {
        poly: ConvexPolygon::new(vec![
            Point::new(lo, lo),
            Point::new(hi, lo),
            Point::new(hi, hi),
            Point::new(lo, hi),
        ])
        .expect("a square"),
        density: 4.0,
        mean_lifetime: Some(SimDuration::from_secs(8_000.0)),
    }
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
    for (name, alg) in [ALGORITHMS[0], ALGORITHMS[2]] {
        row(format!("k20.{name} t=16000s"), &cell(20, alg, 1, 16_000.0));
    }
    for k in [10, 14] {
        let hex = Algorithm::Fixed(PartitionKind::Hex);
        row(format!("k{k}.fixed-hex"), &cell(k, hex, 1, 1_000.0));
    }
    let mut lossy = cell(14, Algorithm::Centralized, 1, 1_000.0);
    lossy.faults = Some(FaultPlan::message_loss(0.1));
    row("k14.centralized loss=0.1".into(), &lossy);
    for (name, alg) in ALGORITHMS {
        let mut core = cell(10, alg, 1, 4_000.0);
        core.regions.push(dense_core(core.side()));
        row(format!("k10.{name} dense-core t=4000s"), &core);
    }
    for (name, alg) in ALGORITHMS {
        let mut short = cell(20, alg, 1, 0.0);
        short.sim_time = short.beacon_period + SimDuration::from_nanos(1);
        assert!(fastsim::validate(&short).is_ok());
        let mut shorter = short.clone();
        shorter.sim_time = short.beacon_period;
        assert!(fastsim::validate(&shorter).is_err(), "the shortest horizon");
        row(format!("k20.{name} t=beacon+1ns"), &short);
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
