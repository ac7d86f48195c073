//! Golden gate for packet-engine branches that no other golden reaches:
//!
//! - a `Fading::SmoothEdge` run, where every hearer of a frame draws
//!   its reception from the MAC stream in scan order, so any change to
//!   the hearer visit order or to who draws shows up here;
//! - an unscaled run (the paper's 10 s beacons, robots at 1 m/s) in
//!   which a west/east partition opens and heals while robots break
//!   down and repair, so sensor-to-sensor beacons are dropped at the
//!   receiver for a while and robot beacons feed the peer heartbeats.
//!
//! Each run's summary figures, delivered event count, fault counters
//! and per-class transmission table must be byte-identical to the
//! committed `tests/golden/packet_paths.txt` (regenerate intentional
//! changes with `ROBONET_UPDATE_GOLDEN=1 cargo test -q -p robonet-core
//! --test packet_paths`).

use std::fmt::Write as _;
use std::path::Path;

use robonet_core::fault::{FaultPlan, TimedFault};
use robonet_core::{Algorithm, ScenarioConfig, Simulation};
use robonet_des::SimDuration;
use robonet_geom::{ConvexPolygon, Point};
use robonet_radio::Fading;

fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> ConvexPolygon {
    ConvexPolygon::new(vec![
        Point::new(x0, y0),
        Point::new(x1, y0),
        Point::new(x1, y1),
        Point::new(x0, y1),
    ])
    .expect("CCW rectangle")
}

fn smooth_edge() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
        .with_seed(11)
        .scaled(16.0);
    cfg.fading = Fading::SmoothEdge { inner: 0.7 };
    cfg
}

fn partition_with_breakdowns() -> ScenarioConfig {
    let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic).with_seed(3);
    cfg.sim_time = SimDuration::from_secs(4_000.0);
    cfg.mean_lifetime = SimDuration::from_secs(6_000.0);
    let side = cfg.side();
    cfg.faults = Some(FaultPlan {
        breakdown_mean: Some(SimDuration::from_secs(1_500.0)),
        breakdown_repair: Some(SimDuration::from_secs(200.0)),
        timeline: vec![TimedFault::Partition {
            from: SimDuration::from_secs(1_000.0),
            until: SimDuration::from_secs(2_500.0),
            a: rect(0.0, 0.0, side / 2.0, side),
            b: rect(side / 2.0, 0.0, side, side),
        }],
        ..FaultPlan::default()
    });
    cfg
}

#[test]
fn packet_path_summaries_match_golden() {
    let mut out = String::new();
    for (label, cfg) in [
        ("smooth_edge", smooth_edge()),
        ("partition_breakdowns", partition_with_breakdowns()),
    ] {
        let o = Simulation::run(cfg);
        let m = &o.metrics;
        writeln!(out, "== {label}").unwrap();
        writeln!(out, "events: {}", o.events_processed).unwrap();
        writeln!(out, "summary: {:?}", m.summary()).unwrap();
        writeln!(out, "faults: {:?}", m.faults).unwrap();
        writeln!(
            out,
            "partition_drops: {}",
            m.counters.counter("fault", "partition_drops")
        )
        .unwrap();
        writeln!(out, "{}", m.tx).unwrap();
    }

    let golden_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/packet_paths.txt");
    if std::env::var_os("ROBONET_UPDATE_GOLDEN").is_some() {
        std::fs::write(&golden_path, &out).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden {golden_path:?}: {e}"));
    assert_eq!(
        out, golden,
        "packet path summaries drifted from {golden_path:?} (ROBONET_UPDATE_GOLDEN=1 to regenerate)"
    );
}
