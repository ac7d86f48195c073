//! Integration tests asserting the paper's evaluation-section claims on
//! time-compressed runs. Only Figure 2 survives the compression
//! unchanged; the others drift with the factor (see
//! `ScenarioConfig::scaled`), so the claims here are checked as
//! orderings, trends and coarse thresholds; EXPERIMENTS.md has the
//! full-scale numbers.
//!
//! The claims under test (paper abstract + §4.3):
//! (a) the centralized and the dynamic algorithms have lower motion
//!     overhead than the fixed algorithm;
//! (b) the centralized algorithm is less scalable: its report/request
//!     hop counts grow with the field while the distributed algorithms'
//!     stay flat;
//! (c) the distributed algorithms have far higher location-update
//!     messaging cost than the centralized algorithm, with dynamic
//!     slightly above fixed;
//! (d) failure reports are delivered essentially always (the paper
//!     reports a 100% delivery ratio).

use robonet::prelude::*;

const SCALE: f64 = 16.0;

fn run(k: usize, alg: Algorithm) -> Summary {
    Simulation::run(ScenarioConfig::paper(k, alg).with_seed(5).scaled(SCALE))
        .metrics
        .summary()
}

#[test]
fn claim_a_motion_overhead_ordering() {
    // At 9 robots the paper's Figure 2 separates the algorithms.
    let fixed = run(3, Algorithm::Fixed(PartitionKind::Square));
    let dynamic = run(3, Algorithm::Dynamic);
    let centralized = run(3, Algorithm::Centralized);
    // Dynamic tracks centralized closely...
    let rel = (dynamic.avg_travel_per_failure - centralized.avg_travel_per_failure).abs()
        / centralized.avg_travel_per_failure;
    assert!(
        rel < 0.10,
        "dynamic vs centralized motion differ by {rel:.2}"
    );
    // ... and fixed does not beat either by a meaningful margin (the
    // paper has fixed strictly worst; at one seed we allow noise).
    assert!(
        fixed.avg_travel_per_failure > 0.95 * dynamic.avg_travel_per_failure,
        "fixed {:.1} vs dynamic {:.1}",
        fixed.avg_travel_per_failure,
        dynamic.avg_travel_per_failure
    );
    assert!(
        fixed.avg_travel_per_failure > 0.95 * centralized.avg_travel_per_failure,
        "fixed {:.1} vs centralized {:.1}",
        fixed.avg_travel_per_failure,
        centralized.avg_travel_per_failure
    );
}

#[test]
fn claim_b_centralized_hops_grow_with_field() {
    let small = run(2, Algorithm::Centralized);
    let large = run(4, Algorithm::Centralized);
    assert!(
        large.avg_report_hops > small.avg_report_hops * 1.3,
        "centralized report hops must grow: {} -> {}",
        small.avg_report_hops,
        large.avg_report_hops
    );
    let (sq, lq) = (
        small.avg_request_hops.expect("centralized sends requests"),
        large.avg_request_hops.expect("centralized sends requests"),
    );
    assert!(lq > sq, "request hops must grow: {sq} -> {lq}");
    // Reports come from 63 m sensors, requests start with a 250 m
    // manager hop: reports need more hops (paper §4.3.2).
    assert!(small.avg_report_hops > sq);
    assert!(large.avg_report_hops > lq);

    // Distributed algorithms stay flat at a couple of hops.
    let d_small = run(2, Algorithm::Dynamic);
    let d_large = run(4, Algorithm::Dynamic);
    assert!(d_small.avg_report_hops < 5.0);
    assert!(d_large.avg_report_hops < 5.0);
    assert!(
        (d_large.avg_report_hops - d_small.avg_report_hops).abs() < 1.0,
        "dynamic hops should not scale with the field: {} -> {}",
        d_small.avg_report_hops,
        d_large.avg_report_hops
    );
}

#[test]
fn claim_c_update_messaging_ordering() {
    let fixed = run(2, Algorithm::Fixed(PartitionKind::Square));
    let dynamic = run(2, Algorithm::Dynamic);
    let centralized = run(2, Algorithm::Centralized);
    assert!(
        centralized.loc_update_tx_per_failure * 5.0 < fixed.loc_update_tx_per_failure,
        "centralized {} should be far below fixed {}",
        centralized.loc_update_tx_per_failure,
        fixed.loc_update_tx_per_failure
    );
    assert!(
        dynamic.loc_update_tx_per_failure > fixed.loc_update_tx_per_failure,
        "dynamic {} should exceed fixed {}",
        dynamic.loc_update_tx_per_failure,
        fixed.loc_update_tx_per_failure
    );
    assert!(
        dynamic.loc_update_tx_per_failure < 3.0 * fixed.loc_update_tx_per_failure,
        "... but only moderately (paper: slightly higher)"
    );
}

#[test]
fn claim_d_reports_essentially_always_delivered() {
    for alg in [
        Algorithm::Centralized,
        Algorithm::Fixed(PartitionKind::Square),
        Algorithm::Dynamic,
    ] {
        let s = run(2, alg);
        assert!(
            s.report_delivery_ratio > 0.95,
            "{alg}: delivery ratio {}",
            s.report_delivery_ratio
        );
        assert!(
            s.replacements as f64 > 0.8 * s.failures_occurred as f64,
            "{alg}: replaced {}/{}",
            s.replacements,
            s.failures_occurred
        );
    }
}

#[test]
fn partition_shape_makes_negligible_difference() {
    // Paper §4.3.1: square vs hexagon-like partitions for the fixed
    // algorithm differ negligibly. Our hexagonal stand-in is an
    // offset-row (brick) tiling whose odd rows wrap at the field edge,
    // which adds a seam artefact at small k — so compare at k = 3 and
    // average two seeds.
    let avg = |kind: PartitionKind| {
        let mut total = 0.0;
        for seed in [3u64, 4] {
            let s = Simulation::run(
                ScenarioConfig::paper(3, Algorithm::Fixed(kind))
                    .with_seed(seed)
                    .scaled(SCALE),
            )
            .metrics
            .summary();
            total += s.avg_travel_per_failure;
        }
        total / 2.0
    };
    let sq = avg(PartitionKind::Square);
    let hex = avg(PartitionKind::Hex);
    let rel = (sq - hex).abs() / sq;
    assert!(
        rel < 0.15,
        "square {sq:.1} vs hex {hex:.1} travel differ by {rel:.2}"
    );
}

#[test]
fn motion_ordering_is_statistically_consistent() {
    // Across independent seeds, the fixed algorithm must never be
    // *significantly better* than dynamic (the paper has it strictly
    // worse). Welch's t-test on the per-seed means.
    use robonet::core::metrics::welch_t;
    let seeds = [3u64, 4, 5, 6, 7];
    let travel = |alg: Algorithm| -> Vec<f64> {
        seeds
            .iter()
            .map(|&seed| {
                Simulation::run(ScenarioConfig::paper(2, alg).with_seed(seed).scaled(32.0))
                    .metrics
                    .summary()
                    .avg_travel_per_failure
            })
            .collect()
    };
    let fixed = travel(Algorithm::Fixed(PartitionKind::Square));
    let dynamic = travel(Algorithm::Dynamic);
    let r = welch_t(&fixed, &dynamic).expect("enough seeds");
    assert!(
        !(r.significant_5pct && r.mean_diff < 0.0),
        "fixed significantly *better* than dynamic contradicts the paper: t={:.2}, diff={:.2}",
        r.t,
        r.mean_diff
    );
}

#[test]
fn dynamic_voronoi_maintenance_is_accurate() {
    let s = run(2, Algorithm::Dynamic);
    assert!(
        s.myrobot_accuracy > 0.85,
        "sensors should track their closest robot: {}",
        s.myrobot_accuracy
    );
}
