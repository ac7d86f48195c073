//! Baseline comparison against the paper's motivation: relocating
//! redundant *mobile sensors* (Wang et al. \[13\]) instead of dispatching
//! a few robots. Direct vs cascaded movement over a failure sequence,
//! reporting total distance, worst single-node distance, and how many
//! nodes needed mobility hardware. No simulation runs.
//!
//! Usage: `cargo run --release -p robonet-bench --bin ablation_baseline`

use robonet_des::rng::{Rng, Xoshiro256};

use robonet_core::baseline::{MobileSensorField, RelocationPolicy};
use robonet_geom::{deploy, Bounds, Point};

fn scenario() -> (Vec<Point>, Vec<Point>, Vec<Point>) {
    let bounds = Bounds::square(400.0);
    let mut rng = Xoshiro256::seed_from_u64(3);
    let working = deploy::uniform(&mut rng, &bounds, 200);
    let spares = deploy::uniform(&mut rng, &bounds, 40);
    let failures: Vec<Point> = (0..40)
        .map(|_| Point::new(rng.gen_range(0.0..=400.0), rng.gen_range(0.0..=400.0)))
        .collect();
    (working, spares, failures)
}

fn run_policy(policy: RelocationPolicy) -> (f64, f64, usize) {
    let (working, spares, failures) = scenario();
    let mut field = MobileSensorField::new(working, spares);
    let mut total = 0.0;
    let mut worst: f64 = 0.0;
    let mut movers = 0;
    for &hole in &failures {
        if let Some(plan) = field.fill_hole(hole, policy) {
            total += plan.total_distance();
            worst = worst.max(plan.max_single_move());
            movers += plan.movers();
        }
    }
    (total, worst, movers)
}

fn main() {
    println!("\nMobile-sensor relocation baseline (40 failures, 40 spares, 400x400 m):");
    for policy in [RelocationPolicy::Direct, RelocationPolicy::Cascaded] {
        let (total, worst, movers) = run_policy(policy);
        println!(
            "  {policy:?}: total {total:>7.1} m, worst single node {worst:>6.1} m, {movers} node-moves"
        );
    }
    println!(
        "  (robot approach, for contrast: only k robots need mobility at all, each\n\
         travelling ~100 m per failure — run `--bin fig2` for the full numbers)"
    );
}
