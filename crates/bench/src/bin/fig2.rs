//! Regenerates Figure 2: average robot traveling distance per failure
//! as a function of the number of maintenance robots.
//!
//! Usage: `cargo run --release -p robonet-bench --bin fig2 -- [--scale N] [--seeds a,b] [--ks 2,3,4]`
//!
//! With no arguments this runs the paper's full 64000 s configuration
//! (expect minutes of wall time); `--scale 8` runs 8× compressed, which
//! keeps Figure 2's travel per failure (see `ScenarioConfig::scaled`).

use robonet_bench::{print_series, sweep, SweepOptions};
use robonet_core::report::Row;

fn main() {
    let opts = match SweepOptions::from_args(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "fig2: motion overhead sweep (scale {}, seeds {:?}, ks {:?})",
        opts.scale, opts.seeds, opts.ks
    );
    let rows = sweep(&opts);
    println!("{}", Row::csv_header());
    for r in &rows {
        println!("{}", r.to_csv());
    }
    println!();
    let chart = robonet_bench::chart_from_rows(
        "Figure 2: average traveling distance per failure",
        "metres",
        &rows,
        |r| Some(r.summary.avg_travel_per_failure),
    );
    let path = "fig2.svg";
    match std::fs::write(path, chart.render(640, 420)) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    print_series(
        "Figure 2: average traveling distance per failure (m)",
        &rows,
        &opts.ks,
        |r| Some(r.summary.avg_travel_per_failure),
    );
}
