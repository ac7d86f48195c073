//! `robonet` — command-line front end for the sensor-replacement
//! simulator.
//!
//! ```text
//! robonet run     --alg dynamic --k 2 [--scale 16] [--seed 1] [--prune 0.4]
//!                 [--dispatch nearest-idle] [--sample-every 100]
//! robonet figures [--scale 16] [--seeds 1,2] [--ks 2,3,4]
//! robonet sweep   [--scale 16] [--seeds 1,2] [--ks 2,3,4]     # CSV only
//! ```

use robonet_cli::{print_usage, run_cli};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run_cli(&args) {
        Ok(output) => print!("{output}"),
        Err(e) => {
            eprintln!("error: {e}\n");
            print_usage();
            std::process::exit(2);
        }
    }
}
