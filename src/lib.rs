//! # robonet
//!
//! A full reproduction of **“Replacing Failed Sensor Nodes by Mobile
//! Robots”** (Yongguo Mei, Changjiu Xian, Saumitra Das, Y. Charlie Hu,
//! Yung-Hsiang Lu — ICDCS Workshops 2006) as a Rust workspace: a
//! packet-level wireless sensor network simulator plus the paper's
//! three robot-coordination algorithms for autonomous sensor
//! replacement.
//!
//! This facade crate re-exports the member crates under stable names:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`des`] | `robonet-des` | discrete-event kernel, simulated time, RNG streams |
//! | [`geom`] | `robonet-geom` | Voronoi, planar graphs, partitions, deployment |
//! | [`radio`] | `robonet-radio` | unit-disk PHY + CSMA/CA MAC at 11 Mbps |
//! | [`net`] | `robonet-net` | greedy geographic routing + face recovery, flood dedup |
//! | [`wsn`] | `robonet-wsn` | sensor state machines: beacons, guardians, failures |
//! | [`robot`] | `robonet-robot` | robot kinematics, FCFS queue, energy model |
//! | [`core`] | `robonet-core` | the coordination algorithms and simulation harness |
//! | [`viz`] | `robonet-viz` | SVG charts and field maps |
//!
//! # Quickstart
//!
//! ```
//! use robonet::prelude::*;
//!
//! let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
//!     .with_seed(42)
//!     .scaled(16.0); // compress time 16× for a fast demo
//! let outcome = Simulation::run(cfg);
//! let summary = outcome.metrics.summary();
//! println!(
//!     "repaired {} of {} failures, {:.1} m per failure",
//!     summary.replacements, summary.failures_occurred, summary.avg_travel_per_failure
//! );
//! assert!(summary.report_delivery_ratio > 0.9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use robonet_core as core;
pub use robonet_des as des;
pub use robonet_geom as geom;
pub use robonet_net as net;
pub use robonet_radio as radio;
pub use robonet_robot as robot;
pub use robonet_viz as viz;
pub use robonet_wsn as wsn;

/// The most common imports for running experiments.
pub mod prelude {
    pub use robonet_core::{
        Algorithm, DispatchPolicy, Metrics, Outcome, PartitionKind, ScenarioConfig, Simulation,
        Summary,
    };
    pub use robonet_des::{NodeId, SimDuration, SimTime};
    pub use robonet_geom::{Bounds, Point};
}
