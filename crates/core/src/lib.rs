//! Robot coordination for sensor replacement — the primary contribution
//! of *Replacing Failed Sensor Nodes by Mobile Robots* (Mei, Xian, Das,
//! Hu, Lu; ICDCS Workshops 2006), reproduced as a library.
//!
//! A large static wireless sensor network is maintained by a small
//! number of mobile robots. Sensors watch each other (guardian/guardee
//! beaconing), report failures over multihop geographic routing, and a
//! *manager* dispatches a *maintainer* robot that drives to the failure
//! and installs a fresh node. Three coordination algorithms are
//! implemented and compared exactly as in the paper:
//!
//! - [`Algorithm::Centralized`] — one static manager at the field centre
//!   receives every report and forwards it to the closest robot (§3.1),
//! - [`Algorithm::Fixed`] — a static equal-size partition, one robot
//!   managing and maintaining each subarea (§3.2),
//! - [`Algorithm::Dynamic`] — no fixed borders; sensors always report to
//!   the currently closest robot, an implicit Voronoi partition kept
//!   fresh by scoped flooding of robot location updates (§3.3).
//!
//! The packet-level simulation ([`Simulation`]) runs on the
//! `robonet-radio` CSMA/CA substrate and measures the paper's two
//! overheads: **motion** (robot metres travelled per failure, Fig. 2)
//! and **messaging** (hops per failure report/repair request, Fig. 3;
//! location-update transmissions per failure, Fig. 4).
//!
//! # Quickstart
//!
//! ```
//! use robonet_core::{Algorithm, ScenarioConfig, Simulation};
//!
//! // A small field (4 robots, 200 sensors) for a fast demonstration —
//! // `ScenarioConfig::paper` uses the paper's full parameters.
//! let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
//!     .with_seed(7)
//!     .scaled(16.0); // 1/16 of the paper's 64000 s simulation
//! let outcome = Simulation::run(cfg);
//! assert!(outcome.metrics.replacements > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
mod config;
pub mod coord;
pub mod fastsim;
pub mod fault;
pub mod harness;
pub mod metrics;
pub mod msg;
pub mod obs;
pub mod report;
pub mod scenario;
pub mod sweep;
pub mod trace;
mod world;

pub use config::{Algorithm, DeployRegion, DispatchPolicy, PartitionKind, ScenarioConfig};
pub use fault::{FaultKind, FaultPlan};
pub use harness::{Outcome, Simulation};
pub use metrics::{DropBreakdown, Metrics, Summary};
pub use obs::{
    EventSink, HealthMonitor, Invariant, JsonlSink, MetricsRegistry, NullSink, QuantileSketch,
    RepairSpan, RingSink, SpanAssembler, SpanReport, SpanSink, Stage, TeeSink, TelemetrySnapshot,
    Timeline, TraceAggregate,
};
pub use scenario::{
    compile as compile_scenario, Compiled, Overrides, ScenarioError, ScenarioErrorKind,
};
pub use sweep::{CellResult, FailedCell, MergedSweep, SweepGrid, SweepResult};
pub use world::{field_deployment, FieldDeployment};
