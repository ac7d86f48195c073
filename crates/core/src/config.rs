//! Scenario configuration and the paper's parameter presets.

use robonet_des::SimDuration;

use crate::fault::FaultPlan;
use robonet_geom::{Bounds, ConvexPolygon};
use robonet_radio::medium::{Fading, RangeTable};
use robonet_radio::MacParams;

/// Which coordination algorithm manages the robots (paper §3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// One static central manager at the field centre; failures are
    /// reported to it and forwarded to the closest robot (§3.1).
    Centralized,
    /// Equal-size static subareas, one robot per subarea acting as both
    /// manager and maintainer (§3.2).
    Fixed(PartitionKind),
    /// Dynamic (Voronoi) partition: sensors report to the currently
    /// closest robot (§3.3).
    Dynamic,
}

impl Algorithm {
    /// Short machine-friendly name for CSV output and CLI parsing,
    /// resolved through the coordination registry
    /// ([`crate::coord::registry`]) so names live in exactly one table.
    pub fn name(self) -> &'static str {
        crate::coord::coordinator_for(self).name()
    }

    /// Parses a machine name back to an algorithm via the same
    /// registry table: `Algorithm::parse(a.name()) == Some(a)` for
    /// every registered algorithm.
    pub fn parse(name: &str) -> Option<Self> {
        crate::coord::by_name(name).map(|e| e.algorithm)
    }
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How the central manager chooses the maintainer robot for a failure
/// (centralized algorithm; an extension of the paper's §3.1 "closest
/// robot" rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// The robot whose last known location is closest to the failure —
    /// exactly the paper's rule.
    Nearest,
    /// Prefer the closest *idle* robot (robots piggyback their queue
    /// length on location updates); fall back to the overall closest
    /// when every robot is busy. An ablation of the paper's design: it
    /// trades a little extra distance for shorter repair delays under
    /// load.
    NearestIdle,
}

/// Partition shape for the fixed algorithm. The paper uses squares and
/// reports that hexagon-like partitions "show negligible difference"
/// (§4.3.1) — both are provided so that claim can be measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartitionKind {
    /// k × k equal squares (the paper's method).
    Square,
    /// Offset-row ("brick"/hexagonal) equal-area cells.
    Hex,
}

/// Full parameterisation of one simulation run.
///
/// Defaults ([`ScenarioConfig::paper`]) follow §4.1 of the paper:
/// 200 × 200 m² and 50 sensors per robot, 1 m/s robots, 63 m/250 m
/// transmission ranges, 16000 s expected lifetime, 64000 s simulation,
/// 10 s beacons, 3-period failure timeout, 20 m update threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioConfig {
    /// Coordination algorithm under test.
    pub algorithm: Algorithm,
    /// Robots per field side; the fleet is `k²` robots (the paper uses
    /// k ∈ {2, 3, 4}, i.e. 4/9/16 robots).
    pub k: usize,
    /// Side length of the field area allotted per robot, in metres.
    pub area_per_robot_side: f64,
    /// Sensors deployed per robot-area.
    pub sensors_per_robot: usize,
    /// Per-class transmission ranges.
    pub ranges: RangeTable,
    /// Robot travel speed in m/s.
    pub robot_speed: f64,
    /// Mean sensor lifetime (exponential).
    pub mean_lifetime: SimDuration,
    /// Total simulated time.
    pub sim_time: SimDuration,
    /// Sensor beaconing period.
    pub beacon_period: SimDuration,
    /// Beacon periods of silence before a guardee is declared failed.
    pub failure_timeout_periods: u32,
    /// Distance a robot travels between location updates, in metres.
    pub update_threshold: f64,
    /// How long a guardian waits before re-reporting a still-missing
    /// guardee (covers lost reports; generous so normal repairs never
    /// double-report).
    pub report_retry: SimDuration,
    /// Optional broadcast optimisation for flooded location updates (the
    /// paper's §6 future work): a sensor relays only if it is at least
    /// this fraction of the sensor range away from the transmitter it
    /// heard (border-retransmit self-pruning). `None` = relay always.
    pub broadcast_prune: Option<f64>,
    /// Centralized dispatch rule (ignored by the distributed
    /// algorithms).
    pub dispatch: DispatchPolicy,
    /// Edge-of-range reception model ([`Fading::None`] reproduces the
    /// paper's fixed-range radio).
    pub fading: Fading,
    /// Emit a [`TelemetrySample`](crate::trace::TraceEvent::TelemetrySample)
    /// of live gauges this often and run the online health monitor at
    /// each sample (`None` = off, the default — runs without sampling
    /// stay byte-identical to earlier versions). The first sample builds
    /// the coverage gauge in `O(sensors)`; later ones read it in `O(1)`
    /// (each failure and replacement then updates it), so this is for
    /// analysis runs, not the figure sweeps.
    pub sample_every: Option<SimDuration>,
    /// MAC/PHY parameters.
    pub mac: MacParams,
    /// Faults to inject into the maintenance system itself (`None` =
    /// the paper's fault-free assumptions). An inert plan (all rates
    /// zero, no breakdowns) is normalised to `None` by the harness, so
    /// `Some(FaultPlan::message_loss(0.0))` is bit-identical to `None`.
    pub faults: Option<FaultPlan>,
    /// Non-uniform deployment regions (scenario files only; empty for
    /// the paper's uniform field). Each region biases sensor placement
    /// by a density multiplier and may override the mean lifetime for
    /// sensors that land inside it. Regions must not overlap.
    pub regions: Vec<DeployRegion>,
    /// Name of the scenario file this config was compiled from, if any;
    /// recorded in the trace manifest for provenance.
    pub scenario_name: Option<String>,
    /// Root RNG seed; every stochastic component derives its own stream.
    pub seed: u64,
}

/// One non-uniform deployment region inside the field.
///
/// With no regions configured, deployment is uniform over the field and
/// draws exactly the historical RNG sequence. With regions, placement
/// switches to rejection sampling against the density surface (still on
/// the `"deploy"` stream), and sensors inside a region may use its
/// lifetime override instead of the global mean.
#[derive(Debug, Clone, PartialEq)]
pub struct DeployRegion {
    /// The region's area (convex, CCW).
    pub poly: ConvexPolygon,
    /// Relative deployment density versus the background's 1.0. Must be
    /// positive; 4.0 means sensors land here 4× as often per unit area.
    pub density: f64,
    /// Mean lifetime for sensors deployed inside this region (`None` =
    /// the global [`ScenarioConfig::mean_lifetime`]).
    pub mean_lifetime: Option<SimDuration>,
}

impl DeployRegion {
    /// `true` when the region changes nothing about a run: background
    /// density and no lifetime override. Inert regions are dropped at
    /// scenario compile time so they cannot perturb the RNG sequence.
    pub fn is_inert(&self) -> bool {
        self.density == 1.0 && self.mean_lifetime.is_none()
    }
}

impl ScenarioConfig {
    /// The paper's experimental setup (§4.1) for `k²` robots.
    pub fn paper(k: usize, algorithm: Algorithm) -> Self {
        ScenarioConfig {
            algorithm,
            k,
            area_per_robot_side: 200.0,
            sensors_per_robot: 50,
            ranges: RangeTable::default(),
            robot_speed: 1.0,
            mean_lifetime: SimDuration::from_secs(16_000.0),
            sim_time: SimDuration::from_secs(64_000.0),
            beacon_period: SimDuration::from_secs(10.0),
            failure_timeout_periods: 3,
            update_threshold: 20.0,
            report_retry: SimDuration::from_secs(1_200.0),
            broadcast_prune: None,
            dispatch: DispatchPolicy::Nearest,
            fading: Fading::None,
            sample_every: None,
            mac: MacParams::default(),
            faults: None,
            regions: Vec::new(),
            scenario_name: None,
            seed: 1,
        }
    }

    /// Replaces the RNG seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a fault-injection plan (builder style).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Shrinks the time axis by `factor`: lifetime, simulated time,
    /// report retry timer *and* robot travel time (via speed) divide by
    /// it, keeping failures per sensor and robot utilisation unchanged,
    /// so a run finishes `factor`× faster. Used by tests and benches.
    ///
    /// Only Figure 2 (travel per failure) survives the compression. The
    /// beacon period and failure timeout are not scaled, so detection
    /// still takes ~31 s and, at large factors, many dead sensors go
    /// undetected at any moment. On the packet engine (dynamic, k = 3,
    /// seeds 1 and 2) travel stays within 2% of the full-scale run up
    /// to ×64, but at ×64 report hops are +53%, update transmissions
    /// per failure −28% and the repair ratio 68% instead of 99%.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1.0`.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor >= 1.0, "scale factor must be >= 1");
        self.mean_lifetime = SimDuration::from_secs(self.mean_lifetime.as_secs_f64() / factor);
        self.sim_time = SimDuration::from_secs(self.sim_time.as_secs_f64() / factor);
        self.report_retry = SimDuration::from_secs(self.report_retry.as_secs_f64() / factor);
        self.robot_speed *= factor;
        self.faults = self.faults.map(|f| f.scaled(factor));
        for region in &mut self.regions {
            if let Some(m) = region.mean_lifetime {
                region.mean_lifetime = Some(SimDuration::from_secs(m.as_secs_f64() / factor));
            }
        }
        self
    }

    /// Number of robots (`k²`).
    pub fn n_robots(&self) -> usize {
        self.k * self.k
    }

    /// Number of sensors (`50 k²` with paper parameters).
    pub fn n_sensors(&self) -> usize {
        self.sensors_per_robot * self.n_robots()
    }

    /// Field side length in metres (`200 k` with paper parameters).
    pub fn side(&self) -> f64 {
        self.area_per_robot_side * self.k as f64
    }

    /// The deployment field.
    pub fn bounds(&self) -> Bounds {
        Bounds::square(self.side())
    }

    /// Guardee silence threshold (`3 × beacon_period` in the paper).
    pub fn failure_timeout(&self) -> SimDuration {
        self.beacon_period * u64::from(self.failure_timeout_periods)
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 {
            return Err("k must be at least 1".into());
        }
        if self.sensors_per_robot == 0 {
            return Err("need at least one sensor per robot".into());
        }
        // One robot per partition cell: catch a mismatched fleet here
        // with a clear message instead of an index fault deep inside
        // world construction.
        crate::coord::validate_fleet(crate::coord::coordinator_for(self.algorithm), self)?;
        if !(self.robot_speed.is_finite() && self.robot_speed > 0.0) {
            return Err(format!(
                "robot speed must be positive, got {}",
                self.robot_speed
            ));
        }
        if self.update_threshold <= 0.0 {
            return Err("update threshold must be positive".into());
        }
        if self.update_threshold >= self.ranges.sensor {
            return Err(format!(
                "update threshold {} must be below the sensor range {} \
                 (the paper uses < 1/3 of it so moving robots stay reachable)",
                self.update_threshold, self.ranges.sensor
            ));
        }
        if self.mean_lifetime <= self.failure_timeout() {
            return Err("mean lifetime must exceed the failure-detection timeout".into());
        }
        if self.sim_time <= self.beacon_period {
            return Err("simulation shorter than one beacon period".into());
        }
        if let Some(f) = self.broadcast_prune {
            if !(0.0..1.0).contains(&f) {
                return Err(format!("broadcast prune fraction {f} must be in [0, 1)"));
            }
        }
        if let Fading::SmoothEdge { inner } = self.fading {
            if !(0.0..=1.0).contains(&inner) {
                return Err(format!("fading inner fraction {inner} must be in [0, 1]"));
            }
        }
        if let Some(every) = self.sample_every {
            if every.as_secs_f64() <= 0.0 {
                return Err(format!(
                    "telemetry sample period must be positive, got {} s",
                    every.as_secs_f64()
                ));
            }
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
            for event in &faults.timeline {
                if event.at().as_secs_f64() > self.sim_time.as_secs_f64() {
                    return Err(format!(
                        "timeline {} at {} s is after the simulation ends ({} s)",
                        event.label(),
                        event.at().as_secs_f64(),
                        self.sim_time.as_secs_f64()
                    ));
                }
            }
        }
        for (i, region) in self.regions.iter().enumerate() {
            if !(region.density.is_finite() && region.density > 0.0) {
                return Err(format!(
                    "region {i} density {} must be positive and finite",
                    region.density
                ));
            }
            if let Some(m) = region.mean_lifetime {
                if m <= self.failure_timeout() {
                    return Err(format!(
                        "region {i} mean lifetime must exceed the failure-detection timeout"
                    ));
                }
            }
            for (j, earlier) in self.regions[..i].iter().enumerate() {
                if region.poly.intersection(&earlier.poly).is_some() {
                    return Err(format!("regions {j} and {i} overlap"));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_preset_matches_section_4_1() {
        let c = ScenarioConfig::paper(4, Algorithm::Centralized);
        assert_eq!(c.n_robots(), 16);
        assert_eq!(c.n_sensors(), 800);
        assert_eq!(c.side(), 800.0);
        assert_eq!(c.ranges.sensor, 63.0);
        assert_eq!(c.ranges.robot, 250.0);
        assert_eq!(c.robot_speed, 1.0);
        assert_eq!(c.mean_lifetime, SimDuration::from_secs(16_000.0));
        assert_eq!(c.sim_time, SimDuration::from_secs(64_000.0));
        assert_eq!(c.beacon_period, SimDuration::from_secs(10.0));
        assert_eq!(c.failure_timeout(), SimDuration::from_secs(30.0));
        assert_eq!(c.update_threshold, 20.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaling_preserves_failure_expectation() {
        let c = ScenarioConfig::paper(2, Algorithm::Dynamic).scaled(8.0);
        let expected_failures_per_sensor = c.sim_time.as_secs_f64() / c.mean_lifetime.as_secs_f64();
        assert!((expected_failures_per_sensor - 4.0).abs() < 1e-9);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.k = 0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.update_threshold = 100.0;
        assert!(c.validate().unwrap_err().contains("update threshold"));

        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.robot_speed = -1.0;
        assert!(c.validate().is_err());

        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.broadcast_prune = Some(1.5);
        assert!(c.validate().is_err());

        let c = ScenarioConfig::paper(2, Algorithm::Dynamic).with_faults(FaultPlan {
            report_loss: -0.5,
            ..FaultPlan::default()
        });
        assert!(c.validate().unwrap_err().contains("report loss"));
    }

    #[test]
    fn scaling_reaches_the_fault_plan() {
        let c = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_faults(FaultPlan {
                breakdown_mean: Some(SimDuration::from_secs(8_000.0)),
                ..FaultPlan::default()
            })
            .scaled(8.0);
        assert_eq!(
            c.faults.unwrap().breakdown_mean,
            Some(SimDuration::from_secs(1_000.0))
        );
    }

    #[test]
    fn region_validation_catches_bad_fields() {
        use robonet_geom::Point;
        let square = |x0: f64, y0: f64, side: f64| {
            ConvexPolygon::new(vec![
                Point::new(x0, y0),
                Point::new(x0 + side, y0),
                Point::new(x0 + side, y0 + side),
                Point::new(x0, y0 + side),
            ])
            .unwrap()
        };

        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.regions.push(DeployRegion {
            poly: square(0.0, 0.0, 100.0),
            density: -2.0,
            mean_lifetime: None,
        });
        assert!(c.validate().unwrap_err().contains("density"));

        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.regions.push(DeployRegion {
            poly: square(0.0, 0.0, 100.0),
            density: 2.0,
            mean_lifetime: Some(SimDuration::from_secs(10.0)),
        });
        assert!(c.validate().unwrap_err().contains("mean lifetime"));

        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.regions.push(DeployRegion {
            poly: square(0.0, 0.0, 100.0),
            density: 2.0,
            mean_lifetime: None,
        });
        c.regions.push(DeployRegion {
            poly: square(50.0, 50.0, 100.0),
            density: 3.0,
            mean_lifetime: None,
        });
        assert!(c.validate().unwrap_err().contains("overlap"));

        // Disjoint regions with sane fields pass.
        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.regions.push(DeployRegion {
            poly: square(0.0, 0.0, 100.0),
            density: 4.0,
            mean_lifetime: Some(SimDuration::from_secs(8_000.0)),
        });
        c.regions.push(DeployRegion {
            poly: square(200.0, 200.0, 100.0),
            density: 0.5,
            mean_lifetime: None,
        });
        assert!(c.validate().is_ok());
    }

    #[test]
    fn timeline_events_after_sim_end_rejected() {
        use crate::fault::TimedFault;
        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic).with_faults(FaultPlan {
            timeline: vec![TimedFault::Attrition {
                at: SimDuration::from_secs(100_000.0),
                robots: 1,
            }],
            ..FaultPlan::default()
        });
        assert!(c.validate().unwrap_err().contains("after the simulation"));
        // Scaling pulls the event back inside the horizon along with
        // sim_time, so the relationship is scale-invariant.
        c.sim_time = SimDuration::from_secs(128_000.0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn scaling_reaches_region_lifetimes() {
        use robonet_geom::Point;
        let mut c = ScenarioConfig::paper(2, Algorithm::Dynamic);
        c.regions.push(DeployRegion {
            poly: ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(100.0, 0.0),
                Point::new(100.0, 100.0),
                Point::new(0.0, 100.0),
            ])
            .unwrap(),
            density: 2.0,
            mean_lifetime: Some(SimDuration::from_secs(8_000.0)),
        });
        let scaled = c.scaled(8.0);
        assert_eq!(
            scaled.regions[0].mean_lifetime,
            Some(SimDuration::from_secs(1_000.0))
        );
        assert_eq!(scaled.regions[0].density, 2.0, "density is timeless");
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(Algorithm::Centralized.name(), "centralized");
        assert_eq!(Algorithm::Fixed(PartitionKind::Square).name(), "fixed");
        assert_eq!(Algorithm::Fixed(PartitionKind::Hex).name(), "fixed-hex");
        assert_eq!(Algorithm::Dynamic.to_string(), "dynamic");
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn shrinking_scale_rejected() {
        let _ = ScenarioConfig::paper(2, Algorithm::Dynamic).scaled(0.5);
    }
}
