//! Deterministic telemetry timeline and online health monitoring.
//!
//! A run with `sample_every` set schedules a sampler on *sim time* that
//! captures a [`TelemetrySnapshot`] of live gauges at a fixed cadence
//! and emits it as [`TraceEvent::TelemetrySample`] — so the same sink
//! machinery that records protocol events records the health series,
//! and offline tools reconstruct bit-exact values from the artifact.
//!
//! Alongside the sampler runs a [`HealthMonitor`], which checks the
//! simulation's counters against its own event stream at every sample:
//! against the live span assembler's [`RepairLedger`] for repairs, and
//! against its own robot death and repair counts for the fleet. A
//! simulation whose counters drift from its event stream emits a typed
//! [`TraceEvent::InvariantViolated`] instead of silently diverging.
//!
//! [`Timeline`] is the offline half: it rebuilds the sample series from
//! a JSONL artifact and renders it as CSV, with float fields written
//! through the same shortest-round-trip formatting the artifact uses,
//! so `robonet timeline --csv` is byte-identical to the live values.

use crate::trace::TraceEvent;

use super::ledger::RepairLedger;
use super::sink::{for_each_event_line, TruncatedTail};

/// A conservation invariant the [`HealthMonitor`] checks at each
/// sample.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invariant {
    /// Every failure is replaced, orphaned, or still open:
    /// `failures == replacements + open ledger entries`.
    RepairConservation,
    /// The fleet's down-robot count matches the `RobotDied` /
    /// `RobotRepaired` event ledger.
    FleetLiveness,
}

impl Invariant {
    /// Stable snake_case label used in JSONL artifacts.
    pub fn label(self) -> &'static str {
        match self {
            Invariant::RepairConservation => "repair_conservation",
            Invariant::FleetLiveness => "fleet_liveness",
        }
    }

    /// Parses a [`Invariant::label`] back (for artifact ingestion).
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "repair_conservation" => Some(Invariant::RepairConservation),
            "fleet_liveness" => Some(Invariant::FleetLiveness),
            _ => None,
        }
    }
}

impl std::fmt::Display for Invariant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The gauges captured by one firing of the telemetry sampler.
///
/// Everything here is derived from simulation state on the event
/// timeline, so same-seed runs produce identical snapshots. Per-robot
/// vectors are indexed by fleet slot (robot 0 first).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySnapshot {
    /// Sensors currently alive.
    pub alive: u32,
    /// Sensors currently down.
    pub down: u32,
    /// Failures that have occurred so far.
    pub failures: u64,
    /// Replacements installed so far.
    pub replaced: u64,
    /// Fraction of the field covered by live sensors.
    pub coverage: f64,
    /// Open repairs whose furthest stage is the failure itself.
    pub open_failure: u32,
    /// Open repairs whose furthest stage is guardian detection.
    pub open_detected: u32,
    /// Open repairs whose furthest stage is report delivery.
    pub open_reported: u32,
    /// Open repairs whose furthest stage is robot dispatch.
    pub open_dispatched: u32,
    /// Per-robot queue depth (tasks dispatched but not installed).
    pub robot_queues: Vec<u32>,
    /// Per-robot busy flag (`true` while driving a leg).
    pub robot_busy: Vec<bool>,
    /// Frames on the air or awaiting their ACK.
    pub in_flight: u32,
    /// Events pending in the scheduler queue.
    pub sched_queue: u32,
}

/// The chartable series names, in CSV column order (after `t`).
pub const SERIES: &[&str] = &[
    "alive",
    "down",
    "failures",
    "replaced",
    "coverage",
    "open_failure",
    "open_detected",
    "open_reported",
    "open_dispatched",
    "queued",
    "busy_robots",
    "in_flight",
    "sched_queue",
];

impl TelemetrySnapshot {
    /// Total open repairs across all stages.
    pub fn open_total(&self) -> u32 {
        self.open_failure + self.open_detected + self.open_reported + self.open_dispatched
    }

    /// Total tasks queued across the fleet.
    pub fn queued_total(&self) -> u32 {
        self.robot_queues.iter().sum()
    }

    /// Robots currently driving a leg.
    pub fn busy_robots(&self) -> u32 {
        self.robot_busy.iter().filter(|&&b| b).count() as u32
    }

    /// Per-robot queues as the compact artifact string (`"0,2,1"`).
    pub fn queues_string(&self) -> String {
        self.robot_queues
            .iter()
            .map(u32::to_string)
            .collect::<Vec<_>>()
            .join(",")
    }

    /// Per-robot busy flags as the compact artifact string (`"010"`).
    pub fn busy_string(&self) -> String {
        self.robot_busy
            .iter()
            .map(|&b| if b { '1' } else { '0' })
            .collect()
    }

    /// Parses a [`TelemetrySnapshot::queues_string`] back.
    pub fn queues_from_string(s: &str) -> Result<Vec<u32>, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',')
            .map(|part| {
                part.parse::<u32>()
                    .map_err(|_| format!("bad queue depth '{part}'"))
            })
            .collect()
    }

    /// Parses a [`TelemetrySnapshot::busy_string`] back.
    pub fn busy_from_string(s: &str) -> Result<Vec<bool>, String> {
        s.chars()
            .map(|c| match c {
                '0' => Ok(false),
                '1' => Ok(true),
                other => Err(format!("bad busy flag '{other}'")),
            })
            .collect()
    }

    /// The value of one named series (see [`SERIES`]) at this sample.
    pub fn series_value(&self, name: &str) -> Option<f64> {
        Some(match name {
            "alive" => f64::from(self.alive),
            "down" => f64::from(self.down),
            "failures" => self.failures as f64,
            "replaced" => self.replaced as f64,
            "coverage" => self.coverage,
            "open_failure" => f64::from(self.open_failure),
            "open_detected" => f64::from(self.open_detected),
            "open_reported" => f64::from(self.open_reported),
            "open_dispatched" => f64::from(self.open_dispatched),
            "queued" => f64::from(self.queued_total()),
            "busy_robots" => f64::from(self.busy_robots()),
            "in_flight" => f64::from(self.in_flight),
            "sched_queue" => f64::from(self.sched_queue),
            _ => return None,
        })
    }
}

/// A telemetry sample series, live (pushed by the sampler) or rebuilt
/// offline from a JSONL artifact.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Timeline {
    /// `(t, snapshot)` pairs in sample order.
    pub samples: Vec<(f64, TelemetrySnapshot)>,
    /// Invariant violations seen in the stream, as
    /// `(t, invariant, expected, actual)`.
    pub violations: Vec<(f64, Invariant, u64, u64)>,
}

impl Timeline {
    /// An empty timeline.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Ingests one event (samples and violations; everything else is
    /// ignored).
    pub fn ingest(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::TelemetrySample { t, sample } => {
                self.samples.push((*t, sample.clone()));
            }
            TraceEvent::InvariantViolated {
                t,
                invariant,
                expected,
                actual,
            } => {
                self.violations.push((*t, *invariant, *expected, *actual));
            }
            _ => {}
        }
    }

    /// Rebuilds the timeline from a JSONL trace artifact.
    ///
    /// # Errors
    ///
    /// Fails on the first malformed record or unsupported schema
    /// version, like every other artifact reader.
    pub fn from_jsonl(text: &str) -> Result<(Self, Option<TruncatedTail>), String> {
        let mut tl = Timeline::new();
        let tail = for_each_event_line(text, |ev| tl.ingest(ev))?;
        Ok((tl, tail))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// One named series as `(t, value)` points, or `None` for an
    /// unknown name.
    pub fn series(&self, name: &str) -> Option<Vec<(f64, f64)>> {
        if !SERIES.contains(&name) {
            return None;
        }
        Some(
            self.samples
                .iter()
                .map(|(t, s)| (*t, s.series_value(name).expect("known series")))
                .collect(),
        )
    }

    /// Renders the sample series as CSV: a header then one row per
    /// sample. Floats (`t`, `coverage`) use shortest-round-trip
    /// formatting — the same representation the JSONL artifact carries
    /// — so offline CSV is byte-identical to one rendered from the
    /// live sampler's values.
    pub fn csv(&self) -> String {
        let mut out = String::from("t,");
        out.push_str(&SERIES.join(","));
        out.push('\n');
        for (t, s) in &self.samples {
            out.push_str(&format!("{t:?}"));
            for name in SERIES {
                let v = s.series_value(name).expect("known series");
                if *name == "coverage" {
                    out.push_str(&format!(",{v:?}"));
                } else {
                    out.push_str(&format!(",{v:.0}"));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Sim-side counter values handed to [`HealthMonitor::check`] — the
/// ground truth the event stream is compared against.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Checkpoint {
    /// Failures the simulation has counted.
    pub failures: u64,
    /// Replacements the simulation has counted.
    pub replacements: u64,
    /// Robots the simulation currently holds down.
    pub robots_down: u64,
}

/// Checks conservation invariants online.
///
/// The monitor counts the robot deaths and repairs in the event
/// stream; open repairs come from the [`RepairLedger`] the caller
/// passes to [`HealthMonitor::check`] (the live span assembler's), so
/// "open repairs by furthest milestone" means the same thing live, in
/// `robonet spans` and in `robonet replay`.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    robot_deaths: u64,
    robot_repairs: u64,
}

impl HealthMonitor {
    /// A fresh monitor with zero counts.
    pub fn new() -> Self {
        HealthMonitor::default()
    }

    /// Counts one event if it is a robot death or repair.
    pub fn ingest(&mut self, event: &TraceEvent) {
        match event {
            TraceEvent::RobotDied { .. } => self.robot_deaths += 1,
            TraceEvent::RobotRepaired { .. } => self.robot_repairs += 1,
            _ => {}
        }
    }

    /// Checks every invariant against the sim-side `checkpoint`, with
    /// `ledger` holding the stream's open repairs (orphaned failures
    /// stay open forever — they were never replaced). Returns one
    /// [`TraceEvent::InvariantViolated`] per imbalance (empty when the
    /// counters and the stream agree).
    pub fn check(&self, t: f64, ledger: &RepairLedger, checkpoint: &Checkpoint) -> Vec<TraceEvent> {
        let mut out = Vec::new();
        let mut verify = |invariant, expected: u64, actual: u64| {
            if expected != actual {
                out.push(TraceEvent::InvariantViolated {
                    t,
                    invariant,
                    expected,
                    actual,
                });
            }
        };
        // Every counted failure is either replaced or still in the
        // ledger (open or orphaned); a mismatch means the simulation's
        // counters and its own event stream tell different stories.
        verify(
            Invariant::RepairConservation,
            checkpoint.replacements + ledger.open_count() as u64,
            checkpoint.failures,
        );
        verify(
            Invariant::FleetLiveness,
            self.robot_deaths.saturating_sub(self.robot_repairs),
            checkpoint.robots_down,
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_des::NodeId;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            alive: 30,
            down: 2,
            failures: 5,
            replaced: 3,
            coverage: 0.875,
            open_failure: 1,
            open_detected: 0,
            open_reported: 0,
            open_dispatched: 1,
            robot_queues: vec![0, 2, 1],
            robot_busy: vec![false, true, false],
            in_flight: 4,
            sched_queue: 37,
        }
    }

    #[test]
    fn invariant_labels_round_trip() {
        for inv in [Invariant::RepairConservation, Invariant::FleetLiveness] {
            assert_eq!(Invariant::from_label(inv.label()), Some(inv));
        }
        assert_eq!(Invariant::from_label("entropy"), None);
    }

    #[test]
    fn snapshot_strings_round_trip() {
        let s = sample();
        assert_eq!(s.queues_string(), "0,2,1");
        assert_eq!(s.busy_string(), "010");
        assert_eq!(
            TelemetrySnapshot::queues_from_string("0,2,1").unwrap(),
            vec![0, 2, 1]
        );
        assert_eq!(
            TelemetrySnapshot::busy_from_string("010").unwrap(),
            vec![false, true, false]
        );
        assert_eq!(TelemetrySnapshot::queues_from_string("").unwrap(), vec![]);
        assert!(TelemetrySnapshot::queues_from_string("1,x").is_err());
        assert!(TelemetrySnapshot::busy_from_string("012").is_err());
    }

    #[test]
    fn every_series_name_resolves() {
        let s = sample();
        for name in SERIES {
            assert!(s.series_value(name).is_some(), "series {name} missing");
        }
        assert_eq!(s.series_value("queued"), Some(3.0));
        assert_eq!(s.series_value("busy_robots"), Some(1.0));
        assert_eq!(s.series_value("flux_capacitance"), None);
    }

    #[test]
    fn csv_has_header_and_shortest_round_trip_floats() {
        let mut tl = Timeline::new();
        tl.samples.push((100.0, sample()));
        let csv = tl.csv();
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("t,alive,down,"));
        assert_eq!(header.split(',').count(), SERIES.len() + 1);
        let row = lines.next().unwrap();
        assert!(row.starts_with("100.0,30,2,5,3,0.875,"), "row: {row}");
    }

    #[test]
    fn check_flags_each_imbalance() {
        let mut m = HealthMonitor::new();
        let mut ledger = RepairLedger::new();
        let robot = NodeId::new(9);
        for event in [
            TraceEvent::Failure {
                t: 1.0,
                sensor: NodeId::new(4),
            },
            TraceEvent::RobotDied { t: 2.0, robot },
            TraceEvent::RobotRepaired { t: 3.0, robot },
        ] {
            m.ingest(&event);
            ledger.apply(&event);
        }
        // Balanced: 1 failure, 0 replaced, 1 open; fleet healthy again.
        let ok = m.check(
            10.0,
            &ledger,
            &Checkpoint {
                failures: 1,
                replacements: 0,
                robots_down: 0,
            },
        );
        assert!(ok.is_empty(), "got: {ok:?}");

        // A sim that lost a failure and a down robot the stream never
        // saw die — two distinct violations.
        let bad = m.check(
            10.0,
            &ledger,
            &Checkpoint {
                failures: 2,
                replacements: 0,
                robots_down: 1,
            },
        );
        let kinds: Vec<Invariant> = bad
            .iter()
            .map(|e| match e {
                TraceEvent::InvariantViolated { invariant, .. } => *invariant,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![Invariant::RepairConservation, Invariant::FleetLiveness]
        );
    }

    #[test]
    fn timeline_ingests_samples_and_violations() {
        let mut tl = Timeline::new();
        tl.ingest(&TraceEvent::TelemetrySample {
            t: 100.0,
            sample: sample(),
        });
        tl.ingest(&TraceEvent::InvariantViolated {
            t: 200.0,
            invariant: Invariant::FleetLiveness,
            expected: 1,
            actual: 2,
        });
        tl.ingest(&TraceEvent::Failure {
            t: 1.0,
            sensor: NodeId::new(0),
        });
        assert_eq!(tl.len(), 1);
        assert_eq!(tl.violations, vec![(200.0, Invariant::FleetLiveness, 1, 2)]);
        let cov = tl.series("coverage").unwrap();
        assert_eq!(cov, vec![(100.0, 0.875)]);
        assert!(tl.series("nope").is_none());
    }
}
