//! Running one cell through the public API and reading back what it
//! did: deterministic work counts for the ledger, and (traced runs
//! only) wall time per subsystem, per sink record, and heap
//! allocations.

use std::cell::{Cell as StdCell, RefCell};
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use robonet_core::trace::TraceEvent;
use robonet_core::{fastsim, EventSink, JsonlSink, Outcome, Simulation};
use robonet_des::SimDuration;
use robonet_radio::TrafficClass;

use crate::alloc::{self, Allocs};
use crate::workload::{Cell, Engine};

/// An in-memory JSONL trace, shared between the sink the simulation
/// owns and the benchmark that folds it afterwards, so no disk I/O
/// enters any timing.
#[derive(Debug, Default)]
pub struct TraceTap {
    bytes: RefCell<Vec<u8>>,
    events: StdCell<u64>,
    record_ns: StdCell<u64>,
}

impl TraceTap {
    /// The trace text written so far.
    pub fn text(&self) -> String {
        String::from_utf8(self.bytes.borrow().clone()).expect("JSONL traces are UTF-8")
    }

    /// Bytes written so far (header included).
    pub fn bytes(&self) -> u64 {
        self.bytes.borrow().len() as u64
    }

    /// Events recorded (header not included).
    pub fn events(&self) -> u64 {
        self.events.get()
    }

    /// Wall nanoseconds spent in `JsonlSink::record` (timed sinks only).
    pub fn record_ns(&self) -> u64 {
        self.record_ns.get()
    }
}

struct TapWriter(Rc<TraceTap>);

impl Write for TapWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.bytes.borrow_mut().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A `JsonlSink` writing into a [`TraceTap`]; a timed sink also adds
/// the wall time of every `record` call to the tap.
pub struct BenchSink {
    inner: JsonlSink<TapWriter>,
    tap: Rc<TraceTap>,
    timed: bool,
}

impl BenchSink {
    /// A sink streaming into `tap`.
    pub fn new(tap: Rc<TraceTap>, timed: bool) -> Self {
        BenchSink {
            inner: JsonlSink::new(TapWriter(Rc::clone(&tap))),
            tap,
            timed,
        }
    }
}

impl EventSink for BenchSink {
    fn record(&mut self, event: &TraceEvent) {
        if self.timed {
            let t = Instant::now();
            self.inner.record(event);
            let ns = t.elapsed().as_nanos() as u64;
            self.tap.record_ns.set(self.tap.record_ns.get() + ns);
        } else {
            self.inner.record(event);
        }
        self.tap.events.set(self.inner.events_written());
    }

    fn finish(&mut self) {
        self.inner.finish();
    }
}

/// Deterministic work counts of one cell: the same seed must give the
/// same counts on every run, traced or not.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Scheduler events delivered.
    pub events: u64,
    /// Peak pending events.
    pub queue_high_water: u64,
    /// Timer-wheel overflow promotions.
    pub overflow_promotions: u64,
    /// Data-frame transmissions.
    pub data_tx: u64,
    /// ACK transmissions.
    pub ack_tx: u64,
    /// Frames delivered.
    pub delivered: u64,
    /// Unicast frames dropped after exhausting retries.
    pub mac_dropped: u64,
    /// Receptions corrupted by collisions.
    pub collisions: u64,
    /// Beacon data transmissions.
    pub beacon_tx: u64,
    /// Location-update data transmissions (the floods of Figure 4).
    pub flood_tx: u64,
    /// Packets dropped by routing or the MAC.
    pub drops: u64,
    /// Failure reports sent.
    pub reports_sent: u64,
    /// Failure reports delivered.
    pub reports_delivered: u64,
    /// Sum of hops over delivered reports.
    pub report_hops: u64,
    /// Sensor failures (either engine).
    pub failures: u64,
    /// Failures repaired (either engine).
    pub replacements: u64,
    /// Flow-engine failures (0 for packet cells).
    pub flow_failures: u64,
    /// Robot metres driven to repairs.
    pub travel_m: f64,
    /// Trace events the sink recorded.
    pub sink_events: u64,
    /// Trace bytes the sink wrote.
    pub sink_bytes: u64,
    /// Telemetry samples taken.
    pub samples: u64,
    /// Health-monitor invariant violations.
    pub invariant_violations: u64,
}

impl Counts {
    /// Adds another cell's counts (the queue high-water mark takes the
    /// larger of the two).
    pub fn add(&mut self, o: &Counts) {
        self.events += o.events;
        self.queue_high_water = self.queue_high_water.max(o.queue_high_water);
        self.overflow_promotions += o.overflow_promotions;
        self.data_tx += o.data_tx;
        self.ack_tx += o.ack_tx;
        self.delivered += o.delivered;
        self.mac_dropped += o.mac_dropped;
        self.collisions += o.collisions;
        self.beacon_tx += o.beacon_tx;
        self.flood_tx += o.flood_tx;
        self.drops += o.drops;
        self.reports_sent += o.reports_sent;
        self.reports_delivered += o.reports_delivered;
        self.report_hops += o.report_hops;
        self.failures += o.failures;
        self.replacements += o.replacements;
        self.flow_failures += o.flow_failures;
        self.travel_m += o.travel_m;
        self.sink_events += o.sink_events;
        self.sink_bytes += o.sink_bytes;
        self.samples += o.samples;
        self.invariant_violations += o.invariant_violations;
    }

    fn from_outcome(o: &Outcome, tap: Option<&TraceTap>) -> Counts {
        let m = &o.metrics;
        let t = m.tx.totals();
        Counts {
            events: o.events_processed,
            queue_high_water: o.profile.queue_high_water as u64,
            overflow_promotions: o.profile.wheel.overflow_promotions,
            data_tx: t.data_tx,
            ack_tx: t.ack_tx,
            delivered: t.delivered,
            mac_dropped: t.dropped,
            collisions: t.collisions,
            beacon_tx: m.tx.data_tx(TrafficClass::Beacon),
            flood_tx: m.tx.data_tx(TrafficClass::LocationUpdate),
            drops: m.packets_dropped.total(),
            reports_sent: m.reports_sent,
            reports_delivered: m.report_hops.len() as u64,
            report_hops: m.report_hops.iter().map(|&h| u64::from(h)).sum(),
            failures: m.failures_occurred,
            replacements: m.replacements,
            flow_failures: 0,
            travel_m: m.travel_per_task.iter().sum(),
            sink_events: tap.map_or(0, TraceTap::events),
            sink_bytes: tap.map_or(0, TraceTap::bytes),
            samples: m.telemetry_timeline.len() as u64,
            invariant_violations: m.invariant_violations,
        }
    }

    fn from_flow(s: &fastsim::FastSummary, tap: Option<&TraceTap>) -> Counts {
        Counts {
            failures: s.failures,
            replacements: s.replacements,
            flow_failures: s.failures,
            travel_m: s.avg_travel_per_failure * s.replacements as f64,
            sink_events: tap.map_or(0, TraceTap::events),
            sink_bytes: tap.map_or(0, TraceTap::bytes),
            ..Counts::default()
        }
    }

    /// The invariants every cell's output must satisfy.
    pub fn check(&self) -> Result<(), String> {
        if self.replacements > self.failures {
            return Err(format!(
                "{} replacements exceed {} failures",
                self.replacements, self.failures
            ));
        }
        if self.reports_delivered > self.reports_sent {
            return Err(format!(
                "{} reports delivered exceed {} sent",
                self.reports_delivered, self.reports_sent
            ));
        }
        if self.delivered + self.mac_dropped > self.data_tx {
            return Err(format!(
                "{} frames delivered or dropped exceed {} sent",
                self.delivered + self.mac_dropped,
                self.data_tx
            ));
        }
        if self.invariant_violations != 0 {
            return Err(format!(
                "{} health-monitor invariant violations",
                self.invariant_violations
            ));
        }
        // The first two bounds keep the repair and report-delivery
        // ratios within [0, 1], and delivered / (delivered + dropped)
        // is within it by construction; travel is left to check.
        if !(self.travel_m.is_finite() && self.travel_m >= 0.0) {
            return Err(format!(
                "robot travel {} m is not a distance",
                self.travel_m
            ));
        }
        Ok(())
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Wall-clock figures of one traced cell (all zero when untraced).
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Radio-engine events.
    pub radio_s: f64,
    /// Routing and relay hops.
    pub net_s: f64,
    /// Coordination logic.
    pub coord_s: f64,
    /// Coverage and telemetry sampling.
    pub sampler_s: f64,
    /// `JsonlSink::record` calls.
    pub record_s: f64,
}

impl LayerTimes {
    /// Sum of the subsystem buckets the packet engine attributes.
    pub fn attributed(&self) -> f64 {
        self.radio_s + self.net_s + self.coord_s + self.sampler_s
    }
}

/// What one cell run produced.
pub struct CellRun {
    /// Wall seconds of `run_to_completion` / `fastsim::run`.
    pub run_s: f64,
    /// Work counts.
    pub counts: Counts,
    /// Traced runs: per-subsystem wall time.
    pub layers: LayerTimes,
    /// Traced runs: heap allocations during the run.
    pub allocs: Allocs,
    /// Observed runs: the trace.
    pub tap: Option<Rc<TraceTap>>,
}

/// Runs `cell` to its horizon. `observe` streams a JSONL trace into a
/// fresh [`TraceTap`]; `traced` turns on subsystem profiling, sink
/// timing and allocation counting.
pub fn run(cell: &Cell, observe: bool, traced: bool) -> CellRun {
    let tap = observe.then(|| Rc::new(TraceTap::default()));
    let sink = tap
        .as_ref()
        .map(|tap| BenchSink::new(Rc::clone(tap), traced));
    let cfg = cell.cfg.clone();
    match cell.engine {
        Engine::Packet => {
            let mut sim = match sink {
                Some(sink) => Simulation::with_sink(cfg, Box::new(sink)),
                None => Simulation::new(cfg),
            };
            if traced {
                sim.enable_subsystem_profile();
            }
            let t1 = Instant::now();
            let (outcome, allocs) = if traced {
                alloc::count(|| sim.run_to_completion())
            } else {
                (sim.run_to_completion(), Allocs::default())
            };
            let run_s = t1.elapsed().as_secs_f64();
            let sub = outcome.profile.subsystems;
            let layers = LayerTimes {
                radio_s: sub.radio_s,
                net_s: sub.routing_s,
                coord_s: sub.coord_s,
                sampler_s: sub.obs_sink_s,
                record_s: tap.as_ref().map_or(0, |t| t.record_ns()) as f64 * 1e-9,
            };
            CellRun {
                run_s,
                counts: Counts::from_outcome(&outcome, tap.as_deref()),
                layers,
                allocs,
                tap,
            }
        }
        Engine::Flow => {
            let mut sink = sink;
            let t1 = Instant::now();
            let (summary, allocs) = {
                let mut go = || match sink.as_mut() {
                    Some(sink) => fastsim::run_with_sink(&cfg, sink),
                    None => fastsim::run(&cfg),
                };
                if traced {
                    alloc::count(go)
                } else {
                    (go(), Allocs::default())
                }
            };
            let run_s = t1.elapsed().as_secs_f64();
            if let Some(sink) = sink.as_mut() {
                sink.finish();
            }
            let layers = LayerTimes {
                record_s: tap.as_ref().map_or(0, |t| t.record_ns()) as f64 * 1e-9,
                ..LayerTimes::default()
            };
            CellRun {
                run_s,
                counts: Counts::from_flow(&summary, tap.as_deref()),
                layers,
                allocs,
                tap,
            }
        }
    }
}

/// Builds `cell`'s world once and returns the wall seconds it took:
/// `Simulation::new` for packet cells; for flow cells, which have no
/// separate set-up call, `fastsim::run` on the shortest horizon the
/// validator accepts (one beacon period plus a second), which is the
/// engine's deployment, partition, fleet and failure-schedule set-up
/// with almost no events after it.
pub fn setup_once(cell: &Cell) -> f64 {
    match cell.engine {
        Engine::Packet => {
            let cfg = cell.cfg.clone();
            let t = Instant::now();
            let sim = Simulation::new(cfg);
            let s = t.elapsed().as_secs_f64();
            drop(sim);
            s
        }
        Engine::Flow => {
            let mut cfg = cell.cfg.clone();
            cfg.sim_time = cfg.beacon_period + SimDuration::from_secs(1.0);
            let t = Instant::now();
            let summary = fastsim::run(&cfg);
            let s = t.elapsed().as_secs_f64();
            std::hint::black_box(summary);
            s
        }
    }
}

/// Telemetry samples a sampled run of `cell` takes: one every cadence
/// up to and including the horizon.
pub fn expected_samples(cell: &Cell) -> u64 {
    match cell.cfg.sample_every {
        Some(every) => cell.cfg.sim_time.as_nanos() / every.as_nanos(),
        None => 0,
    }
}
