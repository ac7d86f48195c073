//! Metric names, units and the result line.
//!
//! These tables are the single source of the metric names; the
//! self-test checks that `BENCHMARK.json` lists exactly the same ones.

use robonet_core::obs::json::{write_f64, ObjectWriter};

/// A reported metric.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// Name in the result line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// End-to-end metrics, printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[Metric] = &[
    m("setup_s", "s"),
    m("run_s", "s"),
    m("analyze_s", "s"),
    m("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by traced runs (`--trace 1`). A layer a
/// workload bypasses reads 0.
pub const PER_LAYER: &[Metric] = &[
    m("des.events", "count"),
    m("des.queue_high_water", "count"),
    m("des.wheel.overflow_promotions", "count"),
    m("des.events_per_s", "1/s"),
    m("des.unattributed_s", "s"),
    m("radio.data_tx", "count"),
    m("radio.ack_tx", "count"),
    m("radio.collisions", "count"),
    m("radio.delivery_ratio", "ratio"),
    m("radio.self_s", "s"),
    m("radio.ns_per_frame", "ns"),
    m("net.beacon_tx", "count"),
    m("net.flood_tx", "count"),
    m("net.drops", "count"),
    m("net.report_hops_mean", "hops"),
    m("net.self_s", "s"),
    m("coord.failures", "count"),
    m("coord.replacements", "count"),
    m("coord.repair_ratio", "ratio"),
    m("robot.travel_m", "m"),
    m("coord.self_s", "s"),
    m("fastsim.failures", "count"),
    m("fastsim.ns_per_failure", "ns"),
    m("harness.new_s", "s"),
    m("geom.deploy_s", "s"),
    m("obs.sink.events", "count"),
    m("obs.sink.bytes", "bytes"),
    m("obs.samples", "count"),
    m("obs.sink.record_s", "s"),
    m("obs.sampler_s", "s"),
    m("obs.fold.stats_s", "s"),
    m("obs.fold.spans_s", "s"),
    m("obs.fold.timeline_s", "s"),
    m("obs.fold.replay_s", "s"),
    m("obs.fold.mb_per_s", "MB/s"),
    m("cell.centralized.run_s", "s"),
    m("cell.fixed.run_s", "s"),
    m("cell.dynamic.run_s", "s"),
    m("alloc.setup.count", "count"),
    m("alloc.run.count", "count"),
    m("alloc.run.bytes", "bytes"),
    m("alloc.analyze.count", "count"),
    m("trace.overhead_ratio", "ratio"),
];

/// Deterministic counts that must repeat bit for bit for one seed:
/// across runs, and between traced and untraced runs.
pub const EXACT: &[&str] = &[
    "des.events",
    "des.queue_high_water",
    "des.wheel.overflow_promotions",
    "radio.collisions",
    "net.drops",
    "coord.replacements",
    "fastsim.failures",
    "obs.samples",
    "alloc.analyze.count",
];

/// A metric value: counts stay integers so the ledger compares exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A count.
    Int(u64),
    /// A measurement.
    Float(f64),
}

impl Value {
    fn json(self) -> String {
        match self {
            Value::Int(n) => n.to_string(),
            Value::Float(x) => {
                let mut out = String::new();
                // `+ 0.0` turns an empty sum's -0 into 0; a non-finite
                // value has no JSON number and reads 0.
                write_f64(&mut out, if x.is_finite() { x + 0.0 } else { 0.0 });
                out
            }
        }
    }
}

/// Named values, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, Value)>);

impl Values {
    /// Sets `name` (replacing an earlier value).
    pub fn set(&mut self, name: &'static str, value: Value) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name, value)),
        }
    }

    /// Sets a count.
    pub fn int(&mut self, name: &'static str, n: u64) {
        self.set(name, Value::Int(n));
    }

    /// Sets a measurement.
    pub fn float(&mut self, name: &'static str, x: f64) {
        self.set(name, Value::Float(x));
    }

    /// The value of `name`.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// `{"name": value, ...}` for the names in `only`, in that order.
    pub fn plain_json(&self, only: &[&str]) -> String {
        let mut out = ObjectWriter::new();
        for name in only {
            if let Some(v) = self.get(name) {
                out.field_raw(name, &v.json());
            }
        }
        out.finish()
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for `metrics`, in
    /// table order. A metric without a value is an error, unless
    /// `failed` (an operation failed, so the run stopped early): then
    /// it reads 0.
    pub fn metrics_json(&self, metrics: &[Metric], failed: bool) -> Result<String, String> {
        let mut out = ObjectWriter::new();
        for metric in metrics {
            let value = match self.get(metric.name) {
                Some(v) => v,
                None if failed => Value::Int(0),
                None => return Err(format!("metric {} was not measured", metric.name)),
            };
            let mut entry = ObjectWriter::new();
            entry
                .field_raw("value", &value.json())
                .field_str("unit", metric.unit);
            out.field_raw(metric.name, &entry.finish());
        }
        Ok(out.finish())
    }
}

/// Median of `xs` (mean of the middle two for even lengths), 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest of `xs`, 0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}
