//! In-tree metrics registry: named monotonic counters and fixed-bucket
//! log2 histograms.
//!
//! Names follow a `subsystem.name` convention with dotted, lowercase
//! segments — `des.scheduler.events_dispatched`,
//! `radio.mac.drops.give_up`, `net.routing.drops.ttl_expired`,
//! `coord.dynamic.reports_delivered`. Subsystem and metric names are
//! `&'static str` so recording is allocation-free; storage is a
//! `BTreeMap` so snapshots iterate in a stable, sorted order.

use std::collections::BTreeMap;

use super::detsum::DetSum;
use super::json::ObjectWriter;

/// Number of buckets in a [`Log2Histogram`].
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-bucket histogram over non-negative values with power-of-two
/// bucket boundaries.
///
/// Bucket 0 holds values in `[0, 1)`, bucket `i` (for `i >= 1`) holds
/// `[2^(i-1), 2^i)`, and the last bucket absorbs everything larger.
/// This covers hop counts, travel metres, and repair delays in seconds
/// with one shape and no configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Log2Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: DetSum,
    max: f64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: DetSum::new(),
            max: 0.0,
        }
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bucket index for `value` (negatives and NaN clamp to bucket 0).
    pub fn bucket_of(value: f64) -> usize {
        if value >= 1.0 {
            let exp = value.log2().floor() as usize;
            (exp + 1).min(HISTOGRAM_BUCKETS - 1)
        } else {
            // Covers [0, 1) and, by NaN comparing false, NaN/negatives.
            0
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        if value.is_finite() {
            self.sum.add(value);
            if value > self.max {
                self.max = value;
            }
        }
    }

    /// Folds `other` into `self` — buckets, counts and fixed-point sums
    /// add, max takes the larger; every constituent is
    /// order-independent, so folding histograms in any order yields the
    /// same bits.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum.merge(&other.sum);
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all (finite) observed values (fixed-point accumulated —
    /// deterministic and order-independent; see [`DetSum`]).
    pub fn sum(&self) -> f64 {
        self.sum.value()
    }

    /// Largest observed value (0.0 when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Mean observed value, `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum.value() / self.count as f64)
        }
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }
}

/// A registry of `(subsystem, name)`-keyed counters, gauges and
/// histograms.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<(&'static str, &'static str), u64>,
    gauges: BTreeMap<(&'static str, &'static str), f64>,
    histograms: BTreeMap<(&'static str, &'static str), Log2Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` to the counter `subsystem.name`.
    pub fn add(&mut self, subsystem: &'static str, name: &'static str, delta: u64) {
        *self.counters.entry((subsystem, name)).or_insert(0) += delta;
    }

    /// Sets the counter `subsystem.name` to `value` (for end-of-run
    /// snapshots of externally accumulated totals; still monotonic from
    /// the reader's point of view).
    pub fn set(&mut self, subsystem: &'static str, name: &'static str, value: u64) {
        self.counters.insert((subsystem, name), value);
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, subsystem: &str, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|((s, n), _)| *s == subsystem && *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sets the floating-point gauge `subsystem.name` (end-of-run
    /// derived statistics such as the `span.<stage>` percentiles).
    pub fn set_gauge(&mut self, subsystem: &'static str, name: &'static str, value: f64) {
        self.gauges.insert((subsystem, name), value);
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, subsystem: &str, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|((s, n), _)| *s == subsystem && *n == name)
            .map(|(_, v)| *v)
    }

    /// All gauges in sorted `(subsystem, name, value)` order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        self.gauges.iter().map(|(&(s, n), &v)| (s, n, v))
    }

    /// Records `value` into the histogram `subsystem.name`.
    pub fn observe(&mut self, subsystem: &'static str, name: &'static str, value: f64) {
        self.histograms
            .entry((subsystem, name))
            .or_default()
            .observe(value);
    }

    /// The histogram `subsystem.name`, if any observations were made.
    pub fn histogram(&self, subsystem: &str, name: &str) -> Option<&Log2Histogram> {
        self.histograms
            .iter()
            .find(|((s, n), _)| *s == subsystem && *n == name)
            .map(|(_, h)| h)
    }

    /// All counters in sorted `(subsystem, name, value)` order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, &'static str, u64)> + '_ {
        self.counters.iter().map(|(&(s, n), &v)| (s, n, v))
    }

    /// All histograms in sorted `(subsystem, name)` order.
    pub fn histograms(
        &self,
    ) -> impl Iterator<Item = (&'static str, &'static str, &Log2Histogram)> + '_ {
        self.histograms.iter().map(|(&(s, n), h)| (s, n, h))
    }

    /// Returns `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Folds `other` into `self`: counters add, histograms merge
    /// elementwise, and gauges are **dropped from both sides** — a
    /// gauge is a per-run derived statistic (e.g. a span percentile)
    /// with no meaningful cross-run combination, and keeping either
    /// side's value would make the result depend on fold order. With
    /// gauges gone every constituent is an integer add, a fixed-point
    /// add or an f64 max, so folding any set of registries in any
    /// order yields bit-identical results — the sweep engine's merge
    /// contract.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        self.gauges.clear();
        for (&key, &v) in &other.counters {
            *self.counters.entry(key).or_insert(0) += v;
        }
        for (&key, h) in &other.histograms {
            self.histograms.entry(key).or_default().merge(h);
        }
    }

    /// Serializes the counter snapshot as one JSON object keyed by
    /// `subsystem.name` (sorted; histograms summarized as
    /// `subsystem.name.count`).
    pub fn counters_json(&self) -> String {
        let mut w = ObjectWriter::new();
        for ((subsystem, name), value) in &self.counters {
            w.field_u64(&format!("{subsystem}.{name}"), *value);
        }
        for ((subsystem, name), value) in &self.gauges {
            w.field_f64(&format!("{subsystem}.{name}"), *value);
        }
        for ((subsystem, name), h) in &self.histograms {
            w.field_u64(&format!("{subsystem}.{name}.count"), h.count());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_sort() {
        let mut r = MetricsRegistry::new();
        r.add("net.routing", "drops.ttl_expired", 1);
        r.add("net.routing", "drops.ttl_expired", 2);
        r.add("des.scheduler", "events_dispatched", 1);
        assert_eq!(r.counter("net.routing", "drops.ttl_expired"), 3);
        assert_eq!(r.counter("net.routing", "missing"), 0);
        let names: Vec<_> = r.counters().map(|(s, n, _)| format!("{s}.{n}")).collect();
        assert_eq!(
            names,
            vec![
                "des.scheduler.events_dispatched",
                "net.routing.drops.ttl_expired"
            ],
            "iteration is sorted by (subsystem, name)"
        );
    }

    #[test]
    fn log2_bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_of(0.0), 0);
        assert_eq!(Log2Histogram::bucket_of(0.99), 0);
        assert_eq!(Log2Histogram::bucket_of(1.0), 1);
        assert_eq!(Log2Histogram::bucket_of(1.99), 1);
        assert_eq!(Log2Histogram::bucket_of(2.0), 2);
        assert_eq!(Log2Histogram::bucket_of(3.99), 2);
        assert_eq!(Log2Histogram::bucket_of(4.0), 3);
        assert_eq!(Log2Histogram::bucket_of(-5.0), 0);
        assert_eq!(Log2Histogram::bucket_of(f64::NAN), 0);
        assert_eq!(Log2Histogram::bucket_of(1e300), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn histogram_tracks_count_sum_mean_max() {
        let mut r = MetricsRegistry::new();
        for v in [1.0, 3.0, 8.0] {
            r.observe("robot", "travel_m", v);
        }
        let h = r.histogram("robot", "travel_m").unwrap();
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), 12.0);
        assert_eq!(h.mean(), Some(4.0));
        assert_eq!(h.max(), 8.0);
        assert_eq!(h.buckets()[1], 1); // 1.0
        assert_eq!(h.buckets()[2], 1); // 3.0
        assert_eq!(h.buckets()[4], 1); // 8.0
        assert!(r.histogram("robot", "missing").is_none());
    }

    #[test]
    fn gauges_set_read_and_render() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        r.set_gauge("span.travel", "p95_s", 61.25);
        r.set_gauge("span.travel", "p50_s", 30.5);
        assert!(!r.is_empty());
        assert_eq!(r.gauge("span.travel", "p95_s"), Some(61.25));
        assert_eq!(r.gauge("span.travel", "missing"), None);
        let names: Vec<_> = r.gauges().map(|(s, n, _)| format!("{s}.{n}")).collect();
        assert_eq!(names, vec!["span.travel.p50_s", "span.travel.p95_s"]);
        let v = crate::obs::json::parse(&r.counters_json()).unwrap();
        assert_eq!(v.get("span.travel.p95_s").unwrap().as_f64(), Some(61.25));
    }

    #[test]
    fn counters_json_is_sorted_and_parseable() {
        let mut r = MetricsRegistry::new();
        r.set("radio.mac", "data_tx", 41);
        r.add("coord.dynamic", "reports_delivered", 1);
        r.observe("net.routing", "report_hops", 3.0);
        let json = r.counters_json();
        let v = crate::obs::json::parse(&json).unwrap();
        assert_eq!(v.get("radio.mac.data_tx").unwrap().as_u64(), Some(41));
        assert_eq!(
            v.get("coord.dynamic.reports_delivered").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("net.routing.report_hops.count").unwrap().as_u64(),
            Some(1)
        );
    }
}
