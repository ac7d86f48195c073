//! The one observer both engines report to.
//!
//! The packet harness and the flow engine each hold one [`Observer`]
//! and hand it every trace event they build. It tees each event into
//! the health monitor, the live span assembler and the sink, and it
//! owns the telemetry sampler's step, so both engines observe a run
//! by one rule:
//!
//! - sampling turns observation on: the health monitor is built from
//!   the event stream, so it needs events even when no sink listens;
//! - spans are assembled when the run returns them (the packet
//!   engine's `Outcome::spans` whenever it is observed, the flow
//!   engine's `run_with_spans`, `--progress`) or when sampling, so
//!   every sampled run checks span balance;
//! - an unobserved run builds no event at all: [`Observer::emit`]
//!   takes a closure and calls it only when something listens.

use crate::trace::TraceEvent;
use crate::world::{Gauges, World};

use super::sink::{EventSink, RingSink};
use super::span::{SpanAssembler, SpanReport};
use super::timeline::{Checkpoint, HealthMonitor, Timeline};

/// Every listener of one run: the sink, the span assembler, the health
/// monitor and the telemetry timeline.
pub(crate) struct Observer<'s> {
    sink: Box<dyn EventSink + 's>,
    /// Cached `sink.is_enabled()`.
    sink_enabled: bool,
    /// Assembles repair-lifecycle spans from the live event stream.
    spans: Option<SpanAssembler>,
    /// Event-ledger health monitor, present exactly when sampling.
    health: Option<HealthMonitor>,
    /// The samples and violations [`Observer::sample`] emitted (empty
    /// unless sampling).
    timeline: Timeline,
}

impl<'s> Observer<'s> {
    /// An observer feeding `sink`. `sampling` builds the health monitor
    /// and the span assembler its span-balance check reads; `spans`
    /// builds the assembler for [`Observer::finish`] to return.
    pub fn new(sink: Box<dyn EventSink + 's>, sampling: bool, spans: bool) -> Self {
        let mut observer = Observer {
            sink_enabled: sink.is_enabled(),
            sink,
            spans: None,
            health: sampling.then(HealthMonitor::new),
            timeline: Timeline::new(),
        };
        if spans || sampling {
            observer.enable_spans();
        }
        observer
    }

    /// Whether anything listens: the one gate [`Observer::emit`] tests
    /// before it builds an event.
    fn is_on(&self) -> bool {
        self.sink_enabled || self.spans.is_some()
    }

    /// Assembles spans for [`Observer::finish`] to return; turns
    /// observation on.
    pub fn enable_spans(&mut self) {
        self.spans.get_or_insert_with(SpanAssembler::new);
    }

    /// Repairs the span assembler holds open (0 when none runs).
    pub fn open_spans(&self) -> usize {
        self.spans.as_ref().map_or(0, |a| a.ledger().open_count())
    }

    /// Builds the event and records it into every listener, or builds
    /// nothing when no one listens.
    pub fn emit(&mut self, event: impl FnOnce() -> TraceEvent) {
        if self.is_on() {
            self.record(&event());
        }
    }

    fn record(&mut self, event: &TraceEvent) {
        if let Some(monitor) = self.health.as_mut() {
            monitor.ingest(event);
        }
        if let Some(assembler) = self.spans.as_mut() {
            assembler.ingest(event);
        }
        if self.sink_enabled {
            self.sink.record(event);
        }
    }

    /// The sampler's step at sim time `t`: snapshot the live gauges,
    /// check the health monitor's invariants against them, and emit
    /// the sample followed by one event per violation, each also into
    /// the timeline.
    ///
    /// # Panics
    ///
    /// Panics unless the observer was built with sampling on.
    pub fn sample(&mut self, world: &mut World, t: f64, gauges: &Gauges) {
        let health = self.health.as_ref().expect("sampling implies a monitor");
        let sample = world.telemetry(health.ledger(), gauges);
        let violations = health.check(
            t,
            &Checkpoint {
                failures: world.failures,
                replacements: world.replacements,
                open_spans: self.open_spans() as u64,
                robots_down: gauges.robots_down,
            },
        );
        let sample = TraceEvent::TelemetrySample { t, sample };
        for event in std::iter::once(sample).chain(violations) {
            self.record(&event);
            self.timeline.ingest(&event);
        }
    }

    /// Ends the run: flushes the sink and returns the spans (when
    /// assembled), the sink's [`RingSink`] trace (empty when it holds
    /// none) and the telemetry timeline.
    pub fn finish(mut self) -> (Option<SpanReport>, RingSink, Timeline) {
        self.sink.finish();
        let trace = self.sink.take_trace().unwrap_or_default();
        (self.spans.map(SpanAssembler::finish), trace, self.timeline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::NullSink;
    use robonet_des::NodeId;
    use robonet_geom::Point;

    #[test]
    fn observer_assembles_spans_while_recording() {
        let mut observer = Observer::new(Box::new(NullSink), false, false);
        assert!(!observer.is_on(), "a disabled sink alone observes nothing");
        observer.emit(|| unreachable!("an unobserved run builds no event"));
        observer.enable_spans();
        assert!(observer.is_on());
        let (sensor, robot) = (NodeId::new(3), NodeId::new(200));
        observer.emit(|| TraceEvent::Failure { t: 0.0, sensor });
        assert_eq!(observer.open_spans(), 1);
        observer.emit(|| TraceEvent::Replaced {
            t: 60.0,
            robot,
            sensor,
            travel: 10.0,
            loc: Point::new(1.0, 1.0),
        });
        assert_eq!(observer.open_spans(), 0);
        let (spans, trace, timeline) = observer.finish();
        let report = spans.expect("span assembly was enabled");
        assert_eq!(report.replacements(), 1);
        assert_eq!(report.spans[0].sensor, sensor);
        assert_eq!(trace.len(), 0, "a null sink holds no trace");
        assert!(timeline.is_empty(), "an unsampled run has no timeline");
    }
}
