//! Property tests for the event kernel: ordering, stability,
//! cancellation and sampler statistics under arbitrary inputs.

use robonet_des::check::{self, Outcome};
use robonet_des::rng::{self, Rng};
use robonet_des::{sampler, EventQueue, Scheduler, SimDuration, SimTime};

/// Events always pop in non-decreasing time order, regardless of
/// insertion order.
#[test]
fn pop_order_is_sorted() {
    check::forall(
        "pop_order_is_sorted",
        &check::vec_of(check::u64s(0..1_000_000), 1..200),
        |times| {
            let mut q = EventQueue::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
            }
            let mut last = SimTime::ZERO;
            let mut popped = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last, "time went backwards");
                last = t;
                popped += 1;
            }
            assert_eq!(popped, times.len());
            Outcome::Pass
        },
    );
}

/// Ties pop in FIFO (insertion) order — determinism does not depend
/// on heap internals.
#[test]
fn ties_are_fifo() {
    check::forall(
        "ties_are_fifo",
        &check::vec_of(
            check::pair(check::u64s(0..100), check::usizes(1..10)),
            1..30,
        ),
        |groups| {
            let mut q = EventQueue::new();
            let mut expected: Vec<(u64, usize)> = Vec::new();
            let mut id = 0usize;
            for &(t, n) in groups {
                for _ in 0..n {
                    q.schedule(SimTime::from_nanos(t), id);
                    expected.push((t, id));
                    id += 1;
                }
            }
            expected.sort_by_key(|&(t, id)| (t, id));
            let mut actual = Vec::new();
            while let Some((t, v)) = q.pop() {
                actual.push((t.as_nanos(), v));
            }
            assert_eq!(actual, expected);
            Outcome::Pass
        },
    );
}

/// Cancelled events never pop; everything else still does.
#[test]
fn cancellation_is_exact() {
    check::forall(
        "cancellation_is_exact",
        &check::pair(
            check::vec_of(check::u64s(0..10_000), 1..100),
            check::vec_of(check::bools(), 1..100),
        ),
        |(times, cancel_mask)| {
            let mut q = EventQueue::new();
            let mut keys = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                keys.push(q.schedule(SimTime::from_nanos(t), i));
            }
            let mut cancelled = std::collections::HashSet::new();
            for (i, (&key, &c)) in keys.iter().zip(cancel_mask).enumerate() {
                if c {
                    q.cancel(key);
                    cancelled.insert(i);
                }
            }
            let mut seen = std::collections::HashSet::new();
            while let Some((_, v)) = q.pop() {
                assert!(!cancelled.contains(&v), "cancelled event {v} popped");
                seen.insert(v);
            }
            for i in 0..times.len() {
                assert!(
                    cancelled.contains(&i) || seen.contains(&i),
                    "live event {i} vanished"
                );
            }
            Outcome::Pass
        },
    );
}

/// Pops stay sorted and FIFO-on-ties when times span every wheel store:
/// sub-tick (front), lane 0 (seconds), lane 1 (minutes) and the
/// overflow heap (beyond ~137 s), with interleaved pops advancing the
/// cursor between batches.
#[test]
fn wheel_lanes_preserve_order() {
    check::forall(
        "wheel_lanes_preserve_order",
        &check::pair(
            check::vec_of(check::u64s(0..400_000_000_000), 1..120),
            check::usizes(0..40),
        ),
        |(times, pop_between)| {
            let mut q = EventQueue::new();
            let mut expected: Vec<(u64, usize)> = Vec::new();
            let mut popped: Vec<(u64, usize)> = Vec::new();
            for (i, &t) in times.iter().enumerate() {
                q.schedule(SimTime::from_nanos(t), i);
                expected.push((t, i));
                if i == *pop_between {
                    // Advance the cursor mid-stream so later schedules
                    // land behind, inside and beyond the wheel span.
                    if let Some((pt, v)) = q.pop() {
                        popped.push((pt.as_nanos(), v));
                    }
                }
            }
            while let Some((t, v)) = q.pop() {
                popped.push((t.as_nanos(), v));
            }
            // The mid-stream pop can fire early relative to later
            // schedules, so compare as multisets plus per-suffix order.
            let mut sorted = popped.clone();
            sorted.sort();
            expected.sort();
            assert_eq!(sorted, expected, "events lost or duplicated");
            let tail = &popped[if popped.len() > 1 { 1 } else { 0 }..];
            assert!(
                tail.windows(2).all(|w| w[0] <= w[1]),
                "drain order not sorted: {tail:?}"
            );
            Outcome::Pass
        },
    );
}

/// One tick of the timer wheel, in nanoseconds.
const TICK_NS: u64 = 1 << 20;
/// Span of lane 0 (2048 ticks) and of lane 1 (512 x 256 ticks).
const LANE0_SPAN_NS: u64 = 2048 * TICK_NS;
const LANE1_SPAN_NS: u64 = 512 * 256 * TICK_NS;

/// An event time ahead of `now` drawn from `class`: inside one tick,
/// inside lane 0, inside lane 1, into the overflow heap, several lane-0
/// spans ahead, or exactly on a lane-1 (256-tick) boundary, where the
/// wheel cascades.
fn event_time_ns(now: u64, class: u64, raw: u64) -> u64 {
    const COARSE_NS: u64 = 256 * TICK_NS;
    match class {
        0 => now + raw % TICK_NS,
        1 => now + raw % LANE0_SPAN_NS,
        2 => now + LANE0_SPAN_NS + raw % (LANE1_SPAN_NS - LANE0_SPAN_NS),
        3 => now + LANE1_SPAN_NS + raw % (3 * LANE1_SPAN_NS),
        4 => now + (1 + raw % 6) * LANE0_SPAN_NS + (raw >> 32) % (300 * TICK_NS),
        _ => (now / COARSE_NS + raw % 80) * COARSE_NS,
    }
}

/// Model check: random interleavings of schedule, cancel and pop agree
/// with a `BTreeMap<(time, seq), id>` reference. Every pop is the
/// reference minimum and `len` matches after every step, so a wheel
/// that skips a bucket or a cascade, or pops a tombstone, shows up as
/// the first divergent pop.
#[test]
fn queue_matches_ordered_map_model() {
    use std::collections::BTreeMap;
    check::forall_cases(
        "queue_matches_ordered_map_model",
        256,
        &check::vec_of(
            check::triple(check::u64s(0..10), check::u64s(0..6), check::u64_any()),
            1..400,
        ),
        |ops| {
            let mut q = EventQueue::new();
            let mut model: BTreeMap<(u64, u64), usize> = BTreeMap::new();
            // Per scheduled id: its key and its model entry.
            let mut scheduled = Vec::new();
            let mut now = 0u64;
            for &(op, class, raw) in ops {
                match op {
                    // Schedule (half of all steps).
                    0..=4 => {
                        let t = event_time_ns(now, class, raw);
                        let id = scheduled.len();
                        let key = q.schedule(SimTime::from_nanos(t), id);
                        model.insert((t, id as u64), id);
                        scheduled.push((key, (t, id as u64)));
                    }
                    // Cancel any id ever scheduled: live, fired or
                    // already cancelled.
                    5 | 6 if !scheduled.is_empty() => {
                        let (key, entry) = scheduled[(raw % scheduled.len() as u64) as usize];
                        let pending = model.remove(&entry).is_some();
                        assert_eq!(q.cancel(key), pending, "cancel of {entry:?}");
                    }
                    _ => {
                        let expected = model.pop_first().map(|((t, _), id)| (t, id));
                        let got = q.pop().map(|(t, id)| (t.as_nanos(), id));
                        assert_eq!(got, expected, "pop diverged from the model");
                        if let Some((t, _)) = got {
                            now = t;
                        }
                    }
                }
                assert_eq!(q.len(), model.len(), "len diverged from the model");
                assert_eq!(
                    q.peek_time().map(SimTime::as_nanos),
                    model.keys().next().map(|&(t, _)| t),
                    "peek diverged from the model"
                );
            }
            // Drain what is left.
            while let Some(((t, _), id)) = model.pop_first() {
                assert_eq!(q.pop().map(|(t, id)| (t.as_nanos(), id)), Some((t, id)));
            }
            assert_eq!(q.pop().map(|(t, _)| t), None);
            Outcome::Pass
        },
    );
}

/// The scheduler clock is monotone for any interleaving of
/// schedule_after and next_event.
#[test]
fn scheduler_clock_monotone() {
    check::forall(
        "scheduler_clock_monotone",
        &check::vec_of(check::u64s(1..1_000_000), 1..100),
        |delays| {
            let mut s: Scheduler<usize> = Scheduler::new();
            for (i, &d) in delays.iter().enumerate() {
                s.schedule_after(SimDuration::from_nanos(d), i);
            }
            let mut last = SimTime::ZERO;
            while s.next_event().is_some() {
                assert!(s.now() >= last);
                last = s.now();
            }
            assert_eq!(s.delivered_count(), delays.len() as u64);
            Outcome::Pass
        },
    );
}

/// Named RNG streams are reproducible and label-sensitive.
#[test]
fn rng_streams_reproducible() {
    check::forall(
        "rng_streams_reproducible",
        &check::pair(check::u64_any(), check::lowercase_strings(1..13)),
        |(seed, label)| {
            let mut a = rng::stream(*seed, label);
            let mut b = rng::stream(*seed, label);
            for _ in 0..8 {
                assert_eq!(a.next_u64(), b.next_u64());
            }
            Outcome::Pass
        },
    );
}

/// Exponential samples are always positive and finite.
#[test]
fn exponential_samples_positive() {
    check::forall(
        "exponential_samples_positive",
        &check::pair(check::u64_any(), check::f64s(1.0..100_000.0)),
        |(seed, mean_s)| {
            let mut r = rng::stream(*seed, "exp-test");
            for _ in 0..50 {
                let d = sampler::exponential_duration(&mut r, SimDuration::from_secs(*mean_s));
                assert!(d >= SimDuration::ZERO);
                assert!(d < SimDuration::MAX);
            }
            Outcome::Pass
        },
    );
}
