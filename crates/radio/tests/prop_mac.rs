//! Property tests for the MAC engine: conservation laws that must hold
//! for any topology and traffic pattern.

use robonet_des::check::{self, Gen, Outcome};
use robonet_des::rng::Xoshiro256;

use robonet_des::{NodeId, Scheduler, SimTime};
use robonet_geom::{Bounds, Point};
use robonet_radio::engine::{RadioEvent, UpcallBuf, UpcallEntry};
use robonet_radio::medium::{Medium, NodeClass, RangeTable};
use robonet_radio::{Frame, MacParams, RadioEngine, TrafficClass};

const CASES: u32 = 32;

struct RunResult {
    completes_ok: usize,
    completes_fail: usize,
    delivered: Vec<(u32, u32)>, // (src, dst)
}

/// Drives the engine to quiescence for the given sends.
fn run(
    positions: &[Point],
    sends: &[(u32, Option<u32>, u64)], // (src, dst, at_millis)
    seed: u64,
) -> RunResult {
    let classes = vec![NodeClass::Sensor; positions.len()];
    let medium = Medium::new(
        Bounds::square(1000.0),
        RangeTable::default(),
        positions,
        &classes,
    );
    let mut engine: RadioEngine<u32> = RadioEngine::new(
        medium,
        MacParams::default(),
        Xoshiro256::seed_from_u64(seed),
    );

    enum Ev {
        Send(Frame<u32>),
        Radio(RadioEvent),
    }
    let mut sched: Scheduler<Ev> = Scheduler::new();
    for (i, &(src, dst, at)) in sends.iter().enumerate() {
        sched.schedule_at(
            SimTime::from_millis(at),
            Ev::Send(Frame {
                src: NodeId::new(src),
                dst: dst.map(NodeId::new),
                bytes: 48,
                class: TrafficClass::Other,
                payload: i as u32,
            }),
        );
    }
    let mut result = RunResult {
        completes_ok: 0,
        completes_fail: 0,
        delivered: Vec::new(),
    };
    let mut out = UpcallBuf::new();
    while let Some(ev) = sched.next_event() {
        let now = sched.now();
        let mut pend: Vec<(SimTime, RadioEvent)> = Vec::new();
        match ev {
            Ev::Send(f) => engine.send(now, f, &mut |at, e| pend.push((at, e))),
            Ev::Radio(r) => engine.handle(now, r, &mut |at, e| pend.push((at, e)), &mut out),
        }
        for (at, e) in pend {
            sched.schedule_at(at, Ev::Radio(e));
        }
        for &up in out.entries() {
            match up {
                UpcallEntry::TxComplete { ok, .. } => {
                    if ok {
                        result.completes_ok += 1;
                    } else {
                        result.completes_fail += 1;
                    }
                }
                UpcallEntry::Delivered { to, frame, .. } => {
                    result
                        .delivered
                        .push((out.frame(frame).src.as_u32(), to.as_u32()));
                }
            }
        }
        out.clear();
    }
    result
}

fn positions_gen() -> Gen<Vec<Point>> {
    check::vec_of(
        check::pair(check::f64s(0.0..1000.0), check::f64s(0.0..1000.0))
            .map(|&(x, y)| Point::new(x, y)),
        2..20,
    )
}

/// Conservation: every send completes exactly once (ok or failed);
/// the engine always quiesces.
#[test]
fn every_send_completes_once() {
    check::forall_cases(
        "every_send_completes_once",
        CASES,
        &check::triple(
            positions_gen(),
            check::vec_of(
                check::triple(
                    check::usizes(0..100),
                    check::usizes(0..100),
                    check::u64s(0..50),
                ),
                1..40,
            ),
            check::u64_any(),
        ),
        |(positions, raw_sends, seed)| {
            let n = positions.len();
            let sends: Vec<(u32, Option<u32>, u64)> = raw_sends
                .iter()
                .map(|&(s, d, at)| {
                    let src = (s % n) as u32;
                    let dst = (d % n) as u32;
                    let dst = if dst == src { None } else { Some(dst) };
                    (src, dst, at)
                })
                .collect();
            let r = run(positions, &sends, *seed);
            assert_eq!(
                r.completes_ok + r.completes_fail,
                sends.len(),
                "sends must complete exactly once"
            );
            Outcome::Pass
        },
    );
}

/// Deliveries only happen within the sender's transmission range.
#[test]
fn deliveries_respect_range() {
    check::forall_cases(
        "deliveries_respect_range",
        CASES,
        &check::pair(positions_gen(), check::u64_any()),
        |(positions, seed)| {
            let n = positions.len();
            let sends: Vec<(u32, Option<u32>, u64)> =
                (0..n as u32).map(|i| (i, None, u64::from(i) * 3)).collect();
            let r = run(positions, &sends, *seed);
            for &(src, dst) in &r.delivered {
                let d = positions[src as usize].distance(positions[dst as usize]);
                assert!(d <= 63.0 + 1e-9, "delivery over {d} m at 63 m range");
            }
            Outcome::Pass
        },
    );
}

/// A unicast to an in-range destination on an otherwise idle
/// channel always succeeds (no spurious losses).
#[test]
fn idle_channel_unicast_succeeds() {
    check::forall_cases(
        "idle_channel_unicast_succeeds",
        CASES,
        &check::triple(check::f64s(0.0..62.0), check::bools(), check::u64_any()),
        |&(x, y_sign, seed)| {
            let y = if y_sign { 1.0 } else { -1.0 };
            let positions = vec![Point::new(500.0, 500.0), Point::new(500.0 + x, 500.0 + y)];
            let r = run(&positions, &[(0, Some(1), 0)], seed);
            assert_eq!(r.completes_ok, 1);
            assert_eq!(r.completes_fail, 0);
            assert_eq!(r.delivered.len(), 1);
            Outcome::Pass
        },
    );
}

/// Determinism: identical inputs and seed give identical outcomes.
#[test]
fn engine_is_deterministic() {
    check::forall_cases(
        "engine_is_deterministic",
        CASES,
        &check::pair(positions_gen(), check::u64_any()),
        |(positions, seed)| {
            let n = positions.len() as u32;
            let sends: Vec<(u32, Option<u32>, u64)> =
                (0..n).map(|i| (i, Some((i + 1) % n), 0)).collect();
            let a = run(positions, &sends, *seed);
            let b = run(positions, &sends, *seed);
            assert_eq!(a.completes_ok, b.completes_ok);
            assert_eq!(a.completes_fail, b.completes_fail);
            assert_eq!(a.delivered, b.delivered);
            Outcome::Pass
        },
    );
}
