//! Fault-layer invariants of the packet simulator.
//!
//! Three guarantees anchor the fault-injection design and are enforced
//! here end to end:
//!
//! 1. **Inert plans are free.** A `FaultPlan` whose knobs are all zero
//!    normalizes away at construction, so passing one reproduces the
//!    fault-free run bit for bit — summary, recovery counters, spans.
//! 2. **No silent loss.** Under partial message loss with the retry
//!    protocol armed, every failure is accounted for: replaced, an
//!    explicit orphan (report budget exhausted or repair still in
//!    flight at the horizon), never quietly forgotten.
//! 3. **Reproducibility.** The same seed and the same plan give the
//!    same run, down to every counter — faults draw from dedicated
//!    named PRNG streams, so nothing about the injection depends on
//!    scheduler innards.

use robonet_core::fault::FaultPlan;
use robonet_core::{Algorithm, Outcome, PartitionKind, RingSink, ScenarioConfig, Simulation};
use robonet_des::SimDuration;

/// A small scenario every test can afford at packet level.
fn small(alg: Algorithm) -> ScenarioConfig {
    ScenarioConfig::paper(2, alg).with_seed(11).scaled(16.0)
}

/// Runs `cfg` with a small ring attached: observability on, so
/// `Outcome::spans` is assembled.
fn run_observed(cfg: ScenarioConfig) -> Outcome {
    Simulation::with_sink(cfg, Box::new(RingSink::with_capacity(16))).run_to_completion()
}

const ALL: [Algorithm; 3] = [
    Algorithm::Centralized,
    Algorithm::Fixed(PartitionKind::Square),
    Algorithm::Dynamic,
];

#[test]
fn inert_plan_reproduces_fault_free_run_bit_exactly() {
    for alg in ALL {
        let free = run_observed(small(alg));
        let mut cfg = small(alg);
        cfg.faults = Some(FaultPlan::default());
        let inert = run_observed(cfg);

        assert_eq!(
            free.metrics.summary(),
            inert.metrics.summary(),
            "{alg:?}: inert plan must not perturb the summary"
        );
        assert_eq!(
            free.metrics.faults, inert.metrics.faults,
            "{alg:?}: inert plan must not trip any fault counter"
        );
        let (a, b) = (free.spans.unwrap(), inert.spans.unwrap());
        assert_eq!(a.failures, b.failures, "{alg:?}");
        assert_eq!(a.spans.len(), b.spans.len(), "{alg:?}");
        assert_eq!(a.orphans.len(), b.orphans.len(), "{alg:?}");
    }
}

#[test]
fn partial_loss_with_retries_loses_nothing_silently() {
    for alg in ALL {
        let mut cfg = small(alg);
        cfg.faults = Some(FaultPlan::message_loss(0.10));
        let out = run_observed(cfg);
        let report = out.spans.as_ref().unwrap();

        // Conservation: every observed failure either closed as a
        // replacement span or is an explicit orphan at the horizon.
        assert_eq!(
            report.failures,
            report.spans.len() as u64 + report.orphans.len() as u64,
            "{alg:?}: failures must split into replacements + orphans"
        );
        // The loss actually bit, and the retry machinery actually ran.
        assert!(
            out.metrics.faults.report_drops > 0,
            "{alg:?}: 10% loss must drop some reports"
        );
        assert!(
            out.metrics.faults.report_retries > 0,
            "{alg:?}: dropped reports must be retried"
        );
        // Recovery keeps the repair ratio near the fault-free level.
        // (A guardian may still exhaust its budget when a *delivered*
        // report's repair outlasts the whole backoff schedule, so a few
        // abandonments are legitimate — what matters is throughput.)
        let mut free_cfg = small(alg);
        free_cfg.faults = None;
        let free = run_observed(free_cfg);
        let ratio = |o: &robonet_core::Outcome| {
            let s = o.metrics.summary();
            s.replacements as f64 / s.failures_occurred as f64
        };
        assert!(
            ratio(&out) >= 0.90 * ratio(&free),
            "{alg:?}: retries must hold the repair ratio: {:.3} vs {:.3}",
            ratio(&out),
            ratio(&free)
        );
    }
}

#[test]
fn same_seed_and_plan_reproduce_the_run_exactly() {
    let mut plan = FaultPlan::message_loss(0.05);
    plan.breakdown_mean = Some(SimDuration::from_secs(1500.0));
    plan.breakdown_repair = Some(SimDuration::from_secs(300.0));
    plan.slow_prob = 0.3;
    for alg in ALL {
        let mut cfg = small(alg);
        cfg.faults = Some(plan.clone());
        let a = run_observed(cfg.clone());
        let b = run_observed(cfg);
        assert_eq!(a.metrics.summary(), b.metrics.summary(), "{alg:?}");
        assert_eq!(a.metrics.faults, b.metrics.faults, "{alg:?}");
        let (ra, rb) = (a.spans.unwrap(), b.spans.unwrap());
        assert_eq!(ra.failures, rb.failures, "{alg:?}");
        assert_eq!(ra.redispatches, rb.redispatches, "{alg:?}");
        assert_eq!(ra.orphans, rb.orphans, "{alg:?}");
    }
}

#[test]
fn span_accounting_survives_redispatch() {
    // Heavy dispatch loss against the centralized manager forces the
    // watchdog: timeouts, re-dispatches to the next-closest non-suspect
    // robot, and eventually abandoned dispatches. The span assembler
    // must keep its books balanced through all of it.
    // Short watchdog so even *delivered* dispatches stuck behind a
    // backlog get re-dispatched — the span assembler only sees a
    // re-dispatch when two dispatch messages both reach a robot.
    let plan = FaultPlan {
        dispatch_loss: 0.5,
        dispatch_timeout: SimDuration::from_secs(60.0),
        max_dispatch_attempts: 6,
        ..FaultPlan::default()
    };
    let mut cfg = small(Algorithm::Centralized);
    cfg.faults = Some(plan);
    let out = run_observed(cfg);
    let report = out.spans.as_ref().unwrap();

    assert!(
        out.metrics.faults.dispatch_timeouts > 0,
        "50% dispatch loss must trip the watchdog"
    );
    assert!(
        out.metrics.faults.redispatches > 0,
        "timeouts must re-dispatch"
    );
    assert!(
        report.redispatches > 0,
        "re-dispatches must be visible to the span assembler"
    );
    assert_eq!(
        report.failures,
        report.spans.len() as u64 + report.orphans.len() as u64,
        "conservation must hold under re-dispatch"
    );
    // Re-dispatch keeps repairs flowing despite the loss.
    assert!(
        out.metrics.summary().replacements > 0,
        "the fleet must still repair under dispatch loss"
    );
}

#[test]
fn breakdowns_with_repair_keep_the_fleet_alive() {
    // Frequent breakdowns, quick repairs: every death must be matched
    // by a repair (or be pending at the horizon), and the run must
    // still make repair progress.
    let plan = FaultPlan {
        breakdown_mean: Some(SimDuration::from_secs(1000.0)),
        breakdown_repair: Some(SimDuration::from_secs(200.0)),
        ..FaultPlan::default()
    };
    for alg in ALL {
        let mut cfg = small(alg);
        cfg.faults = Some(plan.clone());
        let out = Simulation::run(cfg);
        let f = &out.metrics.faults;
        let deaths = f.robot_breakdowns - f.robot_slowdowns;
        assert!(
            f.robot_repairs <= deaths,
            "{alg:?}: repairs ({}) cannot exceed deaths ({deaths})",
            f.robot_repairs
        );
        assert!(
            deaths - f.robot_repairs <= out.config.n_robots() as u64,
            "{alg:?}: at most one unrepaired death pending per robot"
        );
        assert!(
            out.metrics.summary().replacements > 0,
            "{alg:?}: repaired robots must keep replacing sensors"
        );
    }
}
