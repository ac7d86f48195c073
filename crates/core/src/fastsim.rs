//! A flow-level (non-packet) model of the three coordination
//! algorithms, for scalability studies beyond what packet-level
//! simulation can afford.
//!
//! The packet simulator ([`crate::Simulation`]) prices every MAC frame;
//! this model replaces the network with calibrated closed-form costs
//! while keeping the *coordination* dynamics exact: the same exponential
//! failure process, the same FCFS robot queues and kinematics
//! (`robonet-robot`), the same manager selection rules. Message costs
//! are computed from geometry:
//!
//! - hops ≈ `ceil(distance / (progress × sensor_range))`, with the
//!   greedy-progress factor calibrated against the packet simulator
//!   (≈ 0.75 at the paper's density — see the cross-validation test),
//! - location-update floods cost the population of the relay region
//!   (subarea for fixed; Voronoi cell plus border band for dynamic),
//! - detection latency = failure timeout + half a beacon period.
//!
//! Use it to extend the paper's robot-count axis (the `scalability`
//! example runs fleets of up to 100 robots in milliseconds); trust it
//! only where the cross-validation holds.

use robonet_des::{rng, sampler, NodeId, Scheduler, SimTime};
use robonet_geom::Point;
use robonet_robot::{ReplacementTask, RobotState};
use robonet_wsn::failure::FailureProcess;

use crate::config::ScenarioConfig;
use crate::coord::{self, FlowCtx};
use crate::fault::{FaultInjector, FaultKind, TimedFault};
use crate::harness::{
    field_deployment, region_lifetime_factors, scale_failure_time, FieldDeployment,
};
use crate::obs::timeline::{Checkpoint, HealthMonitor, TelemetrySnapshot};
use crate::obs::{EventSink, NullSink};
use crate::trace::TraceEvent;

/// Greedy geographic routing makes roughly this fraction of the radio
/// range of forward progress per hop at the paper's deployment density
/// (calibrated against the packet simulator).
pub const GREEDY_PROGRESS: f64 = 0.75;

/// Records `ev` into the sink, teeing it through the telemetry health
/// ledger when sampling is active.
fn observe(monitor: &mut Option<HealthMonitor>, sink: &mut dyn EventSink, ev: &TraceEvent) {
    if let Some(m) = monitor.as_mut() {
        m.ingest(ev);
    }
    sink.record(ev);
}

/// Flow-level results, mirroring the packet simulator's [`crate::Summary`]
/// where the models overlap.
#[derive(Debug, Clone, PartialEq)]
pub struct FastSummary {
    /// Failures that occurred.
    pub failures: u64,
    /// Failures repaired.
    pub replacements: u64,
    /// Figure 2: mean travel per failure (m).
    pub avg_travel_per_failure: f64,
    /// Figure 3: mean hops per failure report.
    pub avg_report_hops: f64,
    /// Figure 3: mean hops per repair request (centralized only).
    pub avg_request_hops: Option<f64>,
    /// Figure 4: location-update transmissions per failure.
    pub loc_update_tx_per_failure: f64,
    /// Mean dispatch→installation delay (s).
    pub avg_repair_delay: f64,
    /// Failures whose report exhausted its retry budget and was never
    /// delivered (fault layer; always 0 without an active fault plan).
    pub report_orphans: u64,
}

#[derive(Debug)]
enum Event {
    Fail {
        sensor: u32,
        incarnation: u32,
    },
    /// The failure has been detected and the report reaches a manager.
    /// `attempt` is 1-based; retries only occur under an active fault
    /// plan.
    Report {
        sensor: u32,
        attempt: u32,
    },
    Arrive {
        robot: u32,
        leg: u64,
    },
    /// Periodic telemetry sample (only with a live sink and
    /// [`ScenarioConfig::sample_every`] set — samples exist solely as
    /// trace events at flow level).
    Sample,
    /// A scheduled fault-timeline event fires (index into
    /// [`crate::fault::FaultPlan::timeline`]).
    Timeline {
        index: u32,
    },
}

/// Checks that the flow model can execute `cfg`: it must pass
/// [`ScenarioConfig::validate`], and its fault timeline must hold no
/// [`TimedFault::Partition`] (the model has no per-hop frames to block)
/// and no [`TimedFault::Attrition`] (it models no robot health). Run
/// those on the packet simulator.
fn validate(cfg: &ScenarioConfig) -> Result<(), String> {
    cfg.validate()?;
    let timeline = cfg.faults.iter().flat_map(|plan| &plan.timeline);
    for event in timeline {
        if let TimedFault::Partition { .. } | TimedFault::Attrition { .. } = event {
            return Err(format!(
                "the flow engine cannot execute the {} timeline event at {} s; \
                 use the packet simulator",
                event.label(),
                event.at().as_secs_f64()
            ));
        }
    }
    Ok(())
}

/// Runs the flow-level model for `cfg`.
///
/// ```
/// use robonet_core::{fastsim, Algorithm, ScenarioConfig};
/// // 36 robots, 1800 sensors — milliseconds at flow level.
/// let cfg = ScenarioConfig::paper(6, Algorithm::Dynamic).scaled(8.0);
/// let s = fastsim::run(&cfg);
/// assert!(s.replacements > 0);
/// ```
///
/// # Panics
///
/// Panics if the configuration is invalid or its fault timeline holds
/// an event the flow model cannot execute (see [`run_with_sink`]).
pub fn run(cfg: &ScenarioConfig) -> FastSummary {
    run_with_sink(cfg, &mut NullSink)
}

/// Runs the flow-level model and assembles per-failure repair-lifecycle
/// spans alongside the summary. The flow model emits no `Detected` /
/// `ReportDelivered` events, so the detection, report-transit and
/// dispatch-decision stages of each span are `None`; travel and install
/// are populated from the robot leg events.
///
/// # Panics
///
/// Panics if the configuration is invalid or its fault timeline holds
/// an event the flow model cannot execute (see [`run_with_sink`]).
pub fn run_with_spans(cfg: &ScenarioConfig) -> (FastSummary, crate::obs::SpanReport) {
    let mut sink = crate::obs::SpanSink::new();
    let summary = run_with_sink(cfg, &mut sink);
    (summary, sink.into_report())
}

/// Runs the flow-level model, streaming coarse-grained trace events
/// (`Failure`, `Dispatched`, `RobotLegStarted`/`Ended`, `Replaced`)
/// into `sink`. Packet-level events (`Detected`, `ReportDelivered`,
/// `PacketDropped`, `LocUpdateFlooded`) never appear — the flow model
/// has no packets.
///
/// Fault support is deliberately minimal at flow level: an active
/// [`crate::fault::FaultPlan`] applies its report/dispatch loss
/// probabilities to the (instant) report leg — a lost report retries
/// with the same exponential backoff as the packet simulator until the
/// attempt budget runs out, at which point the failure is counted in
/// [`FastSummary::report_orphans`] and never repaired. Robot breakdowns,
/// slowdowns and location-update loss are *ignored* here (there are no
/// per-packet updates and no modelled robot health); use the packet
/// simulator to study those.
///
/// Of the scheduled [`crate::fault::FaultPlan::timeline`], the flow
/// model executes the subset its abstractions can express:
/// [`TimedFault::Blackout`] (every live sensor inside the region fails
/// at the scheduled time) and [`TimedFault::LossRate`] (the injector's
/// loss probabilities switch). [`TimedFault::Partition`] and
/// [`TimedFault::Attrition`] are rejected with an error naming the
/// event kind — there are no per-hop frames to block and no modelled
/// robot health; use the packet simulator for those. The field comes from
/// [`field_deployment`], as in the packet simulator, so deployment
/// regions apply in full (density weighting and per-region lifetimes)
/// and placement and failure processes match it draw for draw.
///
/// # Panics
///
/// Panics if the configuration is invalid or uses such an event.
pub fn run_with_sink(cfg: &ScenarioConfig, sink: &mut dyn EventSink) -> FastSummary {
    if let Err(e) = validate(cfg) {
        panic!("invalid scenario: {e}");
    }
    let sink_enabled = sink.is_enabled();
    let coordinator = coord::coordinator_for(cfg.algorithm);
    let n_sensors = cfg.n_sensors();
    let n_robots = cfg.n_robots();
    let sensor_range = cfg.ranges.sensor;

    let FieldDeployment {
        bounds,
        sensor_pos: sensors,
        partition,
        robot_pos,
        ..
    } = field_deployment(cfg);
    let lifetime_factor = region_lifetime_factors(cfg, &sensors);

    let sensor_subarea: Vec<usize> = match &partition {
        Some(p) => sensors.iter().map(|&s| p.subarea_of(s)).collect(),
        None => vec![0; n_sensors],
    };
    let subarea_population: Vec<f64> = match &partition {
        Some(p) => {
            let mut counts = vec![0f64; p.len()];
            for &sub in &sensor_subarea {
                counts[sub] += 1.0;
            }
            counts
        }
        None => Vec::new(),
    };

    let mut robots: Vec<RobotState> = robot_pos
        .iter()
        .enumerate()
        .map(|(r, &loc)| RobotState::new(NodeId::new((n_sensors + r) as u32), loc, cfg.robot_speed))
        .collect();
    let mut leg_seq = vec![0u64; n_robots];
    let manager_loc = bounds.center();

    // Same normalization as the packet simulator: an inert plan is no
    // plan at all, so its runs match fault-free runs bit for bit.
    let mut faults = cfg
        .faults
        .clone()
        .filter(|p| !p.is_inert())
        .map(|p| FaultInjector::new(cfg.seed, p));

    let mut failure_proc =
        FailureProcess::new(cfg.mean_lifetime, rng::stream(cfg.seed, "lifetimes"));
    let mut detect_rng = rng::stream(cfg.seed, "detect");
    let mut sched: Scheduler<Event> = Scheduler::with_horizon(SimTime::ZERO + cfg.sim_time);
    let mut incarnation = vec![0u32; n_sensors];
    let mut alive = vec![true; n_sensors];

    // Flow-level telemetry samples exist only as trace events, so with
    // no sink there is nowhere for them to go and the sampler never
    // schedules (summaries are unaffected either way).
    let sampling = if sink_enabled { cfg.sample_every } else { None };
    let mut monitor = sampling.map(|_| HealthMonitor::new());
    if let Some(every) = sampling {
        sched.schedule_at(SimTime::ZERO + every, Event::Sample);
    }

    for i in 0..n_sensors {
        let at = scale_failure_time(
            SimTime::ZERO,
            failure_proc.sample_failure_at(SimTime::ZERO),
            lifetime_factor.get(i).copied().unwrap_or(1.0),
        );
        if at <= sched.horizon() {
            sched.schedule_at(
                at,
                Event::Fail {
                    sensor: i as u32,
                    incarnation: 0,
                },
            );
        }
    }
    if let Some(inj) = faults.as_ref() {
        for (i, event) in inj.plan.timeline.iter().enumerate() {
            sched.schedule_at(
                SimTime::ZERO + event.at(),
                Event::Timeline { index: i as u32 },
            );
        }
    }

    let density = n_sensors as f64 / bounds.area();
    // The closed-form message costs live in the coordinator's flow
    // hooks; this context hands them the precomputed geometry facts.
    let flow = FlowCtx {
        manager_loc,
        manager_range: cfg.ranges.manager,
        hop_unit: GREEDY_PROGRESS * sensor_range,
        n_sensors,
        n_robots,
        area: bounds.area(),
        density,
        update_threshold: cfg.update_threshold,
        subarea_population: &subarea_population,
    };

    let mut out = FastSummary {
        failures: 0,
        replacements: 0,
        avg_travel_per_failure: 0.0,
        avg_report_hops: 0.0,
        avg_request_hops: coordinator.uses_manager().then_some(0.0),
        loc_update_tx_per_failure: 0.0,
        avg_repair_delay: 0.0,
        report_orphans: 0,
    };
    let mut travel_sum = 0.0;
    let mut report_hop_sum = 0.0;
    let mut request_hop_sum = 0.0;
    let mut requests = 0u64;
    let mut update_tx = 0.0;
    let mut delay_sum = 0.0;

    // Cost of the location updates generated by one leg of travel.
    let mut leg_update_cost = |robots: &[RobotState], r: usize, leg_dist: f64| {
        let updates = (leg_dist / cfg.update_threshold).floor() + 1.0; // + arrival
        update_tx += updates * coordinator.flow_update_cost(&flow, r, robots[r].last_update_loc);
    };

    while let Some(ev) = sched.next_event() {
        let now = sched.now();
        match ev {
            Event::Fail {
                sensor,
                incarnation: inc,
            } => {
                let s = sensor as usize;
                if incarnation[s] != inc || !alive[s] {
                    continue;
                }
                alive[s] = false;
                out.failures += 1;
                if sink_enabled {
                    observe(
                        &mut monitor,
                        sink,
                        &TraceEvent::Failure {
                            t: now.as_secs_f64(),
                            sensor: NodeId::new(sensor),
                        },
                    );
                }

                // Detection: timeout + residual beacon phase.
                let detect_delay = cfg.failure_timeout()
                    + sampler::uniform_duration(&mut detect_rng, cfg.beacon_period);
                sched.schedule_at(now + detect_delay, Event::Report { sensor, attempt: 1 });
            }
            Event::Report { sensor, attempt } => {
                let s = sensor as usize;
                let failed_loc = sensors[s];

                // Injected loss on the report (and, for manager
                // algorithms, the follow-up dispatch request): the
                // whole instant chain fails and the guardian's backoff
                // timer re-drives it, until the budget runs out and the
                // failure becomes an explicit orphan.
                if let Some(inj) = faults.as_mut() {
                    let lost = inj.drop_message(FaultKind::ReportLoss)
                        || (coordinator.uses_manager()
                            && inj.drop_message(FaultKind::DispatchLoss));
                    if lost {
                        if attempt >= inj.plan.max_report_attempts {
                            out.report_orphans += 1;
                        } else {
                            let backoff = FaultInjector::report_backoff(cfg.report_retry, attempt);
                            sched.schedule_at(
                                now + backoff,
                                Event::Report {
                                    sensor,
                                    attempt: attempt + 1,
                                },
                            );
                        }
                        continue;
                    }
                }

                // Report + dispatch (instant at flow level): the
                // coordinator selects the robot and prices the report
                // (and request) legs.
                let locs: Vec<Point> = robots.iter().map(|rb| rb.position_at(now)).collect();
                let fd = coordinator.flow_report(&flow, failed_loc, sensor_subarea[s], &locs);
                report_hop_sum += fd.report_hops;
                if let Some(rq) = fd.request_hops {
                    request_hop_sum += rq;
                    requests += 1;
                }
                let r = fd.robot;

                let task = ReplacementTask {
                    failed: NodeId::new(sensor),
                    loc: failed_loc,
                    dispatched_at: now,
                };
                let leg = robots[r].enqueue(task, now);
                if sink_enabled {
                    observe(
                        &mut monitor,
                        sink,
                        &TraceEvent::Dispatched {
                            t: now.as_secs_f64(),
                            robot: robots[r].id,
                            failed: NodeId::new(sensor),
                            departed: leg.is_some(),
                        },
                    );
                }
                if let Some(leg) = leg {
                    leg_seq[r] += 1;
                    if sink_enabled {
                        sink.record(&TraceEvent::RobotLegStarted {
                            t: leg.start().as_secs_f64(),
                            robot: robots[r].id,
                            failed: NodeId::new(sensor),
                            from: leg.from(),
                            to: leg.to(),
                        });
                    }
                    leg_update_cost(&robots, r, leg.distance());
                    robots[r].last_update_loc = leg.to();
                    sched.schedule_at(
                        leg.arrival(),
                        Event::Arrive {
                            robot: r as u32,
                            leg: leg_seq[r],
                        },
                    );
                }
            }
            Event::Arrive { robot, leg } => {
                let r = robot as usize;
                if leg_seq[r] != leg {
                    continue;
                }
                let travel = robots[r]
                    .current_leg()
                    .expect("arriving robot has a leg")
                    .distance();
                let (task, next) = robots[r].arrive(now);
                if sink_enabled {
                    sink.record(&TraceEvent::RobotLegEnded {
                        t: now.as_secs_f64(),
                        robot: robots[r].id,
                        travel,
                    });
                    observe(
                        &mut monitor,
                        sink,
                        &TraceEvent::Replaced {
                            t: now.as_secs_f64(),
                            robot: robots[r].id,
                            sensor: task.failed,
                            travel,
                            loc: task.loc,
                        },
                    );
                }
                let s = task.failed.index();
                alive[s] = true;
                incarnation[s] += 1;
                out.replacements += 1;
                travel_sum += travel;
                delay_sum += now.duration_since(task.dispatched_at).as_secs_f64();
                let at = scale_failure_time(
                    now,
                    failure_proc.sample_failure_at(now),
                    lifetime_factor.get(s).copied().unwrap_or(1.0),
                );
                if at <= sched.horizon() {
                    sched.schedule_at(
                        at,
                        Event::Fail {
                            sensor: s as u32,
                            incarnation: incarnation[s],
                        },
                    );
                }
                if let Some(next_leg) = next {
                    leg_seq[r] += 1;
                    if sink_enabled {
                        sink.record(&TraceEvent::RobotLegStarted {
                            t: next_leg.start().as_secs_f64(),
                            robot: robots[r].id,
                            failed: robots[r]
                                .current_task()
                                .expect("departing robot has a task")
                                .failed,
                            from: next_leg.from(),
                            to: next_leg.to(),
                        });
                    }
                    leg_update_cost(&robots, r, next_leg.distance());
                    robots[r].last_update_loc = next_leg.to();
                    sched.schedule_at(
                        next_leg.arrival(),
                        Event::Arrive {
                            robot: r as u32,
                            leg: leg_seq[r],
                        },
                    );
                }
            }
            Event::Timeline { index } => {
                let Some(inj) = faults.as_mut() else {
                    continue;
                };
                match inj.plan.timeline[index as usize].clone() {
                    TimedFault::Blackout { region, .. } => {
                        // Re-queue the kills as ordinary Fail events at
                        // `now` so they take the exact detection path a
                        // natural failure takes.
                        for (s, &alive_now) in alive.iter().enumerate() {
                            if alive_now && region.contains(sensors[s]) {
                                sched.schedule_at(
                                    now,
                                    Event::Fail {
                                        sensor: s as u32,
                                        incarnation: incarnation[s],
                                    },
                                );
                            }
                        }
                    }
                    TimedFault::LossRate {
                        report,
                        dispatch,
                        update,
                        ..
                    } => inj.set_loss_rates(report, dispatch, update),
                    TimedFault::Partition { .. } | TimedFault::Attrition { .. } => {
                        unreachable!("rejected by validate")
                    }
                }
            }
            Event::Sample => {
                let every = sampling.expect("Sample events only exist when sampling");
                sched.schedule_after(every, Event::Sample);
                let t = now.as_secs_f64();
                let alive_count = alive.iter().filter(|&&a| a).count() as u32;
                let coverage = robonet_wsn::coverage::coverage_fraction(
                    &bounds,
                    &sensors,
                    &alive,
                    robonet_wsn::coverage::SENSING_RANGE,
                    robonet_wsn::coverage::GRID_RESOLUTION,
                );
                let ledger = monitor.as_ref().expect("sampling implies a monitor");
                let stages = ledger.stage_counts();
                let sample = TelemetrySnapshot {
                    alive: alive_count,
                    down: n_sensors as u32 - alive_count,
                    failures: out.failures,
                    replaced: out.replacements,
                    coverage,
                    open_failure: stages[0],
                    open_detected: stages[1],
                    open_reported: stages[2],
                    open_dispatched: stages[3],
                    robot_queues: robots.iter().map(|rb| rb.queue_len() as u32).collect(),
                    robot_busy: robots.iter().map(|rb| rb.current_leg().is_some()).collect(),
                    // The flow model has no packets and no shadow
                    // in-flight ledger.
                    in_flight: 0,
                    sched_queue: sched.pending() as u32,
                };
                sink.record(&TraceEvent::TelemetrySample { t, sample });
                let violations = ledger.check(
                    t,
                    &Checkpoint {
                        failures: out.failures,
                        replacements: out.replacements,
                        open_spans: None,
                        robots_down: 0,
                    },
                );
                for violation in violations {
                    sink.record(&violation);
                }
            }
        }
    }

    let reports = out.failures.max(1) as f64;
    let replaced = out.replacements.max(1) as f64;
    out.avg_travel_per_failure = travel_sum / replaced;
    out.avg_report_hops = report_hop_sum / reports;
    if let Some(rq) = out.avg_request_hops.as_mut() {
        *rq = request_hop_sum / requests.max(1) as f64;
    }
    out.loc_update_tx_per_failure = update_tx / replaced;
    out.avg_repair_delay = delay_sum / replaced;
    sink.finish();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Algorithm, PartitionKind};
    use crate::fault::{FaultPlan, TimedFault};

    #[test]
    fn inert_fault_plan_matches_fault_free_exactly() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        let mut with_inert = cfg.clone();
        with_inert.faults = Some(FaultPlan::default());
        assert_eq!(run(&cfg), run(&with_inert));
    }

    #[test]
    fn report_loss_is_deterministic_and_accounted() {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Centralized)
            .with_seed(5)
            .scaled(16.0);
        // An extreme plan so orphans actually occur in a short run.
        let mut plan = FaultPlan::message_loss(0.9);
        plan.max_report_attempts = 2;
        cfg.faults = Some(plan);
        let a = run(&cfg);
        assert_eq!(a, run(&cfg), "same seed + plan must reproduce exactly");
        assert!(a.report_orphans > 0, "90% loss with 2 attempts must orphan");
        assert!(
            a.replacements + a.report_orphans <= a.failures,
            "every failure is replaced, orphaned, or still in flight"
        );
    }

    #[test]
    fn moderate_loss_with_retries_loses_nothing_silently() {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(7)
            .scaled(16.0);
        cfg.faults = Some(FaultPlan::message_loss(0.10));
        let s = run(&cfg);
        let free = {
            let mut c = cfg.clone();
            c.faults = None;
            run(&c)
        };
        // 10% loss under a 6-attempt budget: orphaning a report needs 6
        // consecutive losses (p = 1e-6), so recovery should keep the
        // replacement count at the fault-free level.
        assert_eq!(s.report_orphans, 0);
        // Retry delays shift when replaced sensors fail again, so the
        // totals drift; the *repair ratio* is what must hold up.
        let ratio = |x: &FastSummary| x.replacements as f64 / x.failures as f64;
        assert!(
            ratio(&s) >= 0.95 * ratio(&free),
            "retries must recover nearly all lost reports: {:.3} vs {:.3}",
            ratio(&s),
            ratio(&free)
        );
    }

    #[test]
    fn cross_validates_against_packet_simulator() {
        // The flow model must land near the packet simulator for the
        // figures' primary metrics at a configuration both can run.
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        let fast = run(&cfg);
        let full = crate::Simulation::run(cfg).metrics.summary();
        let travel_err = (fast.avg_travel_per_failure - full.avg_travel_per_failure).abs()
            / full.avg_travel_per_failure;
        assert!(travel_err < 0.15, "travel error {travel_err:.2}");
        let hop_err = (fast.avg_report_hops - full.avg_report_hops).abs() / full.avg_report_hops;
        assert!(hop_err < 0.40, "hop error {hop_err:.2}");
        let upd_err = (fast.loc_update_tx_per_failure - full.loc_update_tx_per_failure).abs()
            / full.loc_update_tx_per_failure;
        assert!(upd_err < 0.40, "update-cost error {upd_err:.2}");
    }

    #[test]
    fn preserves_figure_orderings() {
        let run_alg = |alg| run(&ScenarioConfig::paper(3, alg).with_seed(2).scaled(8.0));
        let fixed = run_alg(Algorithm::Fixed(PartitionKind::Square));
        let dynamic = run_alg(Algorithm::Dynamic);
        let centralized = run_alg(Algorithm::Centralized);
        // Fig. 2 ordering.
        assert!(fixed.avg_travel_per_failure >= dynamic.avg_travel_per_failure * 0.98);
        // Fig. 4 ordering.
        assert!(centralized.loc_update_tx_per_failure < fixed.loc_update_tx_per_failure);
        assert!(fixed.loc_update_tx_per_failure < dynamic.loc_update_tx_per_failure);
        // Fig. 3: distributed reports are short.
        assert!(dynamic.avg_report_hops < 5.0);
    }

    #[test]
    fn centralized_hops_scale_with_k() {
        let small = run(&ScenarioConfig::paper(2, Algorithm::Centralized).scaled(8.0));
        let large = run(&ScenarioConfig::paper(5, Algorithm::Centralized).scaled(8.0));
        assert!(large.avg_report_hops > small.avg_report_hops * 1.5);
    }

    #[test]
    fn is_deterministic() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(3)
            .scaled(16.0);
        assert_eq!(run(&cfg), run(&cfg));
    }

    #[test]
    fn sink_captures_flow_story_without_changing_results() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(3)
            .scaled(16.0);
        let plain = run(&cfg);
        let mut sink = crate::obs::RingSink::with_capacity(1_000_000);
        let traced = run_with_sink(&cfg, &mut sink);
        assert_eq!(plain, traced, "observing the run must not change it");
        let trace = sink.take_trace().expect("ring sink holds a trace");
        let replaced = trace
            .events()
            .filter(|e| matches!(e, TraceEvent::Replaced { .. }))
            .count();
        assert_eq!(replaced as u64, traced.replacements);
        let legs_started = trace
            .events()
            .filter(|e| matches!(e, TraceEvent::RobotLegStarted { .. }))
            .count();
        let legs_ended = trace
            .events()
            .filter(|e| matches!(e, TraceEvent::RobotLegEnded { .. }))
            .count();
        // Legs in flight when the horizon closes never arrive.
        assert!(legs_started >= legs_ended, "{legs_started} < {legs_ended}");
        assert_eq!(legs_ended, replaced, "flow legs end at a replacement");
    }

    #[test]
    fn spans_decompose_flow_level_repairs() {
        let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(3)
            .scaled(16.0);
        let plain = run(&cfg);
        let (summary, report) = run_with_spans(&cfg);
        assert_eq!(plain, summary, "span assembly must not change results");
        assert_eq!(report.replacements(), summary.replacements);
        assert_eq!(report.failures, summary.failures);
        assert_eq!(report.out_of_order, 0);
        for span in report.spans.iter() {
            // No packets at flow level: the network stages are absent.
            assert_eq!(span.detection, None);
            assert_eq!(span.report_transit, None);
            assert_eq!(span.dispatch_decision, None);
            assert!(span.travel.is_some(), "legs drive the travel stage");
            assert!(span.total() >= 0.0);
        }
        // Failures still in flight at the horizon are orphans.
        assert_eq!(
            report.orphans.len() as u64,
            summary.failures - summary.replacements
        );
    }

    #[test]
    fn blackout_timeline_fires_at_flow_level() {
        use robonet_des::SimDuration;
        use robonet_geom::Point;
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        // Long lifetimes: failures then track the injected blackout,
        // not fleet throughput.
        cfg.mean_lifetime = SimDuration::from_secs(2.0 * cfg.sim_time.as_secs_f64());
        let base = run(&cfg);
        let side = cfg.side();
        let quadrant = robonet_geom::ConvexPolygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(side / 2.0, 0.0),
            Point::new(side / 2.0, side / 2.0),
            Point::new(0.0, side / 2.0),
        ])
        .unwrap();
        cfg.faults = Some(FaultPlan {
            timeline: vec![TimedFault::Blackout {
                at: SimDuration::from_secs(cfg.sim_time.as_secs_f64() / 2.0),
                region: quadrant,
            }],
            ..FaultPlan::default()
        });
        let o = run(&cfg);
        assert!(
            o.failures > base.failures + 30,
            "blackout failures {} vs base {}",
            o.failures,
            base.failures
        );
        assert_eq!(run(&cfg), o, "timeline runs stay deterministic");
    }

    /// The standard flow-test scenario with a one-event fault timeline.
    fn with_timeline_event(event: impl FnOnce(f64) -> TimedFault) -> ScenarioConfig {
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        cfg.faults = Some(FaultPlan {
            timeline: vec![event(cfg.side())],
            ..FaultPlan::default()
        });
        cfg
    }

    #[test]
    #[should_panic(expected = "the flow engine cannot execute the partition timeline event")]
    fn partition_timeline_is_rejected() {
        use robonet_des::SimDuration;
        let cfg = with_timeline_event(|side| {
            let half = |x0: f64, x1: f64| {
                robonet_geom::ConvexPolygon::new(vec![
                    Point::new(x0, 0.0),
                    Point::new(x1, 0.0),
                    Point::new(x1, side),
                    Point::new(x0, side),
                ])
                .unwrap()
            };
            TimedFault::Partition {
                from: SimDuration::from_secs(100.0),
                until: SimDuration::from_secs(200.0),
                a: half(0.0, side / 2.0),
                b: half(side / 2.0, side),
            }
        });
        run(&cfg);
    }

    #[test]
    #[should_panic(expected = "the flow engine cannot execute the attrition timeline event")]
    fn attrition_timeline_is_rejected() {
        let cfg = with_timeline_event(|_| TimedFault::Attrition {
            at: robonet_des::SimDuration::from_secs(100.0),
            robots: 1,
        });
        run(&cfg);
    }

    #[test]
    fn loss_rate_timeline_switches_probabilities() {
        use robonet_des::SimDuration;
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        cfg.faults = Some(FaultPlan {
            max_report_attempts: 2,
            timeline: vec![TimedFault::LossRate {
                at: SimDuration::from_secs(cfg.sim_time.as_secs_f64() / 2.0),
                report: 0.9,
                dispatch: 0.0,
                update: 0.0,
            }],
            ..FaultPlan::default()
        });
        let o = run(&cfg);
        assert!(
            o.report_orphans > 0,
            "90% loss with 2 attempts in the second half must orphan"
        );
        let free = {
            let mut c = cfg.clone();
            c.faults = None;
            run(&c)
        };
        assert_eq!(free.report_orphans, 0, "fault-free flow runs never orphan");
    }

    #[test]
    fn regions_shift_flow_level_failures() {
        use crate::config::DeployRegion;
        use robonet_des::SimDuration;
        use robonet_geom::Point;
        let mut cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
            .with_seed(5)
            .scaled(16.0);
        cfg.mean_lifetime = SimDuration::from_secs(2.0 * cfg.sim_time.as_secs_f64());
        let base = run(&cfg);
        let side = cfg.side();
        cfg.regions.push(DeployRegion {
            poly: robonet_geom::ConvexPolygon::new(vec![
                Point::new(0.0, 0.0),
                Point::new(side / 2.0, 0.0),
                Point::new(side / 2.0, side),
                Point::new(0.0, side),
            ])
            .unwrap(),
            density: 1.0,
            mean_lifetime: Some(SimDuration::from_secs(
                cfg.mean_lifetime.as_secs_f64() / 4.0,
            )),
        });
        let o = run(&cfg);
        assert!(
            o.failures as f64 > 1.5 * base.failures as f64,
            "short-lived region must raise flow failures: {} vs {}",
            o.failures,
            base.failures
        );
    }

    #[test]
    fn large_fleet_runs_fast() {
        // 100 robots, 5000 sensors — far beyond packet-level reach.
        let cfg = ScenarioConfig::paper(10, Algorithm::Dynamic)
            .with_seed(1)
            .scaled(8.0);
        let fast = run(&cfg);
        assert!(fast.failures > 1000);
        assert!(fast.replacements as f64 > 0.9 * fast.failures as f64);
    }
}
