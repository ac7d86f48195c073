//! Experiment metrics: exactly what the paper's evaluation reports.

use robonet_radio::{TrafficClass, TxStats};

use crate::obs::MetricsRegistry;
use crate::trace::DropReason;

/// Packet losses split by [`DropReason`] — the per-reason view of what
/// used to be one lumped `packets_dropped` counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DropBreakdown {
    /// Drops because the hop budget ran out.
    pub ttl_expired: u64,
    /// Drops because a node on the path had no usable neighbours.
    pub no_neighbors: u64,
    /// Drops because the MAC exhausted its retransmission attempts.
    pub mac_give_up: u64,
}

impl DropBreakdown {
    /// Total drops across all reasons (the old lumped counter).
    pub fn total(&self) -> u64 {
        self.ttl_expired + self.no_neighbors + self.mac_give_up
    }

    /// Increments the count for `reason`.
    pub fn record(&mut self, reason: DropReason) {
        match reason {
            DropReason::TtlExpired => self.ttl_expired += 1,
            DropReason::NoNeighbors => self.no_neighbors += 1,
            DropReason::MacGiveUp => self.mac_give_up += 1,
        }
    }

    /// Adds `other`'s counts into `self` (order-independent).
    pub fn merge(&mut self, other: &DropBreakdown) {
        self.ttl_expired += other.ttl_expired;
        self.no_neighbors += other.no_neighbors;
        self.mac_give_up += other.mac_give_up;
    }
}

impl std::fmt::Display for DropBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (ttl {}, no-neighbor {}, mac {})",
            self.total(),
            self.ttl_expired,
            self.no_neighbors,
            self.mac_give_up
        )
    }
}

/// Counters for injected faults and the recovery protocol's responses.
/// All-zero (and absent from output) in fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultRecoveryStats {
    /// Failure reports swallowed by injected link loss.
    pub report_drops: u64,
    /// Repair requests swallowed by injected link loss.
    pub dispatch_drops: u64,
    /// Location updates swallowed by injected link loss.
    pub update_drops: u64,
    /// Guardian report retransmissions (attempt ≥ 2).
    pub report_retries: u64,
    /// Failures whose guardian exhausted its report attempts — these
    /// sensors stay dead, by protocol decision rather than silence.
    pub reports_abandoned: u64,
    /// Manager dispatches that timed out awaiting completion.
    pub dispatch_timeouts: u64,
    /// Re-dispatches issued after a timeout.
    pub redispatches: u64,
    /// Failures the manager gave up re-dispatching.
    pub dispatches_abandoned: u64,
    /// Robots that broke down (stopped dead).
    pub robot_breakdowns: u64,
    /// Robots degraded to a slower speed.
    pub robot_slowdowns: u64,
    /// Robots repaired in place after a breakdown.
    pub robot_repairs: u64,
    /// Takeover declarations by peers of a silent robot.
    pub takeovers: u64,
}

impl FaultRecoveryStats {
    /// True when nothing was injected and nothing recovered — the
    /// fault-free case, where outputs omit these counters entirely.
    pub fn is_empty(&self) -> bool {
        *self == FaultRecoveryStats::default()
    }

    /// Adds `other`'s counters into `self` (order-independent).
    pub fn merge(&mut self, other: &FaultRecoveryStats) {
        self.report_drops += other.report_drops;
        self.dispatch_drops += other.dispatch_drops;
        self.update_drops += other.update_drops;
        self.report_retries += other.report_retries;
        self.reports_abandoned += other.reports_abandoned;
        self.dispatch_timeouts += other.dispatch_timeouts;
        self.redispatches += other.redispatches;
        self.dispatches_abandoned += other.dispatches_abandoned;
        self.robot_breakdowns += other.robot_breakdowns;
        self.robot_slowdowns += other.robot_slowdowns;
        self.robot_repairs += other.robot_repairs;
        self.takeovers += other.takeovers;
    }
}

impl std::fmt::Display for FaultRecoveryStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "drops {}/{}/{} (report/dispatch/update), retries {}, \
             abandoned reports {}, timeouts {}, redispatches {}, \
             abandoned dispatches {}, breakdowns {}, slowdowns {}, \
             repairs {}, takeovers {}",
            self.report_drops,
            self.dispatch_drops,
            self.update_drops,
            self.report_retries,
            self.reports_abandoned,
            self.dispatch_timeouts,
            self.redispatches,
            self.dispatches_abandoned,
            self.robot_breakdowns,
            self.robot_slowdowns,
            self.robot_repairs,
            self.takeovers
        )
    }
}

/// Raw counters and samples collected during one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics {
    /// Sensor failures that occurred.
    pub failures_occurred: u64,
    /// Failure reports originated by guardians (incl. retries).
    pub reports_sent: u64,
    /// Failure reports that reached a manager.
    pub reports_delivered: u64,
    /// Repair requests sent by the central manager (centralized only).
    pub requests_sent: u64,
    /// Repair requests that reached their robot.
    pub requests_delivered: u64,
    /// Replacements completed by robots.
    pub replacements: u64,
    /// Robot arrivals at nodes that turned out to be alive (false
    /// detections).
    pub spurious_replacements: u64,
    /// Packets dropped, broken down by reason (TTL, no neighbours, MAC
    /// give-up).
    pub packets_dropped: DropBreakdown,
    /// Distance of the leg that served each completed replacement, in
    /// metres — Figure 2's samples.
    pub travel_per_task: Vec<f64>,
    /// Hop count of each delivered failure report — Figure 3.
    pub report_hops: Vec<u32>,
    /// Hop count of each delivered repair request — Figure 3
    /// (centralized only).
    pub request_hops: Vec<u32>,
    /// Dispatch-to-installation delay of each replacement, in seconds.
    pub repair_delay: Vec<f64>,
    /// Robot odometer totals at the end of the run, in metres.
    pub robot_odometers: Vec<f64>,
    /// Replacements completed per robot (load balance).
    pub tasks_per_robot: Vec<u64>,
    /// Fraction of sensors whose `myrobot` is truly the closest robot,
    /// sampled at the end of the run (dynamic-algorithm fidelity).
    pub myrobot_accuracy: f64,
    /// MAC-level transmission statistics snapshot.
    pub tx: TxStats,
    /// Periodic telemetry snapshots and the health monitor's invariant
    /// violations, the same timeline `robonet timeline` rebuilds from
    /// the trace — populated only when the scenario sets
    /// [`sample_every`](crate::config::ScenarioConfig::sample_every).
    pub telemetry_timeline: crate::obs::timeline::Timeline,
    /// `telemetry_timeline.violations.len()`, kept because the
    /// benchmark reads it (always 0 for a healthy build; non-zero means
    /// the simulation's counters drifted from its own event stream).
    pub invariant_violations: u64,
    /// Injected-fault and recovery-protocol counters (all zero — and
    /// omitted from output — when no faults were injected).
    pub faults: FaultRecoveryStats,
    /// End-of-run snapshot of the per-subsystem counter/histogram
    /// registry (`des.scheduler.*`, `radio.mac.*`, `net.routing.*`,
    /// `coord.<algorithm>.*`) — the run manifest embeds this.
    pub counters: MetricsRegistry,
}

/// Sample mean, or `None` for an empty slice.
pub fn mean_f64(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().sum::<f64>() / samples.len() as f64)
    }
}

/// Sample standard deviation (n-1), or `None` with fewer than 2 samples.
pub fn stddev_f64(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let m = mean_f64(samples)?;
    let var = samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (samples.len() - 1) as f64;
    Some(var.sqrt())
}

/// Linear-interpolated percentile (`p` in `[0, 1]`) of unsorted samples,
/// or `None` for an empty slice.
///
/// Selects the two bracketing order statistics with quickselect
/// (`select_nth_unstable_by`) instead of sorting a copy — O(n) rather
/// than O(n log n) on the summary hot path — and interpolates exactly
/// as the sorted version did, so results stay bit-identical.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or a sample is NaN.
///
/// ```
/// use robonet_core::metrics::percentile;
/// let delays = [12.0, 7.0, 30.0, 9.0, 15.0];
/// assert_eq!(percentile(&delays, 0.5), Some(12.0));
/// ```
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&p), "percentile must be in [0, 1]");
    if samples.is_empty() {
        return None;
    }
    let mut scratch = samples.to_vec();
    let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN sample");
    let rank = p * (scratch.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    let (_, &mut lo_val, rest) = scratch.select_nth_unstable_by(lo, cmp);
    // The `hi`-th order statistic is either the same element or the
    // minimum of everything that partitioned to the right of `lo`.
    let hi_val = if hi == lo {
        lo_val
    } else {
        *rest
            .iter()
            .min_by(|a, b| cmp(a, b))
            .expect("hi > lo implies a non-empty right partition")
    };
    Some(lo_val * (1.0 - frac) + hi_val * frac)
}

/// Mean of integer hop counts.
pub fn mean_u32(samples: &[u32]) -> Option<f64> {
    if samples.is_empty() {
        None
    } else {
        Some(samples.iter().map(|&x| f64::from(x)).sum::<f64>() / samples.len() as f64)
    }
}

/// Welch's t-statistic for the difference of two sample means, and an
/// approximate two-sided significance verdict at the 5% level (using the
/// normal critical value 1.96 — adequate for the ≥ 20-sample comparisons
/// the benches make).
///
/// Returns `None` when either sample has fewer than two values or zero
/// variance in both.
///
/// ```
/// use robonet_core::metrics::welch_t;
/// let a = [10.0, 10.5, 9.5, 10.2];
/// let b = [15.0, 15.5, 14.5, 15.2];
/// let r = welch_t(&a, &b).unwrap();
/// assert!(r.significant_5pct && r.mean_diff < 0.0);
/// ```
pub fn welch_t(a: &[f64], b: &[f64]) -> Option<WelchResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (mean_f64(a)?, mean_f64(b)?);
    let (sa, sb) = (stddev_f64(a)?, stddev_f64(b)?);
    let va = sa * sa / a.len() as f64;
    let vb = sb * sb / b.len() as f64;
    let se = (va + vb).sqrt();
    if se == 0.0 {
        return None;
    }
    let t = (ma - mb) / se;
    Some(WelchResult {
        t,
        mean_diff: ma - mb,
        significant_5pct: t.abs() > 1.96,
    })
}

/// Outcome of [`welch_t`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WelchResult {
    /// The t-statistic (positive when the first sample's mean is
    /// larger).
    pub t: f64,
    /// Difference of means (first minus second).
    pub mean_diff: f64,
    /// Whether the difference clears the ~5% two-sided level.
    pub significant_5pct: bool,
}

impl Metrics {
    /// Condenses the run into the per-figure numbers the paper reports.
    pub fn summary(&self) -> Summary {
        let failures = self.replacements.max(1);
        Summary {
            failures_occurred: self.failures_occurred,
            replacements: self.replacements,
            avg_travel_per_failure: mean_f64(&self.travel_per_task).unwrap_or(0.0),
            avg_report_hops: mean_u32(&self.report_hops).unwrap_or(0.0),
            avg_request_hops: mean_u32(&self.request_hops),
            loc_update_tx_per_failure: self.tx.data_tx(TrafficClass::LocationUpdate) as f64
                / failures as f64,
            report_delivery_ratio: if self.reports_sent == 0 {
                1.0
            } else {
                self.reports_delivered as f64 / self.reports_sent as f64
            },
            avg_repair_delay: mean_f64(&self.repair_delay).unwrap_or(0.0),
            p95_repair_delay: percentile(&self.repair_delay, 0.95).unwrap_or(0.0),
            total_travel: self.robot_odometers.iter().sum(),
            myrobot_accuracy: self.myrobot_accuracy,
            packets_dropped: self.packets_dropped,
        }
    }
}

/// The per-run numbers behind the paper's Figures 2–4.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Failures that occurred during the run.
    pub failures_occurred: u64,
    /// Failures repaired.
    pub replacements: u64,
    /// Figure 2: average robot travelling distance per failure (m).
    pub avg_travel_per_failure: f64,
    /// Figure 3: average hops of a failure report.
    pub avg_report_hops: f64,
    /// Figure 3: average hops of a repair request (centralized only).
    pub avg_request_hops: Option<f64>,
    /// Figure 4: location-update transmissions per failure.
    pub loc_update_tx_per_failure: f64,
    /// Delivery ratio of failure reports (paper: 100%).
    pub report_delivery_ratio: f64,
    /// Mean dispatch→installation delay (s).
    pub avg_repair_delay: f64,
    /// 95th-percentile dispatch→installation delay (s) — the tail a
    /// coverage-availability SLO would care about.
    pub p95_repair_delay: f64,
    /// Total metres travelled by the fleet.
    pub total_travel: f64,
    /// End-of-run fraction of sensors pointing at their true closest
    /// robot.
    pub myrobot_accuracy: f64,
    /// Packets lost, by reason.
    pub packets_dropped: DropBreakdown,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_helpers() {
        assert_eq!(mean_f64(&[]), None);
        assert_eq!(mean_f64(&[2.0, 4.0]), Some(3.0));
        assert_eq!(stddev_f64(&[1.0]), None);
        let sd = stddev_f64(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert!((sd - 2.138089935).abs() < 1e-6);
        assert_eq!(mean_u32(&[1, 2, 3]), Some(2.0));
        assert_eq!(mean_u32(&[]), None);
    }

    #[test]
    fn summary_divides_by_replacements() {
        let mut m = Metrics {
            replacements: 4,
            travel_per_task: vec![100.0, 60.0, 140.0, 100.0],
            report_hops: vec![2, 2, 3, 1],
            reports_sent: 4,
            reports_delivered: 4,
            ..Metrics::default()
        };
        m.tx.class_mut(TrafficClass::LocationUpdate).data_tx = 400;
        let s = m.summary();
        assert_eq!(s.avg_travel_per_failure, 100.0);
        assert_eq!(s.avg_report_hops, 2.0);
        assert_eq!(s.loc_update_tx_per_failure, 100.0);
        assert_eq!(s.report_delivery_ratio, 1.0);
        assert_eq!(s.avg_request_hops, None, "no requests in distributed runs");
    }

    #[test]
    fn percentile_interpolates() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[7.0], 0.95), Some(7.0));
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 1.0), Some(5.0));
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
        assert_eq!(percentile(&xs, 0.25), Some(2.0));
        // Unsorted input works too.
        assert_eq!(percentile(&[5.0, 1.0, 3.0, 2.0, 4.0], 0.5), Some(3.0));
    }

    #[test]
    fn welch_t_detects_separation() {
        let a = [10.0, 11.0, 9.5, 10.5, 10.2, 9.8];
        let b = [14.0, 15.0, 14.5, 15.5, 14.2, 14.8];
        let r = welch_t(&a, &b).unwrap();
        assert!(r.t < -1.96, "clearly separated samples: t = {}", r.t);
        assert!(r.significant_5pct);
        assert!(r.mean_diff < 0.0);
        // Overlapping samples are not significant.
        let c = [10.0, 12.0, 9.0, 13.0, 11.0];
        let d = [10.5, 11.5, 9.5, 12.5, 11.2];
        let r2 = welch_t(&c, &d).unwrap();
        assert!(!r2.significant_5pct, "t = {}", r2.t);
        // Degenerate inputs.
        assert!(welch_t(&[1.0], &a).is_none());
        assert!(welch_t(&[2.0, 2.0], &[2.0, 2.0]).is_none());
    }

    #[test]
    #[should_panic(expected = "percentile must be in")]
    fn percentile_rejects_bad_p() {
        let _ = percentile(&[1.0], 1.5);
    }

    #[test]
    fn drop_breakdown_records_and_totals() {
        let mut d = DropBreakdown::default();
        d.record(DropReason::TtlExpired);
        d.record(DropReason::TtlExpired);
        d.record(DropReason::NoNeighbors);
        d.record(DropReason::MacGiveUp);
        assert_eq!(d.ttl_expired, 2);
        assert_eq!(d.no_neighbors, 1);
        assert_eq!(d.mac_give_up, 1);
        assert_eq!(d.total(), 4);
        assert_eq!(d.to_string(), "4 (ttl 2, no-neighbor 1, mac 1)");
        let m = Metrics {
            packets_dropped: d,
            ..Metrics::default()
        };
        assert_eq!(m.summary().packets_dropped, d, "breakdown reaches Summary");
    }

    #[test]
    fn summary_handles_empty_run() {
        let s = Metrics::default().summary();
        assert_eq!(s.replacements, 0);
        assert_eq!(s.avg_travel_per_failure, 0.0);
        assert_eq!(s.report_delivery_ratio, 1.0, "vacuous delivery is perfect");
    }
}
