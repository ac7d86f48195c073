//! Host-noise diagnostics recorded beside every timed sample: this
//! thread's CPU time and run-queue wait, the host's steal ticks and load average.
//! They are recorded only; no sample is ever dropped because of them.
//! Missing `/proc` files read as 0.

use std::fs;

use robonet_core::obs::json::ObjectWriter;

/// Cumulative counters read at one instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Probe {
    /// Nanoseconds this thread has run on a CPU
    /// (`/proc/thread-self/schedstat`, first field).
    pub cpu_ns: u64,
    /// Nanoseconds this thread has waited on a run queue
    /// (`/proc/thread-self/schedstat`, second field).
    pub runq_wait_ns: u64,
    /// Host-wide steal ticks (`/proc/stat`, the `cpu` line's eighth
    /// counter).
    pub steal_ticks: u64,
    /// Minor page faults of this thread (`/proc/thread-self/stat`).
    pub minor_faults: u64,
}

impl Probe {
    /// Reads the counters now.
    pub fn now() -> Probe {
        let schedstat = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
        let field = |i: usize| -> u64 {
            schedstat
                .split_whitespace()
                .nth(i)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        let (cpu_ns, runq_wait_ns) = (field(0), field(1));
        let steal_ticks = fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("cpu "))?;
                line.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        // Field 10 of `stat`, counted after the parenthesised command
        // name, which may itself contain spaces.
        let minor_faults = fs::read_to_string("/proc/thread-self/stat")
            .ok()
            .and_then(|s| {
                let rest = &s[s.rfind(')')? + 1..];
                rest.split_whitespace().nth(7)?.parse().ok()
            })
            .unwrap_or(0);
        Probe {
            cpu_ns,
            runq_wait_ns,
            steal_ticks,
            minor_faults,
        }
    }
}

/// One-minute load average, 0 when unreadable.
pub fn loadavg() -> f64 {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Peak resident set size of this process in MB (`VmHWM`), 0 when
/// unreadable.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// One timed sample with the noise seen while it ran.
#[derive(Debug, Clone)]
pub struct Sample {
    /// `setup`, `run`, `run.traced` or `analyze`.
    pub phase: &'static str,
    /// Wall seconds measured.
    pub seconds: f64,
    /// CPU seconds this thread ran during the sample.
    pub cpu_s: f64,
    /// Run-queue wait during the sample, ms.
    pub runq_wait_ms: f64,
    /// Steal ticks during the sample.
    pub steal_ticks: u64,
    /// Minor page faults during the sample.
    pub minor_faults: u64,
    /// One-minute load average at its end.
    pub loadavg: f64,
}

impl Sample {
    /// A sample of `seconds` that started at `start`.
    pub fn since(phase: &'static str, seconds: f64, start: Probe) -> Sample {
        let end = Probe::now();
        Sample {
            phase,
            seconds,
            cpu_s: end.cpu_ns.saturating_sub(start.cpu_ns) as f64 / 1e9,
            runq_wait_ms: end.runq_wait_ns.saturating_sub(start.runq_wait_ns) as f64 / 1e6,
            steal_ticks: end.steal_ticks.saturating_sub(start.steal_ticks),
            minor_faults: end.minor_faults.saturating_sub(start.minor_faults),
            loadavg: loadavg(),
        }
    }

    /// The sample as a JSON object.
    pub fn json(&self) -> String {
        let mut out = ObjectWriter::new();
        out.field_str("phase", self.phase)
            .field_f64("seconds", self.seconds)
            .field_f64("cpu_s", self.cpu_s)
            .field_f64("runq_wait_ms", self.runq_wait_ms)
            .field_u64("steal_ticks", self.steal_ticks)
            .field_u64("minor_faults", self.minor_faults)
            .field_f64("loadavg", self.loadavg);
        out.finish()
    }
}
