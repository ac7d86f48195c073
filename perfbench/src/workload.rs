//! The three workloads: which cells each runs, on which engine, which
//! traces its analysis folds, and how many times a set-up batch repeats
//! its work.
//!
//! Every packet cell runs on the paper's unscaled timers (10 s beacons,
//! 3-beacon detection timeout, 16000 s mean lifetime, 1 m/s robots);
//! only the horizon is shortened. Why each workload exists, and which
//! layers it loads or bypasses, is in README.md.

use robonet_core::{Algorithm, PartitionKind, ScenarioConfig};
use robonet_des::SimDuration;

/// Telemetry cadence of every observed run (the CI cadence).
pub const SAMPLE_EVERY_S: f64 = 100.0;

/// Horizon of every packet cell in the run phase.
///
/// Each cell's run is one timed sample, and `run_s` sums each cell's
/// shortest sample over the repetitions of a run. The host runs
/// memory-bound code up to 1.5x slower while its neighbours load the
/// shared caches, in spells of a few seconds, so the benchmark wants
/// short cells and short repetitions: every cell is then sampled
/// several times inside each fast spell a run meets.
pub const PACKET_HORIZON_S: f64 = 500.0;
/// Seeds each `paper_grid` algorithm and `observed_repair` run on.
pub const PACKET_SEEDS: u64 = 4;
/// Horizon of `flow_fleet`'s cells.
pub const FLOW_HORIZON_S: f64 = 1_000.0;
/// Seeds each `flow_fleet` cell runs on.
pub const FLOW_SEEDS: u64 = 16;

/// Which engine runs a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The packet-level simulator (`Simulation`).
    Packet,
    /// The flow-level model (`fastsim::run`).
    Flow,
}

/// One simulation run of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Engine that runs it.
    pub engine: Engine,
    /// Its configuration (seed included).
    pub cfg: ScenarioConfig,
}

impl Cell {
    /// `k10.dynamic.s7`-style label for messages.
    pub fn label(&self) -> String {
        format!(
            "k{}.{}.s{}",
            self.cfg.k,
            alg_name(self.cfg.algorithm),
            self.cfg.seed
        )
    }

    /// This cell with telemetry sampling on, as observed runs use it.
    pub fn sampled(&self) -> Cell {
        let mut cell = self.clone();
        cell.cfg.sample_every = Some(SimDuration::from_secs(SAMPLE_EVERY_S));
        cell
    }
}

/// The algorithm's name without partition detail (`fixed`, not
/// `fixed(square)`), as used in the `cell.<alg>.run_s` metrics.
pub fn alg_name(alg: Algorithm) -> &'static str {
    match alg {
        Algorithm::Centralized => "centralized",
        Algorithm::Fixed(_) => "fixed",
        Algorithm::Dynamic => "dynamic",
    }
}

/// A named set of cells plus its batch sizes.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name on the command line.
    pub name: &'static str,
    /// Cells, run in order.
    pub cells: Vec<Cell>,
    /// Whether the run phase streams a JSONL trace with telemetry on.
    pub observed: bool,
    /// The sampled cells whose traces the analysis folds, each run
    /// once, outside every timing, just to write its trace. Fold
    /// time follows trace size, which follows the number of failures,
    /// so each workload folds traces of several hundred failures or
    /// more: fewer would let the seed alone move `analyze_s` by 10%.
    pub analysis: Vec<Cell>,
    /// Builds of every cell in one set-up batch (`setup_s` is the
    /// shortest batch time).
    pub setup_batch: usize,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["paper_grid", "observed_repair", "flow_fleet"];

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::Centralized,
    Algorithm::Fixed(PartitionKind::Square),
    Algorithm::Dynamic,
];

fn packet(k: usize, alg: Algorithm, horizon_s: f64, seed: u64) -> Cell {
    let mut cfg = ScenarioConfig::paper(k, alg).with_seed(seed);
    cfg.sim_time = SimDuration::from_secs(horizon_s);
    Cell {
        engine: Engine::Packet,
        cfg,
    }
}

/// Seed `i` of the `n` a workload derives from `seed`. Different
/// seeds never derive the same one, so no two seeds share an input.
fn sub_seed(seed: u64, n: u64, i: u64) -> u64 {
    seed.wrapping_mul(n).wrapping_add(i)
}

/// Builds workload `name` for `seed`. `quick` shrinks every horizon so
/// the self-test finishes in seconds; it is never used for numbers.
pub fn build(name: &str, seed: u64, quick: bool) -> Option<Workload> {
    let w = match name {
        // §4.1: k = 3 (450 sensors, 9 robots), all three algorithms,
        // each on PACKET_SEEDS seeds. One seed draws the same failures
        // for every algorithm, so the analysis folds each algorithm's
        // trace on a seed of its own.
        "paper_grid" => {
            let horizon = if quick { 200.0 } else { PACKET_HORIZON_S };
            let cells = (0..PACKET_SEEDS)
                .flat_map(|i| {
                    let s = sub_seed(seed, PACKET_SEEDS, i);
                    ALGORITHMS
                        .iter()
                        .map(move |&alg| packet(3, alg, horizon, s))
                })
                .collect();
            let analysis_horizon = if quick { 200.0 } else { 8_000.0 };
            Workload {
                name: "paper_grid",
                analysis: (0..3)
                    .map(|i| {
                        packet(
                            3,
                            ALGORITHMS[i],
                            analysis_horizon,
                            sub_seed(seed, 3, i as u64),
                        )
                        .sampled()
                    })
                    .collect(),
                cells,
                observed: false,
                setup_batch: 8,
            }
        }
        // k = 4 dynamic, streamed to JSONL with telemetry sampling on,
        // on PACKET_SEEDS seeds. The analysis folds two longer runs of
        // the same configuration.
        "observed_repair" => {
            let horizon = if quick { 200.0 } else { PACKET_HORIZON_S };
            let analysis_horizon = if quick { 500.0 } else { 4_000.0 };
            let dynamic = |horizon, s| packet(4, Algorithm::Dynamic, horizon, s).sampled();
            Workload {
                name: "observed_repair",
                cells: (0..PACKET_SEEDS)
                    .map(|i| dynamic(horizon, sub_seed(seed, PACKET_SEEDS, i)))
                    .collect(),
                analysis: (0..2)
                    .map(|i| dynamic(analysis_horizon, sub_seed(seed, 2, i)))
                    .collect(),
                observed: true,
                setup_batch: 12,
            }
        }
        // The flow engine at k in {10, 14, 20} x three algorithms, each
        // on FLOW_SEEDS seeds.
        "flow_fleet" => {
            let horizon = if quick { 200.0 } else { FLOW_HORIZON_S };
            let mut cells = Vec::new();
            for i in 0..FLOW_SEEDS {
                for k in [10, 14, 20] {
                    for alg in ALGORITHMS {
                        let mut cell = packet(k, alg, horizon, sub_seed(seed, FLOW_SEEDS, i));
                        cell.engine = Engine::Flow;
                        cells.push(cell);
                    }
                }
            }
            // The analysis folds the first configuration's trace over
            // 8000 s (about 2500 failures).
            let mut analysis = cells[0].sampled();
            analysis.cfg.sim_time = SimDuration::from_secs(if quick { 2_000.0 } else { 8_000.0 });
            Workload {
                name: "flow_fleet",
                analysis: vec![analysis],
                cells,
                observed: false,
                setup_batch: 1,
            }
        }
        _ => return None,
    };
    Some(w)
}
