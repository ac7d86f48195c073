//! Deterministic parallel sweep engine.
//!
//! A sweep is a batch of independent simulation *cells* — one
//! [`ScenarioConfig`] each, typically the cross product of a scenario
//! axis (robot count, algorithm), a seed list, and an optional fault
//! plan. [`SweepGrid`] fans the batch across an in-tree work-stealing
//! pool ([`robonet_des::pool`]) and assembles a [`SweepResult`] whose
//! contents are **bit-identical regardless of worker count or
//! completion order**:
//!
//! - every cell is a pure function of its configuration (the simulator
//!   derives all randomness from named seed streams), so what a cell
//!   produces never depends on which thread ran it or when;
//! - per-cell outputs come back slot-indexed and are folded in index
//!   order, so the per-cell vectors are order-stable;
//! - the cross-cell aggregate ([`MergedSweep`]) is built exclusively
//!   from order-independent operations — integer adds, elementwise
//!   bucket adds, f64 min/max, and fixed-point [`DetSum`] sums — so
//!   even an arbitrary fold order would produce the same bits.
//!
//! A panicking cell does not poison the batch: the pool isolates it,
//! the other cells complete, and the failure is reported as a
//! [`FailedCell`] carrying the panic message.
//!
//! ```
//! use robonet_core::sweep::SweepGrid;
//! use robonet_core::{Algorithm, ScenarioConfig};
//!
//! let grid = SweepGrid::from_configs(vec![
//!     ScenarioConfig::paper(2, Algorithm::Centralized).with_seed(1).scaled(64.0),
//!     ScenarioConfig::paper(2, Algorithm::Dynamic).with_seed(1).scaled(64.0),
//! ]);
//! let sequential = grid.run(1);
//! let parallel = grid.run(4);
//! assert_eq!(sequential.cells, parallel.cells);
//! assert_eq!(sequential.merged, parallel.merged);
//! ```
//!
//! [`DetSum`]: crate::obs::DetSum

mod merge;

pub use merge::MergedSweep;

use robonet_des::pool::{scatter_map, CellPanic};

use crate::config::{Algorithm, ScenarioConfig};
use crate::harness::Simulation;
use crate::metrics::Metrics;
use crate::report::Row;

/// An ordered batch of simulation cells.
///
/// Cell order is part of the contract: results, rows and failure
/// reports all come back in the order cells were pushed, independent of
/// how the pool scheduled them.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    cells: Vec<ScenarioConfig>,
}

impl SweepGrid {
    /// Creates an empty grid.
    pub fn new() -> Self {
        SweepGrid::default()
    }

    /// Wraps an explicit cell list.
    pub fn from_configs(cells: Vec<ScenarioConfig>) -> Self {
        SweepGrid { cells }
    }

    /// The paper's experiment design: every `(k, algorithm, seed)`
    /// combination at time-compression `scale`, in k-major order (the
    /// order the figure tables list their rows).
    pub fn paper(ks: &[usize], algorithms: &[Algorithm], seeds: &[u64], scale: f64) -> Self {
        let mut grid = SweepGrid::new();
        for &k in ks {
            for &alg in algorithms {
                for &seed in seeds {
                    grid.push(ScenarioConfig::paper(k, alg).with_seed(seed).scaled(scale));
                }
            }
        }
        grid
    }

    /// Appends one cell.
    pub fn push(&mut self, cfg: ScenarioConfig) {
        self.cells.push(cfg);
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the grid holds no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The cell configurations, in push order.
    pub fn cells(&self) -> &[ScenarioConfig] {
        &self.cells
    }

    /// Runs every cell on `jobs` workers and assembles the result.
    ///
    /// `jobs == 1` runs sequentially on the calling thread — the
    /// reference the determinism tests compare against. Any other value
    /// fans cells across a work-stealing pool; the result is
    /// bit-identical either way. Panicking cells become
    /// [`FailedCell`]s; the rest of the batch completes.
    pub fn run(&self, jobs: usize) -> SweepResult {
        let outputs = scatter_map(&self.cells, jobs, |_, cfg| {
            let out = Simulation::run(cfg.clone());
            CellOutput {
                metrics: out.metrics,
                events_processed: out.events_processed,
            }
        });
        SweepResult::assemble(&self.cells, outputs)
    }
}

/// What one cell's simulation hands back to the engine. Cells run
/// unobserved, so they have no trace or spans; the wall-clock scheduler
/// profile is deliberately excluded because it varies run to run, which
/// would break the bit-identity contract.
struct CellOutput {
    metrics: Metrics,
    events_processed: u64,
}

/// One completed cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Position of this cell in the grid.
    pub index: usize,
    /// The configuration that ran.
    pub config: ScenarioConfig,
    /// The run's metrics.
    pub metrics: Metrics,
    /// Events the kernel delivered for this cell.
    pub events_processed: u64,
}

impl CellResult {
    /// The figure-table row for this cell.
    pub fn row(&self) -> Row {
        Row::new(&self.config, self.metrics.summary())
    }
}

/// One cell whose simulation panicked.
#[derive(Debug, Clone)]
pub struct FailedCell {
    /// Position of this cell in the grid.
    pub index: usize,
    /// The configuration that panicked.
    pub config: ScenarioConfig,
    /// The captured panic.
    pub panic: CellPanic,
}

impl std::fmt::Display for FailedCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cell {} ({} k={} seed={}): {}",
            self.index,
            self.config.algorithm.name(),
            self.config.k,
            self.config.seed,
            self.panic.message
        )
    }
}

/// Everything a sweep produced: per-cell results in grid order, the
/// cells that panicked, and the order-independent cross-cell merge.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Completed cells, ordered by grid index.
    pub cells: Vec<CellResult>,
    /// Panicked cells, ordered by grid index.
    pub failed: Vec<FailedCell>,
    /// The cross-cell aggregate over all completed cells.
    pub merged: MergedSweep,
}

impl SweepResult {
    fn assemble(configs: &[ScenarioConfig], outputs: Vec<Result<CellOutput, CellPanic>>) -> Self {
        let mut cells = Vec::with_capacity(outputs.len());
        let mut failed = Vec::new();
        let mut merged = MergedSweep::new();
        for (index, output) in outputs.into_iter().enumerate() {
            match output {
                Ok(out) => {
                    merged.absorb_metrics(&out.metrics, out.events_processed);
                    cells.push(CellResult {
                        index,
                        config: configs[index].clone(),
                        metrics: out.metrics,
                        events_processed: out.events_processed,
                    });
                }
                Err(panic) => failed.push(FailedCell {
                    index,
                    config: configs[index].clone(),
                    panic,
                }),
            }
        }
        SweepResult {
            cells,
            failed,
            merged,
        }
    }

    /// Figure-table rows for the completed cells, in grid order.
    pub fn rows(&self) -> Vec<Row> {
        self.cells.iter().map(CellResult::row).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::config::PartitionKind;

    const FIXED: Algorithm = Algorithm::Fixed(PartitionKind::Square);

    fn tiny(algorithm: Algorithm, seed: u64) -> ScenarioConfig {
        ScenarioConfig::paper(1, algorithm)
            .with_seed(seed)
            .scaled(64.0)
    }

    #[test]
    fn paper_grid_is_k_major() {
        let grid = SweepGrid::paper(&[2, 3], &[FIXED, Algorithm::Dynamic], &[1, 2], 64.0);
        assert_eq!(grid.len(), 8);
        let c = grid.cells();
        assert_eq!((c[0].k, c[0].algorithm, c[0].seed), (2, FIXED, 1));
        assert_eq!((c[1].k, c[1].algorithm, c[1].seed), (2, FIXED, 2));
        assert_eq!(
            (c[2].k, c[2].algorithm, c[2].seed),
            (2, Algorithm::Dynamic, 1)
        );
        assert_eq!((c[4].k, c[4].algorithm, c[4].seed), (3, FIXED, 1));
    }

    #[test]
    fn run_produces_indexed_cells_and_rows() {
        let grid = SweepGrid::from_configs(vec![tiny(FIXED, 1), tiny(Algorithm::Dynamic, 1)]);
        let result = grid.run(1);
        assert!(result.failed.is_empty());
        assert_eq!(result.cells.len(), 2);
        assert_eq!(result.cells[0].index, 0);
        assert_eq!(result.cells[1].index, 1);
        let rows = result.rows();
        assert_eq!(rows[0].algorithm, "fixed");
        assert_eq!(rows[1].algorithm, "dynamic");
        assert_eq!(result.merged.cells, 2);
        assert!(result.merged.events_processed > 0);
    }

    #[test]
    fn panicking_cell_becomes_failed_cell() {
        let mut bad = tiny(FIXED, 1);
        bad.robot_speed = -1.0; // validate() rejects it → Simulation::run panics
        let grid = SweepGrid::from_configs(vec![tiny(FIXED, 1), bad]);
        let result = grid.run(2);
        assert_eq!(result.cells.len(), 1);
        assert_eq!(result.cells[0].index, 0);
        assert_eq!(result.failed.len(), 1);
        assert_eq!(result.failed[0].index, 1);
        assert!(result.failed[0].to_string().contains("cell 1"));
        assert_eq!(result.merged.cells, 1, "failed cell is not merged");
    }
}
