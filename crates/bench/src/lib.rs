//! Shared sweep harness for regenerating the paper's figures and
//! ablations.
//!
//! Every figure in the evaluation section of *Replacing Failed Sensor
//! Nodes by Mobile Robots* comes from the same experiment design: run
//! the three coordination algorithms with 4, 9 and 16 robots and report
//! a per-failure average (§4.3). [`sweep`] runs that design on the
//! deterministic work-stealing engine ([`robonet_core::sweep`]) — rows
//! are bit-identical for any `--jobs` value — and the `fig2`/`fig3`/
//! `fig4` binaries print the matching series. The ablation binaries
//! (`ablation_partition`, `ablation_broadcast`, `ablation_dispatch`)
//! run their own cell lists through [`run_cells`];
//! `ablation_baseline` and `degradation_curve` print the remaining
//! experiment tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use robonet_core::report::Row;
use robonet_core::sweep::{CellResult, SweepGrid, SweepResult};
use robonet_core::{coord, Algorithm, ScenarioConfig};
use robonet_des::pool::resolve_jobs;

/// The robot-count axis of the paper's figures: k² for k ∈ {2, 3, 4},
/// i.e. 4, 9 and 16 robots ("we choose square numbers to make area
/// partition easy", §4.3.1).
pub const PAPER_KS: [usize; 3] = [2, 3, 4];

/// The figure algorithms in the order the figures list them, resolved
/// through the coordination registry ([`coord::figure_algorithms`]) —
/// registering a new figure algorithm automatically adds it to every
/// sweep.
pub fn paper_algorithms() -> Vec<Algorithm> {
    coord::figure_algorithms().map(|e| e.algorithm).collect()
}

/// Options for a figure sweep.
#[derive(Debug, Clone)]
pub struct SweepOptions {
    /// Time-compression factor (1.0 = the paper's full 64000 s runs).
    /// Only Figure 2 survives compression; see
    /// [`ScenarioConfig::scaled`] for the drift of the other figures.
    pub scale: f64,
    /// Seeds to run and average over.
    pub seeds: Vec<u64>,
    /// Robot-count axis (values of k; robots = k²).
    pub ks: Vec<usize>,
    /// Algorithms to include.
    pub algorithms: Vec<Algorithm>,
    /// Worker threads (`None` → `ROBONET_JOBS` env, else all cores).
    /// Results are bit-identical for any value.
    pub jobs: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions {
            scale: 1.0,
            seeds: vec![1],
            ks: PAPER_KS.to_vec(),
            algorithms: paper_algorithms(),
            jobs: None,
        }
    }
}

impl SweepOptions {
    /// Parses command-line style arguments: `--scale N`, `--seeds a,b`,
    /// `--ks 2,3,4`, `--jobs N`. Unknown arguments are rejected.
    ///
    /// # Errors
    ///
    /// Returns a usage message when an argument cannot be parsed.
    pub fn from_args(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = SweepOptions::default();
        let mut args = args.peekable();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("missing value for {flag}"))
            };
            match flag.as_str() {
                "--scale" => {
                    opts.scale = value()?.parse().map_err(|e| format!("bad --scale: {e}"))?;
                }
                "--seeds" => {
                    opts.seeds = value()?
                        .split(',')
                        .map(|s| s.parse().map_err(|e| format!("bad seed: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--ks" => {
                    opts.ks = value()?
                        .split(',')
                        .map(|s| s.parse().map_err(|e| format!("bad k: {e}")))
                        .collect::<Result<_, _>>()?;
                }
                "--jobs" => {
                    let n: usize = value()?.parse().map_err(|e| format!("bad --jobs: {e}"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    opts.jobs = Some(n);
                }
                other => {
                    return Err(format!(
                        "unknown argument {other}; supported: \
                         --scale N --seeds a,b --ks 2,3,4 --jobs N"
                    ));
                }
            }
        }
        Ok(opts)
    }
}

/// The sweep grid these options describe: every `(k, algorithm, seed)`
/// combination at the requested time compression, in k-major order.
pub fn grid(opts: &SweepOptions) -> SweepGrid {
    SweepGrid::paper(&opts.ks, &opts.algorithms, &opts.seeds, opts.scale)
}

/// Runs the full sweep on the deterministic work-stealing engine
/// ([`robonet_core::sweep`]) and returns the complete [`SweepResult`]:
/// per-cell results in `(k, algorithm, seed)` order, any panicked
/// cells, and the order-independent cross-cell aggregate. Results are
/// bit-identical for any worker count.
pub fn sweep_result(opts: &SweepOptions) -> SweepResult {
    grid(opts).run(resolve_jobs(opts.jobs))
}

/// Runs the full sweep and returns one [`Row`] per (algorithm, k, seed).
///
/// Thin wrapper over [`sweep_result`] for the figure binaries, which
/// only need rows.
///
/// # Panics
///
/// Panics if any cell's simulation panicked, listing the failed cells.
pub fn sweep(opts: &SweepOptions) -> Vec<Row> {
    completed(sweep_result(opts))
        .iter()
        .map(CellResult::row)
        .collect()
}

/// Runs an explicit cell list on the sweep engine with the default
/// worker count (`ROBONET_JOBS`, else all cores) and returns the
/// results in cell order, bit-identical for any worker count.
///
/// # Panics
///
/// Panics if any cell's simulation panicked, listing the failed cells.
pub fn run_cells(cells: Vec<ScenarioConfig>) -> Vec<CellResult> {
    completed(SweepGrid::from_configs(cells).run(resolve_jobs(None)))
}

/// The completed cells of `result`, or a panic listing the failed ones.
fn completed(result: SweepResult) -> Vec<CellResult> {
    assert!(
        result.failed.is_empty(),
        "sweep cells panicked:\n{}",
        result
            .failed
            .iter()
            .map(|f| format!("  {f}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    result.cells
}

/// Averages a per-row metric over seeds, returning
/// `(algorithm, robots, mean)` triples ordered by algorithm then robot
/// count.
pub fn average_series(
    rows: &[Row],
    metric: impl Fn(&Row) -> Option<f64>,
) -> Vec<(String, usize, f64)> {
    let mut grouped: Vec<(String, usize, Vec<f64>)> = Vec::new();
    for row in rows {
        let Some(v) = metric(row) else { continue };
        match grouped
            .iter_mut()
            .find(|(a, r, _)| *a == row.algorithm && *r == row.robots)
        {
            Some((_, _, vs)) => vs.push(v),
            None => grouped.push((row.algorithm.clone(), row.robots, vec![v])),
        }
    }
    grouped
        .into_iter()
        .map(|(a, r, vs)| {
            let mean = vs.iter().sum::<f64>() / vs.len() as f64;
            (a, r, mean)
        })
        .collect()
}

/// Builds a paper-style line chart (robot count on x) from sweep rows.
pub fn chart_from_rows(
    title: &str,
    y_label: &str,
    rows: &[Row],
    metric: impl Fn(&Row) -> Option<f64> + Copy,
) -> robonet_viz::chart::LineChart {
    let mut chart = robonet_viz::chart::LineChart::new(title, "maintenance robots", y_label);
    let series = average_series(rows, metric);
    let mut algorithms: Vec<String> = Vec::new();
    for (a, _, _) in &series {
        if !algorithms.contains(a) {
            algorithms.push(a.clone());
        }
    }
    for alg in algorithms {
        let points: Vec<(f64, f64)> = series
            .iter()
            .filter(|(a, _, _)| *a == alg)
            .map(|&(_, robots, v)| (robots as f64, v))
            .collect();
        chart = chart.with_series(robonet_viz::chart::Series::new(alg, points));
    }
    chart
}

/// Prints a figure as an aligned series table: one line per algorithm,
/// one column per robot count.
pub fn print_series(
    title: &str,
    rows: &[Row],
    ks: &[usize],
    metric: impl Fn(&Row) -> Option<f64> + Copy,
) {
    println!("{title}");
    let series = average_series(rows, metric);
    let mut algorithms: Vec<String> = Vec::new();
    for (a, _, _) in &series {
        if !algorithms.contains(a) {
            algorithms.push(a.clone());
        }
    }
    print!("{:<14}", "algorithm");
    for k in ks {
        print!("{:>12}", format!("{} robots", k * k));
    }
    println!();
    for alg in &algorithms {
        print!("{alg:<14}");
        for k in ks {
            let robots = k * k;
            match series.iter().find(|(a, r, _)| a == alg && *r == robots) {
                Some((_, _, v)) => print!("{v:>12.2}"),
                None => print!("{:>12}", "-"),
            }
        }
        println!();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robonet_core::metrics::Summary;

    fn row(alg: &str, robots: usize, travel: f64) -> Row {
        Row {
            algorithm: alg.into(),
            robots,
            seed: 1,
            summary: Summary {
                failures_occurred: 10,
                replacements: 10,
                avg_travel_per_failure: travel,
                avg_report_hops: 2.0,
                avg_request_hops: None,
                loc_update_tx_per_failure: 100.0,
                report_delivery_ratio: 1.0,
                avg_repair_delay: 100.0,
                p95_repair_delay: 200.0,
                total_travel: 1000.0,
                myrobot_accuracy: 1.0,
                packets_dropped: Default::default(),
            },
        }
    }

    #[test]
    fn averaging_groups_by_algorithm_and_robots() {
        let rows = vec![
            row("fixed", 4, 90.0),
            row("fixed", 4, 110.0),
            row("dynamic", 4, 80.0),
        ];
        let s = average_series(&rows, |r| Some(r.summary.avg_travel_per_failure));
        assert_eq!(s.len(), 2);
        assert!(s.contains(&("fixed".to_string(), 4, 100.0)));
        assert!(s.contains(&("dynamic".to_string(), 4, 80.0)));
    }

    #[test]
    fn chart_builder_covers_all_algorithms() {
        let rows = vec![
            row("fixed", 4, 90.0),
            row("fixed", 9, 95.0),
            row("dynamic", 4, 80.0),
        ];
        let svg = chart_from_rows("Figure 2", "m", &rows, |r| {
            Some(r.summary.avg_travel_per_failure)
        })
        .render(640, 420);
        assert!(svg.contains("fixed"));
        assert!(svg.contains("dynamic"));
        assert!(svg.contains("Figure 2"));
    }

    #[test]
    fn paper_algorithms_follow_figure_order() {
        let names: Vec<&str> = paper_algorithms().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["fixed", "dynamic", "centralized"]);
    }

    #[test]
    fn args_parse() {
        let opts = SweepOptions::from_args(
            [
                "--scale", "8", "--seeds", "1,2", "--ks", "2,3", "--jobs", "4",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(opts.scale, 8.0);
        assert_eq!(opts.seeds, vec![1, 2]);
        assert_eq!(opts.ks, vec![2, 3]);
        assert_eq!(opts.jobs, Some(4));
        assert!(SweepOptions::from_args(["--bogus".to_string()].into_iter()).is_err());
        assert!(
            SweepOptions::from_args(["--scale".to_string()].into_iter()).is_err(),
            "missing value"
        );
        assert!(
            SweepOptions::from_args(["--jobs", "0"].iter().map(|s| s.to_string())).is_err(),
            "zero jobs rejected"
        );
    }

    #[test]
    fn grid_matches_options_axes() {
        let opts = SweepOptions {
            scale: 64.0,
            seeds: vec![1, 2],
            ks: vec![1, 2],
            algorithms: paper_algorithms(),
            jobs: Some(1),
        };
        let g = grid(&opts);
        assert_eq!(g.len(), 2 * 2 * opts.algorithms.len());
        assert_eq!(g.cells()[0].k, 1);
        assert_eq!(g.cells()[g.len() - 1].k, 2);
    }
}
