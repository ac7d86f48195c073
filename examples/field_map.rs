//! Renders a complete field snapshot as SVG: the sensor deployment,
//! the robots' Voronoi cells, every robot's travelled route (recovered
//! from the protocol trace), and the sensors that were down at the end
//! of the run.
//!
//!     cargo run --release --example field_map
//!
//! Writes `field_map.svg` to the current directory.

use std::collections::HashMap;

use robonet::core::trace::TraceEvent;
use robonet::core::{field_deployment, RingSink};
use robonet::geom::voronoi::voronoi_cells;
use robonet::prelude::*;
use robonet::viz::map::FieldMap;

fn main() {
    let cfg = ScenarioConfig::paper(2, Algorithm::Dynamic)
        .with_seed(21)
        .scaled(16.0);
    let n_sensors = cfg.n_sensors();
    let n_robots = cfg.n_robots();
    // The deployment the run uses, re-derived from the configuration.
    let field = field_deployment(&cfg);
    let (bounds, sensors, starts) = (field.bounds, field.sensor_pos, field.robot_pos);

    // Robot routes come from the trace.
    let ring = RingSink::with_capacity(100_000);
    let outcome = Simulation::with_sink(cfg, Box::new(ring)).run_to_completion();

    let mut routes: HashMap<u32, Vec<Point>> = starts
        .iter()
        .enumerate()
        .map(|(r, &p)| ((n_sensors + r) as u32, vec![p]))
        .collect();
    let mut down: Vec<u32> = Vec::new();
    for ev in outcome.trace.events() {
        match ev {
            TraceEvent::Replaced {
                robot, loc, sensor, ..
            } => {
                routes.entry(robot.as_u32()).or_default().push(*loc);
                down.retain(|s| *s != sensor.as_u32());
            }
            TraceEvent::Failure { sensor, .. } => down.push(sensor.as_u32()),
            _ => {}
        }
    }

    let finals: Vec<Point> = routes
        .iter()
        .map(|(id, path)| (*id, *path.last().expect("non-empty route")))
        .collect::<std::collections::BTreeMap<u32, Point>>()
        .into_values()
        .collect();
    let alive: Vec<bool> = (0..n_sensors as u32).map(|s| !down.contains(&s)).collect();

    let mut map = FieldMap::new(bounds, 760);
    map.cells(&voronoi_cells(&finals, &bounds));
    map.sensors(&sensors, &alive);
    for (i, (_, route)) in routes
        .iter()
        .collect::<std::collections::BTreeMap<_, _>>()
        .into_iter()
        .enumerate()
    {
        map.trajectory(route, i);
    }
    map.robots(&finals);
    let svg = map.finish();
    std::fs::write("field_map.svg", &svg).expect("write SVG");

    let total_route: f64 = routes
        .values()
        .map(|r| r.windows(2).map(|w| w[0].distance(w[1])).sum::<f64>())
        .sum();
    println!(
        "rendered {} sensors ({} down at end), {} robots, {:.1} km of routes -> field_map.svg",
        n_sensors,
        alive.iter().filter(|&&a| !a).count(),
        n_robots,
        total_route / 1000.0
    );
    println!(
        "({} replacements during the run; the Voronoi overlay shows each robot's\n\
         final responsibility region under the dynamic algorithm)",
        outcome.metrics.replacements
    );
}
