//! 2D computational geometry for the `robonet` workspace.
//!
//! Everything spatial that *Replacing Failed Sensor Nodes by Mobile
//! Robots* (Mei et al., ICDCS 2006) relies on is implemented here:
//!
//! - [`Point`] / [`Vec2`] / [`Bounds`]: the planar field sensors and
//!   robots live in,
//! - [`voronoi`]: bounded Voronoi diagrams — the implicit partition the
//!   dynamic distributed manager algorithm maintains (paper Fig. 1),
//! - [`planar`]: Gabriel-graph and relative-neighborhood-graph
//!   planarization used by face routing for hole recovery (GPSR/GFG),
//! - [`partition`]: the fixed algorithm's static square (and hexagonal)
//!   subarea partitions,
//! - [`graph`]: unit-disk connectivity with a grid spatial index,
//! - [`deploy`]: random uniform node deployment (paper §2(a)).
//!
//! # Example
//!
//! ```
//! use robonet_geom::{Bounds, Point};
//! use robonet_geom::voronoi::nearest_site;
//!
//! let robots = [Point::new(50.0, 50.0), Point::new(150.0, 50.0)];
//! let sensor = Point::new(60.0, 40.0);
//! assert_eq!(nearest_site(&robots, sensor), Some(0));
//! let field = Bounds::new(Point::ZERO, Point::new(200.0, 100.0));
//! assert!(field.contains(sensor));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deploy;
pub mod graph;
pub mod partition;
pub mod planar;
mod point;
pub mod polygon;
pub mod segment;
pub mod spatial;
pub mod voronoi;

pub use point::{Bounds, Point, Vec2};
pub use polygon::ConvexPolygon;
