//! Geographic routing and scoped flooding for the `robonet` workspace.
//!
//! Implements the network layer of *Replacing Failed Sensor Nodes by
//! Mobile Robots* (Mei et al., ICDCS 2006), §4.2:
//!
//! - beacon-maintained [`neighbor::NeighborTable`]s holding each
//!   neighbour's last known location,
//! - greedy geographic forwarding ([`route`]): forward to the neighbour
//!   geographically closest to the destination's location,
//! - face-routing recovery around routing holes on the Gabriel-graph
//!   planarization of the neighbour set (GPSR \[7\] / GFG \[2\] style),
//! - sequence-numbered flood deduplication ([`flood::DedupTable`]) for
//!   robot location updates ("a sensor may receive the same update
//!   message multiple times, but it relays the message to its neighbors
//!   only once", §3.2).
//!
//! All of it is pure decision logic over local state — the packet-level
//! delivery itself happens in `robonet-radio`, and `robonet-core` wires
//! the two together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flood;
pub mod neighbor;
pub mod packet;
mod routing;
pub mod trace;

pub use neighbor::{NeighborEntry, NeighborTable, SlotRefresh};
pub use packet::{GeoHeader, RouteMode};
pub use routing::{route, route_with, DropReason, RouteDecision, RouteScratch};
