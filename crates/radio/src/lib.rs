//! Packet-level wireless PHY/MAC simulation for the `robonet` workspace.
//!
//! This crate replaces Glomosim \[14\] in the reproduction of *Replacing
//! Failed Sensor Nodes by Mobile Robots* (Mei et al., ICDCS 2006). It
//! models:
//!
//! - a unit-disk physical layer with per-class transmission ranges
//!   (sensors 63 m, robots and the manager 250 m — paper §4.1),
//! - an IEEE 802.11-style CSMA/CA MAC at 11 Mbps: carrier sense,
//!   DIFS + uniform slotted backoff, frame airtime, SIFS-delayed ACKs for
//!   unicast with exponential-backoff retransmission, and a collision
//!   model where overlapping frames corrupt each other at a receiver,
//! - transmission accounting by traffic class — the paper's messaging-
//!   overhead metric (Figures 3 and 4) is literally a count of these
//!   transmissions.
//!
//! The MAC is *frame-granular*: the whole contention wait for a frame is
//! drawn as one interval rather than simulating each backoff slot, which
//! keeps event counts proportional to frames and lets the paper's
//! full-scale runs (64000 simulated seconds, 800 sensors) finish in
//! minutes. Fidelity notes and deliberate simplifications are documented
//! on [`engine::RadioEngine`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod frame;
pub mod medium;
pub mod params;
pub mod stats;

pub use engine::{RadioEngine, RadioEvent, UpcallBuf, UpcallEntry};
pub use frame::{Frame, TrafficClass};
pub use medium::{Fading, Medium, NodeClass};
pub use params::MacParams;
pub use stats::TxStats;
