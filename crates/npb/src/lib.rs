//! # flows-npb — NAS Multi-Zone workloads on AMPI
//!
//! The paper's load-balancing demonstration (§4.5, Figure 12) runs the
//! NAS "Multi-Zone" benchmarks — coarse-grained collections of loosely
//! coupled zones solved independently with per-iteration boundary
//! exchange — on AMPI, with many more ranks than PEs so that migratable
//! threads can flow from overloaded to underloaded processors.
//!
//! * [`zones`] — zone counts per class and BT-MZ's ≈20× zone-size spread
//!   (the deliberate imbalance source);
//! * [`solver`] — the per-zone halo'd stencil solver (area-proportional
//!   real work; see DESIGN.md §2 for the substitution note);
//! * [`mod@run`] — the AMPI driver: boundary exchange, solve, optional
//!   `migrate()` every few iterations, and a global checksum that must be
//!   bit-identical with and without load balancing.

#![warn(missing_docs)]

pub mod run;
pub mod solver;
pub mod zones;

pub use run::{run, MzConfig, MzReport};
pub use solver::ZoneGrid;
pub use zones::{rank_of_zone, zone_layout, MzBench, MzClass, Zone};
