//! Tier-1 run of every blocking AMPI call: flows-ampi's `ampi_semantics`
//! test, compiled into the umbrella package unchanged so the root's
//! `cargo test` runs it — `recv`, `wait`, the collectives, `scatter`,
//! `alltoall` and `migrate` under load balancing, transport faults and the
//! threaded drive mode.

include!("../crates/ampi/tests/ampi_semantics.rs");
