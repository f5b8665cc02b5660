//! Tier-1 pin of the same-PE AMPI message path's heap traffic:
//! flows-ampi's `same_pe_allocs` test, compiled into the umbrella package
//! unchanged so the root's `cargo test` runs it — a `send` → `recv` pair
//! between two ranks on one PE allocates nothing once warm. Its own test
//! binary: the counting allocator is process-global.

include!("../crates/ampi/tests/same_pe_allocs.rs");
