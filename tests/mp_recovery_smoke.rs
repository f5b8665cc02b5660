//! Tier-1 smoke of cross-process recovery: flows-ampi's `mp_recovery`
//! test, compiled into the umbrella package unchanged so the root's
//! `cargo test` runs it — a child process crashes mid-run and the leader
//! heals its ranks over the socket backend, with every assertion of the
//! original (at most one scratch round, exactly the child's PEs dead,
//! bit-identical checksums). Its own test binary: a multi-process
//! machine maps the isomalloc region at its one fixed base, and the
//! leader re-executes this binary as the child.

include!("../crates/ampi/tests/mp_recovery.rs");
