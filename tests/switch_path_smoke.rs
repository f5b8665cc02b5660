//! Tier-1 pin of the context-switch path: flows-core's `switch_path`
//! test, compiled into the umbrella package unchanged so the root's
//! `cargo test` runs it — once warm, 10^6 yields and 10^6
//! suspend/awaken cycles allocate nothing and make no syscall. Its own
//! test binary: the counting allocator is process-global.

include!("../crates/core/tests/switch_path.rs");
