//! flowsbench — the flows runtime's end-to-end and per-layer benchmark.
//! See README.md beside Cargo.toml for what is measured and why.

pub mod btmz;
pub mod gen;
pub mod heal;
pub mod host;
pub mod ladder;
pub mod msgmix;
pub mod report;
pub mod sessions;
pub mod span;
pub mod stats;
pub mod workload;
pub mod xproc;
