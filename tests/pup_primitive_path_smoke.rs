//! Tier-1 pin of pup's fixed-width field path: flows-pup's
//! `primitive_path` test, compiled into the umbrella package unchanged so
//! the root's `cargo test` runs it — mixed-width primitives pack to their
//! little-endian bytes, size to the same length, and truncate at every
//! prefix exactly as a byte-run copy of the same layout would.

include!("../crates/pup/tests/primitive_path.rs");
