//! # flows-converse — the machine runtime (Converse analog)
//!
//! The paper's runtime substrate (§2.4, refs [23], [24]): a *machine* of
//! `num_pes` PEs (processing elements), each with a message queue and a
//! user-level thread scheduler, driven by a per-PE scheduler loop that
//! alternates between delivering network messages to registered
//! *handlers* and running ready threads.
//!
//! Because the reproduction host is a single-core box, the machine
//! supports two drive modes with identical semantics — one scheduler loop
//! handed different slices of PEs:
//!
//! * [`MachineBuilder::run`] — one OS thread per PE (true concurrency,
//!   used by benches);
//! * [`MachineBuilder::run_deterministic`] — all PEs stepped round-robin
//!   by one OS thread (used by tests and proptest).
//!
//! **Virtual time.** Parallel wall-clock speedup cannot be observed on one
//! core, so each PE carries a virtual clock: it advances by the measured
//! wall time of the PE's own work (handlers + thread bursts), and message
//! delivery imposes `max(local, send_time + latency + len/bandwidth)`.
//! The maximum PE clock at quiescence is the *modeled parallel completion
//! time* reported by the Figure 11/12 harnesses (see DESIGN.md §2).
//!
//! **Handler ids.** A [`HandlerId`] is a handler's position in its
//! machine's registration order. Code that did not keep the id
//! [`MachineBuilder::handler`] returned finds it again on any PE with
//! [`Pe::handler_of`], keyed by the handler's own type; the layers above
//! (comm, chare, AMPI) store none.
//!
//! ```
//! use flows_converse::{MachineBuilder, send, my_pe, num_pes};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let hits = Arc::new(AtomicU64::new(0));
//! let mut mb = MachineBuilder::new(2);
//! let h = {
//!     let hits = hits.clone();
//!     mb.handler(move |_pe, msg| {
//!         hits.fetch_add(msg.data[0] as u64, Ordering::Relaxed);
//!     })
//! };
//! mb.run_deterministic(move |pe| {
//!     if pe.id() == 0 {
//!         for dest in 0..num_pes() {
//!             send(dest, h, vec![5]);
//!         }
//!     }
//! });
//! assert_eq!(hits.load(Ordering::Relaxed), 10);
//! ```

#![warn(missing_docs)]

pub mod fault;
mod link;
pub mod machine;
pub mod msg;
mod netpump;
pub mod pe;

pub use fault::{FaultPlan, FaultSummary, PeCrash, PeStall, RecoveryEvent, RecoveryPhase};
pub use flows_core::{IdHasher, IdMap, IdSet, Payload, PayloadBuf, PayloadPool, PoolStats};
pub use flows_trace::{TraceRing, TraceSummary};
pub use machine::{MachineBuilder, MachineReport};
pub use msg::{HandlerId, Message, NetModel};
pub use pe::{charge_ns, my_pe, num_pes, payload_buf, send, vtime_ns, with_pe, Pe};
