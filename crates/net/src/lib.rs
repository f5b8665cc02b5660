//! # flows-net — multi-process & multi-host transport for the flows machine
//!
//! The converse machine's PEs exchange [`Frame`]s: through in-process
//! [`inbox`]es between the threads of one process, and through this
//! crate's transports, in the same header+tail wire format, across
//! *process* boundaries, so one machine can span `N processes × M PEs`
//! (and, over TCP, multiple hosts):
//!
//! * [`frame`] — the framed wire format (a fixed header plus an
//!   uninterpreted body) shared by every backend, and the record a PE's
//!   inbox carries inside one process too;
//! * [`inbox`] — the batch channel that moves frames between the
//!   threads of one process;
//! * [`shm`] — lock-free single-producer/single-consumer rings in a
//!   `memfd`-backed segment, futex doorbells for blocking, and
//!   zero-copy delivery: a received body is a [`flows_core::Payload`]
//!   view *into the shared arena*, freed back to the ring when the last
//!   view drops;
//! * [`sock`] — a full mesh of Unix-domain or TCP streams reusing the
//!   counted framed I/O in `flows_sys::sock`;
//! * [`topo`] — topology bring-up (spawn-children and attach-by-address
//!   modes, meta-file handshake) and orderly leader shutdown (child
//!   reaping, exit-status propagation, session unlink).
//!
//! The crate deliberately knows nothing about PEs, links, or handlers —
//! it moves [`Frame`]s between threads and process ranks. The converse
//! layer reads the link frames and owns the machine-wide protocols: a
//! control frame is a tag byte and a body, both converse's records.

#![warn(missing_docs)]

pub mod frame;
pub mod inbox;
pub mod shm;
pub mod sock;
pub mod topo;

pub use frame::{Frame, FrameKind, Header, HEADER_LEN};
pub use shm::{Segment, ShmTransport, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES};
pub use sock::SockTransport;
pub use topo::{
    attach, attach_from_env, child_rank, launch_or_attach, Backend, TopologySpec, World,
};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// A transport endpoint: frames in, frames out, between process ranks.
/// Implementations must be callable from many sender threads at once;
/// `try_recv`/`park` are only ever called by one comm thread.
pub trait Transport: Send + Sync {
    /// This process's rank.
    fn rank(&self) -> usize;
    /// Number of processes in the topology.
    fn procs(&self) -> usize;
    /// Send a frame to `dst` (silently dropped if `dst` is dead).
    fn send(&self, dst: usize, frame: &Frame);
    /// Next pending frame from any peer.
    fn try_recv(&self) -> Option<(usize, Frame)>;
    /// Block until traffic arrives or `timeout` elapses.
    fn park(&self, timeout: Duration);
    /// Stop sending to `proc` and never block on its rings again.
    fn mark_dead(&self, proc: usize);
    /// The shared arena's address range, when the backend has one.
    fn shm_range(&self) -> Option<(usize, usize)> {
        None
    }
    /// Release any blocking resources (streams, reader threads).
    fn close(&self) {}
}

impl Transport for ShmTransport {
    fn rank(&self) -> usize {
        self.rank_of()
    }
    fn procs(&self) -> usize {
        ShmTransport::segment(self).procs()
    }
    fn send(&self, dst: usize, frame: &Frame) {
        ShmTransport::send(self, dst, frame)
    }
    fn try_recv(&self) -> Option<(usize, Frame)> {
        ShmTransport::try_recv(self)
    }
    fn park(&self, timeout: Duration) {
        ShmTransport::park(self, timeout)
    }
    fn mark_dead(&self, proc: usize) {
        ShmTransport::mark_dead(self, proc)
    }
    fn shm_range(&self) -> Option<(usize, usize)> {
        Some(ShmTransport::segment(self).range())
    }
}

impl Transport for SockTransport {
    fn rank(&self) -> usize {
        self.rank_of()
    }
    fn procs(&self) -> usize {
        self.procs_of()
    }
    fn send(&self, dst: usize, frame: &Frame) {
        SockTransport::send(self, dst, frame)
    }
    fn try_recv(&self) -> Option<(usize, Frame)> {
        SockTransport::try_recv(self)
    }
    fn park(&self, timeout: Duration) {
        SockTransport::park(self, timeout)
    }
    fn mark_dead(&self, proc: usize) {
        SockTransport::mark_dead(self, proc)
    }
    fn close(&self) {
        SockTransport::close(self)
    }
}

/// Process-wide count of message-body staging copies taken by the shm
/// backend (the spill path for frames bigger than a ring slot). The
/// zero-copy fast path never bumps it, which is exactly what the
/// acceptance tests pin.
static BODY_COPIES: AtomicU64 = AtomicU64::new(0);

pub(crate) fn bump_body_copies() {
    BODY_COPIES.fetch_add(1, Ordering::Relaxed);
}

/// Total body staging copies this process has taken (see
/// [`bump_body_copies`]'s doc on the static).
pub fn body_copies() -> u64 {
    BODY_COPIES.load(Ordering::Relaxed)
}
