//! # flows-trace — Projections-style runtime tracing and metrics
//!
//! The paper's evidence — per-PE timelines, grainsize histograms,
//! utilization plots, and the measurement-based load balancer's input —
//! all comes from Charm++'s *Projections* tracing layer. This crate is
//! that layer for the reproduction:
//!
//! * a per-PE single-writer [`TraceRing`] of fixed-size [`Event`]s,
//!   timestamped with the vDSO clock (`flows_sys::time::load_clock_ns`),
//!   a few nanoseconds per event when enabled;
//! * a compile-time feature (`ring`, default on) **and** a process-wide
//!   runtime gate ([`set_enabled`]): with the feature off [`emit`]
//!   compiles to nothing, with the gate off it is one relaxed atomic
//!   load and a predictable branch;
//! * a [`LoadTracker`], the map-based reference form of per-thread
//!   on-CPU accounting (the scheduler itself keeps the counter in the
//!   control block; the same burst feeds it and the `SwitchOut` event);
//! * a [`TraceSummary`] reducing raw rings to the paper's analyses
//!   (utilization, switch/message rates, grainsize histograms,
//!   migration timelines), pup- and JSON-serializable;
//! * a Chrome-trace exporter ([`chrome::chrome_trace_json`]) whose
//!   output opens directly in Perfetto / `chrome://tracing`.
//!
//! ### Recording discipline
//! Events are recorded through a thread-local *current ring* pointer,
//! installed around each span of PE driving (`flows-converse` installs
//! it in `Pe::enter`/`Pe::leave`; standalone schedulers and benches use
//! [`install_ring`]). A ring is written by exactly one OS thread at a
//! time and read only after its writer has quiesced (machine report
//! time, after joins) — which is what makes the ring lock-free.

#![warn(missing_docs)]

pub mod chrome;
mod event;
mod load;
mod ring;
pub mod san;
mod summary;

pub use event::{Event, EventKind};
pub use load::LoadTracker;
pub use ring::TraceRing;
pub use summary::{summarize, summarize_pe, MigRecord, PeTraceSummary, TraceSummary, GRAIN_BUCKETS};

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Stack-flavor tags used in trace events — same encoding as the
/// migration wire format (`flows-core`), so tools agree on names.
pub const FLAVOR_NAMES: [&str; 4] = ["stack-copy", "isomalloc", "memory-alias", "standard"];

/// Human name of a flavor tag carried in an event payload.
pub fn flavor_name(tag: u64) -> &'static str {
    FLAVOR_NAMES.get(tag as usize).copied().unwrap_or("unknown")
}

/// The process-wide runtime gate. Off by default: a compiled-in but
/// disabled tracer costs one relaxed load per would-be event.
static GATE: AtomicBool = AtomicBool::new(false);

/// Is event recording currently enabled? Constant `false` when the
/// `ring` feature is compiled out (the call folds away entirely).
#[inline(always)]
pub fn enabled() -> bool {
    cfg!(feature = "ring") && GATE.load(Ordering::Relaxed)
}

/// Turn the process-wide recording gate on or off.
pub fn set_enabled(yes: bool) {
    GATE.store(yes, Ordering::Relaxed);
}

thread_local! {
    /// The ring receiving this OS thread's events right now (null = none).
    static CURRENT_RING: Cell<*const TraceRing> = const { Cell::new(std::ptr::null()) };
}

/// Install `next` as the calling OS thread's event destination, returning
/// the previous pointer (restore it when the span ends). Pass null to
/// uninstall.
///
/// # Safety
/// The caller must guarantee the pointed-to ring outlives the span during
/// which it is installed (every [`emit`] between this call and the
/// restoring call dereferences it). `flows-converse` satisfies this by
/// holding the ring in an `Arc` on the `Pe` it installs around.
pub unsafe fn swap_current(next: *const TraceRing) -> *const TraceRing {
    CURRENT_RING.with(|c| c.replace(next))
}

/// The raw pointer for [`swap_current`] from an optional shared ring.
pub fn ring_ptr(ring: Option<&Arc<TraceRing>>) -> *const TraceRing {
    ring.map_or(std::ptr::null(), Arc::as_ptr)
}

/// RAII installation of a ring for the calling OS thread (benches, tests,
/// standalone schedulers). Restores the previous ring on drop.
pub struct RingGuard {
    prev: *const TraceRing,
    /// Keeps the ring alive for the installation span.
    _ring: Arc<TraceRing>,
}

/// Install `ring` as the calling thread's event destination until the
/// returned guard drops.
pub fn install_ring(ring: &Arc<TraceRing>) -> RingGuard {
    // SAFETY: the guard holds an Arc clone, so the ring outlives the span.
    let prev = unsafe { swap_current(Arc::as_ptr(ring)) };
    RingGuard {
        prev,
        _ring: ring.clone(),
    }
}

impl Drop for RingGuard {
    fn drop(&mut self) {
        // SAFETY: restoring the pointer that was current before install.
        unsafe {
            swap_current(self.prev);
        }
    }
}

/// Record one event on the calling thread's current ring, timestamped
/// now. A no-op when the gate is off or no ring is installed; the
/// disabled fast path is one relaxed load and a branch.
#[inline]
pub fn emit(kind: EventKind, a: u64, b: u64, c: u64) {
    if !enabled() {
        return;
    }
    emit_now(kind, a, b, c);
}

/// The gated slow half of [`emit`], outlined so the disabled path stays
/// branch-and-return.
fn emit_now(kind: EventKind, a: u64, b: u64, c: u64) {
    CURRENT_RING.with(|cur| {
        let p = cur.get();
        if p.is_null() {
            return;
        }
        let ts = flows_sys::time::load_clock_ns();
        // SAFETY: the installer of `p` guarantees the ring outlives the
        // installation span (see `swap_current`).
        unsafe { (*p).push(Event { ts, kind, a, b, c }) }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn emit_without_ring_or_gate_is_a_noop() {
        set_enabled(false);
        emit(EventKind::Mark, 1, 2, 3); // no ring, gate off: nothing happens
        set_enabled(true);
        emit(EventKind::Mark, 1, 2, 3); // gate on but no ring: still nothing
        set_enabled(false);
    }

    #[test]
    fn install_ring_routes_events_and_restores() {
        let ring = Arc::new(TraceRing::new(0, 64));
        set_enabled(true);
        {
            let _g = install_ring(&ring);
            emit(EventKind::Mark, 7, 8, 9);
        }
        emit(EventKind::Mark, 0, 0, 0); // guard dropped: not recorded
        set_enabled(false);
        let evs = ring.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, EventKind::Mark);
        assert_eq!((evs[0].a, evs[0].b, evs[0].c), (7, 8, 9));
        assert!(evs[0].ts > 0);
    }

    #[test]
    fn gate_off_records_nothing_even_with_ring() {
        let ring = Arc::new(TraceRing::new(0, 64));
        set_enabled(false);
        let _g = install_ring(&ring);
        for _ in 0..1000 {
            emit(EventKind::MsgSend, 1, 2, 3);
        }
        assert_eq!(ring.total_events(), 0);
    }

    #[test]
    fn flavor_names_cover_tags() {
        assert_eq!(flavor_name(0), "stack-copy");
        assert_eq!(flavor_name(3), "standard");
        assert_eq!(flavor_name(99), "unknown");
    }

    #[test]
    fn disabled_emit_is_cheap() {
        // Satellite: tracing compiled in but gated off must be noise.
        // 10M disabled emits in well under a second even on a slow host
        // (~a nanosecond each); the generous bound avoids CI flakiness.
        set_enabled(false);
        let t0 = std::time::Instant::now();
        for i in 0..10_000_000u64 {
            emit(EventKind::SwitchIn, i, 0, 0);
        }
        let per = t0.elapsed().as_nanos() as f64 / 10_000_000.0;
        assert!(per < 50.0, "disabled emit costs {per:.1} ns, want < 50");
    }
}
