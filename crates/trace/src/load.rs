//! Reference per-thread CPU accounting, off the switch path.
//!
//! Projections-style measurement-based balancing needs each thread's
//! accumulated on-CPU time. The scheduler keeps that counter in the
//! thread's control block and times bursts with the tick clock
//! (`flows_sys::time::{cycles, ticks_to_ns}`): one add per switch, no map.
//! [`LoadTracker`] is the map-based form of the same accounting — `begin()`
//! at switch-in, `end(tid)` at switch-out, vDSO clock, identity-hashed map
//! — which `flows-core` no longer uses. It is kept, unchanged, because the
//! benchmark ladder's `trace.load_track_ns` rung drives it to show what
//! that design costs per switch.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Thread ids are sequential process-wide counters, so the map uses the id
/// itself as its hash (which clusters under id churn; the scheduler's own
/// thread table multiplies and folds instead).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }
}

type IdMap = HashMap<u64, u64, BuildHasherDefault<IdHasher>>;

/// Accumulates per-thread on-CPU nanoseconds.
///
/// Keys are thread ids (`Tid.0`). The scheduler is non-preemptive, so
/// bursts never nest: one `begin` is always closed by one `end`.
#[derive(Debug, Default)]
pub struct LoadTracker {
    loads: IdMap,
    t0: u64,
}

impl LoadTracker {
    /// An empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mark the start of an on-CPU burst (at switch-in).
    #[inline]
    pub fn begin(&mut self) {
        self.t0 = flows_sys::time::load_clock_ns();
    }

    /// Close the burst opened by the last [`begin`](Self::begin),
    /// charge it to `tid`, and return its length in ns.
    #[inline]
    pub fn end(&mut self, tid: u64) -> u64 {
        let burst = flows_sys::time::load_clock_ns().saturating_sub(self.t0);
        *self.loads.entry(tid).or_insert(0) += burst;
        burst
    }

    /// Accumulated on-CPU ns for `tid` (0 if never seen).
    pub fn get(&self, tid: u64) -> u64 {
        self.loads.get(&tid).copied().unwrap_or(0)
    }

    /// Overwrite `tid`'s accumulated load (migration unpack restores the
    /// load carried in from the source PE).
    pub fn set(&mut self, tid: u64, ns: u64) {
        self.loads.insert(tid, ns);
    }

    /// Remove and return `tid`'s accumulated load (migration pack,
    /// thread exit).
    pub fn take(&mut self, tid: u64) -> u64 {
        self.loads.remove(&tid).unwrap_or(0)
    }

    /// Zero one thread's accumulated load (LB epoch boundary).
    pub fn reset(&mut self, tid: u64) {
        self.loads.remove(&tid);
    }

    /// Zero every thread's accumulated load.
    pub fn reset_all(&mut self) {
        self.loads.clear();
    }

    /// Iterate `(tid, accumulated ns)` pairs (unordered).
    pub fn loads(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.loads.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bursts_accumulate_per_thread() {
        let mut t = LoadTracker::new();
        t.begin();
        std::hint::black_box((0..1000).sum::<u64>());
        let b1 = t.end(7);
        t.begin();
        let b2 = t.end(7);
        assert_eq!(t.get(7), b1 + b2);
        assert_eq!(t.get(8), 0);
    }

    #[test]
    fn set_take_reset_roundtrip() {
        let mut t = LoadTracker::new();
        t.set(1, 500);
        t.set(2, 900);
        assert_eq!(t.take(1), 500);
        assert_eq!(t.take(1), 0);
        t.reset(2);
        assert_eq!(t.get(2), 0);
        t.set(3, 4);
        t.reset_all();
        assert_eq!(t.loads().count(), 0);
    }
}
