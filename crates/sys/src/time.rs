//! Clocks: the runtime's per-burst tick clock and the benchmark timers.
//!
//! Three clocks, three jobs. [`cycles`] + [`ticks_to_ns`] time the
//! scheduler's on-CPU bursts (two `rdtsc` reads per switch, no kernel, no
//! vDSO call). [`monotonic_ns`] / [`load_clock_ns`] stamp trace events and
//! wall spans. [`thread_cpu_ns`] — a real syscall — feeds the converse
//! pump's virtual clock, where host preemption must not count. The paper
//! reports context-switch times down to ~16 ns (Fig. 10), so anything read
//! per switch has to cost less than that.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Monotonic nanoseconds since an arbitrary epoch (CLOCK_MONOTONIC).
pub fn monotonic_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes into the timespec we provide.
    unsafe { libc::clock_gettime(libc::CLOCK_MONOTONIC, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed by the calling OS thread, in nanoseconds
/// (CLOCK_THREAD_CPUTIME_ID). Use this — not wall time — to measure work
/// bursts: wall time silently absorbs preemption by unrelated processes,
/// which corrupts load measurement on busy hosts.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = libc::timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: clock_gettime writes into the timespec we provide.
    unsafe { libc::clock_gettime(libc::CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The trace timestamp clock: monotonic nanoseconds via the vDSO — no
/// kernel entry, ~25 ns. Only read with the trace gate on; per-burst load
/// accounting uses the cheaper [`cycles`] / [`ticks_to_ns`] pair.
#[inline]
pub fn load_clock_ns() -> u64 {
    monotonic_ns()
}

/// Read the tick source: the time-stamp counter on x86-64 (~12 ns, no
/// memory effects), `monotonic_ns` elsewhere so callers stay portable.
/// Differences of two reads on one OS thread are wall ticks; convert them
/// with [`ticks_to_ns`]. A non-preemptive PE owns its OS thread, so the
/// wall ticks between swap-in and swap-out *are* the burst's CPU time in
/// the common case (Charm++'s load database is likewise built on wall
/// timers); `CLOCK_THREAD_CPUTIME_ID` would stay exact under preemption by
/// unrelated processes, but it is a ~200 ns syscall and a switch would pay
/// two of them.
#[inline]
pub fn cycles() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: rdtsc has no memory effects.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        monotonic_ns()
    }
}

/// One `(ticks, monotonic_ns)` reading of the same instant: the ns read is
/// bracketed by two tick reads and paired with their midpoint; of four
/// tries the tightest bracket wins, so a preemption between the reads
/// cannot skew the pair.
fn tick_pair() -> (u64, u64) {
    let mut best = (u64::MAX, 0, 0);
    for _ in 0..4 {
        let a = cycles();
        let ns = monotonic_ns();
        let width = cycles().saturating_sub(a);
        if width < best.0 {
            best = (width, a + width / 2, ns);
        }
    }
    (best.1, best.2)
}

/// Process-wide anchor of the tick→ns ratio, taken at the first
/// [`ticks_to_ns`] call.
static TICK_ANCHOR: OnceLock<(u64, u64)> = OnceLock::new();
/// Nanoseconds per tick as a 32.32 fixed-point number; 0 until the anchor
/// is [`RATIO_SETTLE_NS`] old. Publishes nothing but itself.
static NS_PER_TICK_Q32: AtomicU64 = AtomicU64::new(0);
/// Anchor age at which the ratio is frozen: the pair's bracket is tens of
/// ns wide, so 10 ms bounds the relative error near 1e-5.
const RATIO_SETTLE_NS: u64 = 10_000_000;

/// Convert a [`cycles`] difference to nanoseconds.
///
/// The ratio is measured, not calibrated with a sleep: the first call
/// anchors a `(ticks, monotonic_ns)` pair, and until that anchor is 10 ms
/// old each call derives the ratio from the anchor to now (one extra clock
/// read); after that it is one relaxed load and a multiply. A difference
/// whose start is no older than the anchor is off by at most the clock's
/// own read jitter even on the very first calls, which is why
/// `Scheduler::new` anchors before any burst starts.
#[inline]
pub fn ticks_to_ns(ticks: u64) -> u64 {
    let mut ratio = NS_PER_TICK_Q32.load(Ordering::Relaxed);
    if ratio == 0 {
        ratio = young_ratio();
    }
    ((u128::from(ticks) * u128::from(ratio)) >> 32) as u64
}

#[cold]
fn young_ratio() -> u64 {
    let &(t0, n0) = TICK_ANCHOR.get_or_init(tick_pair);
    // Even the anchoring call sees a span: a pair takes longer to read
    // than either clock's resolution.
    let (t1, n1) = tick_pair();
    let (dt, dn) = (t1.saturating_sub(t0), n1.saturating_sub(n0));
    let ratio = ((u128::from(dn) << 32) / u128::from(dt.max(1))) as u64;
    if dn >= RATIO_SETTLE_NS {
        NS_PER_TICK_Q32.store(ratio, Ordering::Relaxed);
    }
    ratio
}

/// A stopwatch that reports elapsed wall time in seconds / nanoseconds.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Elapsed nanoseconds.
    pub fn nanos(&self) -> u128 {
        self.start.elapsed().as_nanos()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Run `f` repeatedly until it has consumed at least `min_ns` nanoseconds
/// and return `(iterations, elapsed_ns)`. `f` is called with the iteration
/// batch size it should perform. Used by the figure harnesses to get stable
/// per-operation times without criterion's full machinery.
pub fn measure_for(min_ns: u64, mut batch: u64, mut f: impl FnMut(u64)) -> (u64, u64) {
    let mut total_iters = 0u64;
    let t0 = Instant::now();
    loop {
        f(batch);
        total_iters += batch;
        let el = t0.elapsed().as_nanos() as u64;
        if el >= min_ns {
            return (total_iters, el);
        }
        // Grow batches so the loop overhead stays negligible.
        batch = batch.saturating_mul(2).min(1 << 24);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_increases() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }

    #[test]
    fn stopwatch_measures_something() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.nanos() >= 1_000_000);
        assert!(sw.secs() > 0.0);
    }

    #[test]
    fn measure_for_counts_iterations() {
        let mut calls = 0u64;
        let (iters, ns) = measure_for(1_000_000, 10, |b| {
            calls += b;
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        assert_eq!(calls, iters);
        assert!(ns >= 1_000_000);
        assert!(iters >= 10);
    }
}
