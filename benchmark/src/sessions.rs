//! `sessions` — the thread layer does all the work; no messages.
//!
//! Two PEs, each a `flows_core::Scheduler` on an OS thread of its own that
//! shares nothing with the other, each holding 1 000 live isomalloc sessions
//! with 16 KiB stacks (the flavor AMPI ranks use). On each PE a request is:
//! `awaken_tid` → the session touches 256 B of its stack → `yield_now` →
//! `iso_malloc`/`iso_free` of 512 B → `suspend`. At any time 16 of a PE's
//! sessions are *active*: requests pick among those, zipf(1.1)-skewed, and
//! every 8 192 requests another 16 are drawn. Every 16th request a session
//! serves is its last: it exits and is respawned, which churns the slab
//! cache.
//!
//! Phase A is a closed loop holding 256 requests outstanding (saturation
//! throughput); phase B is an open loop on a seeded Poisson schedule at a
//! frozen rate, each request timed from the moment it was *due*.

use crate::gen::{OpenLoop, Rng, Zipf};
use crate::span;
use crate::stats::{self, Summary};
use crate::workload::{Leg, Outcome};
use flows_core::{
    iso_free, iso_malloc, suspend, yield_now, SchedConfig, Scheduler, SharedPools, StackFlavor,
    ThreadId,
};
use flows_mem::IsoConfig;
use flows_sys::time::monotonic_ns;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::Barrier;

/// Schedulers, each on an OS thread of its own pinned to the CPU of the same
/// number, each with its own pools and sessions. They share nothing; there
/// are two because the host's cores do not slow down together, and a metric
/// sampled on both at once moves less than on either.
pub const PES: usize = 2;
/// Live sessions per PE.
pub const SESSIONS: usize = 1_000;
/// Sessions of a PE that take the requests at any one time; the others are
/// live and idle, as most connections of a server are. With the requests
/// spread over thousands of sessions the workload spends its time waiting
/// for the L2 and for memory, and on this host a neighbour's hyperthread
/// shares both: an L2-sized pointer chase takes 7 to 24 ns a step from one
/// second to the next, and ten runs of the same code spread 24–37 % on
/// every timed metric. Sixteen stacks, heaps and control blocks stay in the
/// L1, so what is timed is the runtime's own path.
pub const ACTIVE: usize = 16;
/// Requests between two draws of the active set, sixteen draws to a timed
/// window of phase A: which sessions are active decides which cache sets
/// their stacks (all at the same offset in their pages) compete for, and a
/// window should not be the story of one draw.
pub const ACTIVE_SWAP_REQS: u64 = WINDOW_REQS / 16;
pub const STACK_LEN: usize = 16 * 1024;
/// Stack, guard page and one 64 KiB heap commit chunk fit with room over.
const SLOT_LEN: usize = 128 * 1024;
pub const OUTSTANDING: u64 = 256;
pub const RESPAWN_EVERY: u32 = 16;
const STACK_WORDS: usize = 32; // 256 B
const HEAP_WORDS: usize = 64; // 512 B
pub const BYTES_PER_REQ: u64 = 8 * (STACK_WORDS + HEAP_WORDS) as u64;

/// Phase B's offered load per PE, requests per second: frozen, two
/// significant digits, at about an eighth of phase A's capacity on the
/// reference host (2.5–3.1 M req/s from one run to the next). README.md has
/// the why.
pub const OPEN_LOOP_RATE: f64 = 350_000.0;

/// Set-ups per PE in a run. A dropped isomalloc region stays mapped: slots
/// released through the slab cache's batched flush keep their
/// `Arc<IsoRegion>` (they are `mem::forget`-ed for their index), so each
/// set-up leaves two VMAs per session behind, and the process may hold
/// 65 530 (`vm.max_map_count`).
pub const MAX_SETUPS: usize = 12;

/// Share of a leg's seconds spent in phase A; phase B gets the rest.
const CLOSED_SHARE: f64 = 0.35;
/// Requests per timed window of phase A. Counted in requests, not in time:
/// the runtime's cost per request is periodic in the number of respawns
/// (thread ids are handed out in sequence and the scheduler's load tracker
/// keys an identity-hashed map with them, so fresh ids keep running into the
/// block of buckets the long-lived sessions hold — README.md, findings). The
/// period is the map's bucket count in respawns, of 16 requests each; with
/// 1 000 live sessions a window is a few whole periods.
pub const WINDOW_REQS: u64 = 8_192 * RESPAWN_EVERY as u64;
/// Requests per latency window of phase B.
const OPEN_WINDOW_REQS: u64 = 32_768;
/// Steps the driver runs between looks at the clock and the injector.
const BURST: usize = 32;
/// Requests each set-up serves before the first timed window, beyond the
/// one per session that faults every stack and heap in.
const WARMUP_REQS: u64 = 300_000;

struct Req {
    key: u64,
    due: u64,
}

/// What a correct session computes for `key`: the sum of the words it
/// wrote to its stack buffer and to its heap block.
pub fn expected_digest(key: u64) -> u64 {
    let stack = (0..STACK_WORDS as u64).fold(0u64, |a, i| a.wrapping_add(key.wrapping_add(i)));
    let heap = (0..HEAP_WORDS as u64).fold(0u64, |a, i| {
        a.wrapping_add(key.wrapping_mul(3).wrapping_add(i))
    });
    stack.wrapping_add(heap)
}

/// State shared by the driver and every session; all on one OS thread.
/// No borrow of a `RefCell` here is ever held across a context switch.
struct Shared {
    queues: Vec<RefCell<VecDeque<Req>>>,
    /// Session is suspended with an empty queue and needs an `awaken_tid`.
    idle: Vec<Cell<bool>>,
    exited: RefCell<Vec<u32>>,
    /// `(key, digest)` of finished requests, verified by the driver.
    completions: RefCell<Vec<(u64, u64)>>,
    record_lat: Cell<bool>,
    lat_ns: RefCell<Vec<u32>>,
    quit: Cell<bool>,
    /// Test hook: sessions corrupt the buffer of every 64th key.
    corrupt: bool,
    /// Traced runs: when the last flow switched out, and the gaps from
    /// there to the next flow running again.
    last_out: Cell<u64>,
    gaps_ns: RefCell<Vec<u32>>,
}

const MAX_GAPS: usize = 1 << 20;

#[inline]
fn stamp_out(sh: &Shared) {
    if span::enabled() {
        sh.last_out.set(monotonic_ns());
    }
}

#[inline]
fn stamp_in(sh: &Shared) {
    if span::enabled() {
        let out = sh.last_out.replace(0);
        if out != 0 {
            let mut g = sh.gaps_ns.borrow_mut();
            if g.len() < MAX_GAPS {
                g.push((monotonic_ns() - out).min(u32::MAX as u64) as u32);
            }
        }
    }
}

fn session_main(sh: Rc<Shared>, id: usize) {
    let mut served = 0u32;
    stamp_in(&sh);
    loop {
        let next = sh.queues[id].borrow_mut().pop_front();
        let Some(req) = next else {
            if sh.quit.get() {
                return;
            }
            sh.idle[id].set(true);
            stamp_out(&sh);
            suspend();
            stamp_in(&sh);
            continue;
        };
        let op = req.key as u32;
        let traced = span::enabled() && req.key.is_multiple_of(16);
        let open = |name| {
            if traced {
                span::begin(name, op)
            } else {
                span::Open::NONE
            }
        };

        let s = open("app.touch_stack");
        let mut buf = [0u64; STACK_WORDS];
        for (i, w) in buf.iter_mut().enumerate() {
            *w = req.key.wrapping_add(i as u64);
        }
        let buf = black_box(&mut buf);
        if sh.corrupt && req.key.is_multiple_of(64) {
            buf[7] ^= 1;
        }
        let mut digest = buf.iter().fold(0u64, |a, w| a.wrapping_add(*w));
        span::end(s);

        stamp_out(&sh);
        yield_now();
        stamp_in(&sh);

        let s = open("mem.iso_malloc");
        let block = iso_malloc(8 * HEAP_WORDS).expect("session heap") as *mut u64;
        span::end(s);
        let s = open("app.touch_heap");
        for i in 0..HEAP_WORDS {
            // SAFETY: `block` is a live 512-byte isomalloc allocation
            // (8-byte aligned by the allocator's size classes) owned by
            // this session until the `iso_free` below; `i < HEAP_WORDS`.
            unsafe {
                block
                    .add(i)
                    .write(req.key.wrapping_mul(3).wrapping_add(i as u64))
            };
        }
        let block = black_box(block);
        for i in 0..HEAP_WORDS {
            // SAFETY: as above; every word was just initialised.
            digest = digest.wrapping_add(unsafe { block.add(i).read() });
        }
        span::end(s);
        let s = open("mem.iso_free");
        assert!(iso_free(block as *mut u8), "session heap free");
        span::end(s);

        if sh.record_lat.get() {
            let lat = monotonic_ns().saturating_sub(req.due);
            sh.lat_ns.borrow_mut().push(lat.min(u32::MAX as u64) as u32);
        }
        sh.completions.borrow_mut().push((req.key, digest));
        served += 1;
        if served == RESPAWN_EVERY {
            sh.exited.borrow_mut().push(id as u32);
            stamp_out(&sh);
            return;
        }
    }
}

struct Driver {
    sched: Scheduler,
    sh: Rc<Shared>,
    tids: Vec<ThreadId>,
    /// Session ids; the first `ACTIVE` are the active set, by popularity.
    ids: Vec<u32>,
    zipf: Zipf,
    rng: Rng,
    injected: u64,
    done: u64,
    bad_digests: u64,
    respawns: u64,
    warm_hits: u64,
    steps: u64,
}

impl Driver {
    /// Pools, scheduler and `SESSIONS` spawned (not yet run) sessions.
    fn new(seed: u64, zipf: Zipf, corrupt: bool, lat_capacity: usize) -> Driver {
        let mut iso = IsoConfig::for_pes(1);
        iso.base = 0;
        iso.slot_len = SLOT_LEN;
        iso.slots_per_pe = SESSIONS + 1024;
        let pools = SharedPools::new(iso, 1 << 20).expect("session pools");
        // Every exited session's slab should find the next spawn, never a
        // batched reclaim: exits and respawns alternate one for one.
        let sched = Scheduler::new(
            0,
            pools,
            SchedConfig {
                stack_len: STACK_LEN,
                ..SchedConfig::default()
            },
        );
        let sh = Rc::new(Shared {
            queues: (0..SESSIONS)
                .map(|_| RefCell::new(VecDeque::new()))
                .collect(),
            idle: (0..SESSIONS).map(|_| Cell::new(false)).collect(),
            exited: RefCell::new(Vec::with_capacity(1024)),
            completions: RefCell::new(Vec::with_capacity(4096)),
            record_lat: Cell::new(false),
            lat_ns: RefCell::new(Vec::with_capacity(lat_capacity)),
            quit: Cell::new(false),
            corrupt,
            last_out: Cell::new(0),
            gaps_ns: RefCell::new(Vec::new()),
        });
        let mut d = Driver {
            sched,
            sh,
            tids: Vec::with_capacity(SESSIONS),
            ids: (0..SESSIONS as u32).collect(),
            zipf,
            rng: Rng::fork(seed, 1),
            injected: 0,
            done: 0,
            bad_digests: 0,
            respawns: 0,
            warm_hits: 0,
            steps: 0,
        };
        for id in 0..SESSIONS {
            let tid = d.spawn(id);
            d.tids.push(tid);
        }
        d
    }

    fn spawn(&self, id: usize) -> ThreadId {
        let sh = self.sh.clone();
        self.sched
            .spawn_with(StackFlavor::Isomalloc, STACK_LEN, move || {
                session_main(sh, id)
            })
            .expect("spawn session")
    }

    fn inject_to(&mut self, id: usize, due: u64) {
        let key = self.rng.next_u64();
        self.sh.queues[id].borrow_mut().push_back(Req { key, due });
        if self.sh.idle[id].replace(false) {
            let s = if span::enabled() && key.is_multiple_of(16) {
                span::begin("core.awaken_tid", key as u32)
            } else {
                span::Open::NONE
            };
            self.sched
                .awaken_tid(self.tids[id])
                .expect("awaken idle session");
            span::end(s);
        }
        self.injected += 1;
    }

    fn inject(&mut self, due: u64) {
        if self.injected.is_multiple_of(ACTIVE_SWAP_REQS) {
            // A fresh active set: the head of a partial Fisher–Yates
            // shuffle of all session ids.
            for i in 0..ACTIVE {
                let j = i + self.rng.below((SESSIONS - i) as u64) as usize;
                self.ids.swap(i, j);
            }
        }
        let id = self.ids[self.zipf.sample(&mut self.rng)] as usize;
        self.inject_to(id, due);
    }

    /// Run up to `n` scheduler steps, then respawn sessions that exited
    /// and verify what finished. Returns whether anything ran.
    fn burst(&mut self, n: usize) -> bool {
        let mut ran = false;
        for _ in 0..n {
            let s = if span::enabled() && self.steps.is_multiple_of(16) {
                span::begin("core.step", self.steps as u32)
            } else {
                span::Open::NONE
            };
            let stepped = self.sched.step();
            span::end(s);
            if !stepped {
                break;
            }
            self.steps += 1;
            ran = true;
        }
        loop {
            let Some(id) = self.sh.exited.borrow_mut().pop() else {
                break;
            };
            let warm = self.sched.shared().slab_cache().lock().cached(0) > 0;
            let s = span::begin("core.spawn", id);
            self.tids[id as usize] = self.spawn(id as usize);
            span::end(s);
            self.respawns += 1;
            self.warm_hits += warm as u64;
        }
        let mut done = self.sh.completions.borrow_mut();
        self.done += done.len() as u64;
        self.bad_digests += done
            .iter()
            .filter(|&&(key, digest)| digest != expected_digest(key))
            .count() as u64;
        done.clear();
        ran
    }

    /// Serve until nothing is outstanding.
    fn drain(&mut self) {
        while self.done < self.injected {
            assert!(
                self.burst(BURST),
                "requests outstanding but nothing runnable"
            );
        }
    }

    /// Closed loop for `span_ns` (and until one window is complete),
    /// `OUTSTANDING` in flight; returns the request rate of every whole
    /// window of `WINDOW_REQS` requests.
    fn closed_loop(&mut self, span_ns: u64) -> Vec<f64> {
        let start = monotonic_ns();
        let mut rates = Vec::new();
        let (mut mark_t, mut mark_done) = (start, self.done);
        loop {
            let now = monotonic_ns();
            if self.done - mark_done >= WINDOW_REQS {
                rates.push((self.done - mark_done) as f64 / ((now - mark_t) as f64 / 1e9));
                (mark_t, mark_done) = (now, self.done);
            }
            if now - start >= span_ns && !rates.is_empty() {
                break;
            }
            while self.injected - self.done < OUTSTANDING {
                self.inject(0);
            }
            self.burst(BURST);
        }
        self.drain();
        rates
    }

    /// Run the first request of every session (faults stacks and heaps
    /// in), then a closed-loop stretch so caches and the slab cache reach
    /// steady state.
    fn warm_up(&mut self) {
        for id in 0..SESSIONS {
            self.inject_to(id, 0);
            if id % OUTSTANDING as usize == 0 {
                self.drain();
            }
        }
        self.drain();
        let target = self.injected + WARMUP_REQS;
        while self.injected < target {
            while self.injected - self.done < OUTSTANDING {
                self.inject(0);
            }
            self.burst(BURST);
        }
        self.drain();
    }

    /// Let every session return, so the scheduler and pools can drop.
    fn shut_down(self) {
        self.sh.quit.set(true);
        for id in 0..SESSIONS {
            if self.sh.idle[id].replace(false) {
                self.sched
                    .awaken_tid(self.tids[id])
                    .expect("awaken for quit");
            }
        }
        self.sched.run();
        assert_eq!(self.sched.thread_count(), 0, "sessions left behind");
    }
}

/// How the open-loop generator itself did.
struct Offered {
    offered_per_s: f64,
    late_ns: Vec<u32>,
}

impl Driver {
    /// Open loop: inject `requests` arrivals on the Poisson schedule
    /// whatever the backlog, spin when there is nothing to run. Latencies
    /// land in `sh.lat_ns`, in completion order.
    fn open_loop(&mut self, requests: u64, rate: f64, seed: u64) -> Offered {
        let mut late_ns = Vec::with_capacity(requests as usize);
        self.sh.record_lat.set(true);
        let start = monotonic_ns();
        let mut arrivals = OpenLoop::new(seed, rate, start);
        let last = self.injected + requests;
        let mut last_due = start;
        loop {
            let now = monotonic_ns();
            while self.injected < last {
                let Some(due) = arrivals.pop_due(now) else {
                    break;
                };
                late_ns.push((now - due).min(u32::MAX as u64) as u32);
                self.inject(due);
                last_due = due;
            }
            if self.injected == last && self.done == self.injected {
                break;
            }
            // A short burst keeps the injector close to its schedule.
            self.burst(4);
        }
        self.sh.record_lat.set(false);
        Offered {
            offered_per_s: requests as f64 / ((last_due - start).max(1) as f64 / 1e9),
            late_ns,
        }
    }
}

fn to_us(ns: &[u32]) -> Vec<f64> {
    ns.iter().map(|&v| v as f64 / 1e3).collect()
}

/// What one PE's thread brings back from a leg.
#[derive(Default)]
struct PeLeg {
    out: Outcome,
    thread_bytes: Vec<f64>,
    p99: Vec<f64>,
    late_us: Vec<f64>,
    gaps_us: Vec<f64>,
    offered: f64,
    measured: u64,
    switches: u64,
    respawns: u64,
    warm_hits: u64,
    syscalls: u64,
    reclaim_batches: u64,
}

/// How a leg's seconds are cut up, the same on every PE.
#[derive(Clone, Copy)]
struct Plan {
    reps: usize,
    closed_ns: u64,
    open_reqs: u64,
    windows: usize,
}

/// One PE's share of a leg: `plan.reps` times set-up, phase A, phase B,
/// shut-down, in step with the other PEs.
fn run_pe(pe: usize, leg: Leg, plan: Plan, corrupt: bool, phase: &Barrier) -> PeLeg {
    crate::host::pin_current_thread(pe);
    let mut r = PeLeg::default();
    let out = &mut r.out;
    let zipf = Zipf::new(ACTIVE, 1.1);
    for rep in 0..plan.reps {
        // A seed of its own for every set-up of every PE.
        let seed = Rng::fork(leg.seed, 1000 + (pe * MAX_SETUPS + rep) as u64).next_u64();
        // Set-up, all PEs at once: PE 0 reads the process's RSS on both
        // sides of it, so the growth is that of every PE's sessions.
        phase.wait();
        let rss0 = crate::host::rss_bytes();
        let t0 = monotonic_ns();
        let mut d = Driver::new(seed, zipf.clone(), corrupt, plan.open_reqs as usize);
        d.warm_up();
        out.setup_s.push((monotonic_ns() - t0) as f64 / 1e9);
        phase.wait();
        if pe == 0 {
            r.thread_bytes.push(
                crate::host::rss_bytes().saturating_sub(rss0) as f64 / (PES * SESSIONS) as f64,
            );
        }
        let warm = (d.injected, d.respawns, d.warm_hits);

        // Phase A: closed loop.
        let sys0 = flows_sys::counters::snapshot();
        let switches0 = d.sched.stats().switches;
        let cpu0 = crate::host::thread_cpu_seconds();
        let a0 = d.done;
        let rates = d.closed_loop(plan.closed_ns);
        out.ops += d.done - a0;
        out.cpu_s += crate::host::thread_cpu_seconds() - cpu0;
        out.ops_per_s.push_setup(rates);

        // Phase B: open loop at the frozen rate.
        phase.wait();
        let gen = d.open_loop(plan.open_reqs, OPEN_LOOP_RATE, seed);
        let sys = flows_sys::counters::snapshot().since(&sys0);
        r.syscalls += sys.total();
        r.reclaim_batches += sys.reclaim_batch;
        r.measured += d.injected - warm.0;
        r.switches += d.sched.stats().switches - switches0;
        r.respawns += d.respawns - warm.1;
        r.warm_hits += d.warm_hits - warm.2;
        r.offered += gen.offered_per_s / plan.reps as f64;
        r.late_us.extend(to_us(&gen.late_ns));
        r.gaps_us.extend(to_us(&d.sh.gaps_ns.borrow()));

        let lat_us = to_us(&d.sh.lat_ns.borrow());
        out.lat_p50_us
            .push_setup(stats::windowed(&lat_us, plan.windows, stats::median));
        r.p99.extend(stats::windowed(&lat_us, plan.windows, |w| {
            stats::tail(&stats::sorted(w.to_vec())).unwrap_or(0.0)
        }));

        // Verification: every request finished, every digest right (which
        // is also the bytes-served ledger: a digest covers all 768 bytes a
        // request touches), and every open-loop request left a latency.
        out.attempted += d.injected;
        if d.done != d.injected {
            out.fail(
                d.injected - d.done,
                format!("{} requests never finished", d.injected - d.done),
            );
        }
        if d.bad_digests > 0 {
            out.fail(
                d.bad_digests,
                format!("{} requests returned a wrong digest", d.bad_digests),
            );
        }
        if lat_us.len() != gen.late_ns.len() {
            out.fail(
                1,
                "open-loop latency samples do not match injections".into(),
            );
        }
        // Tear-down, all PEs at once too: unmapping 1 000 slots interrupts
        // every CPU of the process, and must not do so under a timed window.
        phase.wait();
        d.shut_down();
    }
    span::flush();
    r
}

/// Run one leg. `corrupt` plants a checksum corruption (tests only).
pub fn run(leg: Leg, corrupt: bool) -> Outcome {
    // Every set-up is measured, each for its share of the seconds: where
    // the stacks and heaps land in physical memory is drawn anew with every
    // set of pools, and the host's speed changes in plateaus of seconds, so
    // each phase is sampled in many short stretches all along the run.
    let reps = leg.setups.clamp(1, MAX_SETUPS);
    // Whole windows that fit phase B's share of the seconds, at least one.
    let open_s = leg.seconds * (1.0 - CLOSED_SHARE) / reps as f64;
    let windows = ((open_s * OPEN_LOOP_RATE / OPEN_WINDOW_REQS as f64) as usize).max(1);
    let plan = Plan {
        reps,
        closed_ns: (leg.seconds * CLOSED_SHARE * 1e9) as u64 / reps as u64,
        open_reqs: windows as u64 * OPEN_WINDOW_REQS,
        windows,
    };
    let phase = Barrier::new(PES);
    let legs: Vec<PeLeg> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..PES)
            .map(|pe| {
                let phase = &phase;
                s.spawn(move || run_pe(pe, leg, plan, corrupt, phase))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a sessions PE panicked"))
            .collect()
    });

    // Every metric is per PE: the PEs share nothing, and each of their
    // set-ups is one more sample of it.
    let mut out = Outcome::default();
    let mut all = PeLeg::default();
    for mut l in legs {
        out.attempted += l.out.attempted;
        out.failed += l.out.failed;
        out.notes.append(&mut l.out.notes);
        out.setup_s.append(&mut l.out.setup_s);
        out.ops += l.out.ops;
        out.cpu_s += l.out.cpu_s;
        for w in l.out.ops_per_s.setups() {
            out.ops_per_s.push_setup(w.clone());
        }
        for w in l.out.lat_p50_us.setups() {
            out.lat_p50_us.push_setup(w.clone());
        }
        all.thread_bytes.append(&mut l.thread_bytes);
        all.p99.append(&mut l.p99);
        all.late_us.append(&mut l.late_us);
        all.gaps_us.append(&mut l.gaps_us);
        all.offered += l.offered / PES as f64;
        all.measured += l.measured;
        all.switches += l.switches;
        all.respawns += l.respawns;
        all.warm_hits += l.warm_hits;
        all.syscalls += l.syscalls;
        all.reclaim_batches += l.reclaim_batches;
    }
    out.mb_per_s = out
        .ops_per_s
        .scaled(BYTES_PER_REQ as f64 / (1 << 20) as f64);

    // The workload's own names for the common metrics, and what it alone
    // can measure.
    out.extra("req_per_s", "1/s", out.ops_per_s.summary());
    out.extra("req_p50_us", "us", out.lat_p50_us.summary());
    out.extra("req_p99_us", "us", Summary::of(&all.p99));
    out.extra("thread_bytes", "B", Summary::of(&all.thread_bytes));
    out.extra1("gen.offered_per_s", "1/s", all.offered);
    if !all.late_us.is_empty() {
        out.extra1(
            "gen.late_p99_us",
            "us",
            stats::tail(&stats::sorted(all.late_us)).unwrap_or(0.0),
        );
    }
    let measured = all.measured.max(1) as f64;
    out.extra1(
        "sys.syscalls_per_op",
        "count",
        all.syscalls as f64 / measured,
    );
    out.extra1(
        "core.switches_per_op",
        "count",
        all.switches as f64 / measured,
    );
    out.extra1(
        "mem.warm_hit_ratio",
        "ratio",
        all.warm_hits as f64 / all.respawns.max(1) as f64,
    );
    out.extra1("mem.reclaim_batches", "count", all.reclaim_batches as f64);
    if !all.gaps_us.is_empty() {
        out.extra1(
            "core.switch_gap_ns",
            "ns",
            stats::median(&all.gaps_us) * 1e3,
        );
    }
    out
}
