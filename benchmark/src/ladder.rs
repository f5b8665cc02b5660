//! The layer ladder: each layer's public API driven in isolation.
//!
//! Every rung is measured best-of-N (minimum for a cost, maximum for a
//! rate; the median and the spread of the N are printed beside it), from
//! outside the crate it measures. Rungs are independent of the workload a
//! traced run was asked for, so a number here can be compared between any
//! two traced runs.

use crate::stats::BestOf;
use flows_converse::{FaultPlan, MachineBuilder, NetModel};
use flows_core::{
    suspend, yield_now, PackedThread, PayloadPool, SchedConfig, Scheduler, SharedPools,
    StackFlavor, ThreadId,
};
use flows_mem::{IsoConfig, ThreadSlab};
use flows_net::{Frame, Segment, ShmTransport, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES};
use flows_sys::time::monotonic_ns;
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One measured rung.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    /// The value reported: best of the repetitions.
    pub best: f64,
    pub median: f64,
    /// (max - min) / median over the repetitions.
    pub spread: f64,
}

fn rung(name: &'static str, unit: &'static str, higher_is_better: bool, samples: &[f64]) -> Rung {
    let b = BestOf::of(samples);
    Rung {
        name,
        unit,
        best: if higher_is_better { b.max } else { b.min },
        median: b.median,
        spread: b.spread,
    }
}

/// A cost rung: `reps` repetitions of `f`, each returning ns per operation.
fn cost(name: &'static str, unit: &'static str, reps: usize, mut f: impl FnMut() -> f64) -> Rung {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    rung(name, unit, false, &samples)
}

/// A rate rung (higher is better).
fn rate(name: &'static str, unit: &'static str, reps: usize, mut f: impl FnMut() -> f64) -> Rung {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    rung(name, unit, true, &samples)
}

/// Time `iters` runs of `f`, ns per run.
fn per_op(iters: u64, mut f: impl FnMut()) -> f64 {
    let t0 = monotonic_ns();
    for _ in 0..iters {
        f();
    }
    (monotonic_ns() - t0) as f64 / iters as f64
}

fn pools(pes: usize, slot_len: usize, slots: usize) -> Arc<SharedPools> {
    let mut iso = IsoConfig::for_pes(pes);
    iso.base = 0;
    iso.slot_len = slot_len;
    iso.slots_per_pe = slots;
    SharedPools::new(iso, 1 << 20).expect("ladder pools")
}

const STACK: usize = 16 * 1024;
const REPS: usize = 5;

// ---------------------------------------------------------------- sys

fn sys_rungs(out: &mut Vec<Rung>) {
    out.push(cost("sys.clock_ns", "ns", REPS, || {
        per_op(200_000, || {
            black_box(monotonic_ns());
        })
    }));

    // Two kernel threads hand a token back and forth through two futex
    // words: the floor under every parked hand-off in the runtime.
    out.push(cost("sys.futex_handoff_ns", "ns", 3, || {
        const ROUNDS: u32 = 4000;
        let ping = Arc::new(AtomicU32::new(0));
        let pong = Arc::new(AtomicU32::new(0));
        let (ping2, pong2) = (ping.clone(), pong.clone());
        let echo = std::thread::spawn(move || {
            for i in 1..=ROUNDS {
                while ping2.load(Ordering::Acquire) != i {
                    let _ = flows_sys::futex::wait(&ping2, i - 1, Some(Duration::from_millis(5)));
                }
                pong2.store(i, Ordering::Release);
                let _ = flows_sys::futex::wake(&pong2, 1);
            }
        });
        let t0 = monotonic_ns();
        for i in 1..=ROUNDS {
            ping.store(i, Ordering::Release);
            let _ = flows_sys::futex::wake(&ping, 1);
            while pong.load(Ordering::Acquire) != i {
                let _ = flows_sys::futex::wait(&pong, i - 1, Some(Duration::from_millis(5)));
            }
        }
        let ns = (monotonic_ns() - t0) as f64 / (2 * ROUNDS) as f64;
        echo.join().expect("futex echo thread");
        ns
    }));

    out.push(cost("sys.mmap_cycle_ns", "ns", REPS, || {
        per_op(2000, || {
            let m = flows_sys::Mapping::reserve(1 << 20).expect("reserve");
            m.commit(0, 64 * 1024, flows_sys::Protection::ReadWrite)
                .expect("commit");
            // SAFETY: the first page of the mapping was just committed
            // read-write and is owned by `m`.
            unsafe { m.ptr(0).write_volatile(1) };
        })
    }));
}

// --------------------------------------------------------------- arch

mod rawswap {
    //! A two-context ping-pong on the bare swap routine.
    use flows_arch::{Context, InitialStack, SwapKind};
    use std::cell::Cell;

    pub struct PingPong {
        main: Context,
        flow: Context,
        stop: bool,
        _stack: Vec<u8>,
    }

    thread_local! {
        static EXIT_TO: Cell<*mut PingPong> = const { Cell::new(std::ptr::null_mut()) };
    }

    fn exit_hook() -> ! {
        let st = EXIT_TO.with(|c| c.get());
        // SAFETY: `st` was installed by `make` and outlives the flow; the
        // main context was saved by the swap that resumed the flow.
        unsafe {
            let mut dead = Context::new((*st).main.kind());
            Context::swap_raw(&raw mut dead, &raw const (*st).main);
        }
        unreachable!("a finished flow was resumed")
    }

    extern "C" fn partner(arg: usize) {
        let st = arg as *mut PingPong;
        // SAFETY: cooperative ping-pong on one OS thread — main runs only
        // while this flow is suspended, so the two never touch `*st` at
        // once.
        unsafe {
            while !(*st).stop {
                Context::swap_raw(&raw mut (*st).flow, &raw const (*st).main);
            }
        }
    }

    pub fn make(kind: SwapKind) -> *mut PingPong {
        let mut stack = vec![0u8; 64 * 1024];
        // SAFETY: one past the end of the owned vector, used only as the
        // (exclusive) top of the flow's stack.
        let top = unsafe { stack.as_mut_ptr().add(stack.len()) };
        let st = Box::into_raw(Box::new(PingPong {
            main: Context::new(kind),
            flow: Context::new(kind),
            stop: false,
            _stack: stack,
        }));
        flows_arch::set_exit_hook(exit_hook);
        EXIT_TO.with(|c| c.set(st));
        // SAFETY: the stack is 64 KiB, owned by `*st`, and stays put (the
        // Vec's buffer does not move when the Vec itself is moved).
        unsafe { (*st).flow = InitialStack::build(kind, top, partner, st as usize) };
        st
    }

    /// One round trip: main → flow → main.
    ///
    /// # Safety
    /// `st` must come from [`make`] on this OS thread and not be finished.
    pub unsafe fn round_trip(st: *mut PingPong) {
        // SAFETY: per the contract the flow is suspended in `partner`.
        unsafe { Context::swap_raw(&raw mut (*st).main, &raw const (*st).flow) }
    }

    /// Let the flow return, then free it.
    ///
    /// # Safety
    /// As [`round_trip`]; `st` must not be used afterwards.
    pub unsafe fn finish(st: *mut PingPong) {
        // SAFETY: the flow sees `stop`, returns into the exit hook, which
        // swaps back here; nothing references `*st` after that.
        unsafe {
            (*st).stop = true;
            Context::swap_raw(&raw mut (*st).main, &raw const (*st).flow);
            drop(Box::from_raw(st));
        }
    }
}

fn arch_rungs(out: &mut Vec<Rung>) {
    for (name, kind, iters) in [
        ("arch.swap_ns", flows_arch::SwapKind::Minimal, 200_000u64),
        (
            "arch.swap_sigmask_ns",
            flows_arch::SwapKind::SignalMask,
            20_000,
        ),
    ] {
        out.push(cost(name, "ns", REPS, || {
            let st = rawswap::make(kind);
            // SAFETY: `st` is fresh from `make` on this thread and is
            // finished exactly once, after the last round trip.
            let ns = per_op(iters, || unsafe { rawswap::round_trip(st) }) / 2.0;
            // SAFETY: as above.
            unsafe { rawswap::finish(st) };
            ns
        }));
    }
}

// ---------------------------------------------------------------- mem

fn mem_rungs(out: &mut Vec<Rung>) {
    let shared = pools(1, 128 * 1024, 256);
    let region = shared.region().clone();

    out.push(cost("mem.slot_cycle_ns", "ns", REPS, || {
        per_op(5000, || {
            let slot = region.alloc_slot(0).expect("slot");
            black_box(ThreadSlab::new(slot, STACK).expect("slab"));
        })
    }));

    out.push(cost("mem.slab_warm_take_ns", "ns", REPS, || {
        let slab = ThreadSlab::new(region.alloc_slot(0).expect("slot"), STACK).expect("slab");
        let mut slab = Some(slab);
        per_op(20_000, || {
            let mut cache = shared.slab_cache().lock();
            cache
                .put(0, slab.take().expect("slab in hand"))
                .expect("put");
            slab = cache.take(0, STACK);
        })
    }));

    out.push(cost("mem.alias_bind_ns", "ns", REPS, || {
        per_op(5000, || {
            let mut pool = shared.alias().lock();
            let b = pool.bind(0).expect("bind");
            pool.retire(b).expect("retire");
        })
    }));

    out.push(cost("mem.heap_alloc_ns", "ns", REPS, || {
        let mut slab = ThreadSlab::new(region.alloc_slot(0).expect("slot"), STACK).expect("slab");
        per_op(100_000, || {
            let p = slab.malloc(512).expect("malloc");
            slab.free(black_box(p)).expect("free");
        })
    }));

    // Pack and unpack a slab the size of a BT-MZ rank: 64 KiB of heap in
    // use, 4 KiB of live stack.
    let (mut pack, mut unpack) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut p_ns, mut u_ns) = (0u64, 0u64);
        const N: u64 = 200;
        let big = pools(1, 1 << 20, 8);
        let mut slab =
            ThreadSlab::new(big.region().alloc_slot(0).expect("slot"), 64 * 1024).expect("slab");
        slab.malloc(64 * 1024).expect("heap in use");
        for _ in 0..N {
            let sp = slab.stack_top() - 4096;
            let t0 = monotonic_ns();
            let image = slab.pack(sp).expect("pack");
            let t1 = monotonic_ns();
            let (back, _) = ThreadSlab::unpack(big.region(), &image).expect("unpack");
            u_ns += monotonic_ns() - t1;
            p_ns += t1 - t0;
            slab = back;
        }
        pack.push(p_ns as f64 / N as f64);
        unpack.push(u_ns as f64 / N as f64);
    }
    out.push(rung("mem.slab_pack_ns", "ns", false, &pack));
    out.push(rung("mem.slab_unpack_ns", "ns", false, &unpack));
}

// --------------------------------------------------------------- core

const FLAVORS: [(StackFlavor, &str, &str); 4] = [
    (
        StackFlavor::Standard,
        "core.yield_ns.standard",
        "core.spawn_exit_ns.standard",
    ),
    (
        StackFlavor::StackCopy,
        "core.yield_ns.stackcopy",
        "core.spawn_exit_ns.stackcopy",
    ),
    (
        StackFlavor::Isomalloc,
        "core.yield_ns.isomalloc",
        "core.spawn_exit_ns.isomalloc",
    ),
    (
        StackFlavor::Alias,
        "core.yield_ns.alias",
        "core.spawn_exit_ns.alias",
    ),
];

/// 16 threads of `flavor` yield in a circle; ns per switch by the
/// scheduler's own switch counter.
fn yield_ns(flavor: StackFlavor) -> f64 {
    let sched = Scheduler::new(0, pools(1, 1 << 20, 64), SchedConfig::default());
    let stop = Rc::new(Cell::new(false));
    for _ in 0..16 {
        let stop = stop.clone();
        sched
            .spawn_with(flavor, 32 * 1024, move || {
                while !stop.get() {
                    yield_now();
                }
            })
            .expect("spawn yielder");
    }
    for _ in 0..64 {
        sched.step();
    }
    let s0 = sched.stats().switches;
    let t0 = monotonic_ns();
    for _ in 0..100_000 {
        sched.step();
    }
    let ns = (monotonic_ns() - t0) as f64 / (sched.stats().switches - s0) as f64;
    stop.set(true);
    sched.run();
    ns
}

fn spawn_exit_ns(flavor: StackFlavor) -> f64 {
    let sched = Scheduler::new(0, pools(1, 1 << 20, 128), SchedConfig::default());
    let batch = |s: &Scheduler| {
        for _ in 0..64 {
            s.spawn_with(flavor, 32 * 1024, || {}).expect("spawn");
        }
        s.run();
    };
    batch(&sched);
    per_op(200, || batch(&sched)) / 64.0
}

/// `n` isomalloc threads parked in `suspend()`, started and therefore
/// packable.
fn parked(sched: &Scheduler, n: usize, stop: &Rc<Cell<bool>>) -> Vec<ThreadId> {
    let tids = (0..n)
        .map(|_| {
            let stop = stop.clone();
            sched
                .spawn_with(StackFlavor::Isomalloc, 32 * 1024, move || {
                    while !stop.get() {
                        suspend();
                    }
                })
                .expect("spawn parked thread")
        })
        .collect();
    sched.run();
    tids
}

fn core_rungs(out: &mut Vec<Rung>) {
    for (flavor, yield_name, _) in FLAVORS {
        out.push(cost(yield_name, "ns", REPS, || yield_ns(flavor)));
    }
    for (flavor, _, spawn_name) in FLAVORS {
        out.push(cost(spawn_name, "ns", 3, || spawn_exit_ns(flavor)));
    }

    out.push(cost("core.suspend_awaken_ns", "ns", REPS, || {
        let sched = Scheduler::new(0, pools(1, 1 << 20, 8), SchedConfig::default());
        let stop = Rc::new(Cell::new(false));
        let tid = parked(&sched, 1, &stop)[0];
        let ns = per_op(100_000, || {
            sched.awaken_tid(tid).expect("awaken");
            sched.step();
        });
        stop.set(true);
        sched.awaken_tid(tid).expect("awaken");
        sched.run();
        ns
    }));

    // Steal protocol: an idle thief asks, the victim donates at its pump
    // boundary, the thief absorbs. Cost per thread moved, and how often a
    // request came back with work.
    let (mut cycle, mut hit) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let shared = pools(2, 1 << 20, 256);
        let victim = Scheduler::new(0, shared.clone(), SchedConfig::default());
        let thief = Scheduler::new(1, shared, SchedConfig::default());
        let stop = Rc::new(Cell::new(false));
        for _ in 0..128 {
            let stop = stop.clone();
            victim
                .spawn_with(StackFlavor::Isomalloc, 32 * 1024, move || {
                    while !stop.get() {
                        yield_now();
                    }
                })
                .expect("spawn steal fodder");
        }
        for _ in 0..256 {
            victim.step();
        }
        let (mut moved, mut requests, mut hits) = (0u64, 0u64, 0u64);
        let t0 = monotonic_ns();
        for round in 0..200 {
            // Alternate direction so neither side runs dry.
            let (from, to) = if round % 2 == 0 {
                (&victim, &thief)
            } else {
                (&thief, &victim)
            };
            from.publish_steal_load();
            to.publish_steal_load();
            to.request_steal();
            requests += 1;
            from.donate_steals();
            let got = to.absorb_steals() as u64;
            hits += (got > 0) as u64;
            moved += got;
        }
        cycle.push((monotonic_ns() - t0) as f64 / moved.max(1) as f64);
        hit.push(hits as f64 / requests as f64);
        stop.set(true);
        victim.run();
        thief.run();
    }
    out.push(rung("core.steal_cycle_ns", "ns", false, &cycle));
    out.push(rung("core.steal_hit_ratio", "ratio", true, &hit));

    // Payload pool: take a buffer, fill 256 B, freeze, share, drop.
    let pool = PayloadPool::with_defaults();
    out.push(cost("core.payload_cycle_ns", "ns", REPS, || {
        per_op(200_000, || {
            let mut buf = pool.buf_with_capacity(256);
            buf.extend_from_slice(&[7u8; 256]);
            let p = buf.freeze();
            black_box(p.clone());
        })
    }));
    let st = pool.stats();
    out.push(rung(
        "core.pool_hit_ratio",
        "ratio",
        true,
        &[st.reuses as f64 / (st.reuses + st.allocs).max(1) as f64],
    ));

    // Thread migration halves: pack → wire bytes → unpack on another PE.
    let (mut pack, mut unpack) = (Vec::new(), Vec::new());
    // Whole-scheduler checkpoint and restore, per thread.
    let (mut ckpt, mut restore) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        let shared = pools(2, 1 << 20, 128);
        let pe = [
            Scheduler::new(0, shared.clone(), SchedConfig::default()),
            Scheduler::new(1, shared, SchedConfig::default()),
        ];
        let stop = Rc::new(Cell::new(false));
        let tids = parked(&pe[0], 32, &stop);
        let (mut p_ns, mut u_ns, mut n) = (0u64, 0u64, 0u64);
        let mut src = 0;
        for _ in 0..20 {
            for &tid in &tids {
                let t0 = monotonic_ns();
                let bytes = pe[src].pack_thread(tid).expect("pack").to_bytes();
                let t1 = monotonic_ns();
                let arrived = PackedThread::from_bytes(&bytes).expect("wire");
                pe[1 - src].unpack_thread(arrived).expect("unpack");
                u_ns += monotonic_ns() - t1;
                p_ns += t1 - t0;
                n += 1;
            }
            src = 1 - src;
        }
        pack.push(p_ns as f64 / n as f64);
        unpack.push(u_ns as f64 / n as f64);

        let (mut c_ns, mut r_ns) = (0u64, 0u64);
        for _ in 0..20 {
            let t0 = monotonic_ns();
            let image = pe[src].checkpoint().expect("checkpoint");
            let t1 = monotonic_ns();
            pe[src].restore(image).expect("restore");
            r_ns += monotonic_ns() - t1;
            c_ns += t1 - t0;
        }
        ckpt.push(c_ns as f64 / (20 * tids.len()) as f64);
        restore.push(r_ns as f64 / (20 * tids.len()) as f64);

        stop.set(true);
        for &tid in &tids {
            pe[src].awaken_tid(tid).expect("awaken after migration");
        }
        pe[src].run();
    }
    out.push(rung("core.pack_thread_ns", "ns", false, &pack));
    out.push(rung("core.unpack_thread_ns", "ns", false, &unpack));
    out.push(rung("core.checkpoint_ns_per_thread", "ns", false, &ckpt));
    out.push(rung("core.restore_ns_per_thread", "ns", false, &restore));
}

// ------------------------------------------------- pup, trace, mech, lb

#[derive(Default, Debug, PartialEq)]
struct Blob {
    id: u64,
    step: u32,
    field: Vec<f64>,
    tags: Vec<u32>,
}
flows_pup::pup_fields!(Blob {
    id,
    step,
    field,
    tags
});

fn small_layer_rungs(out: &mut Vec<Rung>) {
    let mut blob = Blob {
        id: 7,
        step: 3,
        field: (0..8192).map(|i| i as f64 * 0.5).collect(),
        tags: (0..256).collect(),
    };
    let bytes = flows_pup::to_bytes(&mut blob);
    let mib = bytes.len() as f64 / (1 << 20) as f64;
    out.push(cost("pup.size_ns", "ns", REPS, || {
        per_op(2000, || {
            black_box(flows_pup::packed_size(&mut blob));
        })
    }));
    out.push(rate("pup.pack_mb_per_s", "MiB/s", REPS, || {
        mib / (per_op(2000, || {
            black_box(flows_pup::to_bytes(&mut blob));
        }) / 1e9)
    }));
    out.push(rate("pup.unpack_mb_per_s", "MiB/s", REPS, || {
        mib / (per_op(2000, || {
            black_box(flows_pup::from_bytes::<Blob>(&bytes).expect("unpack"));
        }) / 1e9)
    }));

    // An event nobody records, then the same event into a ring.
    let emit = || {
        per_op(500_000, || {
            flows_trace::emit(flows_trace::EventKind::MsgSend, 1, 2, 3);
        })
    };
    flows_trace::set_enabled(false);
    out.push(cost("trace.emit_off_ns", "ns", REPS, emit));
    let ring = Arc::new(flows_trace::TraceRing::new(0, 1 << 16));
    let guard = flows_trace::install_ring(&ring);
    flows_trace::set_enabled(true);
    out.push(cost("trace.emit_on_ns", "ns", REPS, emit));
    flows_trace::set_enabled(false);
    drop(guard);

    // The scheduler's per-thread load accounting, one `begin`/`end` pair
    // per context switch, under the id churn `sessions` puts it through:
    // 10 000 live threads picked zipf-skewed, each replaced by the next
    // sequential id after 16 picks. The mean over a million picks covers
    // several of the cycles in which fresh ids collide with old ones.
    out.push(cost("trace.load_track_ns", "ns", 3, || {
        const LIVE: usize = 10_000;
        let zipf = crate::gen::Zipf::new(LIVE, 1.1);
        let mut rng = crate::gen::Rng::new(0x10ad);
        let mut tracker = flows_trace::LoadTracker::new();
        let mut ids: Vec<u64> = (1..=LIVE as u64).collect();
        let mut picks = vec![0u8; LIVE];
        let mut next_id = LIVE as u64 + 1;
        for &id in &ids {
            tracker.begin();
            tracker.end(id);
        }
        per_op(1 << 20, || {
            let s = zipf.sample(&mut rng);
            tracker.begin();
            black_box(tracker.end(ids[s]));
            picks[s] += 1;
            if picks[s] == 16 {
                tracker.take(ids[s]);
                ids[s] = next_id;
                next_id += 1;
                picks[s] = 0;
            }
        })
    }));

    // The paper's Figure 4 comparators: two kernel threads, then two
    // processes, handing the CPU back and forth with sched_yield.
    out.push(cost("mech.kthread_handoff_ns", "ns", 3, || {
        flows_mech::kthreads::yield_benchmark(2, 60).map_or(0.0, |b| b.ns_per_switch())
    }));
    out.push(cost("mech.proc_handoff_ns", "ns", 3, || {
        flows_mech::procs::yield_benchmark(2, 60).map_or(0.0, |b| b.ns_per_switch())
    }));

    // Planning cost of the two strategies on 1 024 objects over 8 PEs.
    let mut rng = crate::gen::Rng::new(0x1b);
    let stats = flows_lb::LbStats {
        num_pes: 8,
        objs: (0..1024)
            .map(|i| flows_lb::ObjLoad {
                id: i,
                pe: (rng.below(8) as usize).min(rng.below(8) as usize),
                load: 0.5 + rng.next_f64() * 4.0,
                migratable: true,
            })
            .collect(),
        background: Vec::new(),
    };
    use flows_lb::LbStrategy;
    out.push(cost("lb.greedy_plan_us", "us", REPS, || {
        per_op(20, || {
            black_box(flows_lb::GreedyLb.decide(&stats));
        }) / 1e3
    }));
    let refine = flows_lb::RefineLb::default();
    out.push(cost("lb.refine_plan_us", "us", REPS, || {
        per_op(20, || {
            black_box(refine.decide(&stats));
        }) / 1e3
    }));

    let mut grid = flows_npb::ZoneGrid::new(0, 96, 96);
    out.push(cost("npb.sweep_ns_per_cell", "ns", REPS, || {
        per_op(200, || {
            black_box(grid.sweep());
        }) / (96.0 * 96.0)
    }));
}

// ---------------------------------------------------------------- net

fn data_frame(len: usize, seq: u64) -> Frame {
    Frame::data(
        0,
        1,
        seq,
        3,
        0,
        flows_core::Payload::from_vec(vec![0xA5; len]),
    )
}

/// A consumer thread on rank 1 of `seg` that echoes every frame to rank 0
/// until told to stop; `park` chooses between polling and the doorbell.
fn echo_thread(
    seg: &Arc<Segment>,
    park: bool,
    stop: &Arc<AtomicBool>,
) -> std::thread::JoinHandle<()> {
    let t = ShmTransport::new(seg.clone(), 1);
    let stop = stop.clone();
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            match t.try_recv() {
                Some((_, f)) => t.send(0, &f),
                None if park => t.park(Duration::from_millis(2)),
                None => std::hint::spin_loop(),
            }
        }
    })
}

fn shm_hop_ns(park: bool) -> f64 {
    const ROUNDS: u64 = 20_000;
    let seg = Segment::create(2, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES).expect("segment");
    let stop = Arc::new(AtomicBool::new(false));
    let echo = echo_thread(&seg, park, &stop);
    let t = ShmTransport::new(seg, 0);
    let frame = data_frame(256, 0);
    let t0 = monotonic_ns();
    for _ in 0..ROUNDS {
        t.send(1, &frame);
        loop {
            match t.try_recv() {
                Some(_) => break,
                None if park => t.park(Duration::from_millis(2)),
                None => std::hint::spin_loop(),
            }
        }
    }
    let ns = (monotonic_ns() - t0) as f64 / (2 * ROUNDS) as f64;
    stop.store(true, Ordering::Relaxed);
    t.send(1, &frame); // wake a parked echo so it sees the flag
    echo.join().expect("echo thread");
    ns
}

/// One-way flood of `count` frames of `len` bytes; the consumer drops each
/// frame at once, so the ring's slots come free as fast as it can poll.
fn shm_flood(len: usize, count: u64) -> f64 {
    let seg = Segment::create(2, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES).expect("segment");
    let rx = ShmTransport::new(seg.clone(), 1);
    let got = Arc::new(AtomicU64::new(0));
    let got2 = got.clone();
    let sink = std::thread::spawn(move || {
        while got2.load(Ordering::Relaxed) < count {
            if rx.try_recv().is_some() {
                got2.fetch_add(1, Ordering::Relaxed);
            } else {
                std::hint::spin_loop();
            }
        }
    });
    let tx = ShmTransport::new(seg, 0);
    let frame = data_frame(len, 0);
    let t0 = monotonic_ns();
    for _ in 0..count {
        tx.send(1, &frame);
    }
    sink.join().expect("sink thread");
    (monotonic_ns() - t0) as f64 / 1e9
}

fn net_rungs(out: &mut Vec<Rung>) {
    out.push(cost("net.frame_codec_ns", "ns", REPS, || {
        let frame = data_frame(256, 9);
        let mut buf = Vec::with_capacity(512);
        per_op(200_000, || {
            buf.clear();
            frame.encode(&mut buf);
            black_box(flows_net::Header::decode(&buf[..flows_net::HEADER_LEN]));
        })
    }));

    // One thread plays both ends of a ring: the bare cost of publishing a
    // 256 B frame into a slot, and of taking it out again.
    let (mut send, mut recv) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let seg = Segment::create(2, DEFAULT_SLOTS, DEFAULT_SLOT_BYTES).expect("segment");
        let (a, b) = (ShmTransport::new(seg.clone(), 0), ShmTransport::new(seg, 1));
        let frame = data_frame(256, 0);
        let (mut s_ns, mut r_ns) = (0u64, 0u64);
        const N: u64 = 50_000;
        for _ in 0..N {
            let t0 = monotonic_ns();
            a.send(1, &frame);
            let t1 = monotonic_ns();
            black_box(b.try_recv().expect("frame just sent"));
            r_ns += monotonic_ns() - t1;
            s_ns += t1 - t0;
        }
        send.push(s_ns as f64 / N as f64);
        recv.push(r_ns as f64 / N as f64);
    }
    out.push(rung("net.shm_send_ns", "ns", false, &send));
    out.push(rung("net.shm_recv_ns", "ns", false, &recv));

    out.push(cost("net.shm_spin_hop_ns", "ns", 3, || shm_hop_ns(false)));
    out.push(cost("net.shm_park_hop_ns", "ns", 3, || shm_hop_ns(true)));
    out.push(rate("net.shm_stream_msg_per_s", "1/s", 3, || {
        200_000.0 / shm_flood(256, 200_000)
    }));
    out.push(rate("net.shm_spill_mb_per_s", "MiB/s", 3, || {
        2000.0 * 64.0 / 1024.0 / shm_flood(64 * 1024, 2000)
    }));

    // The same ping-pong over a Unix-socket mesh, both ranks in this
    // process.
    out.push(cost("net.uds_hop_ns", "ns", 3, || {
        const ROUNDS: u64 = 5000;
        let dir = crate::xproc::session_dir();
        std::fs::create_dir_all(&dir).expect("uds session dir");
        let dir2 = dir.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let timeout = Duration::from_secs(10);
        let echo = std::thread::spawn(move || {
            let t =
                flows_net::SockTransport::connect(1, 2, &dir2, None, timeout).expect("uds rank 1");
            while !stop2.load(Ordering::Relaxed) {
                match t.try_recv() {
                    Some((_, f)) => t.send(0, &f),
                    None => t.park(Duration::from_millis(2)),
                }
            }
            t.close();
        });
        let t = flows_net::SockTransport::connect(0, 2, &dir, None, timeout).expect("uds rank 0");
        let frame = data_frame(256, 0);
        let t0 = monotonic_ns();
        for _ in 0..ROUNDS {
            t.send(1, &frame);
            while t.try_recv().is_none() {
                t.park(Duration::from_millis(2));
            }
        }
        let ns = (monotonic_ns() - t0) as f64 / (2 * ROUNDS) as f64;
        stop.store(true, Ordering::Relaxed);
        t.send(1, &frame);
        echo.join().expect("uds echo thread");
        t.close();
        let _ = std::fs::remove_dir_all(&dir);
        ns
    }));
}

// ----------------------------------------------------------- converse

/// A 2-PE ping-pong of `hops` hops; returns (ns per hop between the first
/// and the last handler, ms from `run` to the first init, ms from the last
/// handler to `run` returning).
fn converse_pingpong(threaded: bool, reliable: bool, hops: u64) -> (f64, f64, f64) {
    let mut mb = MachineBuilder::new(2)
        .net_model(NetModel::zero())
        .modeled_time(true);
    if reliable {
        mb = mb.fault_plan(FaultPlan::new(1));
    }
    let left = Arc::new(AtomicU64::new(hops));
    let first = Arc::new(AtomicU64::new(0));
    let last = Arc::new(AtomicU64::new(0));
    let up = Arc::new(AtomicU64::new(u64::MAX));
    let (left2, first2, last2, up2) = (left.clone(), first.clone(), last.clone(), up.clone());
    let h = mb.handler(move |pe, msg| {
        let now = monotonic_ns();
        let _ = first2.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
        last2.store(now, Ordering::Relaxed);
        if left2.fetch_sub(1, Ordering::Relaxed) > 1 {
            pe.send(1 - pe.id(), msg.handler, msg.data.clone());
        }
    });
    let init = move |pe: &flows_converse::Pe| {
        up2.fetch_min(monotonic_ns(), Ordering::Relaxed);
        if pe.id() == 0 {
            pe.send(1, h, vec![0u8; 256]);
        }
    };
    let t0 = monotonic_ns();
    if threaded {
        mb.run(init);
    } else {
        mb.run_deterministic(init);
    }
    let t1 = monotonic_ns();
    let (first, last) = (first.load(Ordering::Relaxed), last.load(Ordering::Relaxed));
    (
        (last - first) as f64 / (hops - 1) as f64,
        up.load(Ordering::Relaxed).saturating_sub(t0) as f64 / 1e6,
        t1.saturating_sub(last) as f64 / 1e6,
    )
}

fn converse_rungs(out: &mut Vec<Rung>) {
    out.push(cost("converse.det_msg_ns", "ns", REPS, || {
        converse_pingpong(false, false, 100_000).0
    }));
    out.push(cost("converse.det_reliable_msg_ns", "ns", REPS, || {
        converse_pingpong(false, true, 50_000).0
    }));
    let thr: Vec<(f64, f64, f64)> = (0..REPS)
        .map(|_| converse_pingpong(true, false, 100_000))
        .collect();
    out.push(rung(
        "converse.thr_hop_ns",
        "ns",
        false,
        &thr.iter().map(|t| t.0).collect::<Vec<_>>(),
    ));
    out.push(rung(
        "converse.machine_up_ms",
        "ms",
        false,
        &thr.iter().map(|t| t.1).collect::<Vec<_>>(),
    ));
    out.push(rung(
        "converse.quiesce_ms",
        "ms",
        false,
        &thr.iter().map(|t| t.2).collect::<Vec<_>>(),
    ));
}

// -------------------------------------------------------- comm, chare

fn comm_machine(pes: usize) -> MachineBuilder {
    let mut mb = MachineBuilder::new(pes)
        .net_model(NetModel::zero())
        .modeled_time(true);
    let _ = flows_comm::CommLayer::register(&mut mb);
    mb
}

/// Route a token `hops` times between objects `a` (lives on PE 0) and `b`
/// (lives on `b_pe`); ns per routed delivery.
fn comm_bounce(a: u64, b: u64, b_pe: usize, hops: u64) -> f64 {
    use flows_comm::{register_obj, route, set_delivery, ObjId};
    let left = Arc::new(AtomicU64::new(hops));
    let first = Arc::new(AtomicU64::new(0));
    let last = Arc::new(AtomicU64::new(0));
    let (left2, first2, last2) = (left.clone(), first.clone(), last.clone());
    comm_machine(2).run_deterministic(move |pe| {
        let (left, first, last) = (left2.clone(), first2.clone(), last2.clone());
        set_delivery(pe, 0, move |pe, obj, data| {
            let now = monotonic_ns();
            let _ = first.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
            last.store(now, Ordering::Relaxed);
            if left.fetch_sub(1, Ordering::Relaxed) > 1 {
                let next = if obj.0 == a { b } else { a };
                route(pe, ObjId(next), 0, data);
            }
        });
        if pe.id() == 0 {
            register_obj(pe, ObjId(a));
        }
        if pe.id() == b_pe {
            register_obj(pe, ObjId(b));
        }
        if pe.id() == 0 {
            route(pe, ObjId(b), 0, vec![0u8; 256]);
        }
    });
    (last.load(Ordering::Relaxed) - first.load(Ordering::Relaxed)) as f64 / (hops - 1) as f64
}

fn comm_rungs(out: &mut Vec<Rung>) {
    use flows_comm::{
        contribute, register_obj, route, set_delivery, set_reduction_sink, ObjId, ReduceOp,
    };
    // Objects 0 and 2 both live on PE 0 (their home); object 1 on PE 1.
    out.push(cost("comm.route_local_ns", "ns", REPS, || {
        comm_bounce(0, 2, 0, 100_000)
    }));
    out.push(cost("comm.route_remote_ns", "ns", REPS, || {
        comm_bounce(0, 1, 1, 100_000)
    }));

    // First contact with objects that live away from their home: PE 0
    // knows nothing, so each message goes to the home (PE 2), which
    // forwards it to PE 1 and teaches PE 0 the location.
    out.push(cost("comm.route_forwarded_ns", "ns", REPS, || {
        const OBJS: u64 = 5000;
        let t = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let t2 = t.clone();
        comm_machine(3).run_deterministic(move |pe| {
            let t = t2.clone();
            set_delivery(pe, 0, move |_pe, _obj, _data| {
                t.1.store(monotonic_ns(), Ordering::Relaxed);
            });
            if pe.id() == 1 {
                for i in 0..OBJS {
                    register_obj(pe, ObjId(3 * i + 2));
                }
            }
            if pe.id() == 0 {
                t2.0.store(monotonic_ns(), Ordering::Relaxed);
                for i in 0..OBJS {
                    route(pe, ObjId(3 * i + 2), 0, vec![0u8; 256]);
                }
            }
        });
        (t.1.load(Ordering::Relaxed) - t.0.load(Ordering::Relaxed)) as f64 / OBJS as f64
    }));

    // 32 contributions (8 per PE) folded at the root, back to back.
    out.push(cost("comm.reduce_us", "us", REPS, || {
        const ROUNDS: u64 = 2000;
        let t = Arc::new((AtomicU64::new(0), AtomicU64::new(0)));
        let t2 = t.clone();
        let mut mb = comm_machine(4);
        let again = Arc::new(std::sync::OnceLock::new());
        let again2 = again.clone();
        // Every PE contributes its 8 ranks to round `seq` when poked.
        let poke = mb.handler(move |pe, msg| {
            let seq = u64::from_le_bytes(msg.data[..8].try_into().expect("round"));
            for r in 0..8u64 {
                contribute(
                    pe,
                    99,
                    seq,
                    pe.id() as u64 * 8 + r,
                    ReduceOp::SumU64,
                    32,
                    1u64.to_le_bytes().to_vec(),
                );
            }
        });
        again.set(poke).expect("poke handler set once");
        mb.run_deterministic(move |pe| {
            let (t, again) = (t2.clone(), again2.clone());
            set_reduction_sink(pe, move |pe, red| {
                let now = monotonic_ns();
                let _ =
                    t.0.compare_exchange(0, now, Ordering::Relaxed, Ordering::Relaxed);
                t.1.store(now, Ordering::Relaxed);
                if red.seq < ROUNDS {
                    for dest in 0..pe.num_pes() {
                        pe.send(
                            dest,
                            *again.get().expect("poke"),
                            (red.seq + 1).to_le_bytes().to_vec(),
                        );
                    }
                }
            });
            pe.send(
                pe.id(),
                *again2.get().expect("poke"),
                1u64.to_le_bytes().to_vec(),
            );
        });
        (t.1.load(Ordering::Relaxed) - t.0.load(Ordering::Relaxed)) as f64
            / (ROUNDS - 1) as f64
            / 1e3
    }));
}

#[derive(Default)]
struct Hopper {
    hits: u64,
}

thread_local! {
    /// When the hopper's current experiment started and last made progress.
    static HOPPER_T: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}
static HOPPER_LEFT: AtomicU64 = AtomicU64::new(0);
/// The converse handler that moves the hopper (a chare cannot migrate
/// itself from inside its own entry method); set per machine.
static HOPPER_MOVER: std::sync::Mutex<Option<flows_converse::HandlerId>> =
    std::sync::Mutex::new(None);
const HOPPER: flows_comm::ObjId = flows_comm::ObjId(64);

impl flows_chare::Chare for Hopper {
    fn receive(&mut self, pe: &flows_converse::Pe, ep: u32, data: Vec<u8>) {
        let now = monotonic_ns();
        HOPPER_T.with(|t| t.set((if t.get().0 == 0 { now } else { t.get().0 }, now)));
        self.hits += 1;
        if HOPPER_LEFT.fetch_sub(1, Ordering::Relaxed) > 1 {
            if ep == 1 {
                // Entry 1 asks to be moved to the other PE before the
                // next poke.
                let mover = HOPPER_MOVER
                    .lock()
                    .expect("mover")
                    .expect("mover registered");
                pe.send(pe.id(), mover, data);
            } else {
                flows_chare::send(pe, HOPPER, ep, data);
            }
        }
    }

    fn pack(&mut self) -> Vec<u8> {
        self.hits.to_le_bytes().to_vec()
    }
}

fn hopper_factory(bytes: Vec<u8>) -> Box<dyn flows_chare::Chare> {
    Box::new(Hopper {
        hits: u64::from_le_bytes(bytes[..8].try_into().expect("hopper state")),
    })
}

/// Poke the hopper `n` times on entry `ep`; ns per entry invocation
/// (deterministic drive: both PEs share this OS thread and its clock cell).
fn hopper_run(ep: u32, n: u64) -> f64 {
    static TY: std::sync::OnceLock<flows_chare::ChareTypeId> = std::sync::OnceLock::new();
    let ty = *TY.get_or_init(|| flows_chare::register_chare_type(hopper_factory));
    HOPPER_LEFT.store(n, Ordering::Relaxed);
    HOPPER_T.with(|t| t.set((0, 0)));
    let mut mb = comm_machine(2);
    let _ = flows_chare::ChareLayer::register(&mut mb);
    let mover = mb.handler(|pe, msg| {
        flows_chare::migrate(pe, HOPPER, 1 - pe.id());
        flows_chare::send(pe, HOPPER, 1, msg.data.to_vec());
    });
    *HOPPER_MOVER.lock().expect("mover") = Some(mover);
    mb.run_deterministic(move |pe| {
        flows_chare::init_pe(pe);
        if pe.id() == 0 {
            flows_chare::create(pe, HOPPER, ty, Box::new(Hopper::default()));
            flows_chare::send(pe, HOPPER, ep, vec![0u8; 64]);
        }
    });
    let (first, last) = HOPPER_T.with(|t| t.get());
    (last - first) as f64 / (n - 1) as f64
}

fn chare_rungs(out: &mut Vec<Rung>) {
    out.push(cost("chare.entry_ns", "ns", REPS, || {
        hopper_run(0, 100_000)
    }));
    out.push(cost("chare.migrate_us", "us", REPS, || {
        hopper_run(1, 5000) / 1e3
    }));
}

// -------------------------------------------------------------- bigsim

fn bigsim_rungs(out: &mut Vec<Rung>) {
    // A second consumer of the thread layer at scale: 20 000 target
    // processors as Standard-stack threads on 4 simulating PEs.
    out.push(cost("bigsim.step_wall_ms", "ms", 2, || {
        let cfg = flows_bigsim::BigSimConfig {
            target_procs: 20_000,
            sim_pes: 4,
            steps: 2,
            ..flows_bigsim::BigSimConfig::small()
        };
        let r = flows_bigsim::run(&cfg);
        r.per_step_wall_ns
            .iter()
            .copied()
            .min()
            .unwrap_or(r.wall_ns / 2) as f64
            / 1e6
    }));
}

/// Run every rung.
pub fn run_all() -> Vec<Rung> {
    let mut out = Vec::new();
    sys_rungs(&mut out);
    arch_rungs(&mut out);
    mem_rungs(&mut out);
    core_rungs(&mut out);
    small_layer_rungs(&mut out);
    net_rungs(&mut out);
    converse_rungs(&mut out);
    comm_rungs(&mut out);
    chare_rungs(&mut out);
    bigsim_rungs(&mut out);
    out
}
