//! The load balancer's input: per-thread on-CPU nanoseconds, kept in the
//! control block and timed with the tick clock. These tests pin the units
//! (nanoseconds, not ticks), the epoch operations, the migration carry and
//! the bookkeeping under thread-id churn.

use flows_core::{
    current_load_ns, suspend, yield_now, SchedConfig, Scheduler, SharedPools, StackFlavor, ThreadId,
};
use flows_sys::time::{cycles, monotonic_ns, ticks_to_ns};
use std::cell::Cell;
use std::rc::Rc;

fn sched_on(pe: usize, shared: &std::sync::Arc<SharedPools>) -> Scheduler {
    Scheduler::new(pe, shared.clone(), SchedConfig::default())
}

/// Spin for `ns` of wall time; returns the wall time actually spent.
fn burn(ns: u64) -> u64 {
    let t0 = monotonic_ns();
    loop {
        let spent = monotonic_ns() - t0;
        if spent >= ns {
            return spent;
        }
        std::hint::spin_loop();
    }
}

fn load_of(s: &Scheduler, tid: ThreadId) -> u64 {
    let loads = s.loads();
    loads
        .iter()
        .find(|(t, _)| *t == tid)
        .expect("thread is live")
        .1
}

#[test]
fn loads_are_nanoseconds_on_every_flavor() {
    let shared = SharedPools::new_for_tests();
    let s = sched_on(0, &shared);
    for flavor in StackFlavor::ALL {
        let wall = Rc::new(Cell::new(0u64));
        let tid = {
            let wall = wall.clone();
            s.spawn(flavor, move || {
                for _ in 0..4 {
                    wall.set(wall.get() + burn(500_000));
                    yield_now();
                }
                suspend();
            })
            .unwrap()
        };
        s.run();
        let (load, wall) = (load_of(&s, tid) as f64, wall.get() as f64);
        // Ticks reported as ns would read 2–4× on a GHz-class counter.
        assert!(
            (0.7 * wall..=1.5 * wall).contains(&load),
            "{}: load {load} ns for {wall} ns of self-measured work",
            flavor.name()
        );
        s.awaken_tid(tid).unwrap();
        s.run();
        assert_eq!(s.thread_count(), 0);
    }
}

#[test]
fn current_load_excludes_the_running_burst() {
    assert_eq!(current_load_ns(), None, "no thread, no load");
    let s = sched_on(0, &SharedPools::new_for_tests());
    let seen = Rc::new(Cell::new((0u64, 0u64)));
    {
        let seen = seen.clone();
        s.spawn(StackFlavor::Isomalloc, move || {
            assert_eq!(current_load_ns(), Some(0), "first burst is still running");
            burn(500_000);
            yield_now();
            let before = current_load_ns().unwrap();
            burn(1_000_000);
            seen.set((before, current_load_ns().unwrap()));
        })
        .unwrap();
    }
    s.run();
    let (before, after) = seen.get();
    assert!(
        before >= 350_000,
        "first burst was charged at the yield: {before}"
    );
    assert_eq!(before, after, "the running burst is not in the counter yet");
}

#[test]
fn epoch_resets_zero_one_thread_or_all() {
    let s = sched_on(0, &SharedPools::new_for_tests());
    let tids: Vec<ThreadId> = (0..3)
        .map(|_| {
            s.spawn(StackFlavor::Standard, || {
                burn(100_000);
                suspend();
            })
            .unwrap()
        })
        .collect();
    s.run();
    assert!(tids.iter().all(|&t| load_of(&s, t) > 0));
    s.reset_load_tid(tids[0]);
    assert_eq!(load_of(&s, tids[0]), 0);
    assert!(load_of(&s, tids[1]) > 0 && load_of(&s, tids[2]) > 0);
    s.reset_loads();
    assert!(s.loads().iter().all(|&(_, ns)| ns == 0));
    assert_eq!(s.loads().len(), 3);
}

#[test]
fn migration_carries_the_load_exactly() {
    let shared = SharedPools::new_for_tests();
    let (s0, s1) = (sched_on(0, &shared), sched_on(1, &shared));
    for flavor in [
        StackFlavor::Isomalloc,
        StackFlavor::StackCopy,
        StackFlavor::Alias,
    ] {
        let tid = s0
            .spawn(flavor, || {
                burn(200_000);
                suspend();
            })
            .unwrap();
        s0.run();
        let load = load_of(&s0, tid);
        assert!(load > 0);
        let packed = s0.pack_thread(tid).unwrap();
        assert_eq!(packed.load_ns(), load);
        assert!(s0.loads().is_empty(), "the counter left with the thread");
        s1.unpack_thread(packed).unwrap();
        assert_eq!(s1.loads(), vec![(tid, load)]);
        s1.awaken_tid(tid).unwrap();
        s1.run();
        assert_eq!(s1.thread_count(), 0);
    }
}

/// The `sessions` churn: 1 000 live threads, each replaced after 16 runs,
/// 100 000 replacements. Thread ids are never reused, so any per-id state
/// kept beside the control block would grow or cluster here.
#[test]
fn one_load_per_live_thread_under_id_churn() {
    const LIVE: usize = 1_000;
    const RUNS: usize = 16;
    const CYCLES: usize = 100_000;
    let mut iso = flows_mem::IsoConfig::for_pes(1);
    iso.base = 0;
    iso.slots_per_pe = LIVE + 24;
    iso.slot_len = 128 * 1024;
    let s = sched_on(0, &SharedPools::new(iso, 256 * 1024).unwrap());
    let session = |s: &Scheduler| {
        s.spawn_with(StackFlavor::Isomalloc, 16 * 1024, || {
            for _ in 1..RUNS {
                suspend();
            }
        })
        .unwrap()
    };
    let mut tids: Vec<ThreadId> = (0..LIVE).map(|_| session(&s)).collect();
    s.run();
    let mut exited = 0;
    'churn: loop {
        for slot in tids.iter_mut() {
            s.awaken_tid(*slot).unwrap();
            s.step();
            if s.state(*slot).is_none() {
                exited += 1;
                if exited == CYCLES {
                    break 'churn;
                }
                *slot = session(&s);
                s.step();
            }
        }
    }
    assert_eq!(s.stats().completed, CYCLES as u64);
    assert_eq!(s.thread_count(), LIVE - 1);
    let loads = s.loads();
    assert_eq!(loads.len(), s.thread_count());
    let mut ids: Vec<ThreadId> = loads.iter().map(|&(t, _)| t).collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), loads.len(), "one entry per thread");
}

#[test]
fn tick_clock_agrees_with_the_monotonic_clock() {
    // What `Scheduler::new` does before any burst: anchor the ratio.
    assert_eq!(ticks_to_ns(0), 0);
    let (c0, n0) = (cycles(), monotonic_ns());
    burn(20_000_000);
    let (c1, n1) = (cycles(), monotonic_ns());
    let (ticks_ns, clock_ns) = (ticks_to_ns(c1 - c0) as f64, (n1 - n0) as f64);
    assert!(
        (ticks_ns / clock_ns - 1.0).abs() < 0.02,
        "ticks say {ticks_ns} ns, the clock says {clock_ns} ns"
    );
}
