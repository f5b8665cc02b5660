// Structural guard on the context-switch path: once warm, a yield or a
// suspend/awaken cycle allocates nothing and enters the kernel for
// nothing. Counts, not timings — a regression here is a design change
// (a map that grows, a clock that traps), not host noise. Plain `//`
// comments: `tests/switch_path_smoke.rs` `include!`s this file.

use flows_core::{suspend, yield_now, SchedConfig, Scheduler, SharedPools, StackFlavor, ThreadId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

// flowslint::allow(no-global-state): a per-OS-thread allocation count is
// the point — the harness runs the other test on another OS thread, and
// no migratable flow reads it.
thread_local! {
    /// Allocations made by the calling OS thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System`; the counter is a const-initialized
// thread-local `Cell` with no destructor, so touching it allocates nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: forwarded contract.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract, passed on to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const THREADS: usize = 64;
const CYCLES: usize = 1_000_000;

/// Runs `cycles` and returns the allocations and syscalls it made.
fn counted(cycles: impl FnOnce()) -> (u64, u64) {
    let (a0, s0) = (ALLOCS.get(), flows_sys::counters::snapshot());
    cycles();
    (
        ALLOCS.get() - a0,
        flows_sys::counters::snapshot().since(&s0).total(),
    )
}

fn spawn_loopers(s: &Scheduler, stop: &Rc<Cell<bool>>, park: fn()) -> Vec<ThreadId> {
    (0..THREADS)
        .map(|_| {
            let stop = stop.clone();
            s.spawn_with(StackFlavor::Isomalloc, 16 * 1024, move || {
                while !stop.get() {
                    park();
                }
            })
            .unwrap()
        })
        .collect()
}

#[test]
fn warm_yield_allocates_nothing_and_makes_no_syscall() {
    let s = Scheduler::new(0, SharedPools::new_for_tests(), SchedConfig::default());
    let stop = Rc::new(Cell::new(false));
    spawn_loopers(&s, &stop, yield_now);
    for _ in 0..4 * THREADS {
        s.step();
    }
    let (allocs, syscalls) = counted(|| {
        for _ in 0..CYCLES {
            s.step();
        }
    });
    assert_eq!(
        (allocs, syscalls),
        (0, 0),
        "(allocations, syscalls) over {CYCLES} yields"
    );
    assert!(s.stats().switches >= CYCLES as u64);
    stop.set(true);
    s.run();
}

#[test]
fn warm_suspend_awaken_allocates_nothing_and_makes_no_syscall() {
    let s = Scheduler::new(0, SharedPools::new_for_tests(), SchedConfig::default());
    let stop = Rc::new(Cell::new(false));
    let tids = spawn_loopers(&s, &stop, suspend);
    s.run();
    let cycle = |n: usize| {
        for i in 0..n {
            s.awaken_tid(tids[i % THREADS]).unwrap();
            s.step();
        }
    };
    cycle(4 * THREADS);
    let (allocs, syscalls) = counted(|| cycle(CYCLES));
    assert_eq!(
        (allocs, syscalls),
        (0, 0),
        "(allocations, syscalls) over {CYCLES} cycles"
    );
    stop.set(true);
    for &t in &tids {
        s.awaken_tid(t).unwrap();
    }
    s.run();
    assert_eq!(s.thread_count(), 0);
}
