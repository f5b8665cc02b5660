// Heap allocations per same-PE AMPI message, counted by a global
// allocator. Mail to a rank on the sender's PE is the sender's own `Vec`
// from `send` to `recv`'s return: the mailbox holds that buffer, so the
// pair allocates nothing once the mailbox and the sequence tables are warm.
//
// Its own test binary, because the counting allocator is process-global.
// It counts only on threads that switched counting on — the PE's — so the
// harness's other threads stay out of the count.
//
// The umbrella package compiles this file a second time, through
// `include!` in its `tests/same_pe_allocs_smoke.rs`, so Tier-1 runs it too;
// hence plain comments here, not inner doc comments.

use flows_ampi::{run_world, AmpiOptions};
use flows_converse::NetModel;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

// flowslint::allow(no-global-state): a per-OS-thread count is the point —
// both ranks run on the one PE's OS thread and never migrate, and the
// harness's threads stay out of the count.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers to `System`; counting touches only const-initialised
// thread-locals, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract, passed on to `System`.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = COUNTING.try_with(|on| {
            if on.get() {
                ALLOCS.with(|n| n.set(n.get() + 1));
            }
        });
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
static ALLOC: Counting = Counting;

/// Count this OS thread's allocations from now on (or stop), returning
/// the count so far.
fn counting(on: bool) -> u64 {
    COUNTING.with(|c| c.set(on));
    ALLOCS.with(|n| n.get())
}

/// Rank 0 sends rank 1, on the same PE, `WARM + N` bodies of 4 KiB, each
/// acknowledged by an empty message before the next goes. The bodies are
/// built before counting starts; from message `WARM` on, every allocation
/// on the PE's thread is counted until the last acknowledgement is back —
/// both ranks' `send` and `recv` calls and the switches between them.
/// None is expected: the mailbox is the sent buffer and `recv` returns it.
#[test]
fn same_pe_send_and_recv_allocate_nothing() {
    const WARM: usize = 16;
    const N: usize = 64;
    const BODY: usize = 4096;
    let counted = Arc::new(Mutex::new(None));
    let c2 = counted.clone();
    run_world(
        AmpiOptions::new(2, 1).with_net(NetModel::zero()),
        move |ampi| {
            if ampi.rank() == 0 {
                let bodies: Vec<Vec<u8>> = (0..WARM + N).map(|i| vec![i as u8; BODY]).collect();
                let mut before = 0;
                for (i, body) in bodies.into_iter().enumerate() {
                    if i == WARM {
                        before = counting(true);
                    }
                    ampi.send(1, 5, body);
                    let (_, _, ack) = ampi.recv(Some(1), Some(6));
                    assert!(ack.is_empty());
                }
                let allocs = counting(false) - before;
                *c2.lock().unwrap() = Some(allocs);
                ampi.send(1, 7, Vec::new());
            } else {
                for i in 0..WARM + N {
                    let (_, _, data) = ampi.recv(Some(0), Some(5));
                    assert!(
                        data.len() == BODY && data.iter().all(|&b| b == i as u8),
                        "message {i}"
                    );
                    ampi.send(0, 6, Vec::new());
                }
                // Parked here while rank 0 reads the count: nothing of this
                // rank's exit runs inside the counted window.
                let _ = ampi.recv(Some(0), Some(7));
            }
        },
    );
    let allocs = counted.lock().unwrap().expect("rank 0 counted");
    assert_eq!(
        allocs, 0,
        "{allocs} heap allocations for {N} same-PE send/recv pairs"
    );
}
