//! Integration tests for the migratable thread package: scheduling,
//! all four stack flavors, privatized globals, and migration.

use flows_core::{
    awaken, current, iso_free, iso_malloc, suspend, yield_now, GlobalsLayoutBuilder,
    PrivatizeMode, SchedConfig, Scheduler, SharedPools, StackFlavor, ThreadState,
};
use flows_trace::{install_ring, set_enabled, EventKind, TraceRing};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;

fn sched() -> Scheduler {
    Scheduler::new(0, SharedPools::new_for_tests(), SchedConfig::default())
}

#[test]
fn lazy_iso_spawns_need_no_slots_until_first_run() {
    // Million-thread mode: spawning must not consume region slots (the
    // test pool has only 64 per PE), and running the backlog recycles a
    // handful of slabs through the warm cache rather than holding one
    // slot per thread.
    let shared = SharedPools::new_for_tests();
    let s = Scheduler::new(
        0,
        shared.clone(),
        SchedConfig {
            lazy_iso: true,
            ..SchedConfig::default()
        },
    );
    let done = Rc::new(Cell::new(0u32));
    for _ in 0..500 {
        let done = done.clone();
        s.spawn_with(StackFlavor::Isomalloc, 16 * 1024, move || {
            done.set(done.get() + 1);
        })
        .unwrap();
    }
    assert_eq!(
        shared.region().live_slots(0),
        0,
        "unstarted lazy threads own no slots"
    );
    s.run();
    assert_eq!(done.get(), 500);
    assert_eq!(s.stats().completed, 500);
    assert!(
        shared.region().live_slots(0) <= 8,
        "run-to-exit recycles slabs instead of hoarding slots: {}",
        shared.region().live_slots(0)
    );
}

/// A flow that cannot be activated is reaped like a flow that returned.
/// 80 lazy isomalloc flows suspend on a PE with 64 slots: the last 16
/// find no slot at their first landing, die marked panicked without
/// running, leave the thread table, count as completed and emit
/// `ThreadExit`.
#[test]
fn a_flow_that_cannot_activate_is_reaped() {
    let s = Scheduler::new(
        0,
        SharedPools::new_for_tests(),
        SchedConfig {
            lazy_iso: true,
            ..SchedConfig::default()
        },
    );
    let ran = Rc::new(Cell::new(0u32));
    let tids: Vec<_> = (0..80)
        .map(|_| {
            let ran = ran.clone();
            s.spawn_with(StackFlavor::Isomalloc, 16 * 1024, move || {
                ran.set(ran.get() + 1);
                suspend();
            })
            .unwrap()
        })
        .collect();
    let ring = Arc::new(TraceRing::new(0, 1024));
    set_enabled(true);
    let exits = {
        let _g = install_ring(&ring);
        s.run();
        ring.events()
            .iter()
            .filter(|e| e.kind == EventKind::ThreadExit)
            .count()
    };
    set_enabled(false);
    assert_eq!(ran.get(), 64, "one flow per slot got to run");
    assert_eq!(s.thread_count(), 64, "the 16 without a slot are gone");
    assert_eq!(s.stats().completed, 16);
    assert_eq!(s.stats().switches, 64, "a failed activation is no switch");
    assert_eq!(exits, 16);
    for &t in &tids[64..] {
        assert_eq!(s.state(t), None);
        assert!(s.awaken_tid(t).is_err());
    }
    for &t in &tids[..64] {
        s.awaken_tid(t).unwrap();
    }
    s.run();
    assert_eq!(s.thread_count(), 0);
    assert_eq!(s.stats().completed, 80);
}

#[test]
fn threads_round_robin_fairly() {
    let s = sched();
    let order = Rc::new(RefCell::new(Vec::new()));
    for name in 0..3u32 {
        let order = order.clone();
        s.spawn(StackFlavor::Standard, move || {
            for _ in 0..3 {
                order.borrow_mut().push(name);
                yield_now();
            }
        })
        .unwrap();
    }
    s.run();
    assert_eq!(
        *order.borrow(),
        vec![0, 1, 2, 0, 1, 2, 0, 1, 2],
        "FIFO yield order must interleave"
    );
    assert_eq!(s.stats().completed, 3);
    assert_eq!(s.thread_count(), 0);
}

#[test]
fn every_flavor_runs_yields_and_completes() {
    for flavor in StackFlavor::ALL {
        let s = sched();
        let hits = Rc::new(Cell::new(0u32));
        for _ in 0..4 {
            let hits = hits.clone();
            s.spawn(flavor, move || {
                for _ in 0..10 {
                    hits.set(hits.get() + 1);
                    yield_now();
                }
            })
            .unwrap();
        }
        s.run();
        assert_eq!(hits.get(), 40, "flavor {}", flavor.name());
        assert_eq!(s.stats().completed, 4, "flavor {}", flavor.name());
    }
}

#[test]
fn suspend_and_awaken_from_sibling() {
    let s = sched();
    let log = Rc::new(RefCell::new(Vec::new()));
    let waiter_id = Rc::new(Cell::new(None));

    let (log1, wid) = (log.clone(), waiter_id.clone());
    let waiter = s
        .spawn(StackFlavor::Standard, move || {
            log1.borrow_mut().push("wait");
            suspend();
            log1.borrow_mut().push("woken");
        })
        .unwrap();
    waiter_id.set(Some(waiter));

    let log2 = log.clone();
    s.spawn(StackFlavor::Standard, move || {
        log2.borrow_mut().push("waker");
        awaken(wid.get().unwrap()).unwrap();
    })
    .unwrap();

    s.run();
    assert_eq!(*log.borrow(), vec!["wait", "waker", "woken"]);
}

#[test]
fn awaken_errors_are_reported() {
    let s = sched();
    let tid = s.spawn(StackFlavor::Standard, || {}).unwrap();
    // Ready, not Suspended:
    assert!(s.awaken_tid(tid).is_err());
    s.run();
    // Gone:
    assert!(s.awaken_tid(tid).is_err());
}

#[test]
fn current_reports_identity() {
    let s = sched();
    let seen = Rc::new(Cell::new(None));
    let seen2 = seen.clone();
    let tid = s
        .spawn(StackFlavor::Standard, move || seen2.set(current()))
        .unwrap();
    assert_eq!(current(), None, "outside a thread");
    s.run();
    assert_eq!(seen.get(), Some(tid));
}

#[test]
fn panicking_thread_is_reaped_without_killing_the_pe() {
    let s = sched();
    let after = Rc::new(Cell::new(false));
    s.spawn(StackFlavor::Standard, || panic!("worker exploded"))
        .unwrap();
    let after2 = after.clone();
    s.spawn(StackFlavor::Standard, move || after2.set(true))
        .unwrap();
    // Quiet the panic backtrace noise.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    s.run();
    std::panic::set_hook(prev);
    assert!(after.get(), "scheduler survived the panic");
    assert_eq!(s.stats().completed, 2);
}

#[test]
fn iso_malloc_works_only_for_isomalloc_threads() {
    let s = sched();
    let ok = Rc::new(Cell::new(0));
    let ok2 = ok.clone();
    s.spawn(StackFlavor::Isomalloc, move || {
        let p = iso_malloc(1024).expect("isomalloc thread gets iso heap");
        // SAFETY: fresh allocation.
        unsafe { std::ptr::write_bytes(p, 0xEE, 1024) };
        assert!(iso_free(p));
        assert!(!iso_free(p), "double free refused");
        ok2.set(ok2.get() + 1);
    })
    .unwrap();
    let ok3 = ok.clone();
    s.spawn(StackFlavor::Standard, move || {
        assert!(iso_malloc(16).is_none(), "standard threads have no iso heap");
        ok3.set(ok3.get() + 1);
    })
    .unwrap();
    s.run();
    assert_eq!(ok.get(), 2);
    assert!(iso_malloc(16).is_none(), "outside threads: no iso heap");
}

#[test]
fn deep_stacks_work_for_all_migratable_flavors() {
    for flavor in [StackFlavor::StackCopy, StackFlavor::Isomalloc, StackFlavor::Alias] {
        let s = sched();
        let got = Rc::new(Cell::new(0u64));
        let got2 = got.clone();
        s.spawn(flavor, move || {
            fn burn(depth: usize, acc: u64) -> u64 {
                let mut pad = [0u8; 256];
                pad[0] = depth as u8;
                std::hint::black_box(&mut pad);
                if depth == 0 {
                    yield_now(); // suspend mid-recursion with a deep stack
                    return acc;
                }
                burn(depth - 1, acc + pad[0] as u64)
            }
            got2.set(burn(100, 0));
        })
        .unwrap();
        s.run();
        assert_eq!(got.get(), (1..=100).sum::<u64>(), "flavor {}", flavor.name());
    }
}

#[test]
fn privatized_globals_swap_per_thread() {
    for mode in [PrivatizeMode::GotSwap, PrivatizeMode::CopyInOut] {
        let mut b = GlobalsLayoutBuilder::new();
        let counter = b.register::<u64>(0);
        let layout = b.finish();
        let s = Scheduler::new(
            0,
            SharedPools::new_for_tests(),
            SchedConfig {
                globals: Some(layout.clone()),
                privatize: mode,
                ..SchedConfig::default()
            },
        );
        let results = Rc::new(RefCell::new(Vec::new()));
        for step in 1..=3u64 {
            let results = results.clone();
            s.spawn(StackFlavor::Standard, move || {
                for _ in 0..5 {
                    counter.set(counter.get() + step);
                    yield_now(); // interleave: privatization must isolate us
                }
                results.borrow_mut().push(counter.get());
            })
            .unwrap();
        }
        s.run();
        let mut r = results.borrow().clone();
        r.sort();
        assert_eq!(r, vec![5, 10, 15], "mode {mode:?}: each thread its own copy");
        // The main block never saw thread values.
        layout.install_main();
        assert_eq!(counter.get(), 0, "mode {mode:?}");
    }
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

/// A worker that computes in two phases with a suspension between them,
/// keeping state in locals (stack) and, for isomalloc, in the iso heap.
fn two_phase_worker(result: Rc<Cell<u64>>, use_iso_heap: bool) -> impl FnOnce() + 'static {
    move || {
        let mut acc: u64 = 0;
        let heap_buf = if use_iso_heap {
            let p = iso_malloc(4096).expect("iso heap") as *mut u64;
            // SAFETY: fresh 4096-byte allocation.
            unsafe {
                for i in 0..512 {
                    *p.add(i) = i as u64;
                }
            }
            Some(p)
        } else {
            None
        };
        for i in 0..100u64 {
            acc += i * i;
        }
        suspend(); // ---- migration happens here ----
        for i in 100..200u64 {
            acc += i * i;
        }
        if let Some(p) = heap_buf {
            // SAFETY: the heap migrated with us; same address.
            unsafe {
                for i in 0..512 {
                    acc += *p.add(i);
                }
            }
            assert!(iso_free(p as *mut u8));
        }
        result.set(acc);
    }
}

fn expected_two_phase(use_iso_heap: bool) -> u64 {
    let mut acc: u64 = (0..200u64).map(|i| i * i).sum();
    if use_iso_heap {
        acc += (0..512u64).sum::<u64>();
    }
    acc
}

#[test]
fn migration_preserves_execution_all_flavors() {
    for flavor in [StackFlavor::Isomalloc, StackFlavor::StackCopy, StackFlavor::Alias] {
        let shared = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
        let pe1 = Scheduler::new(1, shared.clone(), SchedConfig::default());
        let result = Rc::new(Cell::new(0u64));
        let use_heap = flavor == StackFlavor::Isomalloc;
        let tid = pe0
            .spawn(flavor, two_phase_worker(result.clone(), use_heap))
            .unwrap();
        pe0.run(); // phase 1, thread suspends
        assert_eq!(pe0.state(tid), Some(ThreadState::Suspended));

        let packed = pe0.pack_thread(tid).unwrap();
        assert_eq!(pe0.thread_count(), 0);
        // Ship as raw bytes, like a network would.
        let bytes = packed.to_bytes();
        let arrived = flows_core::PackedThread::from_bytes(&bytes).unwrap();
        let tid2 = pe1.unpack_thread(arrived).unwrap();
        assert_eq!(tid2, tid);

        pe1.awaken_tid(tid).unwrap();
        pe1.run(); // phase 2 on the new PE
        assert_eq!(
            result.get(),
            expected_two_phase(use_heap),
            "flavor {}",
            flavor.name()
        );
        assert_eq!(pe0.stats().migrations_out, 1);
        assert_eq!(pe1.stats().migrations_in, 1);
        assert_eq!(pe1.stats().completed, 1);
    }
}

#[test]
fn migration_carries_privatized_globals() {
    let mut b = GlobalsLayoutBuilder::new();
    let g = b.register::<u64>(7);
    let layout = b.finish();
    let cfg = |l: &std::sync::Arc<flows_core::GlobalsLayout>| SchedConfig {
        globals: Some(l.clone()),
        ..SchedConfig::default()
    };
    let shared = SharedPools::new_for_tests();
    let pe0 = Scheduler::new(0, shared.clone(), cfg(&layout));
    let pe1 = Scheduler::new(1, shared.clone(), cfg(&layout));
    let out = Rc::new(Cell::new(0u64));
    let out2 = out.clone();
    let tid = pe0
        .spawn(StackFlavor::Isomalloc, move || {
            g.set(g.get() + 1000); // 1007, in MY copy
            suspend();
            out2.set(g.get()); // must still be 1007 after migration
        })
        .unwrap();
    pe0.run();
    flows_core::migrate::migrate(&pe0, &pe1, tid).unwrap();
    pe1.awaken_tid(tid).unwrap();
    pe1.run();
    assert_eq!(out.get(), 1007);
}

#[test]
fn migration_of_ready_thread_requeues_on_destination() {
    let shared = SharedPools::new_for_tests();
    let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
    let pe1 = Scheduler::new(1, shared, SchedConfig::default());
    let result = Rc::new(Cell::new(0u64));
    let tid = pe0
        .spawn(StackFlavor::Isomalloc, {
            let result = result.clone();
            move || {
                result.set(1);
                yield_now(); // goes Ready, still queued
                result.set(2);
            }
        })
        .unwrap();
    // Run exactly one burst: thread yields and is Ready again.
    assert!(pe0.step());
    assert_eq!(result.get(), 1);
    assert_eq!(pe0.state(tid), Some(ThreadState::Ready));
    flows_core::migrate::migrate(&pe0, &pe1, tid).unwrap();
    assert_eq!(pe0.runnable(), 0);
    assert_eq!(pe1.runnable(), 1, "ready thread joins destination queue");
    pe1.run();
    assert_eq!(result.get(), 2);
}

#[test]
fn migration_rejects_invalid_candidates() {
    let shared = SharedPools::new_for_tests();
    let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());

    // Unstarted thread: entry closure not serializable.
    let t1 = pe0.spawn(StackFlavor::Isomalloc, suspend).unwrap();
    assert!(pe0.pack_thread(t1).is_err(), "unstarted");

    // Standard flavor: not migratable, even after starting.
    let t2 = pe0.spawn(StackFlavor::Standard, suspend).unwrap();
    pe0.run();
    assert!(pe0.pack_thread(t2).is_err(), "standard flavor");

    // Missing thread.
    assert!(pe0.pack_thread(flows_core::ThreadId(999_999)).is_err());

    // Now started + suspended isomalloc thread migrates fine...
    let packed = pe0.pack_thread(t1).unwrap();
    // ...but unpacking twice on one PE collides.
    let pe1 = Scheduler::new(1, shared, SchedConfig::default());
    pe1.unpack_thread(packed.clone()).unwrap();
    assert!(pe1.unpack_thread(packed).is_err(), "duplicate id");
}

#[test]
fn migration_respects_swap_kind() {
    let shared = SharedPools::new_for_tests();
    let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
    let pe1 = Scheduler::new(
        1,
        shared,
        SchedConfig {
            swap_kind: flows_arch::SwapKind::Full,
            ..SchedConfig::default()
        },
    );
    let tid = pe0.spawn(StackFlavor::Isomalloc, suspend).unwrap();
    pe0.run();
    let packed = pe0.pack_thread(tid).unwrap();
    assert!(
        pe1.unpack_thread(packed).is_err(),
        "minimal-swap thread cannot land on a full-swap scheduler"
    );
}

#[test]
fn corrupt_migration_images_are_rejected() {
    let shared = SharedPools::new_for_tests();
    let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
    let tid = pe0.spawn(StackFlavor::StackCopy, suspend).unwrap();
    pe0.run();
    let bytes = pe0.pack_thread(tid).unwrap().to_bytes();
    assert!(flows_core::PackedThread::from_bytes(&bytes[..bytes.len() / 3]).is_err());
    let pe1 = Scheduler::new(1, shared, SchedConfig::default());
    let mut evil = bytes.clone();
    let n = evil.len();
    evil[n - 1] ^= 0xFF;
    if let Ok(p) = flows_core::PackedThread::from_bytes(&evil) {
        // If the frame survived byte surgery, unpack must still either
        // succeed or error — never crash.
        let _ = pe1.unpack_thread(p);
    }
}

#[test]
fn many_threads_many_switches() {
    // A miniature version of the paper's "tens of thousands of user-level
    // threads" claim, kept test-sized: 500 threads, 10 yields each.
    let s = sched();
    let total = Rc::new(Cell::new(0u64));
    for _ in 0..500 {
        let total = total.clone();
        s.spawn(StackFlavor::Standard, move || {
            for _ in 0..10 {
                total.set(total.get() + 1);
                yield_now();
            }
        })
        .unwrap();
    }
    s.run();
    assert_eq!(total.get(), 5000);
    assert!(s.stats().switches >= 5000);
}

#[test]
fn priorities_order_execution() {
    let s = sched();
    let order = Rc::new(RefCell::new(Vec::new()));
    // Spawn in reverse-priority order: priority decides, not spawn order.
    for (prio, name) in [(5i32, "low"), (0, "mid"), (-5, "high")] {
        let order = order.clone();
        s.spawn_prio(StackFlavor::Standard, 32 * 1024, prio, move || {
            order.borrow_mut().push(name);
        })
        .unwrap();
    }
    s.run();
    assert_eq!(*order.borrow(), vec!["high", "mid", "low"]);
}

#[test]
fn equal_priorities_round_robin_and_set_priority_takes_effect() {
    let s = sched();
    let order = Rc::new(RefCell::new(Vec::new()));
    // Two equal-priority chatterers interleave FIFO...
    for name in ["a", "b"] {
        let order = order.clone();
        s.spawn(StackFlavor::Standard, move || {
            for _ in 0..2 {
                order.borrow_mut().push(name);
                flows_core::yield_now();
            }
        })
        .unwrap();
    }
    // ...until one demotes itself mid-run.
    let order2 = order.clone();
    s.spawn_prio(StackFlavor::Standard, 32 * 1024, -1, move || {
        order2.borrow_mut().push("urgent");
        flows_core::set_priority(100).unwrap(); // drop to the back
        flows_core::yield_now();
        order2.borrow_mut().push("last");
    })
    .unwrap();
    s.run();
    let o = order.borrow().clone();
    assert_eq!(o[0], "urgent", "highest priority runs first");
    assert_eq!(*o.last().unwrap(), "last", "after self-demotion it runs last");
    assert_eq!(o[1..5], ["a", "b", "a", "b"], "equal priorities stay FIFO");
}

#[test]
fn migration_preserves_priority() {
    let shared = SharedPools::new_for_tests();
    let pe0 = Scheduler::new(0, shared.clone(), SchedConfig::default());
    let pe1 = Scheduler::new(1, shared, SchedConfig::default());
    let order = Rc::new(RefCell::new(Vec::new()));
    let o2 = order.clone();
    let urgent = pe0
        .spawn_prio(StackFlavor::Isomalloc, 32 * 1024, -9, move || {
            suspend();
            o2.borrow_mut().push("urgent");
        })
        .unwrap();
    pe0.run();
    flows_core::migrate::migrate(&pe0, &pe1, urgent).unwrap();
    // A default-priority local thread spawned first...
    let o3 = order.clone();
    pe1.spawn(StackFlavor::Standard, move || o3.borrow_mut().push("normal"))
        .unwrap();
    pe1.awaken_tid(urgent).unwrap();
    pe1.run();
    // ...still loses to the migrated urgent thread.
    assert_eq!(*order.borrow(), vec!["urgent", "normal"]);
}

#[test]
fn local_switches_never_remap() {
    // The tentpole invariant of the windowed alias design: once a thread's
    // frame is mapped into its private window, local context switches
    // touch no VM syscalls at all — for *any* flavor. A probe thread
    // snapshots the (thread-local) counters mid-run, after every peer has
    // started, so spawn/exit costs are excluded by construction.
    use flows_mem::probe::syscall_snapshot;
    for flavor in StackFlavor::ALL {
        let s = sched();
        for _ in 0..3 {
            s.spawn(flavor, || {
                for _ in 0..40 {
                    yield_now();
                }
            })
            .unwrap();
        }
        let delta = Rc::new(RefCell::new(None));
        let d2 = delta.clone();
        s.spawn(flavor, move || {
            // A few warm-up yields guarantee all peers are past first
            // resume (entry setup) before the measurement window opens.
            for _ in 0..8 {
                yield_now();
            }
            let before = syscall_snapshot();
            for _ in 0..24 {
                yield_now();
            }
            *d2.borrow_mut() = Some(syscall_snapshot().since(&before));
        })
        .unwrap();
        s.run();
        let d = delta.borrow().expect("probe thread ran");
        assert_eq!(d.remap, 0, "flavor {}: local switches must not remap", flavor.name());
        assert_eq!(d.mmap + d.munmap, 0, "flavor {}: no map churn", flavor.name());
        assert_eq!(d.mprotect + d.madvise, 0, "flavor {}: no protection/discard", flavor.name());
        assert_eq!(d.fallocate + d.ftruncate, 0, "flavor {}: memfd untouched", flavor.name());
        assert_eq!(d.pread + d.pwrite, 0, "flavor {}: no frame I/O", flavor.name());
    }
}

#[test]
fn thread_churn_is_syscall_free_after_warmup() {
    // Slot/stack/frame recycling: after one warm-up tenancy per flavor,
    // create/run/exit must allocate no new address space. The syscall
    // counters are thread-local, so concurrent tests don't pollute the
    // deltas.
    use flows_mem::probe::syscall_snapshot;
    for flavor in StackFlavor::ALL {
        let s = sched();
        // Warm up: populate the free lists / warm slots / stack caches.
        for _ in 0..2 {
            s.spawn(flavor, || {
                yield_now();
            })
            .unwrap();
        }
        s.run();

        let before = syscall_snapshot();
        for _ in 0..16 {
            s.spawn(flavor, || {
                yield_now();
            })
            .unwrap();
            s.run();
        }
        let d = syscall_snapshot().since(&before);
        assert_eq!(d.mmap, 0, "flavor {}: no new mappings after warm-up", flavor.name());
        assert_eq!(d.munmap, 0, "flavor {}: nothing unmapped", flavor.name());
        assert_eq!(d.mprotect, 0, "flavor {}: no protection flips", flavor.name());
        assert_eq!(d.ftruncate, 0, "flavor {}: memfd never regrows", flavor.name());
        assert_eq!(s.stats().completed, 18, "flavor {}", flavor.name());
    }
}
