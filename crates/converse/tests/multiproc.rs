//! One converse machine spanning OS processes: 2 procs × 2 PEs run the
//! unchanged pingpong and ring programs over both flows-net backends,
//! and the shared-memory backend delivers remote message bodies as
//! zero-copy views of the shared arena.
//!
//! The leader tests re-execute this binary as rank 1 (`mp_child`
//! below); every process runs the identical SPMD `exercise` body, so
//! handler ids agree machine-wide.

use flows_converse::{MachineBuilder, NetModel};
use flows_net::{child_rank, Backend, TopologySpec, World};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

const PROCS: usize = 2;
const PES: usize = 2;
/// Pingpong exchanges between PE 0 (proc 0) and PE 2 (proc 1).
const HOPS: u64 = 200;
/// Ring hops (token visits `RING_HOPS` successive PEs).
const RING_HOPS: u64 = 4 * 25;
/// Body size: comfortably past the inline-payload threshold, so a
/// zero-copy shm delivery is observable as an extern pointer.
const BODY: usize = 256;

fn fill(hops: u64) -> Vec<u8> {
    let mut v = vec![0xA5u8; BODY];
    v[..8].copy_from_slice(&hops.to_le_bytes());
    v
}

fn hops_of(data: &[u8]) -> u64 {
    u64::from_le_bytes(data[..8].try_into().unwrap())
}

/// The SPMD body every process runs: build the machine, wire the two
/// programs, drive to quiescence, check the global ledger.
fn exercise(world: Arc<World>) {
    let num = world.num_pes();
    let my_proc = world.rank();
    let shm = world.shm_range();
    let is_shm = world.backend() == Backend::Shm;
    let remote_views = Arc::new(AtomicU64::new(0));

    let mut mb = MachineBuilder::new(num)
        .net_model(NetModel::zero())
        .multiproc(world.clone());

    // Shared by both handlers: validate the body and (on shm) prove the
    // bytes of a cross-process message still live in the shared arena.
    let check = {
        let world = world.clone();
        let remote_views = remote_views.clone();
        move |msg: &flows_converse::Message| {
            assert_eq!(msg.data.len(), BODY);
            assert!(msg.data[8..].iter().all(|&b| b == 0xA5), "body intact");
            if world.proc_of_pe(msg.src_pe) != my_proc {
                if let Some((lo, hi)) = shm {
                    let p = msg.data.as_slice().as_ptr() as usize;
                    assert!(
                        lo <= p && p + BODY <= hi,
                        "remote shm body must be a view of the shared arena \
                         ({p:#x} not in {lo:#x}..{hi:#x})"
                    );
                    remote_views.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    };

    let pingpong = {
        let check = check.clone();
        mb.handler(move |pe, msg| {
            check(&msg);
            let hops = hops_of(&msg.data);
            if hops > 0 {
                pe.send(msg.src_pe, msg.handler, fill(hops - 1));
            }
        })
    };
    let ring = {
        let check = check.clone();
        mb.handler(move |pe, msg| {
            check(&msg);
            let hops = hops_of(&msg.data);
            if hops > 0 {
                let next = (pe.id() + 1) % pe.num_pes();
                pe.send(next, msg.handler, fill(hops - 1));
            }
        })
    };

    let report = mb.run(move |pe| {
        if pe.id() == 0 {
            // Cross-process pingpong: proc 0's PE 0 <-> proc 1's PE 2.
            pe.send(PES, pingpong, fill(HOPS));
            // Ring around every PE of every process.
            pe.send(1 % pe.num_pes(), ring, fill(RING_HOPS));
        }
    });

    // DONE carries the leader's global sent count; every process must
    // agree on it, and it is exactly the two programs' traffic.
    assert_eq!(
        report.messages,
        (HOPS + 1) + (RING_HOPS + 1),
        "global message ledger balances across processes"
    );
    if is_shm {
        assert!(
            remote_views.load(Ordering::Relaxed) > 0,
            "cross-process shm deliveries observed"
        );
        assert_eq!(
            flows_net::body_copies(),
            0,
            "shm backend stages no body copies intra-host"
        );
    }
}

/// Child-process body (not a test of its own: returns immediately when
/// the file runs without a flows-net environment).
#[test]
fn mp_child() {
    if child_rank().is_none() {
        return;
    }
    let world = flows_net::attach_from_env().expect("child attach");
    exercise(world);
}

/// Child-process body of the silent-exit test: attach, then leave the
/// machine at once with exit code 3 — no `PROC_DEAD`, no `GOODBYE`.
#[test]
fn mp_child_exits_silently() {
    if child_rank().is_none() {
        return;
    }
    let _world = flows_net::attach_from_env().expect("child attach");
    std::process::exit(3);
}

/// Held by a leader for its whole run. Both leaders run in this one test
/// process and each needs the isomalloc region at its single fixed base,
/// so they take turns; a leader that panicked poisons the lock, which
/// must not fail the other one. Children run `mp_child` alone and never
/// take it.
static FIXED_BASE: Mutex<()> = Mutex::new(());

fn lead(backend: Backend) {
    let _turn = FIXED_BASE.lock().unwrap_or_else(PoisonError::into_inner);
    let world = TopologySpec::new(PROCS, PES)
        .backend(backend)
        .child_args(["mp_child", "--exact", "--nocapture"])
        .launch()
        .expect("launch");
    exercise(world.clone());
    world.shutdown().expect("children exited clean");
}

/// A child that exits without a word used to leave the leader spinning
/// beside a zombie forever. The leader's comm loop reaps it, and the run
/// ends in bounded time with a diagnosis naming the child and its code.
#[test]
fn a_child_that_exits_silently_fails_the_leader_in_bounded_time() {
    let _turn = FIXED_BASE.lock().unwrap_or_else(PoisonError::into_inner);
    let world = TopologySpec::new(PROCS, PES)
        .backend(Backend::Uds)
        .child_args(["mp_child_exits_silently", "--exact", "--nocapture"])
        .launch()
        .expect("launch");
    let t0 = Instant::now();
    let err = std::panic::catch_unwind(AssertUnwindSafe(|| exercise(world.clone())))
        .expect_err("the leader's run must fail, not quiesce");
    let elapsed = t0.elapsed();
    let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("rank 1 exited with code 3"), "diagnosis: {msg:?}");
    assert!(elapsed < Duration::from_secs(10), "leader took {elapsed:?}");
    assert_eq!(world.shutdown(), Err("rank 1 exited with 3".to_string()));
}

#[test]
fn shm_machine_runs_pingpong_and_ring() {
    lead(Backend::Shm);
}

#[test]
fn uds_machine_runs_pingpong_and_ring() {
    lead(Backend::Uds);
}
