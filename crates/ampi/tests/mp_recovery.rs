// Cross-process online recovery: a 2-process × 2-PE machine runs the
// ring workload; the whole child process is killed by the crash
// schedule, survivors on the lead process detect it by phi-accrual
// (heartbeats stop arriving over the wire) and heal from buddy
// checkpoint images that crossed the socket backend.
//
// This lives in its own test binary because the topology is
// `migratable()`: thread images cross the process boundary, so the
// leader disables ASLR and re-executes itself once — replaying only
// this binary's tests, not the whole online-recovery suite.
//
// Cross-process rules the workload obeys (the same ones real AMPI
// imposes on isomalloc programs): the rank main is a plain `fn` (its
// closure environment would live on the dead process's heap), results
// are collected in a `static` (same address in every process once ASLR
// is off, each process writing its own copy), and no heap allocation is
// held across a checkpoint.
//
// The umbrella package compiles this file a second time, through
// `include!` in its `tests/mp_recovery_smoke.rs`, so Tier-1 runs it too;
// hence plain comments here, not inner doc comments.

use flows_ampi::{run_world, run_world_ft, AmpiOptions};
use flows_converse::{FaultPlan, NetModel};
use flows_lb::GreedyLb;
use std::collections::HashMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const RANKS: usize = 8;
const PES: usize = 4;
const ITERS: usize = 10;
const VICTIM: usize = 1;

/// Per-rank `(checksum, final PE)` results. A `static` on purpose: the
/// ranks respawned from the dead child finish on the leader, and with
/// ASLR off their code resolves this symbol to the leader's copy.
static RESULTS: Mutex<Vec<(usize, u64, usize)>> = Mutex::new(Vec::new());

/// Same iterative ring exchange as the single-process online-recovery
/// tests — per-iteration work, a checkpoint at every matched
/// communication boundary — as a capture-free `fn`.
fn ring_main(ampi: &mut flows_ampi::Ampi) {
    let me = ampi.rank();
    let n = ampi.size();
    let mut check: u64 = me as u64 + 1;
    for it in 0..ITERS {
        let next = (me + 1) % n;
        ampi.send(next, 7, check.to_le_bytes().to_vec());
        // Scope the received buffer so it is freed before checkpoint():
        // heap allocations held across the cut are not part of the image.
        let (src, got) = {
            let (src, _, data) = ampi.recv(Some((me + n - 1) % n), Some(7));
            (src, u64::from_le_bytes(data[..8].try_into().unwrap()))
        };
        check = check
            .wrapping_mul(1_000_003)
            .wrapping_add(got)
            .wrapping_add((it * n + src) as u64);
        ampi.charge_ns(50_000 + 20_000 * me as u64);
        ampi.checkpoint();
    }
    let total = ampi.allreduce_u64_sum(&[check]);
    RESULTS.lock().unwrap().push((me, total[0], ampi.current_pe()));
}

fn opts(ranks: usize, pes: usize) -> AmpiOptions {
    AmpiOptions::new(ranks, pes)
        .with_net(NetModel::default())
        .with_strategy(Arc::new(GreedyLb))
        .modeled_time(true)
}

/// The SPMD body both the leader and the child run.
fn mp_recovery_body(world: Arc<flows_net::World>) {
    // Whole-process failure unit: replication must be at least
    // pes_per_proc, or a rank's only buddy image could die with it.
    let plan = FaultPlan::new(0x0F88)
        .online_recovery(2)
        .crash_process(VICTIM, world.pes_per_proc(), 2_000_000);
    let ft = run_world_ft(opts(RANKS, PES).multiproc(world.clone()), plan, ring_main);
    if world.rank() == VICTIM {
        // This process was scripted to die mid-run; its machine-level
        // failure is the survivors' to heal. Returning cleanly (exit 0)
        // is all that is asked of it.
        return;
    }
    let map: HashMap<usize, (u64, usize)> = RESULTS
        .lock()
        .unwrap()
        .iter()
        .map(|&(r, total, pe)| (r, (total, pe)))
        .collect();
    // Replication crosses the socket on the wall clock while the crash
    // fires on the modeled one, so the child may die before any of its
    // generations reached a survivor: then the one round restarts every
    // rank from scratch on the lead process (still in place).
    assert!(ft.restarts <= 1, "at most the one round restarted from scratch");
    assert!(ft.recoveries >= 1, "at least one recovery round completed");
    let mut dead = ft.crashed_pes.clone();
    dead.sort_unstable();
    assert_eq!(dead, vec![2, 3], "exactly the child's PEs died");

    // Every rank finished — the dead process's ranks were respawned from
    // buddy images onto the survivors — and every checksum matches a
    // fault-free single-process run of the same workload bit for bit.
    RESULTS.lock().unwrap().clear();
    run_world(opts(RANKS, PES), ring_main);
    let clean: HashMap<usize, u64> = RESULTS
        .lock()
        .unwrap()
        .iter()
        .map(|&(r, total, _)| (r, total))
        .collect();
    assert_eq!(map.len(), RANKS, "all ranks finished on the survivors");
    for (r, (total, pe)) in &map {
        assert_eq!(
            *total, clean[r],
            "rank {r} checksum differs after cross-process recovery"
        );
        assert!(*pe != 2 && *pe != 3, "rank {r} finished on a dead PE");
    }
}

/// Child-process entry (returns immediately when run without a
/// flows-net environment, i.e. as an ordinary test).
#[test]
fn mp_recovery_child() {
    if flows_net::child_rank().is_none() {
        return;
    }
    let world = flows_net::attach_from_env().expect("child attach");
    mp_recovery_body(world);
}

/// How long the leader's run may take before the test gives up on it. A
/// clean run takes seconds; a leader machine that never quiesces would
/// otherwise stall the whole suite.
const LEADER_LIMIT: Duration = Duration::from_secs(120);

#[test]
fn cross_process_crash_heals_over_socket_backend() {
    let world = flows_net::TopologySpec::new(2, 2)
        .backend(flows_net::Backend::Uds)
        .migratable()
        .child_args(["mp_recovery_child", "--exact", "--nocapture"])
        .launch()
        .expect("launch");
    // The watchdog is scoped, so it is joined; dropping `finished` (at the
    // end of the body or while a failed assertion unwinds) releases it.
    let (finished, wait) = mpsc::channel::<()>();
    let watched = world.clone();
    std::thread::scope(|s| {
        s.spawn(move || {
            if let Err(RecvTimeoutError::Timeout) = wait.recv_timeout(LEADER_LIMIT) {
                eprintln!(
                    "mp_recovery: the leader's machine is still running after \
                     {LEADER_LIMIT:?}; reaping the child and failing the test"
                );
                let _ = watched.shutdown();
                std::process::exit(101);
            }
        });
        mp_recovery_body(world.clone());
        drop(finished);
    });
    world.shutdown().expect("child exited clean");
}
