//! Online recovery: buddy-replicated in-memory checkpoints, phi-accrual
//! failure detection, and in-place rollback/respawn — the machine heals a
//! PE death WITHOUT tearing the world down. When no checkpoint generation
//! survives, every rank restarts from scratch on the surviving PEs, still
//! in place.

use flows_ampi::{run_world, run_world_ft, AmpiOptions, FtReport};
use flows_converse::{FaultPlan, NetModel, RecoveryPhase};
use flows_lb::GreedyLb;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Per-rank result store (insert-overwrite keyed by rank, idempotent under
/// post-rollback re-execution).
type Results = Arc<Mutex<HashMap<usize, (u64, usize)>>>;

/// An iterative ring exchange: per-iteration work, a checkpoint at every
/// matched communication boundary (every rank has received the one
/// message sent to it before it can pass the checkpoint collective).
fn ring_workload(iters: usize, results: Results) -> impl Fn(&mut flows_ampi::Ampi) + Send + Sync {
    move |ampi| {
        let me = ampi.rank();
        let n = ampi.size();
        let mut check: u64 = me as u64 + 1;
        for it in 0..iters {
            let next = (me + 1) % n;
            ampi.send(next, 7, check.to_le_bytes().to_vec());
            // Scope the received buffer so it is freed before checkpoint():
            // heap allocations held across the cut are not part of the
            // image, and a rollback would replay their drop.
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
        results
            .lock()
            .unwrap()
            .insert(me, (total[0], ampi.current_pe()));
    }
}

fn opts(ranks: usize, pes: usize) -> AmpiOptions {
    AmpiOptions::new(ranks, pes)
        .with_net(NetModel::default())
        .with_strategy(Arc::new(GreedyLb))
        .modeled_time(true)
}

const RANKS: usize = 8;
const PES: usize = 4;
const ITERS: usize = 10;

fn fault_free_results() -> HashMap<usize, (u64, usize)> {
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    run_world(opts(RANKS, PES), ring_workload(ITERS, results.clone()));
    let map = results.lock().unwrap().clone();
    map
}

fn online_run(plan: FaultPlan) -> (FtReport, HashMap<usize, (u64, usize)>) {
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    let ft = run_world_ft(opts(RANKS, PES), plan, ring_workload(ITERS, results.clone()));
    let map = results.lock().unwrap().clone();
    (ft, map)
}

fn phases_of(ft: &FtReport) -> Vec<RecoveryPhase> {
    ft.report.recovery.iter().map(|e| e.phase).collect()
}

#[test]
fn single_crash_heals_in_place() {
    let clean = fault_free_results();
    assert_eq!(clean.len(), RANKS);

    // vt 2_000_000 lands after generations 1 and 2 have committed (one
    // checkpoint round trip is ~1M ns of modeled time), so the rollback
    // exercises the buddy shelf rather than a from-scratch restart.
    let plan = FaultPlan::new(0x0F11)
        .online_recovery(1)
        .crash_pe(2, 2_000_000);
    let (ft, got) = online_run(plan);

    // The machine was never torn down: zero restarts and one recovery
    // round (the dead PE's scheduler simply went quiet — survivors kept
    // theirs).
    assert_eq!(ft.restarts, 0, "online recovery must not restart the world");
    assert_eq!(ft.recoveries, 1, "one crash, one recovery round");
    assert_eq!(ft.crashed_pes, vec![2]);
    assert_eq!(ft.report.dead_pes, vec![2]);

    // Bit-identical results vs the fault-free run, for every rank.
    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after online recovery"
        );
        assert_ne!(got[&r].1, 2, "rank {r} finished on the dead PE");
    }

    // The timeline walks the protocol: detection, confirmation, rollback,
    // respawn of the dead PE's ranks, resume.
    let phases = phases_of(&ft);
    for want in [
        RecoveryPhase::Crash,
        RecoveryPhase::Suspect,
        RecoveryPhase::Confirm,
        RecoveryPhase::Rollback,
        RecoveryPhase::Respawn,
        RecoveryPhase::Resume,
    ] {
        assert!(phases.contains(&want), "missing {want:?} in {phases:?}");
    }
    // Every decisive phase concerns the scripted victim. (Survivors may be
    // transiently *suspected* while they are busy replaying — the detector
    // must clear those without ever confirming them.)
    for e in &ft.report.recovery {
        if !matches!(e.phase, RecoveryPhase::Suspect | RecoveryPhase::Clear) {
            assert_eq!(e.dead, 2, "{:?} names PE {}, not the victim", e.phase, e.dead);
        }
    }
    let confirmed: Vec<usize> = ft
        .report
        .recovery
        .iter()
        .filter(|e| e.phase == RecoveryPhase::Confirm)
        .map(|e| e.dead)
        .collect();
    assert_eq!(confirmed, vec![2], "only the victim is ever confirmed dead");
    // Any suspicion of a live PE was withdrawn by a matching Clear.
    for e in ft.report.recovery.iter().filter(|e| e.phase == RecoveryPhase::Suspect) {
        if e.dead != 2 {
            assert!(
                ft.report
                    .recovery
                    .iter()
                    .any(|c| c.phase == RecoveryPhase::Clear && c.pe == e.pe && c.dead == e.dead),
                "suspicion of live PE {} on PE {} was never cleared",
                e.dead,
                e.pe
            );
        }
    }
    // Rollbacks on every survivor.
    let rollback_pes: Vec<usize> = ft
        .report
        .recovery
        .iter()
        .filter(|e| e.phase == RecoveryPhase::Rollback)
        .map(|e| e.pe)
        .collect();
    assert_eq!(rollback_pes.len(), PES - 1, "all survivors rolled back");
    // MTTR is well-defined: resume strictly after the first suspicion.
    let suspect_vt = ft
        .report
        .recovery
        .iter()
        .find(|e| e.phase == RecoveryPhase::Suspect)
        .unwrap()
        .vt;
    let resume_vt = ft
        .report
        .recovery
        .iter()
        .rev()
        .find(|e| e.phase == RecoveryPhase::Resume)
        .unwrap()
        .vt;
    assert!(resume_vt > suspect_vt);
}

#[test]
fn two_sequential_crashes_heal_with_degree_two_replication() {
    let clean = fault_free_results();
    // The second death is scripted well after the first recovery resumes
    // (~8.5M), mid-replay: two full, non-overlapping recovery rounds, the
    // second served by images re-replicated during the first.
    let plan = FaultPlan::new(0x0F22)
        .online_recovery(2)
        .crash_pe(3, 2_000_000)
        .crash_pe(1, 10_000_000);
    let (ft, got) = online_run(plan);

    assert_eq!(ft.restarts, 0);
    assert_eq!(ft.recoveries, 2, "two crashes, two recovery rounds");
    let mut dead = ft.crashed_pes.clone();
    dead.sort_unstable();
    assert_eq!(dead, vec![1, 3]);

    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after two online recoveries"
        );
        assert!(
            got[&r].1 != 1 && got[&r].1 != 3,
            "rank {r} finished on a dead PE"
        );
    }
}

#[test]
fn crash_during_recovery_is_superseded_and_healed() {
    let clean = fault_free_results();

    // Calibrate: run the single-crash scenario once and read the recovery
    // window off the timeline, then script a second death inside it.
    let probe = FaultPlan::new(0x0F33)
        .online_recovery(2)
        .crash_pe(2, 2_000_000);
    let (ft0, _) = online_run(probe);
    let suspect_vt = ft0
        .report
        .recovery
        .iter()
        .find(|e| e.phase == RecoveryPhase::Suspect)
        .unwrap()
        .vt;
    let resume_vt = ft0
        .report
        .recovery
        .iter()
        .find(|e| e.phase == RecoveryPhase::Resume)
        .unwrap()
        .vt;
    assert!(resume_vt > suspect_vt);
    let mid = suspect_vt + (resume_vt - suspect_vt) / 2;

    let plan = FaultPlan::new(0x0F33)
        .online_recovery(2)
        .crash_pe(2, 2_000_000)
        .crash_pe(0, mid);
    let (ft, got) = online_run(plan);

    assert_eq!(ft.restarts, 0);
    let mut dead = ft.crashed_pes.clone();
    dead.sort_unstable();
    assert_eq!(dead, vec![0, 2]);
    assert!(
        ft.recoveries >= 1,
        "at least one completed recovery round healed both deaths"
    );
    for r in 0..RANKS {
        assert_eq!(
            got[&r].0, clean[&r].0,
            "rank {r} checksum differs after crash-during-recovery"
        );
        assert!(
            got[&r].1 != 0 && got[&r].1 != 2,
            "rank {r} finished on a dead PE"
        );
    }
}

#[test]
fn stall_is_suspected_then_cleared_without_rollback() {
    let clean = fault_free_results();
    // A long-but-finite stall: phi crosses the suspect threshold, then the
    // heartbeats resume before confirmation — a slow PE, not a dead one.
    let plan = FaultPlan::new(0x0F44)
        .online_recovery(1)
        .phi_thresholds(2.0, 1e9)
        .stall_pe(1, 300_000, 4_000);
    let (ft, got) = online_run(plan);

    assert_eq!(ft.restarts, 0);
    assert_eq!(ft.recoveries, 0, "a stall must not trigger recovery");
    assert!(ft.crashed_pes.is_empty());
    let phases = phases_of(&ft);
    assert!(
        phases.contains(&RecoveryPhase::Suspect),
        "the stall was long enough to raise suspicion: {phases:?}"
    );
    assert!(
        phases.contains(&RecoveryPhase::Clear),
        "suspicion was withdrawn when heartbeats resumed: {phases:?}"
    );
    assert!(
        !phases.contains(&RecoveryPhase::Rollback),
        "no rollback for a slow PE: {phases:?}"
    );
    for r in 0..RANKS {
        assert_eq!(got[&r].0, clean[&r].0, "rank {r} checksum differs");
    }
}

#[test]
fn online_recovery_is_deterministic() {
    let plan = || {
        FaultPlan::new(0x0F55)
            .online_recovery(2)
            .drop_prob(0.02)
            .crash_pe(3, 300_000)
            .crash_pe(1, 900_000)
    };
    let (ft1, got1) = online_run(plan());
    let (ft2, got2) = online_run(plan());
    assert_eq!(got1, got2, "rank results must replay exactly");
    assert_eq!(ft1.recoveries, ft2.recoveries);
    assert_eq!(ft1.crashed_pes, ft2.crashed_pes);
    assert_eq!(ft1.report.pe_vtimes, ft2.report.pe_vtimes);
    assert_eq!(ft1.report.recovery, ft2.report.recovery);
    assert_eq!(ft1.report.messages, ft2.report.messages);
}

#[test]
fn crash_before_first_commit_restarts_from_scratch() {
    let clean = fault_free_results();
    // PE 1 dies almost immediately — before the first generation commits,
    // so no image survives: every rank restarts from scratch on the three
    // survivors (restart on fewer processors, healed in place).
    let (ft, got) = online_run(FaultPlan::new(7).online_recovery(1).crash_pe(1, 1_000));
    assert_eq!(ft.restarts, 1, "the scratch round is counted as a restart");
    assert_eq!(ft.recoveries, 1);
    assert_eq!(ft.crashed_pes, vec![1]);
    for r in 0..RANKS {
        assert_eq!(got[&r].0, clean[&r].0, "rank {r} checksum differs");
        assert_ne!(got[&r].1, 1, "rank {r} finished on the dead PE");
    }
}

#[test]
fn checkpoint_without_faults_is_transparent() {
    // checkpoint() under plain run_world: snapshots are taken and thrown
    // away; results match a run that never checkpoints.
    let with_ckpt = fault_free_results();
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    run_world(opts(RANKS, PES), {
        let results = results.clone();
        move |ampi| {
            let me = ampi.rank();
            let n = ampi.size();
            let mut check: u64 = me as u64 + 1;
            for it in 0..ITERS {
                let next = (me + 1) % n;
                ampi.send(next, 7, check.to_le_bytes().to_vec());
                let (src, _, data) = ampi.recv(Some((me + n - 1) % n), Some(7));
                let got = u64::from_le_bytes(data[..8].try_into().unwrap());
                check = check
                    .wrapping_mul(1_000_003)
                    .wrapping_add(got)
                    .wrapping_add((it * n + src) as u64);
                ampi.charge_ns(50_000 + 20_000 * me as u64);
                ampi.barrier(); // same collective count, no snapshot
            }
            let total = ampi.allreduce_u64_sum(&[check]);
            results.lock().unwrap().insert(me, (total[0], 0));
        }
    });
    let without = Arc::try_unwrap(results).unwrap().into_inner().unwrap();
    for r in 0..RANKS {
        assert_eq!(with_ckpt[&r].0, without[&r].0);
    }
}

#[test]
fn recovery_phases_appear_in_chrome_trace() {
    let plan = FaultPlan::new(0x0F66)
        .online_recovery(1)
        .crash_pe(2, 2_000_000);
    let results: Results = Arc::new(Mutex::new(HashMap::new()));
    let ft = run_world_ft(
        opts(RANKS, PES).tracing(true),
        plan,
        ring_workload(ITERS, results.clone()),
    );
    assert_eq!(ft.restarts, 0);
    let json = flows_trace::chrome::chrome_trace_json(&ft.report.trace_rings);
    // Recovery phases are first-class trace events...
    for name in ["ft_rollback", "ft_respawn", "ft_resume"] {
        assert!(json.contains(name), "missing {name} in chrome trace");
    }
    assert!(json.contains("recovery"), "recovery category missing");
    // ...and the pre-crash history survived in the same rings (the world
    // was never torn down): checkpoint events from before the crash are
    // still present alongside the recovery timeline.
    assert!(
        json.contains("checkpoint"),
        "pre-crash checkpoint events lost from trace rings"
    );
}

/// splitmix64: the per-seed schedule stream of the soak below.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// One randomized schedule: 1-2 distinct victims at vts spread over the
/// run, degree-2 replication, every third seed a stall and every second
/// seed 1 % packet loss on top. Returns the plan and every PE allowed to
/// die — a long stall may legitimately end in fencing (fail-stop by
/// decree), so the staller is an allowed casualty too.
fn soak_schedule(seed: u64) -> (FaultPlan, Vec<usize>) {
    let mut s = seed;
    let mut plan = FaultPlan::new(seed).online_recovery(2);
    let n_crashes = 1 + (mix(&mut s) % 2) as usize;
    let first_victim = (mix(&mut s) % PES as u64) as usize;
    let mut allowed = Vec::new();
    let mut vt = 1_500_000 + mix(&mut s) % 3_000_000;
    for i in 0..n_crashes {
        let victim = (first_victim + i * 2) % PES; // distinct by construction
        plan = plan.crash_pe(victim, vt);
        allowed.push(victim);
        // Far enough apart that the second death usually lands after the
        // first heal — and sometimes inside it, exercising supersession.
        vt += 5_000_000 + mix(&mut s) % 6_000_000;
    }
    if mix(&mut s).is_multiple_of(3) {
        let staller = (first_victim + 1) % PES;
        // Short stalls stay transient (suspect, then clear); long ones
        // outlast the confirm window and end in a STONITH fence.
        let steps = 200 + mix(&mut s) % 2_800;
        plan = plan.stall_pe(staller, 1_000_000 + mix(&mut s) % 2_000_000, steps);
        allowed.push(staller);
    }
    if mix(&mut s).is_multiple_of(2) {
        plan = plan.drop_prob(0.01);
    }
    (plan, allowed)
}

#[test]
fn seeded_crash_stall_loss_schedules_heal_in_place() {
    let clean = fault_free_results();
    for i in 0..12u64 {
        let seed = 0xC0FFEE ^ i.wrapping_mul(0x9E3779B97F4A7C15);
        let (plan, allowed) = soak_schedule(seed);
        let (ft, got) = online_run(plan);
        // Degree-2 replication keeps three holders of every image: only
        // the loss of three PEs (two crashes and a fenced staller) may
        // leave no complete generation and restart every rank from
        // scratch on the last survivor.
        if ft.crashed_pes.len() < 3 {
            assert_eq!(ft.restarts, 0, "seed {seed:#x}: restarted from scratch");
        }
        assert_eq!(
            ft.report.stranded_threads.iter().sum::<usize>(),
            0,
            "seed {seed:#x}: stranded threads"
        );
        assert!(
            ft.crashed_pes.iter().all(|pe| allowed.contains(pe)),
            "seed {seed:#x}: PEs {:?} died, only {allowed:?} may",
            ft.crashed_pes
        );
        assert_eq!(got.len(), RANKS, "seed {seed:#x}: a rank never finished");
        for r in 0..RANKS {
            assert_eq!(
                got[&r].0, clean[&r].0,
                "seed {seed:#x}: rank {r} checksum differs from the fault-free run"
            );
        }
    }
}

/// The ring of [`ring_workload`] with a 64 KiB isomalloc heap block per
/// rank, touched every iteration, and no closing collective: ranks with
/// less modeled work return first, while the others still run their final
/// iteration.
fn late_workload(iters: u64, results: Results) -> impl Fn(&mut flows_ampi::Ampi) + Send + Sync {
    const WORDS: usize = 64 * 1024 / 8;
    move |ampi| {
        let me = ampi.rank();
        let n = ampi.size();
        let block = ampi.malloc(WORDS * 8).expect("rank heap block") as *mut u64;
        // SAFETY: a live, 8-byte aligned isomalloc block of WORDS words,
        // owned by this rank until it frees it below; nothing aliases it.
        let heap = unsafe { std::slice::from_raw_parts_mut(block, WORDS) };
        for (i, w) in heap.iter_mut().enumerate() {
            *w = (me * WORDS + i) as u64;
        }
        let mut check = me as u64 + 1;
        for it in 0..iters {
            ampi.send((me + 1) % n, 7, check.to_le_bytes().to_vec());
            let got = {
                let (_, _, data) = ampi.recv(Some((me + n - 1) % n), Some(7));
                u64::from_le_bytes(data[..8].try_into().unwrap())
            };
            check = check
                .wrapping_mul(1_000_003)
                .wrapping_add(got)
                .wrapping_add(it);
            for w in heap.iter_mut().step_by(512) {
                *w = w.wrapping_add(check);
            }
            ampi.charge_ns(50_000 + 20_000 * me as u64);
            ampi.checkpoint();
        }
        let fold = heap.iter().fold(check, |a, w| a.rotate_left(5) ^ w);
        assert!(ampi.free(block as *mut u8), "rank heap free");
        results.lock().unwrap().insert(me, (fold, 0));
    }
}

/// A crash late in the job, after some ranks have returned, rolls those
/// ranks back to a checkpoint taken before they returned: they run their
/// last iteration and return a second time. Nothing on a rank's stack may
/// be released twice by that (the rank's entry once dropped a reference
/// it held there, corrupting the heap). Each of two victims crashes at
/// four points across the final iteration, located from a crash-free run
/// so the schedule follows the job's modeled length; every run heals in
/// place with the crash-free results.
#[test]
fn crash_after_ranks_returned_heals_in_place() {
    const LATE_ITERS: u64 = 12;
    let plan = || FaultPlan::new(0x1A7E).online_recovery(2);
    let run = |plan: FaultPlan| {
        let results: Results = Arc::new(Mutex::new(HashMap::new()));
        let ft = run_world_ft(
            opts(RANKS, PES),
            plan,
            late_workload(LATE_ITERS, results.clone()),
        );
        let map = results.lock().unwrap().clone();
        (ft, map)
    };
    let (clean_ft, clean) = run(plan());
    assert_eq!(clean.len(), RANKS);
    assert_eq!(clean_ft.recoveries, 0);
    let end = clean_ft.report.parallel_time_ns();
    let iter = end / LATE_ITERS;
    for victim in [3, 1] {
        for share in [25, 50, 75, 97] {
            let vt = end - iter + iter * share / 100;
            let (ft, got) = run(plan().crash_pe(victim, vt));
            let at = format!("PE {victim} crashed at vt {vt} of {end}");
            assert_eq!(ft.crashed_pes, vec![victim], "{at}");
            assert_eq!(
                (ft.restarts, ft.recoveries),
                (0, 1),
                "{at}: healed in place"
            );
            assert_eq!(got, clean, "{at}: results differ from the crash-free run");
        }
    }
}
