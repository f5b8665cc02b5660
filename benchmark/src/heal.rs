//! `heal` — the checkpoint write path beside the recover read path.
//!
//! 8 ranks on 4 PEs, deterministic drive, `modeled_time(true)`, 256 KiB of
//! isomalloc heap per rank, `checkpoint()` every iteration under
//! `FaultPlan::online_recovery(2)`:
//!
//! * a crash-free leg, timed in wall-clock → checkpoint generations per
//!   second;
//! * seeded single-crash schedules → modeled time from the first
//!   `Suspect` to `Resume` (MTTR). Every schedule must heal in place
//!   (`restarts == 0`, nothing stranded) with per-rank results equal to a
//!   crash-free run of the same length.
//!
//! The per-rank result folds the rank's whole heap block, so a rollback
//! that restored a stack but not its heap would be caught.

use crate::gen::Rng;
use crate::span;
use crate::stats;
use crate::workload::{rates_from_marks, Leg, Outcome};
use flows_ampi::{run_world_ft, Ampi, AmpiOptions, FtReport};
use flows_converse::{FaultPlan, NetModel, RecoveryPhase};
use flows_sys::time::monotonic_ns;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub const RANKS: usize = 8;
pub const PES: usize = 4;
pub const HEAP_BYTES: usize = 256 * 1024;
const HEAP_WORDS: usize = HEAP_BYTES / 8;
/// Iterations of a crash leg (and of its crash-free reference).
pub const CRASH_ITERS: u64 = 12;
/// Crash schedules of a full-length run (shorter legs run fewer).
pub const SCHEDULES: usize = 12;
/// Share of a leg's seconds given to the timed crash-free leg; set-up runs
/// and crash schedules (about 0.4 s each) fill the rest.
const TIMED_SHARE: f64 = 0.6;
const WINDOWS: usize = 20;
const TAG_RING: u64 = 7;

/// How long a leg runs: a fixed number of iterations, or until rank 0
/// sees the wall clock pass a deadline.
#[derive(Clone, Copy)]
enum Until {
    Iters(u64),
    Wall(u64),
}

struct Shared {
    seed: u64,
    until: Until,
    /// Per rank: `(fold of check and heap, iterations done)`.
    results: Mutex<BTreeMap<usize, (u64, u64)>>,
    /// Rank 0: wall time after each `checkpoint()` returned.
    marks: Mutex<Vec<u64>>,
    /// Rank 0: time spent inside `checkpoint()` calls, and in `recv`.
    ckpt_ns: AtomicU64,
    recv_ns: AtomicU64,
}

/// What rank `me` must end with after `iters` iterations: the same ring
/// recurrence and heap mutation, run serially without the runtime.
pub fn expected_results(seed: u64, iters: u64) -> BTreeMap<usize, (u64, u64)> {
    let n = RANKS;
    let mut check: Vec<u64> = (0..n).map(|r| r as u64 + 1).collect();
    let mut heaps: Vec<Vec<u64>> = (0..n).map(|r| initial_heap(seed, r)).collect();
    for it in 0..iters {
        let sent = check.clone();
        for me in 0..n {
            let src = (me + n - 1) % n;
            check[me] = step(check[me], sent[src], it, src);
            touch_heap(&mut heaps[me], it, check[me]);
        }
    }
    (0..n)
        .map(|r| (r, (fold(check[r], &heaps[r]), iters)))
        .collect()
}

fn initial_heap(seed: u64, rank: usize) -> Vec<u64> {
    let mut rng = Rng::fork(seed, 400 + rank as u64);
    (0..HEAP_WORDS).map(|_| rng.next_u64()).collect()
}

fn step(check: u64, got: u64, it: u64, src: usize) -> u64 {
    check
        .wrapping_mul(1_000_003)
        .wrapping_add(got)
        .wrapping_add(it * RANKS as u64 + src as u64)
}

/// One word per 4 KiB page changes every iteration, so every generation's
/// image differs from the last across the whole block.
fn touch_heap(heap: &mut [u64], it: u64, check: u64) {
    for (page, w) in heap.iter_mut().step_by(512).enumerate() {
        *w = w.wrapping_add(check ^ (it << 8) ^ page as u64);
    }
}

fn fold(check: u64, heap: &[u64]) -> u64 {
    heap.iter().fold(check, |a, w| a.rotate_left(5) ^ w)
}

fn rank_main(ampi: &mut Ampi, sh: &Shared) {
    let me = ampi.rank();
    let n = ampi.size();
    let block = ampi.malloc(HEAP_BYTES).expect("rank heap block") as *mut u64;
    // SAFETY: `block` is a live HEAP_BYTES isomalloc allocation, 8-byte
    // aligned, owned by this rank until it returns; nothing else aliases
    // it. It lives in the rank's slot, so checkpoint images carry it and a
    // rollback restores it at the same address.
    let heap = unsafe { std::slice::from_raw_parts_mut(block, HEAP_WORDS) };
    heap.copy_from_slice(&initial_heap(sh.seed, me));
    let mut check = me as u64 + 1;
    let mut it = 0u64;
    loop {
        let stop = match sh.until {
            Until::Iters(k) => it >= k,
            // Only rank 0 reads the clock; the sum spreads its verdict.
            Until::Wall(t) => {
                let mine = (me == 0 && monotonic_ns() >= t) as u64;
                ampi.allreduce_u64_sum(&[mine])[0] > 0
            }
        };
        if stop {
            break;
        }
        let o = span::begin("ampi.send", it as u32);
        ampi.send((me + 1) % n, TAG_RING, check.to_le_bytes().to_vec());
        span::end(o);
        let src = (me + n - 1) % n;
        let w0 = monotonic_ns();
        // The received buffer is dropped before `checkpoint()`: process
        // heap held across the cut is not part of the image.
        let got = {
            let (_, _, data) = ampi.recv(Some(src), Some(TAG_RING));
            u64::from_le_bytes(data[..8].try_into().expect("ring word"))
        };
        let w1 = monotonic_ns();
        check = step(check, got, it, src);
        touch_heap(heap, it, check);
        ampi.charge_ns(50_000 + 20_000 * me as u64);
        let c0 = monotonic_ns();
        ampi.checkpoint();
        let c1 = monotonic_ns();
        if me == 0 {
            span::complete("ampi.recv_wait", w0, w1, it as u32);
            span::complete("ampi.checkpoint", c0, c1, it as u32);
            sh.recv_ns.fetch_add(w1 - w0, Ordering::Relaxed);
            sh.ckpt_ns.fetch_add(c1 - c0, Ordering::Relaxed);
            sh.marks.lock().expect("marks").push(c1);
        }
        it += 1;
    }
    let result = fold(check, heap);
    assert!(ampi.free(block as *mut u8), "rank heap free");
    sh.results.lock().expect("results").insert(me, (result, it));
}

fn opts() -> AmpiOptions {
    AmpiOptions::new(RANKS, PES)
        .with_net(NetModel::default())
        .modeled_time(true)
}

fn launch(seed: u64, until: Until, plan: FaultPlan) -> (Arc<Shared>, FtReport, u64) {
    let sh = Arc::new(Shared {
        seed,
        until,
        results: Mutex::new(BTreeMap::new()),
        marks: Mutex::new(Vec::new()),
        ckpt_ns: AtomicU64::new(0),
        recv_ns: AtomicU64::new(0),
    });
    let s = sh.clone();
    let t0 = monotonic_ns();
    let ft = run_world_ft(opts(), plan, move |ampi| rank_main(ampi, &s));
    (sh, ft, t0)
}

fn results_of(sh: &Shared) -> BTreeMap<usize, (u64, u64)> {
    sh.results.lock().expect("results").clone()
}

/// One seeded single-crash schedule: which PE dies, and when (modeled).
fn schedule(seed: u64, k: usize) -> (usize, u64) {
    let mut rng = Rng::fork(seed, 500 + k as u64);
    // PE 0 hosts the reduction roots the recovery leader needs first;
    // victims rotate over the others so every schedule set covers them.
    let victim = 1 + (k + rng.below(3) as usize) % (PES - 1);
    // Between the second and the ninth checkpoint, off the iteration grid.
    let vt = (1 + k as u64 % 6) * 8_000_000 + rng.below(4_000_000);
    (victim, vt)
}

/// MTTR of a healed run: `Resume` minus the first `Suspect` of the victim.
fn mttr_ns(ft: &FtReport) -> Option<u64> {
    let ev = &ft.report.recovery;
    let crash = ev.iter().find(|e| e.phase == RecoveryPhase::Crash)?;
    let suspect = ev
        .iter()
        .find(|e| e.phase == RecoveryPhase::Suspect && e.dead == crash.dead && e.vt >= crash.vt)?;
    let resume = ev
        .iter()
        .find(|e| e.phase == RecoveryPhase::Resume && e.vt >= suspect.vt)?;
    Some(resume.vt - suspect.vt)
}

const GOLDEN: &str = include_str!("../golden/heal.txt");

/// The committed golden: the serial model's per-rank results after
/// `CRASH_ITERS` iterations from `seed`. It pins the model itself, so
/// that workload and model cannot drift together unnoticed.
pub fn render_golden(seed: u64) -> String {
    let mut s = format!(
        "# heal: {RANKS} ranks, {CRASH_ITERS} iterations, seed {seed:#x}: per-rank fold of check word and heap block.\n\
         # Regenerate with `flowsbench golden heal`.\nseed {seed:#x}\n"
    );
    for (rank, (fold, _)) in expected_results(seed, CRASH_ITERS) {
        s.push_str(&format!("rank {rank} {fold:#018x}\n"));
    }
    s
}

pub fn run(leg: Leg) -> Outcome {
    let mut out = Outcome::default();
    let plan = || FaultPlan::new(leg.seed).online_recovery(2);
    if GOLDEN.contains(&format!("seed {:#x}\n", leg.seed)) && GOLDEN != render_golden(leg.seed) {
        out.fail(
            1,
            "the serial model no longer reproduces golden/heal.txt".into(),
        );
    }

    // The run is `setups` rounds of: one whole short crash-free run — world
    // up, heaps filled, `CRASH_ITERS` generations committed, world down —
    // which is a `setup_s` sample and the crash legs' reference (bring-up
    // alone is a fraction of a millisecond, too short to carry a relative
    // bound); a share of the timed crash-free leg; a share of the crash
    // schedules. Interleaved, so that each metric is sampled all along the
    // run and not in one stretch of it.
    let rounds = leg.setups.max(1);
    let span_ns = (leg.seconds * TIMED_SHARE * 1e9) as u64 / rounds as u64;
    let windows = WINDOWS.div_ceil(rounds);
    let schedules = ((leg.seconds * 0.6) as usize).clamp(3, SCHEDULES);
    let (mut generations, mut timed_wall, mut ckpt_ns, mut recv_ns) = (0u64, 0u64, 0u64, 0u64);
    let (mut switches, mut syscalls, mut retransmits) = (0u64, 0u64, 0u64);
    let mut mttr_ms = Vec::new();
    for round in 0..rounds {
        let mut healed_job_us = Vec::new();
        let (sh, ft, t0) = launch(leg.seed, Until::Iters(CRASH_ITERS), plan());
        out.setup_s.push((monotonic_ns() - t0) as f64 / 1e9);
        let reference = results_of(&sh);
        out.attempted += 1;
        if reference != expected_results(leg.seed, CRASH_ITERS) || ft.restarts != 0 {
            out.fail(
                1,
                "crash-free reference run disagrees with the serial model".into(),
            );
        }

        // Crash-free timed leg.
        let cpu0 = crate::host::cpu_seconds();
        let start = monotonic_ns();
        let (sh, ft, _) = launch(leg.seed, Until::Wall(start + span_ns), plan());
        out.cpu_s += crate::host::cpu_seconds() - cpu0;
        let marks = sh.marks.lock().expect("marks").clone();
        let done = marks.len() as u64;
        let counted: Vec<(u64, u64)> = std::iter::once((start, 0))
            .chain(marks.iter().zip(1..).map(|(&t, n)| (t, n)))
            .collect();
        out.ops_per_s
            .push_setup(rates_from_marks(&counted, windows, 1.0));
        out.attempted += done;
        if results_of(&sh) != expected_results(leg.seed, done) {
            out.fail(
                done,
                format!("timed leg: results after {done} generations are wrong"),
            );
        }
        let stranded: usize = ft.report.stranded_threads.iter().sum();
        if stranded > 0 || ft.restarts != 0 {
            out.fail(
                1,
                format!("timed leg: {stranded} stranded, {} restarts", ft.restarts),
            );
        }
        generations += done;
        timed_wall += marks.last().map_or(0, |&t| t - start);
        ckpt_ns += sh.ckpt_ns.load(Ordering::Relaxed);
        recv_ns += sh.recv_ns.load(Ordering::Relaxed);
        switches += ft
            .report
            .sched_stats
            .iter()
            .map(|s| s.switches)
            .sum::<u64>();
        syscalls += ft.report.syscalls.iter().map(|s| s.total()).sum::<u64>();
        retransmits += ft.faults.retransmits;

        // This round's share of the crash schedules.
        for k in (round..schedules).step_by(rounds) {
            let (victim, vt) = schedule(leg.seed, k);
            let (sh, ft, _) = launch(
                leg.seed,
                Until::Iters(CRASH_ITERS),
                plan().crash_pe(victim, vt),
            );
            out.attempted += 1;
            retransmits += ft.faults.retransmits;
            let healed = ft.restarts == 0
                && ft.report.stranded_threads.iter().sum::<usize>() == 0
                && ft.crashed_pes == [victim];
            let equal = results_of(&sh) == reference;
            match (healed && equal, mttr_ns(&ft)) {
                (true, Some(ns)) => {
                    mttr_ms.push(ns as f64 / 1e6);
                    healed_job_us.push(ft.report.wall_ns as f64 / 1e3);
                }
                _ => out.fail(
                    1,
                    format!(
                        "schedule {k} (PE {victim} at {vt} ns): healed={healed} results_equal={equal}"
                    ),
                ),
            }
        }
        // The latency a user sees is wall-clock: how long a 12-iteration
        // job takes when one PE dies under it and is healed in place. MTTR
        // itself is modeled time — exact for a seed, so it can carry no
        // spread.
        out.lat_p50_us.push_setup(healed_job_us);
    }
    out.ops = generations;
    out.mb_per_s = out
        .ops_per_s
        .scaled((RANKS * HEAP_BYTES) as f64 / (1 << 20) as f64);
    out.extra("ckpt_per_s", "1/s", out.ops_per_s.summary());
    out.extra1(
        "ampi.checkpoint_call_ms",
        "ms",
        ckpt_ns as f64 / 1e6 / generations.max(1) as f64,
    );
    out.extra1(
        "ampi.recv_wait_share",
        "ratio",
        recv_ns as f64 / timed_wall.max(1) as f64,
    );
    out.extra1(
        "core.switches_per_op",
        "count",
        switches as f64 / generations.max(1) as f64,
    );
    out.extra1(
        "sys.syscalls_per_op",
        "count",
        syscalls as f64 / generations.max(1) as f64,
    );
    if !mttr_ms.is_empty() {
        out.extra("healed_job_ms", "ms", out.lat_p50_us.scaled(1e-3).summary());
        out.extra1("mttr_ms", "ms", stats::median(&mttr_ms));
    }
    out.extra1("converse.retransmits", "count", retransmits as f64);
    out
}
