//! Cross-crate integration: the full stack (pup → mem → core → converse →
//! comm → ampi → lb → npb) exercised end-to-end.

use flows::ampi::{run_world, AmpiOptions};
use flows::comm::ReduceOp;
use flows::converse::{FaultPlan, NetModel};
use flows::lb::{GreedyLb, RefineLb, RotateLb};
use flows::npb::{run as run_mz, MzBench, MzClass, MzConfig};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

#[test]
fn btmz_checksum_is_invariant_across_all_strategies() {
    let mut cfg = MzConfig::new(MzBench::BtMz, MzClass::W, 8, 4);
    cfg.iterations = 6;
    let baseline = run_mz(&cfg);
    for (name, lb) in [
        ("greedy", Arc::new(GreedyLb) as Arc<dyn flows::lb::LbStrategy + Send + Sync>),
        ("refine", Arc::new(RefineLb::default())),
        ("rotate", Arc::new(RotateLb)),
    ] {
        let r = run_mz(&cfg.clone().with_lb(lb));
        assert_eq!(
            r.checksum, baseline.checksum,
            "{name}: migration must not perturb the numerics"
        );
    }
}

#[test]
fn load_balancing_tightens_pe_times_under_skew() {
    // BT-MZ class A with 16 ranks on 4 PEs: heavy zone skew. With LB, the
    // spread of per-PE work must shrink. The work is counted in cells
    // swept, so the spread is the placement's alone, not host noise.
    let mut cfg = MzConfig::new(MzBench::BtMz, MzClass::A, 16, 4);
    cfg.iterations = 8;
    cfg.sweeps = 3;
    let without = run_mz(&cfg);
    let with = run_mz(&cfg.clone().with_lb(Arc::new(GreedyLb)));
    let spread = |v: &[u64]| {
        let max = v.iter().copied().max().unwrap_or(0) as f64;
        let avg = v.iter().sum::<u64>() as f64 / v.len() as f64;
        max / avg.max(1e-12)
    };
    let s_without = spread(&without.pe_cells);
    let s_with = spread(&with.pe_cells);
    assert!(with.migrations > 0, "greedy must migrate under this skew");
    assert!(
        s_with < s_without,
        "LB must tighten PE time spread: {s_without:.3} -> {s_with:.3}"
    );
}

#[test]
fn many_ranks_per_pe_with_repeated_migration_epochs() {
    // Processor virtualization: 24 ranks on 3 PEs, three LB epochs of
    // rotation — every rank moves three times; totals must be exact.
    let total = Arc::new(AtomicU64::new(0));
    let t2 = total.clone();
    let report = run_world(
        AmpiOptions::new(24, 3)
            .with_net(NetModel::zero())
            .with_strategy(Arc::new(RotateLb)),
        move |ampi| {
            let mut local = 0u64;
            for epoch in 0..3u64 {
                // Some real work whose partial results live on the stack
                // across each migration.
                for i in 0..1000 {
                    local = local.wrapping_add(i * (ampi.rank() as u64 + epoch));
                }
                ampi.migrate();
            }
            // Every rank visited 3 extra PEs, cyclically.
            let expect_pe = (flows::ampi::pe_of_rank(ampi.rank(), 24, 3) + 3) % 3;
            assert_eq!(ampi.current_pe(), expect_pe);
            t2.fetch_add(local, Ordering::Relaxed);
        },
    );
    assert_eq!(report.stranded_threads.iter().sum::<usize>(), 0);
    let expect: u64 = (0..24u64)
        .map(|r| {
            let mut local = 0u64;
            for epoch in 0..3u64 {
                for i in 0..1000 {
                    local = local.wrapping_add(i * (r + epoch));
                }
            }
            local
        })
        .fold(0, u64::wrapping_add);
    assert_eq!(total.load(Ordering::Relaxed), expect);
}

#[test]
fn collectives_interleave_with_pt2pt_and_migration() {
    let ok = Arc::new(AtomicU64::new(0));
    let ok2 = ok.clone();
    run_world(
        AmpiOptions::new(6, 2)
            .with_net(NetModel::zero())
            .with_strategy(Arc::new(RotateLb)),
        move |ampi| {
            let n = ampi.size();
            // Phase 1: neighbor exchange.
            ampi.send((ampi.rank() + 1) % n, 1, vec![ampi.rank() as u8]);
            let (_, _, d) = ampi.recv(None, Some(1));
            let left = (ampi.rank() + n - 1) % n;
            assert_eq!(d[0] as usize, left);
            // Phase 2: allreduce before migration.
            let s = ampi.allreduce_u64_sum(&[1])[0];
            assert_eq!(s as usize, n);
            // Phase 3: migrate, then another round of both.
            ampi.migrate();
            ampi.send((ampi.rank() + 1) % n, 2, vec![ampi.rank() as u8]);
            let (_, _, d) = ampi.recv(None, Some(2));
            assert_eq!(d[0] as usize, left);
            let mx = ampi.allreduce_f64(&[ampi.rank() as f64], ReduceOp::MaxF64)[0];
            assert_eq!(mx as usize, n - 1);
            ok2.fetch_add(1, Ordering::Relaxed);
        },
    );
    assert_eq!(ok.load(Ordering::Relaxed), 6);
}

#[test]
fn threaded_machine_runs_btmz_with_lb() {
    // The whole stack under real OS-thread concurrency.
    let mut cfg = MzConfig::new(MzBench::BtMz, MzClass::S, 4, 2);
    cfg.iterations = 4;
    cfg.threaded = true;
    let plain = run_mz(&cfg);
    let balanced = run_mz(&cfg.clone().with_lb(Arc::new(GreedyLb)));
    assert_eq!(plain.checksum, balanced.checksum);
}

#[test]
fn sp_mz_is_balanced_without_help() {
    // SP-MZ's equal zones mean LB has little to fix (control experiment).
    let mut cfg = MzConfig::new(MzBench::SpMz, MzClass::W, 8, 4);
    cfg.iterations = 6;
    let r = run_mz(&cfg);
    let max = r.pe_busy_s.iter().cloned().fold(0.0f64, f64::max);
    let avg = r.pe_busy_s.iter().sum::<f64>() / r.pe_busy_s.len() as f64;
    assert!(
        max / avg < 1.6,
        "SP-MZ should be roughly balanced by construction: {:?}",
        r.pe_busy_s
    );
}

#[test]
fn btmz_survives_a_pe_crash() {
    // Recovery end to end on the paper's A.8,4PE shape must reproduce the
    // fault-free numerics. The crash lands inside the first iteration,
    // before any checkpoint generation commits, so recovery restarts every
    // rank from scratch on the three survivors (§4.5's restart on fewer
    // processors, healed in place): BT-MZ keeps its grids on the global
    // heap, outside the thread image, and a rollback to a later
    // generation would not restore them.
    let mut cfg = MzConfig::new(MzBench::BtMz, MzClass::A, 8, 4);
    cfg.iterations = 4;
    cfg.sweeps = 16;
    let clean = run_mz(&cfg);

    // Modeled clock (recovery needs it): only messages advance it, a few
    // us per iteration, so 2 us is inside the first ghost exchange.
    let healed = run_mz(&cfg.clone().with_faults(
        FaultPlan::new(0xFA17).online_recovery(1).crash_pe(1, 2_000),
        1,
    ));
    assert_eq!(healed.restarts, 1, "no generation survived: restart from scratch");
    assert_eq!(healed.dead_pes, vec![1]);
    let written_off = healed.faults.expect("fault counters present").written_off;
    assert!(written_off > 0, "PE 1 was confirmed dead and its traffic written off");
    assert_eq!(healed.checksum, clean.checksum);
}
