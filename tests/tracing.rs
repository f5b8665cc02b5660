//! End-to-end tracing: a 4-PE AMPI job with RotateLB migrations and a
//! lossy transport plan, traced, summarized, and exported as Chrome-trace
//! JSON (the ISSUE-4 acceptance scenario).
//!
//! NOTE on process-global state: `MachineBuilder::tracing(true)` turns the
//! process-wide gate on and leaves it on, so the untraced control run
//! executes *first* in the same test (test binaries run tests
//! concurrently in one process; the gate is the only shared state, and
//! untraced machines have no rings, so a stray enabled gate only costs a
//! TLS null check).

use flows::ampi::{run_world, AmpiOptions};
use flows::converse::{FaultPlan, NetModel};
use flows::lb::RotateLb;
use std::collections::HashSet;
use std::sync::Arc;

fn traced_job(tracing: bool) -> flows::converse::MachineReport {
    let opts = AmpiOptions::new(8, 4)
        .with_net(NetModel::zero())
        .with_strategy(Arc::new(RotateLb))
        .with_faults(FaultPlan::new(0x7ace).drop_prob(0.25))
        .tracing(tracing);
    run_world(opts, |a| {
        let next = (a.rank() + 1) % a.size();
        let prev = (a.rank() + a.size() - 1) % a.size();
        for it in 0..3u64 {
            let (_, _, data) = a.sendrecv(next, it, vec![a.rank() as u8; 32], Some(prev), None);
            assert_eq!(data.len(), 32);
            if it == 1 {
                a.checkpoint();
            }
            a.migrate();
        }
    })
}

/// Utilization before the summary clamps it: bursts are tick-clock
/// differences converted to ns and timestamps are clock ns, so a PE's
/// summed `SwitchOut` bursts fit inside the wall span of its own trace.
/// Ticks passed off as ns would inflate the bursts 2–4×.
fn assert_bursts_fit_their_span(sum: &flows::trace::TraceSummary) {
    for p in &sum.pes {
        assert_eq!(p.dropped, 0, "the span needs every event retained");
        let span = p.last_ts - p.first_ts;
        assert!(
            p.busy_ns <= span,
            "PE {}: {} ns of bursts in {span} ns",
            p.pe,
            p.busy_ns
        );
    }
}

#[test]
fn traced_ampi_run_exports_a_complete_chrome_timeline() {
    // Control first (see the module note): no rings, no summary.
    let control = traced_job(false);
    assert!(control.trace.is_none(), "tracing off ⇒ no summary");
    assert!(control.trace_rings.is_empty(), "tracing off ⇒ no rings");

    let report = traced_job(true);
    assert_eq!(report.trace_rings.len(), 4, "one ring per PE");
    let sum = report.trace.as_ref().expect("tracing on ⇒ summary present");
    assert_eq!(sum.pes.len(), 4);

    // Every event family the acceptance criterion names must be present
    // machine-wide: thread lifecycle, context switches, messages,
    // migrations, faults (plus checkpoints and LB epochs).
    let created: u64 = sum.pes.iter().map(|p| p.threads_created).sum();
    let exited: u64 = sum.pes.iter().map(|p| p.threads_exited).sum();
    let switches: u64 = sum.pes.iter().map(|p| p.switches).sum();
    let sent: u64 = sum.pes.iter().map(|p| p.msgs_sent).sum();
    let recv: u64 = sum.pes.iter().map(|p| p.msgs_recv).sum();
    let migs_out: u64 = sum.pes.iter().map(|p| p.migrations_out).sum();
    let migs_in: u64 = sum.pes.iter().map(|p| p.migrations_in).sum();
    let ckpts: u64 = sum.pes.iter().map(|p| p.checkpoints).sum();
    let faults: u64 = sum.pes.iter().map(|p| p.faults).sum();
    let epochs: u64 = sum.pes.iter().map(|p| p.lb_epochs).sum();
    assert_eq!(created, 8, "one ThreadCreate per rank");
    assert_eq!(exited, 8, "every rank ran to completion");
    assert!(switches >= 8, "at least one switch per rank: {switches}");
    assert!(sent > 0 && recv > 0, "message events: {sent}/{recv}");
    // RotateLB moves all 8 ranks at each of the 3 migrate() points, and
    // the coordinated checkpoint images each rank through the same
    // pack/unpack path (8 more of each).
    assert_eq!(migs_out, 24 + 8, "MigPack per rotation + per checkpoint image");
    assert_eq!(migs_in, 24 + 8, "MigUnpack per rotation + per restore");
    assert_eq!(ckpts, 8, "one Checkpoint event per rank");
    assert!(faults > 0, "drop_prob 0.25 must produce fault events");
    assert!(epochs >= 3, "one LbEpoch per migrate(): {epochs}");
    assert_eq!(sum.migrations.len(), 64, "32 packs + 32 unpacks, timeline-sorted");
    assert!(sum.migrations.windows(2).all(|w| w[0].ts <= w[1].ts));

    // The utilization figures are well-formed.
    for p in &sum.pes {
        assert!((0.0..=1.0).contains(&p.utilization), "{}", p.utilization);
        assert_eq!(p.grainsize_hist.len(), flows::trace::GRAIN_BUCKETS);
    }
    assert_bursts_fit_their_span(sum);

    // The summary itself round-trips to valid JSON.
    flows::trace::chrome::validate_json(&sum.to_json()).expect("summary JSON");

    // Chrome export: valid JSON with every acceptance event family named.
    let json = flows::trace::chrome::chrome_trace_json(&report.trace_rings);
    flows::trace::chrome::validate_json(&json).expect("chrome JSON");
    let have: HashSet<&str> = [
        "thread_create",
        "thread_exit",
        "\"ph\":\"X\"", // context-switch slices
        "msg_send",
        "msg_recv",
        "mig_pack",
        "mig_unpack",
        "checkpoint",
        "lb_epoch",
        "fault_drop",
    ]
    .into_iter()
    .filter(|k| json.contains(*k))
    .collect();
    assert_eq!(have.len(), 10, "chrome export is missing families: {have:?}");

    // Per-PE syscall counters rode along (det drive mode: machine-wide
    // delta at index 0).
    assert_eq!(report.syscalls.len(), 4);
    assert!(report.syscalls[0].total() > 0, "stack mmaps at least");
}

#[test]
fn bigsim_trace_carries_virtual_time_steps() {
    let mut cfg = flows::bigsim::BigSimConfig::small();
    cfg.target_procs = 64;
    cfg.steps = 3;
    cfg.particles_per_proc = 4;
    cfg.tracing = true;
    let r = flows::bigsim::run(&cfg);
    let sum = r.trace.expect("tracing on");
    let switches: u64 = sum.pes.iter().map(|p| p.switches).sum();
    assert!(switches as usize >= 64 * 3, "every thread every step");
    // VtStep instants land in the chrome export via the ring.
    assert_eq!(sum.pes.len(), 2);
    assert_bursts_fit_their_span(&sum);
}
