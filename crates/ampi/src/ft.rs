//! Fault-tolerant AMPI runs: the report of a world run under a
//! [`FaultPlan`] with online recovery.
//!
//! The paper's migration machinery gives checkpointing for free: packing a
//! rank for a checkpoint is *exactly* packing it for migration (§4.5) —
//! the destination is memory on a buddy PE instead of another scheduler.
//! [`Ampi::checkpoint`](crate::Ampi::checkpoint) packs every rank into the
//! in-memory buddy shelf of `recover.rs`, and a scripted PE crash is healed
//! in place from it. When no complete generation survives a crash, every
//! rank restarts from scratch on the surviving PEs: the paper's "restart on
//! a different number of processors", counted in [`FtReport::restarts`].
//!
//! **Matched-boundary requirement.** `checkpoint()` snapshots each rank's
//! thread, mailbox and sequence state, but not messages still in flight in
//! the network. Call it only at an application point where every send has
//! been received (e.g. an iteration boundary after all ghost exchanges) —
//! the same rule real AMPI imposes on `MPI_Migrate`-style checkpoints.
//! State outside rank threads (globals, host-side accumulators) is *not*
//! rolled back; keep external side effects idempotent under re-execution.

use crate::world::{run_world, AmpiOptions};
use flows_converse::{FaultPlan, FaultSummary, MachineReport, RecoveryEvent, RecoveryPhase};

/// What a fault-tolerant run went through to finish.
#[derive(Debug)]
pub struct FtReport {
    /// The machine report of the run.
    pub report: MachineReport,
    /// Recovery rounds that found no complete checkpoint generation and
    /// restarted every rank from scratch on the surviving PEs.
    pub restarts: usize,
    /// PEs that crashed (the machine ran on `pes - crashed_pes.len()` PEs
    /// at the end).
    pub crashed_pes: Vec<usize>,
    /// Fault-injection and recovery counters.
    pub faults: FaultSummary,
    /// Recovery rounds completed in place (crashes healed without tearing
    /// the machine down), scratch restarts included.
    pub recoveries: usize,
}

/// Distinct recovery epochs that reached `phase` on the timeline.
fn rounds(timeline: &[RecoveryEvent], phase: RecoveryPhase) -> usize {
    let mut epochs: Vec<u64> = timeline
        .iter()
        .filter(|e| e.phase == phase)
        .map(|e| e.info)
        .collect();
    epochs.sort_unstable();
    epochs.dedup();
    epochs.len()
}

impl From<MachineReport> for FtReport {
    /// Read the recovery story off a finished run's timeline.
    fn from(report: MachineReport) -> FtReport {
        FtReport {
            restarts: rounds(&report.recovery, RecoveryPhase::Restart),
            recoveries: rounds(&report.recovery, RecoveryPhase::Resume),
            crashed_pes: report.dead_pes.clone(),
            faults: report.faults.unwrap_or_default(),
            report,
        }
    }
}

/// Run `main` as every rank of a fresh AMPI world under `plan`:
/// [`run_world`] with the plan attached. Scripted PE crashes need
/// [`FaultPlan::online_recovery`] and `opts.modeled_time`.
pub fn run_world_ft(
    opts: AmpiOptions,
    plan: FaultPlan,
    main: impl Fn(&mut crate::Ampi) + Send + Sync + 'static,
) -> FtReport {
    run_world(opts.with_faults(plan), main).into()
}
