//! Deterministic fault injection: transport faults (drop / duplicate /
//! delay / reorder) and PE faults (stall, crash).
//!
//! A [`FaultPlan`] is attached to a [`crate::MachineBuilder`] before the
//! machine starts. Every fault decision is a pure function of
//! `(seed, src, dest, link_seq, attempt)`, so a plan produces the *same*
//! fault schedule in both drive modes and across repeated runs — faults
//! are reproducible test inputs, not noise.
//!
//! Attaching a plan (even an all-zero one) switches every cross-PE link to
//! a reliable transport: per-link sequence numbers, cumulative acks,
//! timeout-based retransmission with exponential backoff, duplicate
//! suppression and in-order reassembly (see `link.rs`). Without a plan the
//! machine uses the raw lossless channels with zero protocol overhead.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Crash PE `pe` once its virtual clock reaches `at_vtime_ns`. The PE
/// stops executing for good; the survivors detect it, write its traffic
/// off and invoke the death-confirmed upcall, through which the layer
/// above heals the loss in place (see `flows-ampi`'s online recovery).
/// Only plans with [`FaultPlan::online_recovery`] may script crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeCrash {
    /// The PE that fails.
    pub pe: usize,
    /// Virtual time (ns) at which the failure triggers.
    pub at_vtime_ns: u64,
}

/// Stall PE `pe` for `for_steps` scheduler-loop iterations once its
/// virtual clock reaches `at_vtime_ns`: it delivers no messages and runs
/// no threads while stalled, then resumes. Models a transient hiccup
/// (OS preemption, memory pressure) rather than a failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeStall {
    /// The PE that stalls.
    pub pe: usize,
    /// Virtual time (ns) at which the stall begins.
    pub at_vtime_ns: u64,
    /// Number of pump iterations the PE skips.
    pub for_steps: u64,
}

/// Virtual-time heartbeat period of the failure detector (heartbeats are
/// sent only under online recovery).
pub(crate) const HEARTBEAT_NS: u64 = 100_000;

/// A deterministic, seeded schedule of faults to inject into a machine.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Seed for all per-packet fault decisions.
    pub seed: u64,
    /// Probability a data transmission is dropped (each attempt rolls
    /// independently, so retransmissions eventually get through).
    pub drop_prob: f64,
    /// Probability a data transmission is sent twice.
    pub dup_prob: f64,
    /// Probability a message's modeled arrival is delayed by `delay_ns`.
    pub delay_prob: f64,
    /// Extra modeled latency (ns) applied to delayed messages.
    pub delay_ns: u64,
    /// Probability a message is held back and sent after the *next*
    /// message to the same destination (link-level reordering).
    pub reorder_prob: f64,
    /// Scripted PE crashes.
    pub crashes: Vec<PeCrash>,
    /// Scripted PE stalls.
    pub stalls: Vec<PeStall>,
    /// Phi threshold at which a silent peer becomes *suspected*.
    pub phi_suspect: f64,
    /// Phi threshold at which the recovery leader *confirms* a suspected
    /// peer dead and fences it.
    pub phi_confirm: f64,
    /// Buddy-replication degree k: each PE ships its checkpoint images to
    /// its next k live ring successors (consumed by the AMPI layer).
    /// 0 means no recovery: a transport-only plan, with no heartbeats and
    /// no failure detector. Set through [`FaultPlan::online_recovery`].
    pub replication: usize,
}

impl FaultPlan {
    /// A plan with the given seed and no faults. Attaching it still
    /// enables the reliable transport (useful to measure pure protocol
    /// overhead).
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            delay_ns: 0,
            reorder_prob: 0.0,
            crashes: Vec::new(),
            stalls: Vec::new(),
            phi_suspect: 4.0,
            phi_confirm: 8.0,
            replication: 0,
        }
    }

    /// Enable online recovery with buddy-replication degree `k`: crashes
    /// are detected and healed in place, with the failure detector fed a
    /// heartbeat every 100 us of virtual time.
    pub fn online_recovery(mut self, k: usize) -> Self {
        assert!(k >= 1, "replication degree must be at least 1");
        self.replication = k;
        self
    }

    /// Does this plan run online recovery (heartbeats, failure detector,
    /// in-place healing)? True iff a replication degree was set.
    pub fn recovers(&self) -> bool {
        self.replication > 0
    }

    /// Set the phi-accrual suspicion and confirmation thresholds.
    pub fn phi_thresholds(mut self, suspect: f64, confirm: f64) -> Self {
        assert!(suspect > 0.0 && confirm >= suspect);
        self.phi_suspect = suspect;
        self.phi_confirm = confirm;
        self
    }

    /// Set the per-transmission drop probability.
    pub fn drop_prob(mut self, p: f64) -> Self {
        assert!((0.0..1.0).contains(&p), "drop probability must be in [0,1)");
        self.drop_prob = p;
        self
    }

    /// Set the per-transmission duplication probability.
    pub fn dup_prob(mut self, p: f64) -> Self {
        self.dup_prob = p;
        self
    }

    /// Set the per-message delay probability and the delay amount.
    pub fn delay(mut self, p: f64, delay_ns: u64) -> Self {
        self.delay_prob = p;
        self.delay_ns = delay_ns;
        self
    }

    /// Set the per-message reorder probability.
    pub fn reorder_prob(mut self, p: f64) -> Self {
        self.reorder_prob = p;
        self
    }

    /// Script a PE crash at a virtual time.
    pub fn crash_pe(mut self, pe: usize, at_vtime_ns: u64) -> Self {
        self.crashes.push(PeCrash { pe, at_vtime_ns });
        self
    }

    /// Script a whole-process crash in a multi-process machine: every PE
    /// hosted by process `proc` (ranks are `pes_per_proc` wide) crashes at
    /// the same virtual time, and the surviving processes detect, write
    /// off, and heal the loss. Whole-process failure units need buddy
    /// images to land off-process: pair this with
    /// [`FaultPlan::online_recovery`]`(k)` where `k >= pes_per_proc`.
    pub fn crash_process(mut self, proc: usize, pes_per_proc: usize, at_vtime_ns: u64) -> Self {
        for pe in proc * pes_per_proc..(proc + 1) * pes_per_proc {
            self.crashes.push(PeCrash { pe, at_vtime_ns });
        }
        self
    }

    /// Script a PE stall at a virtual time.
    pub fn stall_pe(mut self, pe: usize, at_vtime_ns: u64, for_steps: u64) -> Self {
        self.stalls.push(PeStall {
            pe,
            at_vtime_ns,
            for_steps,
        });
        self
    }

    /// The scripted crash for `pe`, if any (first match wins).
    pub(crate) fn crash_for(&self, pe: usize) -> Option<&PeCrash> {
        self.crashes.iter().find(|c| c.pe == pe)
    }

    /// The scripted stall for `pe`, if any (first match wins).
    pub(crate) fn stall_for(&self, pe: usize) -> Option<&PeStall> {
        self.stalls.iter().find(|s| s.pe == pe)
    }

    /// Deterministic uniform roll in [0,1) for one fault decision.
    fn roll(&self, kind: u64, src: usize, dest: usize, seq: u64, attempt: u32) -> f64 {
        let mut x = self.seed
            ^ kind.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (src as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9)
            ^ (dest as u64).wrapping_mul(0x94D0_49BB_1331_11EB)
            ^ seq.wrapping_mul(0xD6E8_FEB8_6659_FD93)
            ^ (attempt as u64).wrapping_mul(0xA076_1D64_78BD_642F);
        // splitmix64 finalizer: decorrelates the xor-mixed inputs.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^= x >> 31;
        (x >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    pub(crate) fn drop_roll(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> bool {
        self.drop_prob > 0.0 && self.roll(1, src, dest, seq, attempt) < self.drop_prob
    }

    pub(crate) fn dup_roll(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> bool {
        self.dup_prob > 0.0 && self.roll(2, src, dest, seq, attempt) < self.dup_prob
    }

    pub(crate) fn delay_roll(&self, src: usize, dest: usize, seq: u64) -> bool {
        self.delay_prob > 0.0 && self.roll(3, src, dest, seq, 0) < self.delay_prob
    }

    pub(crate) fn reorder_roll(&self, src: usize, dest: usize, seq: u64) -> bool {
        self.reorder_prob > 0.0 && self.roll(4, src, dest, seq, 0) < self.reorder_prob
    }

    /// Deterministic retransmission jitter in [0,1): de-synchronizes the
    /// backoff clocks of senders that timed out together (e.g. everyone
    /// waiting on one stalled PE), so recovery is not a retransmit storm.
    pub(crate) fn jitter_roll(&self, src: usize, dest: usize, seq: u64, attempt: u32) -> f64 {
        self.roll(5, src, dest, seq, attempt)
    }

    /// Heartbeats ride the same lossy wire as data: drop decisions reuse
    /// the plan's drop probability under an independent stream.
    pub(crate) fn hb_drop_roll(&self, src: usize, dest: usize, hb_seq: u64) -> bool {
        self.drop_prob > 0.0 && self.roll(6, src, dest, hb_seq, 0) < self.drop_prob
    }
}

/// Machine-wide fault/recovery counters (shared by all PEs, readable
/// after the run through [`crate::MachineReport::faults`]).
#[derive(Debug, Default)]
pub struct FaultStats {
    pub(crate) dropped: AtomicU64,
    pub(crate) duplicated: AtomicU64,
    pub(crate) delayed: AtomicU64,
    pub(crate) reordered: AtomicU64,
    pub(crate) retransmits: AtomicU64,
    pub(crate) dup_dropped: AtomicU64,
    pub(crate) acks: AtomicU64,
    pub(crate) data_packets: AtomicU64,
    pub(crate) stalled_steps: AtomicU64,
    pub(crate) retransmits_capped: AtomicU64,
    pub(crate) heartbeats: AtomicU64,
    /// Logical messages written off as undeliverable because their sender
    /// or receiver is confirmed dead (online mode). The quiescence fixpoint
    /// becomes `sent == recv + written_off`.
    pub(crate) written_off: AtomicU64,
}

impl FaultStats {
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn bump_by(counter: &AtomicU64, n: u64) {
        if n > 0 {
            counter.fetch_add(n, Ordering::SeqCst);
        }
    }

    /// A plain-value snapshot of the counters.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            dropped: self.dropped.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            reordered: self.reordered.load(Ordering::Relaxed),
            retransmits: self.retransmits.load(Ordering::Relaxed),
            dup_dropped: self.dup_dropped.load(Ordering::Relaxed),
            acks: self.acks.load(Ordering::Relaxed),
            data_packets: self.data_packets.load(Ordering::Relaxed),
            stalled_steps: self.stalled_steps.load(Ordering::Relaxed),
            retransmits_capped: self.retransmits_capped.load(Ordering::Relaxed),
            heartbeats: self.heartbeats.load(Ordering::Relaxed),
            written_off: self.written_off.load(Ordering::Relaxed),
        }
    }
}

/// Snapshot of [`FaultStats`] reported after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSummary {
    /// Data transmissions the injector discarded.
    pub dropped: u64,
    /// Data transmissions the injector sent twice.
    pub duplicated: u64,
    /// Messages whose modeled arrival was delayed.
    pub delayed: u64,
    /// Messages held back for link-level reordering.
    pub reordered: u64,
    /// Timeout-triggered retransmissions.
    pub retransmits: u64,
    /// Duplicate data packets suppressed at the receiver.
    pub dup_dropped: u64,
    /// Acknowledgement packets sent.
    pub acks: u64,
    /// Data packets physically enqueued (first sends + dups + retransmits
    /// that were not dropped).
    pub data_packets: u64,
    /// Pump iterations skipped by stalled PEs.
    pub stalled_steps: u64,
    /// Retransmissions scheduled after the exponential backoff hit its
    /// cap (the RTO stops doubling; see `link::RTO_ATTEMPT_CAP`).
    pub retransmits_capped: u64,
    /// Failure-detector heartbeats physically sent.
    pub heartbeats: u64,
    /// Logical messages written off against a confirmed-dead PE.
    pub written_off: u64,
}

impl FaultSummary {
    /// Total physical packets (data + acks): the message overhead a
    /// harness compares against the fault-free logical count.
    pub fn physical_packets(&self) -> u64 {
        self.data_packets + self.acks
    }
}

/// One phase of the online-recovery state machine, as recorded on the
/// machine-wide recovery timeline ([`crate::MachineReport::recovery`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPhase {
    /// A scripted (or fenced) PE stopped executing.
    Crash,
    /// The phi-accrual detector crossed the suspicion threshold.
    Suspect,
    /// A suspected PE's heartbeats resumed; suspicion withdrawn.
    Clear,
    /// The leader confirmed the death and fenced the PE.
    Confirm,
    /// A surviving PE rolled back to the committed generation.
    Rollback,
    /// An orphan rank of the dead PE was respawned on a survivor.
    Respawn,
    /// No complete checkpoint generation survived: every rank restarted
    /// from scratch on the surviving PEs (info: the round's epoch).
    Restart,
    /// Recovery completed; normal work resumed.
    Resume,
}

impl RecoveryPhase {
    /// Stable short name (used by benches and the chaos harness).
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPhase::Crash => "crash",
            RecoveryPhase::Suspect => "suspect",
            RecoveryPhase::Clear => "clear",
            RecoveryPhase::Confirm => "confirm",
            RecoveryPhase::Rollback => "rollback",
            RecoveryPhase::Respawn => "respawn",
            RecoveryPhase::Restart => "restart",
            RecoveryPhase::Resume => "resume",
        }
    }
}

/// One entry of the machine-wide recovery timeline. Timestamps are the
/// *observing* PE's virtual clock, so `Resume.vt - Suspect.vt` on the
/// leader is the protocol's modeled MTTR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryEvent {
    /// Which phase.
    pub phase: RecoveryPhase,
    /// The PE that observed/drove the phase.
    pub pe: usize,
    /// The failed PE the phase concerns.
    pub dead: usize,
    /// Observer virtual time (ns).
    pub vt: u64,
    /// Phase-specific detail (phi*1000 for suspect/confirm, generation
    /// for rollback/respawn, epoch for restart/resume).
    pub info: u64,
}

/// Shared handle to a plan plus the machine-wide counters.
#[derive(Debug, Clone)]
pub(crate) struct FaultCtx {
    pub plan: Arc<FaultPlan>,
    pub stats: Arc<FaultStats>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_distinct() {
        let p = FaultPlan::new(42).drop_prob(0.5);
        let a = p.drop_roll(0, 1, 7, 0);
        let b = p.drop_roll(0, 1, 7, 0);
        assert_eq!(a, b, "same inputs, same decision");
        // Different attempts must decorrelate or retransmits livelock.
        let outcomes: Vec<bool> = (0..64).map(|att| p.drop_roll(0, 1, 7, att)).collect();
        assert!(outcomes.iter().any(|&x| x));
        assert!(outcomes.iter().any(|&x| !x));
    }

    #[test]
    fn roll_rate_tracks_probability() {
        let p = FaultPlan::new(7).drop_prob(0.25);
        let n = 10_000;
        let hits = (0..n).filter(|&s| p.drop_roll(2, 3, s, 0)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.03, "observed {rate}");
    }

    #[test]
    fn zero_probability_never_fires() {
        let p = FaultPlan::new(9);
        assert!((0..1000).all(|s| !p.drop_roll(0, 1, s, 0)));
        assert!((0..1000).all(|s| !p.dup_roll(0, 1, s, 0)));
    }

    #[test]
    fn scripted_faults_lookup() {
        let p = FaultPlan::new(1).crash_pe(2, 5_000).stall_pe(1, 100, 8);
        assert_eq!(p.crash_for(2).unwrap().at_vtime_ns, 5_000);
        assert!(p.crash_for(0).is_none());
        assert_eq!(p.stall_for(1).unwrap().for_steps, 8);
    }

    #[test]
    fn summary_snapshots_the_counters() {
        let s = FaultStats::default();
        FaultStats::bump(&s.dropped);
        FaultStats::bump(&s.acks);
        FaultStats::bump_by(&s.data_packets, 2);
        let total = s.summary();
        assert_eq!(total.dropped, 1);
        assert_eq!(total.physical_packets(), 3);
    }

    #[test]
    fn recovery_is_on_iff_a_replication_degree_is_set() {
        assert!(!FaultPlan::new(1).drop_prob(0.1).stall_pe(0, 0, 4).recovers());
        assert!(FaultPlan::new(1).online_recovery(2).recovers());
    }
}
