//! Building and driving the machine: handler registration, the one PE
//! drive loop behind both entry points, and quiescence detection.
//!
//! [`MachineBuilder::run_deterministic`] and [`MachineBuilder::run`] differ
//! only in how they hand PEs to `drive`: one OS thread pumping every PE
//! round-robin without ever parking, or one OS thread per PE pumping a
//! one-element slice and parking its thread when idle. The burst, the
//! idle barrier, the quiescence rule (`Ledger::quiescent`) and the
//! report are shared.

use crate::fault::{FaultCtx, FaultPlan, FaultStats, FaultSummary, RecoveryEvent};
use crate::msg::{HandlerId, Message, NetModel};
use crate::pe::{DeathUpcall, Handler, Pe};
use flows_core::{IdMap, PoolStats, SchedConfig, SchedStats, Scheduler, SharedPools};
use flows_mem::IsoConfig;
use flows_net::inbox::{unbounded, Sender};
use flows_net::Frame;
use flows_pup::pup_fields;
use flows_sys::counters::SyscallCounts;
use flows_trace::{TraceRing, TraceSummary};
use std::any::TypeId;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// How long an idle PE sleeps per park before re-checking timers. Frame
/// arrivals unpark it immediately; the timeout is only a safety net for
/// virtual-time retransmission deadlines.
const IDLE_PARK: Duration = Duration::from_micros(200);

/// Events retained per PE trace ring; the oldest are overwritten first and
/// counted exactly in the summary's `dropped`.
const TRACE_RING_EVENTS: usize = 1 << 16;

/// Shared counters used for machine-wide quiescence detection (the
/// Converse QD analog): the machine is quiescent when every PE is idle and
/// every sent message has been received or written off (see [`Ledger`]).
///
/// The sent/recv totals are updated in *batches*: each PE flushes its
/// deltas (`Pe::flush_counters`) when it enters the idle barrier, never on
/// the per-message path. Every flush happens-before the PE's announcement
/// (all `SeqCst`) and an announced PE pumps nothing until it leaves, so a
/// [`Hub::ledger`] read during which every PE stayed announced is exact
/// (modeled in `crates/converse/tests/quiescence_interleave.rs`).
#[derive(Debug, Default)]
pub(crate) struct Hub {
    pub sent: AtomicU64,
    pub recv: AtomicU64,
    /// The idle barrier: the low 32 bits count the local PEs announced
    /// idle, the high bits count exits, so a reader can tell "nobody left
    /// while I read" from "somebody left, pumped, and came back".
    idle: AtomicU64,
    done: AtomicBool,
    /// PEs this process hosts (all of them unless the machine spans
    /// processes): the idle count that means "this process is idle".
    local: usize,
    /// Machine-wide fault counters (present iff a plan was attached);
    /// their `written_off` closes the quiescence balance.
    pub(crate) stats: Option<Arc<FaultStats>>,
    /// Each local PE's OS thread in threaded mode (unset under
    /// deterministic drive): posting a frame unparks its destination.
    wakers: OnceLock<Vec<Thread>>,
    /// PEs that physically stopped executing, as a bitmask (online mode;
    /// machine size is capped at 64 there). Shared state is used only to
    /// keep idle virtual clocks advancing — the protocol's *decisions*
    /// (suspect, confirm) flow through heartbeats alone.
    dead: AtomicU64,
    /// PEs the recovery leader has fenced (ordered to stop). A live
    /// (stalled) fenced PE converts itself to crashed at its next pump, so
    /// the failure model stays fail-stop.
    fenced: AtomicU64,
    /// PEs confirmed dead by the phi-accrual detector.
    confirmed: AtomicU64,
    /// Confirmed-dead PEs whose online recovery has completed.
    resolved: AtomicU64,
    /// Monotonic recovery-epoch allocator. Two leaders racing to start a
    /// recovery round (a crash confirmed during another PE's recovery)
    /// must obtain *distinct, ordered* epochs, or survivors could not tell
    /// which round supersedes which.
    epoch: AtomicU64,
    /// Final link-layer accounting published by each dying PE, keyed by
    /// PE id. Survivors read it to write off in-flight traffic exactly.
    morgue: Mutex<IdMap<usize, Morgue>>,
    /// Machine-wide recovery timeline (reported in `MachineReport`).
    timeline: Mutex<Vec<RecoveryEvent>>,
    /// Dead-PE pairs whose mutual in-flight traffic has been written off.
    pair_reaped: Mutex<Vec<(usize, usize)>>,
    /// First global PE id hosted by this process (0 unless the machine
    /// spans processes through a `flows_net::World`). Wakers and inject
    /// channels are local-length, indexed by `global_pe - base`.
    pub(crate) base: usize,
    /// Machine-wide sent total as declared by the quiescence leader
    /// (multi-process runs only; the local `sent` counter covers just
    /// this process's PEs).
    pub(crate) net_global_sent: AtomicU64,
    /// Why the leader's comm thread ended the run early: a child process
    /// left the machine without `PROC_DEAD` or `GOODBYE`. `run` panics
    /// with it once the local PEs have stopped.
    lost_proc: Mutex<Option<String>>,
}

/// The link-layer ledger a dying PE publishes so survivors can write off
/// exactly the logical messages that died with it: everything a survivor
/// sent that the deceased never delivered, and everything the deceased
/// assigned that the survivor will never deliver. A `MORGUE` frame
/// carries it between processes; its vectors are global-length.
#[derive(Debug, Clone, Default)]
pub(crate) struct Morgue {
    /// Per-source highest in-order sequence delivered at death.
    pub rx_cum: Vec<u64>,
    /// Per-destination highest sequence assigned at death.
    pub tx_last: Vec<u64>,
    /// Dead peers this PE had already reaped while alive (their mutual
    /// traffic is accounted; the leader must not write it off again).
    pub reaped_mask: u64,
}
pup_fields!(Morgue { rx_cum, tx_last, reaped_mask });

/// The machine-wide failure masks, one bit per PE (online mode caps the
/// machine at 64 PEs). A `MASKS` frame carries the leader's union to the
/// children, and a `STATS` frame a child's to the leader.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Masks {
    pub dead: u64,
    pub fenced: u64,
    pub confirmed: u64,
    pub resolved: u64,
}
pup_fields!(Masks { dead, fenced, confirmed, resolved });

impl Hub {
    /// Record a PE's death: the run continues; survivors will detect,
    /// confirm and heal. The morgue entry must be complete before the dead
    /// bit is visible (it is — both sit behind SeqCst stores and the
    /// deterministic driver serializes PEs anyway).
    pub(crate) fn record_death(&self, pe: usize, morgue: Morgue) {
        self.morgue.lock().unwrap().insert(pe, morgue);
        self.dead.fetch_or(1 << pe, Ordering::SeqCst);
    }

    /// Fence `pe`: order it to stop executing. Idempotent.
    pub(crate) fn fence(&self, pe: usize) {
        self.fenced.fetch_or(1 << pe, Ordering::SeqCst);
    }

    pub(crate) fn is_fenced(&self, pe: usize) -> bool {
        self.fenced.load(Ordering::SeqCst) & (1 << pe) != 0
    }

    /// Mark `pe` confirmed dead. Returns true exactly once (the caller
    /// that wins drives the death upcall).
    pub(crate) fn confirm(&self, pe: usize) -> bool {
        let prev = self.confirmed.fetch_or(1 << pe, Ordering::SeqCst);
        prev & (1 << pe) == 0
    }

    pub(crate) fn is_confirmed(&self, pe: usize) -> bool {
        self.confirmed.load(Ordering::SeqCst) & (1 << pe) != 0
    }

    pub(crate) fn confirmed_mask(&self) -> u64 {
        self.confirmed.load(Ordering::SeqCst)
    }

    pub(crate) fn resolve(&self, pe: usize) {
        self.resolved.fetch_or(1 << pe, Ordering::SeqCst);
    }

    /// Allocate the next recovery epoch (starts at 1; 0 means "never
    /// recovered" and is the epoch every message carries pre-failure).
    pub(crate) fn next_epoch(&self) -> u64 {
        self.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Any failure (physical, fenced or confirmed) whose recovery has not
    /// completed? While true the machine cannot be quiescent.
    pub(crate) fn unresolved(&self) -> bool {
        let failed = self.dead.load(Ordering::SeqCst)
            | self.fenced.load(Ordering::SeqCst)
            | self.confirmed.load(Ordering::SeqCst);
        failed & !self.resolved.load(Ordering::SeqCst) != 0
    }

    pub(crate) fn morgue_ready(&self, pe: usize) -> bool {
        self.morgue.lock().unwrap().contains_key(&pe)
    }

    pub(crate) fn morgue_get(&self, pe: usize) -> Option<Morgue> {
        self.morgue.lock().unwrap().get(&pe).cloned()
    }

    /// Write off traffic between two dead PEs exactly once per pair.
    /// Returns the number of logical messages written off (0 if the pair
    /// was already accounted or either PE had reaped the other in life).
    pub(crate) fn reap_pair(&self, a: usize, b: usize) -> u64 {
        let key = (a.min(b), a.max(b));
        let mut done = self.pair_reaped.lock().unwrap();
        if done.contains(&key) {
            return 0;
        }
        done.push(key);
        let morgues = self.morgue.lock().unwrap();
        let (Some(ma), Some(mb)) = (morgues.get(&a), morgues.get(&b)) else {
            return 0;
        };
        // If either reaped the other while still alive, both directions
        // were accounted then (write-off at reap, then write-off at send).
        if ma.reaped_mask & (1 << b) != 0 || mb.reaped_mask & (1 << a) != 0 {
            return 0;
        }
        (ma.tx_last[b] - mb.rx_cum[a]) + (mb.tx_last[a] - ma.rx_cum[b])
    }

    pub(crate) fn push_timeline(&self, ev: RecoveryEvent) {
        self.timeline.lock().unwrap().push(ev);
    }

    pub(crate) fn timeline_snapshot(&self) -> Vec<RecoveryEvent> {
        self.timeline.lock().unwrap().clone()
    }

    /// PEs that failed during the run (physically dead or confirmed).
    pub(crate) fn dead_list(&self) -> Vec<usize> {
        let mask = self.dead.load(Ordering::SeqCst) | self.confirmed.load(Ordering::SeqCst);
        (0..64).filter(|pe| mask & (1 << pe) != 0).collect()
    }

    /// Wake PE `dest` if it is parked (no-op under deterministic drive,
    /// and for destinations hosted by another process — their wake rides
    /// the transport doorbell instead).
    pub(crate) fn wake(&self, dest: usize) {
        if let Some(ws) = self.wakers.get() {
            let local = dest.wrapping_sub(self.base);
            if let Some(w) = ws.get(local) {
                w.unpark();
            }
        }
    }

    /// Take `n` announced PEs out of the idle barrier, counting one exit.
    fn leave_idle(&self, n: usize) {
        self.idle.fetch_add((1 << 32) - n as u64, Ordering::SeqCst);
    }

    /// This process's quiescence ledger. It reads as idle only if every
    /// local PE was announced at the first read of the barrier word and
    /// none left before the second: the counters between were then read
    /// at rest. (A single read is not enough — a PE can leave, deliver,
    /// reply, flush and re-announce between two counter loads.)
    pub(crate) fn ledger(&self) -> Ledger {
        let word = self.idle.load(Ordering::SeqCst);
        let mut row = Ledger {
            sent: self.sent.load(Ordering::SeqCst),
            recv: self.recv.load(Ordering::SeqCst),
            written_off: self
                .stats
                .as_ref()
                .map_or(0, |s| s.written_off.load(Ordering::Relaxed)),
            idle: false,
            unresolved: self.unresolved(),
        };
        row.idle = word as u32 as usize == self.local && self.idle.load(Ordering::SeqCst) == word;
        row
    }

    /// Declare the run over and wake every parked PE.
    pub(crate) fn set_done_and_wake(&self) {
        self.done.store(true, Ordering::SeqCst);
        if let Some(ws) = self.wakers.get() {
            for w in ws {
                w.unpark();
            }
        }
    }

    /// End the run because a child process vanished: record the
    /// diagnosis for `run` to raise, stop every local drive loop.
    pub(crate) fn fail_lost_proc(&self, why: String) {
        self.lost_proc.lock().expect("hub lock").get_or_insert(why);
        self.set_done_and_wake();
    }

    /// Snapshot of the failure masks, for cross-process synchronization.
    pub(crate) fn masks(&self) -> Masks {
        Masks {
            dead: self.dead.load(Ordering::SeqCst),
            fenced: self.fenced.load(Ordering::SeqCst),
            confirmed: self.confirmed.load(Ordering::SeqCst),
            resolved: self.resolved.load(Ordering::SeqCst),
        }
    }

    /// OR another process's failure masks into ours. Bits only ever
    /// accumulate, so the sync is idempotent and order-insensitive.
    /// Dead bits may land before the matching morgue record; everything
    /// that needs the record (reap, upcall) already gates on it.
    pub(crate) fn absorb_masks(&self, m: Masks) {
        self.dead.fetch_or(m.dead, Ordering::SeqCst);
        self.fenced.fetch_or(m.fenced, Ordering::SeqCst);
        self.confirmed.fetch_or(m.confirmed, Ordering::SeqCst);
        self.resolved.fetch_or(m.resolved, Ordering::SeqCst);
    }
}

/// One quiescence-gather row: a process's message ledger and idleness.
/// The in-process check reads this process's own row off the [`Hub`]; a
/// multi-process machine's comm-thread leader applies the same rule to the
/// sum of every process's row, which `STATS` and `PROC_DEAD` frames carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Ledger {
    pub sent: u64,
    pub recv: u64,
    /// Messages to or from confirmed-dead PEs: never to be received.
    pub written_off: u64,
    pub idle: bool,
    /// A failure whose recovery has not completed.
    pub unresolved: bool,
}
pup_fields!(Ledger { sent, recv, written_off, idle, unresolved });

impl Ledger {
    /// The quiescence rule: every PE idle, no unresolved failure, and
    /// every message sent was received or written off.
    pub(crate) fn quiescent(&self) -> bool {
        self.idle && !self.unresolved && self.sent == self.recv + self.written_off
    }

    /// The machine-wide row: counters add up, idleness needs every row.
    pub(crate) fn total(rows: impl IntoIterator<Item = Ledger>) -> Ledger {
        let start = Ledger {
            idle: true,
            ..Ledger::default()
        };
        rows.into_iter().fold(start, |a, r| Ledger {
            sent: a.sent + r.sent,
            recv: a.recv + r.recv,
            written_off: a.written_off + r.written_off,
            idle: a.idle && r.idle,
            unresolved: a.unresolved || r.unresolved,
        })
    }
}

/// Results of one machine run.
#[derive(Debug, Clone)]
pub struct MachineReport {
    /// Final virtual clock of each PE — `max` is the modeled parallel
    /// completion time.
    pub pe_vtimes: Vec<u64>,
    /// Wall-clock duration of the run (host time; on a 1-core host this is
    /// roughly the *sum* of PE work, not the parallel time).
    pub wall_ns: u64,
    /// Scheduler counters per PE.
    pub sched_stats: Vec<SchedStats>,
    /// Total messages sent machine-wide.
    pub messages: u64,
    /// Handler invocations per PE (the dispatch-rate numerator; sums to
    /// `messages` on a clean, crash-free run).
    pub pe_delivered: Vec<u64>,
    /// Of `pe_delivered`, the messages delivered where they were sent,
    /// without a trip through the PE's queue (AMPI mail to a rank on the
    /// sender's own PE; see `Pe::book_in_place`).
    pub pe_delivered_in_place: Vec<u64>,
    /// Threads still suspended at quiescence per PE (should be 0 for a
    /// clean application; useful to detect lost wake-ups in tests).
    pub stranded_threads: Vec<usize>,
    /// Busy virtual time per PE (work only, no arrival waits) — the load
    /// balance picture.
    pub pe_busy: Vec<u64>,
    /// Fault-injection / recovery counters (present iff a
    /// [`FaultPlan`] was attached).
    pub faults: Option<FaultSummary>,
    /// Syscall counters per PE OS thread. In threaded mode each entry is
    /// that PE's exact delta over the run; under deterministic drive all
    /// PEs share one OS thread, so the machine-wide delta sits at index 0
    /// and the rest are zero.
    pub syscalls: Vec<SyscallCounts>,
    /// Projections-style trace reduction (present iff the machine was
    /// built with `.tracing(true)`).
    pub trace: Option<TraceSummary>,
    /// The raw per-PE event rings behind `trace`, for exporters
    /// (`flows_trace::chrome`) and custom analyses. Empty when tracing
    /// was off.
    pub trace_rings: Vec<Arc<TraceRing>>,
    /// Online-recovery timeline: every suspect/confirm/rollback/respawn/
    /// resume phase observed during the run, in order. Empty unless the
    /// fault plan enabled online recovery.
    pub recovery: Vec<RecoveryEvent>,
    /// PEs that failed during the run. The run still completes around
    /// them; these are the healed casualties.
    pub dead_pes: Vec<usize>,
    /// Payload-pool counters per PE, taken when its drive ends: draws,
    /// returns, buffers handed to receivers (`detached`) and the free
    /// list's high-water mark.
    pub pools: Vec<PoolStats>,
}

impl MachineReport {
    /// The modeled parallel completion time: max over PEs of virtual time.
    pub fn parallel_time_ns(&self) -> u64 {
        self.pe_vtimes.iter().copied().max().unwrap_or(0)
    }

    /// Flows that died panicked (an entry panic or a failed activation),
    /// machine-wide: [`SchedStats::panicked`] summed over PEs. The
    /// scheduler catches a flow's panic so it cannot unwind into the
    /// bootstrap frame; this is where it shows.
    pub fn panicked_threads(&self) -> u64 {
        self.sched_stats.iter().map(|s| s.panicked).sum()
    }
}

/// Configures and launches a machine. Register all handlers before `run`.
pub struct MachineBuilder {
    num_pes: usize,
    sched_cfg: SchedConfig,
    net: NetModel,
    handlers: Vec<(TypeId, Handler)>,
    slot_len: usize,
    slots_per_pe: usize,
    fault: Option<Arc<FaultPlan>>,
    modeled_time: bool,
    tracing: bool,
    death_upcall: Option<DeathUpcall>,
    world: Option<Arc<flows_net::World>>,
}

impl MachineBuilder {
    /// A machine of `num_pes` PEs with default configuration.
    pub fn new(num_pes: usize) -> MachineBuilder {
        assert!(num_pes > 0, "a machine needs at least one PE");
        MachineBuilder {
            num_pes,
            sched_cfg: SchedConfig::default(),
            net: NetModel::default(),
            handlers: Vec::new(),
            slot_len: 1 << 20,
            slots_per_pe: 1024,
            fault: None,
            modeled_time: false,
            tracing: false,
            death_upcall: None,
            world: None,
        }
    }

    /// Span this machine across the processes of a [`flows_net::World`]:
    /// this process hosts the `world.pes_per_proc()` PEs starting at
    /// `world.first_pe()`, and every other global PE is reached through
    /// the world's transport (a comm thread is spawned by [`Self::run`];
    /// the deterministic drive cannot cross processes). Every process
    /// must build an identical machine — same handlers in the same
    /// order, same fault plan, same options — and call `run` (SPMD).
    pub fn multiproc(mut self, world: Arc<flows_net::World>) -> Self {
        assert_eq!(
            world.num_pes(),
            self.num_pes,
            "the machine size must equal the world's procs × pes_per_proc"
        );
        self.world = Some(world);
        self
    }

    /// Record a Projections-style event trace: one ring per PE, reduced
    /// to `MachineReport::trace` at quiescence (the raw rings ride along
    /// in `trace_rings`). Turns the process-wide trace gate on for the
    /// run (and leaves it on — untraced machines carry no rings, so they
    /// record nothing either way).
    pub fn tracing(mut self, yes: bool) -> Self {
        self.tracing = yes;
        self
    }

    /// Advance virtual clocks by *modeled* costs only (`charge_ns` and the
    /// network model), never by measured host CPU time. Makes virtual
    /// time — and with it `crash_pe`-style virtual-time triggers — exactly
    /// reproducible across runs, at the price of vtimes no longer
    /// reflecting real compute.
    pub fn modeled_time(mut self, yes: bool) -> Self {
        self.modeled_time = yes;
        self
    }

    /// Attach a deterministic fault plan. This switches every cross-PE
    /// link to the reliable (ack/retransmit) transport and arms the plan's
    /// scripted PE faults. A plan that scripts crashes must also enable
    /// [`FaultPlan::online_recovery`]: a crash is only ever healed.
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        assert!(
            plan.crashes.is_empty() || plan.recovers(),
            "a fault plan with scripted crashes needs FaultPlan::online_recovery(k) to heal them"
        );
        if plan.recovers() {
            assert!(
                self.num_pes <= 64,
                "online recovery tracks PE liveness in a 64-bit mask"
            );
        }
        self.fault = Some(Arc::new(plan));
        self
    }

    /// Register the death-confirmed upcall for online recovery: invoked
    /// (once per failed PE, on the PE whose detector won the confirmation
    /// race) after the deceased's final link accounting is available. The
    /// layer above drives rollback/respawn from here; a machine without an
    /// upcall only detects and writes off.
    pub fn on_death_confirmed(
        mut self,
        f: impl Fn(&Pe, usize) + Send + Sync + 'static,
    ) -> Self {
        self.death_upcall = Some(Arc::new(f));
        self
    }

    /// Use a specific per-PE scheduler configuration.
    pub fn sched_config(mut self, cfg: SchedConfig) -> Self {
        self.sched_cfg = cfg;
        self
    }

    /// Use a specific network cost model.
    pub fn net_model(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Isomalloc layout knobs (slot bytes, slots per PE).
    pub fn iso_layout(mut self, slot_len: usize, slots_per_pe: usize) -> Self {
        self.slot_len = slot_len;
        self.slots_per_pe = slots_per_pe;
        self
    }

    /// Register a message handler; returns its machine-wide id, which is
    /// its position in registration order. The handler's type is its key:
    /// code running on a PE finds the id again with [`Pe::handler_of`].
    pub fn handler<F: Fn(&Pe, Message) + Send + Sync + 'static>(&mut self, f: F) -> HandlerId {
        self.handlers.push((TypeId::of::<F>(), Arc::new(f)));
        HandlerId(self.handlers.len() - 1)
    }

    fn build_shared(&self) -> Arc<SharedPools> {
        let mut iso = IsoConfig::for_pes(self.num_pes);
        if self.world.is_none() {
            iso.base = 0; // machines in one process must not fight over a base
        }
        // else: keep the fixed default base — every process of a
        // multi-process machine must map the isomalloc region at the same
        // virtual address, or migrated thread images (absolute slot
        // addresses) could not cross the process boundary.
        iso.slot_len = self.slot_len;
        iso.slots_per_pe = self.slots_per_pe;
        let pools = SharedPools::new(iso, 1 << 20).expect("machine memory pools");
        if self.world.is_some() {
            assert!(
                pools.region().at_fixed_base(),
                "multi-process machines need the isomalloc region at its fixed base"
            );
        }
        pools
    }

    /// Build the hub and one seed per local PE: a `Send` closure that
    /// builds its [`Pe`] (and the `!Send` scheduler) on the OS thread that
    /// will drive it. `threaded` is the drive mode every PE is born into.
    #[allow(clippy::type_complexity)]
    pub(crate) fn make_seeds(
        &mut self,
        threaded: bool,
    ) -> (Vec<impl FnOnce() -> Pe + Send>, Arc<Hub>, Vec<Arc<TraceRing>>, Vec<Sender<Frame>>) {
        let shared = self.build_shared();
        let handlers = Arc::new(std::mem::take(&mut self.handlers));
        // A multi-process machine hosts only its world's slice of the PEs:
        // inboxes, wakers and trace rings are local-length, while ids,
        // link tables and failure masks stay global.
        let (base, local) = match &self.world {
            Some(w) => (w.first_pe(), w.pes_per_proc()),
            None => (0, self.num_pes),
        };
        let fault = self.fault.clone().map(|plan| FaultCtx {
            plan,
            stats: Arc::new(FaultStats::default()),
        });
        let hub = Arc::new(Hub {
            base,
            local,
            stats: fault.as_ref().map(|f| f.stats.clone()),
            ..Hub::default()
        });
        let rings: Vec<Arc<TraceRing>> = if self.tracing {
            flows_trace::set_enabled(true);
            (0..local)
                .map(|i| Arc::new(TraceRing::new(base + i, TRACE_RING_EVENTS)))
                .collect()
        } else {
            Vec::new()
        };
        let (txs, rxs): (Vec<_>, Vec<_>) = (0..local).map(|_| unbounded()).unzip();
        let (num_pes, net, modeled_time) = (self.num_pes, self.net, self.modeled_time);
        let seeds = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                let (id, ring) = (base + i, rings.get(i).cloned());
                let (shared, cfg, txs) = (shared.clone(), self.sched_cfg.clone(), txs.clone());
                let (handlers, hub, fault) = (handlers.clone(), hub.clone(), fault.clone());
                let (world, upcall) = (self.world.clone(), self.death_upcall.clone());
                move || {
                    // Pools are built machine-wide (global PE count) in every
                    // process so isomalloc slot ranges agree across processes.
                    let pool = shared.payload_pool(id).clone();
                    let sched = Scheduler::new(id, shared, cfg);
                    Pe::new(
                        id, num_pes, base, world, sched, rx, txs, handlers, hub, net, fault,
                        modeled_time, threaded, pool, ring, upcall,
                    )
                }
            })
            .collect();
        (seeds, hub, rings, txs)
    }

    /// Drive every PE on the calling OS thread until quiescence: each PE
    /// in turn pumps a bounded burst, and the round repeats until the
    /// machine is quiescent or every PE has crashed. Nothing parks or
    /// yields, so the pump sequence — and with it every modeled clock —
    /// is a function of the program and the fault plan alone.
    pub fn run_deterministic(mut self, init: impl Fn(&Pe)) -> MachineReport {
        assert!(
            self.world.is_none(),
            "a multi-process machine needs its comm thread: use run()"
        );
        let (seeds, hub, rings, _txs) = self.make_seeds(false);
        let pes: Vec<Pe> = seeds.into_iter().map(|build| build()).collect();
        let t0 = flows_sys::time::monotonic_ns();
        let rows = drive(&pes, &hub, false, false, &init);
        MachineReport::assemble(rows, &hub, t0, rings, false)
    }

    /// Drive each PE on its own OS thread until quiescence. Idle PEs spin
    /// briefly, then park their OS thread and are unparked by incoming
    /// frames. With a [`flows_net::World`] attached, a comm thread bridges
    /// the transport and owns the machine-wide quiescence decision.
    pub fn run(mut self, init: impl Fn(&Pe) + Send + Sync) -> MachineReport {
        let online = self.fault.as_ref().is_some_and(|p| p.recovers());
        let multiproc = self.world.is_some();
        assert!(
            !online || multiproc,
            "online recovery requires the deterministic drive mode \
             (or a multi-process world, whose comm thread owns quiescence)"
        );
        if let (Some(w), Some(plan)) = (&self.world, &self.fault) {
            if w.is_leader() {
                let leader_pes = w.first_pe()..w.first_pe() + w.pes_per_proc();
                assert!(
                    !leader_pes.clone().all(|p| plan.crash_for(p).is_some()),
                    "the lead process hosts the quiescence gather and the \
                     recovery leader; it cannot be scripted to fully crash"
                );
            }
        }
        if let Some(w) = &self.world {
            // Thread ids mint per-process but travel with packed images
            // across process boundaries (migration, recovery respawn);
            // partition the namespace so they can never collide.
            flows_core::seed_tid_namespace(w.rank());
        }
        let (seeds, hub, rings, txs) = self.make_seeds(true);
        // The comm thread outlives the PE scope on purpose: the leader's
        // finish handshake (DONE/GOODBYE) may still be draining while the
        // local PEs are already done.
        let pump = self.world.clone().map(|world| {
            let pump = crate::netpump::NetPump {
                world,
                hub: hub.clone(),
                txs,
                online,
            };
            std::thread::Builder::new()
                .name("flows-netpump".into())
                .spawn(move || pump.run())
                .expect("spawn comm thread")
        });
        let t0 = flows_sys::time::monotonic_ns();
        // No PE pumps before every waker is set. `Hub::wake` finds no
        // waker until then, so a PE that had already found its inbox
        // empty could park on a frame that arrived meanwhile (modeled in
        // `crates/converse/tests/wake_interleave.rs`).
        let start = Barrier::new(seeds.len() + 1);
        let rows: Vec<PeResult> = std::thread::scope(|s| {
            let (init, hub, start) = (&init, &*hub, &start);
            let handles: Vec<_> = seeds
                .into_iter()
                .map(|build| {
                    s.spawn(move || {
                        start.wait();
                        drive(&[build()], hub, true, multiproc, init)
                    })
                })
                .collect();
            hub.wakers
                .set(handles.iter().map(|h| h.thread().clone()).collect())
                .expect("fresh hub");
            start.wait();
            handles.into_iter().flat_map(|h| h.join().expect("PE thread")).collect()
        });
        if let Some(h) = pump {
            let _ = h.join();
        }
        if let Some(why) = hub.lost_proc.lock().expect("hub lock").take() {
            panic!("{why}");
        }
        MachineReport::assemble(rows, &hub, t0, rings, multiproc)
    }
}

/// One PE's row of the [`MachineReport`], taken when its drive ends.
struct PeResult {
    vtime: u64,
    sched: SchedStats,
    stranded: usize,
    busy: u64,
    delivered: u64,
    in_place: u64,
    syscalls: SyscallCounts,
    pool: PoolStats,
}

impl MachineReport {
    /// Both entry points' report: per-PE rows plus the hub's machine-wide
    /// state. A multi-process machine counts the messages the quiescence
    /// leader declared, not just this process's.
    fn assemble(
        rows: Vec<PeResult>,
        hub: &Hub,
        t0: u64,
        rings: Vec<Arc<TraceRing>>,
        multiproc: bool,
    ) -> MachineReport {
        let syscalls: Vec<SyscallCounts> = rows.iter().map(|r| r.syscalls).collect();
        let messages = if multiproc { &hub.net_global_sent } else { &hub.sent };
        MachineReport {
            pe_vtimes: rows.iter().map(|r| r.vtime).collect(),
            wall_ns: flows_sys::time::monotonic_ns() - t0,
            sched_stats: rows.iter().map(|r| r.sched).collect(),
            messages: messages.load(Ordering::SeqCst),
            pe_delivered: rows.iter().map(|r| r.delivered).collect(),
            pe_delivered_in_place: rows.iter().map(|r| r.in_place).collect(),
            stranded_threads: rows.iter().map(|r| r.stranded).collect(),
            pe_busy: rows.iter().map(|r| r.busy).collect(),
            faults: hub.stats.as_ref().map(|s| s.summary()),
            trace: (!rings.is_empty()).then(|| {
                // Fill the syscall-derived fields the events alone cannot know.
                let mut sum = flows_trace::summarize(&rings);
                for p in sum.pes.iter_mut() {
                    if let Some(c) = syscalls.get(p.pe as usize) {
                        p.remap = c.remap;
                        p.syscalls_total = c.total();
                    }
                }
                sum
            }),
            syscalls,
            trace_rings: rings,
            recovery: hub.timeline_snapshot(),
            dead_pes: hub.dead_list(),
            pools: rows.iter().map(|r| r.pool).collect(),
        }
    }
}

/// Pumps per PE per turn while its bursts keep delivering messages.
const FULL_BURST: u32 = 64;

/// How many idle re-checks a PE spin-yields through before it actually
/// parks. Parking immediately costs a futex wakeup (microseconds) per
/// message on a busy machine — fatal for tight message-passing loops on a
/// single-core host — while spinning forever burns a core on an idle one.
/// A short spin window keeps the hot path at yield cost and reserves
/// parking for genuinely quiet PEs.
const IDLE_SPINS_BEFORE_PARK: u32 = 128;

/// The scheduler loop: run `init` on each of `pes`, pump them on the
/// calling OS thread until the run ends, and return their report rows
/// (the thread's syscall delta in the first). Deterministic drive passes
/// every PE and never parks; threaded drive passes one PE, whose OS
/// thread parks when idle and is unparked through [`Hub::wake`].
///
/// A burst's budget adapts: draining a PE completely would livelock on
/// cross-PE spin synchronization, so a burst that pumps without delivering
/// (spin-yielding waiters) halves its share until the next delivery. A
/// round without progress flushes the counters *before* announcing idle
/// (the ordering [`Hub`]'s exactness rests on). A multi-process machine's
/// PEs only report idleness — the comm thread decides — and re-pump after
/// each park so link maintenance runs while they wait on remote traffic.
fn drive(
    pes: &[Pe],
    hub: &Hub,
    threaded: bool,
    multiproc: bool,
    init: &dyn Fn(&Pe),
) -> Vec<PeResult> {
    let sc0 = flows_sys::counters::snapshot();
    // A lone PE stays current for the whole drive (its bursts re-enter as
    // a no-op); PEs sharing the thread take turns.
    let lone = (pes.len() == 1).then(|| pes[0].enter());
    for pe in pes {
        let prev = pe.enter();
        init(pe);
        pe.leave(prev);
    }
    let n = pes.len();
    let mut budgets = vec![FULL_BURST; n];
    'run: loop {
        if hub.done.load(Ordering::SeqCst) {
            break;
        }
        let mut progress = false;
        for (pe, budget) in pes.iter().zip(budgets.iter_mut()) {
            let prev = pe.enter();
            let delivered_before = pe.delivered();
            let mut pumped = false;
            for _ in 0..*budget {
                if !pe.pump() {
                    break;
                }
                pumped = true;
            }
            pe.leave(prev);
            *budget = if pumped && pe.delivered() == delivered_before {
                (*budget / 2).max(1)
            } else {
                FULL_BURST
            };
            progress |= pumped;
        }
        if progress {
            continue;
        }
        for pe in pes {
            pe.flush_counters();
        }
        hub.idle.fetch_add(n as u64, Ordering::SeqCst);
        let mut spins = 0u32;
        loop {
            // Total loss ends the run too: nobody is left to heal it, and
            // a crashed PE stays announced idle.
            if hub.done.load(Ordering::SeqCst) || pes.iter().all(Pe::crashed) {
                break 'run;
            }
            if pes.iter().any(Pe::has_work) {
                hub.leave_idle(n);
                if threaded && !pes.iter().any(Pe::has_local_work) {
                    // Waiting on an ack or a retransmit deadline: let the
                    // peer that owes us the packet have the core.
                    std::thread::yield_now();
                }
                continue 'run;
            }
            if !multiproc && hub.ledger().quiescent() {
                hub.set_done_and_wake();
                break 'run;
            }
            if !threaded {
                // No work, yet a failure awaits healing: only more pumps
                // (heartbeats, detection) can move the machine.
                hub.leave_idle(n);
                continue 'run;
            }
            if spins < IDLE_SPINS_BEFORE_PARK {
                spins += 1;
                std::thread::yield_now();
            } else {
                std::thread::park_timeout(IDLE_PARK);
                if multiproc {
                    hub.leave_idle(n);
                    continue 'run;
                }
            }
        }
    }
    let mut syscalls = Some(flows_sys::counters::snapshot().since(&sc0));
    let rows = pes
        .iter()
        .map(|pe| {
            // Final flush: the totals are complete on every exit path.
            pe.flush_counters();
            PeResult {
                vtime: pe.vtime_ns(),
                sched: pe.sched().stats(),
                stranded: pe.sched().thread_count(),
                busy: pe.busy_ns(),
                delivered: pe.delivered(),
                in_place: pe.delivered_in_place(),
                syscalls: syscalls.take().unwrap_or_default(),
                pool: pe.payload_pool().stats(),
            }
        })
        .collect();
    if let Some(prev) = lone {
        pes[0].leave(prev);
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::{send, with_pe};
    use flows_core::{suspend, yield_now, StackFlavor, ThreadId};
    use std::sync::atomic::AtomicU64;

    #[test]
    fn deterministic_ring_passes_token() {
        // Each PE forwards an incrementing token around the ring 3 times.
        let total = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(4).net_model(NetModel::zero());
        let h = {
            let total = total.clone();
            mb.handler(move |pe, msg| {
                let hops = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
                total.fetch_add(1, Ordering::Relaxed);
                if hops > 0 {
                    pe.send(
                        (pe.id() + 1) % pe.num_pes(),
                        msg.handler,
                        (hops - 1).to_le_bytes().to_vec(),
                    );
                }
            })
        };
        let rep = mb.run_deterministic(|pe| {
            if pe.id() == 0 {
                pe.send(1, h, 12u64.to_le_bytes().to_vec());
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 13, "12 hops + initial");
        assert_eq!(rep.messages, 13);
        assert!(rep.stranded_threads.iter().all(|&n| n == 0));
    }

    #[test]
    fn threaded_mode_matches_deterministic_semantics() {
        let total = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(3);
        let h = {
            let total = total.clone();
            mb.handler(move |_pe, msg| {
                total.fetch_add(msg.data.len() as u64, Ordering::Relaxed);
            })
        };
        mb.run(move |pe| {
            for d in 0..pe.num_pes() {
                pe.send(d, h, vec![0; 10 * (pe.id() + 1)]);
            }
        });
        // PE i sends 3 messages of 10(i+1) bytes: total = 3*(10+20+30).
        assert_eq!(total.load(Ordering::Relaxed), 180);
    }

    #[test]
    fn threads_can_send_and_block_on_messages() {
        // A thread on PE0 suspends; a handler on PE1 bounces a reply that
        // awakens it.
        let done = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(2).net_model(NetModel::zero());
        // reply handler: awaken the thread named in the payload.
        let reply = mb.handler(move |pe, msg| {
            let tid = ThreadId(u64::from_le_bytes(msg.data[..8].try_into().unwrap()));
            pe.sched().awaken_tid(tid).unwrap();
        });
        // ping handler on PE1: send the tid back.
        let ping = mb.handler(move |pe, msg| {
            pe.send(msg.src_pe, reply, msg.data.clone());
        });
        let done2 = done.clone();
        mb.run_deterministic(move |pe| {
            if pe.id() == 0 {
                let done = done2.clone();
                pe.sched()
                    .spawn(StackFlavor::Isomalloc, move || {
                        let me = flows_core::current().unwrap();
                        send(1, ping, me.0.to_le_bytes().to_vec());
                        suspend(); // until the reply awakens us
                        done.fetch_add(1, Ordering::Relaxed);
                    })
                    .unwrap();
            }
        });
        assert_eq!(done.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn virtual_time_respects_message_latency() {
        let mut mb = MachineBuilder::new(2).net_model(NetModel {
            latency_ns: 1_000_000,
            ns_per_byte: 0.0,
        });
        let h = mb.handler(|_pe, _msg| {});
        let rep = mb.run_deterministic(|pe| {
            if pe.id() == 0 {
                pe.send(1, h, vec![1, 2, 3]);
            }
        });
        assert!(
            rep.pe_vtimes[1] >= 1_000_000,
            "receiver clock must include latency: {:?}",
            rep.pe_vtimes
        );
        assert!(rep.parallel_time_ns() >= 1_000_000);
    }

    #[test]
    fn charge_ns_advances_only_local_clock() {
        let mut mb = MachineBuilder::new(2).net_model(NetModel::zero());
        let _ = mb.handler(|_, _| {});
        let rep = mb.run_deterministic(|pe| {
            if pe.id() == 1 {
                pe.charge_ns(5_000_000);
            }
        });
        assert!(rep.pe_vtimes[1] >= 5_000_000);
        assert!(rep.pe_vtimes[0] < 5_000_000);
    }

    #[test]
    fn ext_slots_are_typed_and_per_pe() {
        #[derive(Default)]
        struct Counter(u64);
        let mut mb = MachineBuilder::new(2).net_model(NetModel::zero());
        let h = mb.handler(|pe, _msg| {
            pe.ext::<Counter, _>(|c| c.0 += 1);
        });
        let seen = Arc::new(AtomicU64::new(0));
        let seen2 = seen.clone();
        let check = mb.handler(move |pe, _msg| {
            let v = pe.ext::<Counter, _>(|c| c.0);
            seen2.fetch_add(v, Ordering::Relaxed);
        });
        mb.run_deterministic(move |pe| {
            if pe.id() == 0 {
                pe.send(1, h, vec![]);
                pe.send(1, h, vec![]);
                pe.send(0, h, vec![]);
                pe.send(1, check, vec![]);
            }
        });
        // PE1 counted 2; PE0's counter (1) is separate.
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn stranded_threads_are_reported() {
        let mut mb = MachineBuilder::new(1).net_model(NetModel::zero());
        let _ = mb.handler(|_, _| {});
        let rep = mb.run_deterministic(|pe| {
            pe.sched()
                .spawn(StackFlavor::Standard, || {
                    yield_now();
                    suspend(); // nobody will wake us
                })
                .unwrap();
        });
        assert_eq!(rep.stranded_threads, vec![1]);
    }

    #[test]
    fn with_pe_panics_outside_machine() {
        let r = std::panic::catch_unwind(|| with_pe(|p| p.id()));
        assert!(r.is_err());
    }

    /// The ring test's shape under fault injection: token still makes
    /// every hop exactly once despite drops, dups, delays and reordering.
    fn faulty_ring(plan: FaultPlan) -> (u64, MachineReport) {
        let total = Arc::new(AtomicU64::new(0));
        // Modeled time: virtual clocks advance only by modeled costs, so
        // retransmit/fault counts cannot wobble with host CPU contention.
        let mut mb = MachineBuilder::new(4).fault_plan(plan).modeled_time(true);
        let h = {
            let total = total.clone();
            mb.handler(move |pe, msg| {
                let hops = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
                total.fetch_add(1, Ordering::Relaxed);
                if hops > 0 {
                    pe.send(
                        (pe.id() + 1) % pe.num_pes(),
                        msg.handler,
                        (hops - 1).to_le_bytes().to_vec(),
                    );
                }
            })
        };
        let rep = mb.run_deterministic(|pe| {
            if pe.id() == 0 {
                pe.send(1, h, 40u64.to_le_bytes().to_vec());
            }
        });
        (total.load(Ordering::Relaxed), rep)
    }

    #[test]
    fn lossy_link_still_delivers_exactly_once() {
        let plan = FaultPlan::new(1234)
            .drop_prob(0.2)
            .dup_prob(0.2)
            .delay(0.2, 50_000)
            .reorder_prob(0.2);
        let (total, rep) = faulty_ring(plan);
        assert_eq!(total, 41, "40 hops + initial, each delivered once");
        assert_eq!(rep.messages, 41, "logical count unaffected by faults");
        let f = rep.faults.expect("fault stats present");
        assert!(f.dropped > 0, "plan injected drops: {f:?}");
        assert!(f.retransmits >= f.dropped, "every drop was repaired");
        assert!(f.acks > 0);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = || FaultPlan::new(99).drop_prob(0.15).dup_prob(0.1).reorder_prob(0.1);
        let (t1, r1) = faulty_ring(plan());
        let (t2, r2) = faulty_ring(plan());
        assert_eq!(t1, t2);
        assert_eq!(r1.faults, r2.faults, "same seed, same fault schedule");
        assert_eq!(r1.messages, r2.messages);
    }

    #[test]
    fn attached_plan_without_faults_is_transparent() {
        let (total, rep) = faulty_ring(FaultPlan::new(5));
        assert_eq!(total, 41);
        let f = rep.faults.unwrap();
        assert_eq!(f.dropped + f.duplicated + f.reordered + f.delayed, 0);
        assert!(f.acks > 0, "reliable transport still acks");
    }

    #[test]
    #[should_panic(expected = "FaultPlan::online_recovery(k)")]
    fn crash_plan_without_online_recovery_is_refused() {
        let _ = MachineBuilder::new(4).fault_plan(FaultPlan::new(7).crash_pe(2, 0));
    }

    #[test]
    fn stall_delays_but_run_completes() {
        let plan = FaultPlan::new(3).stall_pe(1, 0, 50);
        let (total, rep) = faulty_ring(plan);
        assert_eq!(total, 41);
        let f = rep.faults.unwrap();
        assert!(f.stalled_steps >= 50, "stall consumed its steps: {f:?}");
        assert!(rep.dead_pes.is_empty());
        assert_eq!(f.heartbeats, 0, "a transport-only plan runs no detector");
    }

    /// One online-mode run: ring traffic, PE 2 crashes mid-flight, the
    /// phi-accrual detector suspects and confirms it, the leader's death
    /// upcall drives a reap/ack mini-protocol across the survivors, and
    /// the machine quiesces WITHOUT tearing the world down. Returns the
    /// logical-delivery total and the report.
    fn online_crash_run(seed: u64) -> (u64, MachineReport) {
        use crate::fault::RecoveryPhase;
        let plan = FaultPlan::new(seed).crash_pe(2, 150_000).online_recovery(1);
        let total = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(4).fault_plan(plan).modeled_time(true);
        let work = {
            let total = total.clone();
            mb.handler(move |pe, msg| {
                total.fetch_add(1, Ordering::Relaxed);
                let hops = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
                if hops > 0 {
                    pe.charge_ns(20_000);
                    pe.send(
                        (pe.id() + 1) % pe.num_pes(),
                        msg.handler,
                        (hops - 1).to_le_bytes().to_vec(),
                    );
                }
            })
        };
        // Survivor acks back to the leader; the last ack resolves the
        // recovery so the machine may quiesce again.
        let acks = Arc::new(AtomicU64::new(0));
        let ack_h = {
            let acks = acks.clone();
            mb.handler(move |pe, msg| {
                let dead = msg.data[0] as usize;
                let got = acks.fetch_add(1, Ordering::Relaxed) + 1;
                let live =
                    pe.num_pes() as u64 - u64::from(pe.confirmed_dead_mask().count_ones());
                if got == live - 1 {
                    pe.mark_recovery_resolved(dead, 1);
                }
            })
        };
        // Non-leader survivors: write the dead PE's links off, poke the
        // corpse once (exercises the written-off-at-source path), ack.
        let reap_h = mb.handler(move |pe, msg| {
            let dead = msg.data[0] as usize;
            pe.reap_dead(dead);
            pe.send(dead, msg.handler, vec![msg.data[0]]);
            pe.send(msg.src_pe, ack_h, vec![msg.data[0]]);
        });
        let mb = mb.on_death_confirmed(move |pe, dead| {
            pe.reap_dead(dead);
            pe.note_recovery(RecoveryPhase::Rollback, dead, 0);
            for d in 0..pe.num_pes() {
                if d != pe.id() && !pe.is_confirmed_dead(d) {
                    pe.send(d, reap_h, vec![dead as u8]);
                }
            }
        });
        let rep = mb.run_deterministic(|pe| {
            if pe.id() == 0 {
                pe.send(1, work, 200u64.to_le_bytes().to_vec());
            }
        });
        (total.load(Ordering::Relaxed), rep)
    }

    #[test]
    fn online_crash_is_detected_confirmed_and_healed() {
        use crate::fault::RecoveryPhase;
        let (total, rep) = online_crash_run(21);
        // The run completed (this test returning at all is the headline:
        // quiescence was re-established around the corpse).
        assert_eq!(rep.dead_pes, vec![2]);
        assert!(
            total < 201,
            "the token died with PE 2, the ring cannot finish"
        );
        let f = rep.faults.unwrap();
        assert!(f.heartbeats > 0, "failure detection ran: {f:?}");
        assert!(
            f.written_off >= 2,
            "corpse pokes + in-flight losses written off: {f:?}"
        );
        // The recovery timeline tells the whole story, in causal order.
        let find = |ph: RecoveryPhase| rep.recovery.iter().find(|e| e.phase == ph);
        let crash = find(RecoveryPhase::Crash).expect("crash recorded");
        let suspect = find(RecoveryPhase::Suspect).expect("suspicion raised");
        let confirm = find(RecoveryPhase::Confirm).expect("death confirmed");
        let resume = find(RecoveryPhase::Resume).expect("recovery resolved");
        assert_eq!(crash.dead, 2);
        assert_eq!(suspect.dead, 2);
        assert_eq!(confirm.dead, 2);
        assert_eq!(resume.dead, 2);
        assert!(suspect.pe != 2, "a survivor raised the suspicion");
        assert!(
            suspect.vt <= confirm.vt && confirm.vt <= resume.vt,
            "suspect -> confirm -> resume in virtual-time order: {:?}",
            rep.recovery
        );
        // No live PE was ever confirmed dead (no false STONITH).
        assert!(rep
            .recovery
            .iter()
            .filter(|e| e.phase == RecoveryPhase::Confirm)
            .all(|e| e.dead == 2));
    }

    /// The deterministic schedule pinned across versions, not just across
    /// two runs of one build: a drive loop that reorders pumps moves
    /// modeled time (idle pumps feed the retransmit clock jump) and fails
    /// here. Every value is modeled time, so none depends on the host.
    #[test]
    fn deterministic_schedule_is_pinned() {
        use crate::fault::RecoveryPhase::*;
        let (_, rep) = online_crash_run(21);
        assert_eq!(rep.pe_vtimes, [2_080_292, 2_070_288, 180_192, 2_050_260]);
        let events: Vec<_> = rep.recovery.iter().map(|e| (e.phase, e.pe, e.dead, e.vt)).collect();
        assert_eq!(
            events,
            [
                (Crash, 2, 2, 180_192),
                (Suspect, 1, 2, 1_170_288),
                (Suspect, 0, 2, 1_140_256),
                (Suspect, 3, 2, 1_210_224),
                (Confirm, 0, 2, 2_040_256),
                (Rollback, 0, 2, 2_040_256),
                (Resume, 0, 2, 2_080_292),
            ]
        );
        let plan = FaultPlan::new(1234)
            .drop_prob(0.2)
            .dup_prob(0.2)
            .delay(0.2, 50_000)
            .reorder_prob(0.2);
        let (_, rep) = faulty_ring(plan);
        assert_eq!(
            rep.pe_vtimes,
            [3_237_009_809, 3_237_019_841, 3_236_989_745, 3_236_999_777]
        );
        assert_eq!(
            rep.faults,
            Some(FaultSummary {
                dropped: 108,
                duplicated: 100,
                delayed: 10,
                reordered: 6,
                retransmits: 512,
                dup_dropped: 504,
                acks: 545,
                data_packets: 545,
                stalled_steps: 0,
                retransmits_capped: 464,
                heartbeats: 0,
                written_off: 0,
            })
        );
    }

    #[test]
    fn online_detection_is_deterministic() {
        let (t1, r1) = online_crash_run(77);
        let (t2, r2) = online_crash_run(77);
        assert_eq!(t1, t2);
        assert_eq!(r1.recovery, r2.recovery, "same seed, same timeline");
        assert_eq!(r1.faults, r2.faults);
        assert_eq!(r1.dead_pes, r2.dead_pes);
    }

    #[test]
    fn online_stall_is_suspected_then_cleared_not_killed() {
        use crate::fault::RecoveryPhase;
        // PE 1 goes silent for 600 pump iterations but is NOT dead. With a
        // sky-high confirm threshold the detector may suspect it, must
        // clear the suspicion when heartbeats resume, and must never
        // fence/kill it; the ring still completes exactly.
        let plan = FaultPlan::new(9)
            .stall_pe(1, 0, 600)
            .online_recovery(1)
            .phi_thresholds(2.0, 1e12);
        let (total, rep) = faulty_ring(plan);
        assert_eq!(total, 41, "every hop still delivered exactly once");
        assert!(rep.dead_pes.is_empty(), "a stall is not a death");
        let f = rep.faults.unwrap();
        assert!(f.stalled_steps >= 600);
        assert!(
            f.retransmits_capped > 0,
            "the long stall pushed RTO backoff to its cap: {f:?}"
        );
        let suspects: Vec<_> = rep
            .recovery
            .iter()
            .filter(|e| e.phase == RecoveryPhase::Suspect && e.dead == 1)
            .collect();
        let clears: Vec<_> = rep
            .recovery
            .iter()
            .filter(|e| e.phase == RecoveryPhase::Clear && e.dead == 1)
            .collect();
        assert!(!suspects.is_empty(), "the stall drew suspicion");
        assert!(
            clears.len() >= suspects.len().min(1),
            "suspicion was withdrawn when heartbeats resumed: {:?}",
            rep.recovery
        );
        assert!(rep
            .recovery
            .iter()
            .all(|e| e.phase != RecoveryPhase::Confirm));
    }

    #[test]
    fn batched_counters_detect_exact_fixpoint_under_faults() {
        // Per-message quiescence accounting is buffered in PE-local cells
        // and flushed to the hub only at idle entry; the fixpoint must
        // still be the exact logical sent==recv point. Retransmits and
        // duplicates from the fault layer must not leak into the totals.
        let plan = FaultPlan::new(4242)
            .drop_prob(0.25)
            .dup_prob(0.2)
            .reorder_prob(0.15);
        let (total, rep) = faulty_ring(plan);
        assert_eq!(total, 41);
        assert_eq!(rep.messages, 41, "batched sent-counter total is exact");
        assert_eq!(
            rep.pe_delivered.iter().sum::<u64>(),
            41,
            "dispatch counters agree: {:?}",
            rep.pe_delivered
        );
        assert!(rep.faults.unwrap().dropped > 0, "faults actually fired");
    }

    #[test]
    fn threaded_batched_counters_are_complete_at_quiescence() {
        let total = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(3).fault_plan(FaultPlan::new(77).drop_prob(0.15));
        let h = {
            let total = total.clone();
            mb.handler(move |_pe, _msg| {
                total.fetch_add(1, Ordering::Relaxed);
            })
        };
        let rep = mb.run(move |pe| {
            for d in 0..pe.num_pes() {
                for _ in 0..10 {
                    pe.send(d, h, vec![1, 2, 3]);
                }
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 90);
        assert_eq!(rep.messages, 90, "no message counted twice or missed");
        assert_eq!(rep.pe_delivered.iter().sum::<u64>(), 90);
    }

    #[test]
    fn pooled_buffers_cross_threads_and_return_home() {
        // A ping-pong where every hop is packed into a pooled buffer: the
        // receiving PE (a different OS thread under run()) drops each
        // delivered payload, which must hand the bytes back to the
        // *origin* PE's pool in time for its next hop — so the steady
        // state recycles instead of allocating.
        let hops = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(2).net_model(NetModel::zero());
        let h = {
            let hops = hops.clone();
            mb.handler(move |pe, msg| {
                let n = u64::from_le_bytes(msg.data[..8].try_into().unwrap());
                hops.fetch_add(1, Ordering::Relaxed);
                if n > 0 {
                    let mut buf = pe.payload_buf();
                    buf.extend_from_slice(&(n - 1).to_le_bytes());
                    pe.send(msg.src_pe, msg.handler, buf.freeze());
                }
            })
        };
        let rep = mb.run(move |pe| {
            if pe.id() == 0 {
                let mut buf = pe.payload_buf();
                buf.extend_from_slice(&200u64.to_le_bytes());
                pe.send(1, h, buf.freeze());
            }
        });
        assert_eq!(hops.load(Ordering::Relaxed), 201);
        assert_eq!(rep.pe_delivered.iter().sum::<u64>(), 201);
        for (pe, s) in rep.pools.iter().enumerate() {
            assert!(s.returns > 0, "pe{pe}: buffers came back cross-thread: {s:?}");
            assert!(s.reuses > 10, "pe{pe}: steady state recycled: {s:?}");
            assert!(s.allocs < 10, "pe{pe}: far fewer allocs than hops: {s:?}");
        }
    }

    #[test]
    fn threaded_mode_survives_lossy_links() {
        let plan = FaultPlan::new(21).drop_prob(0.2).dup_prob(0.1);
        let total = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(3).fault_plan(plan);
        let h = {
            let total = total.clone();
            mb.handler(move |_pe, msg| {
                total.fetch_add(msg.data.len() as u64, Ordering::Relaxed);
            })
        };
        let rep = mb.run(move |pe| {
            for d in 0..pe.num_pes() {
                pe.send(d, h, vec![0; 10 * (pe.id() + 1)]);
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 180, "exactly-once despite loss");
        assert!(rep.faults.unwrap().dropped > 0);
    }
}
