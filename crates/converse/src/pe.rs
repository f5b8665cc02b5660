//! One processing element: message pump + thread scheduler + virtual clock.

use crate::fault::{FaultCtx, FaultStats, RecoveryEvent, RecoveryPhase, HEARTBEAT_NS};
use crate::link::{rto_ns, LinkTable, RxOutcome, Unacked, RTO_ATTEMPT_CAP};
use crate::machine::{Hub, Morgue};
use crate::msg::{HandlerId, Message, NetModel};
use flows_core::{Payload, PayloadBuf, PayloadPool, Scheduler};
use flows_net::inbox::{Receiver, Sender};
use flows_net::{Frame, FrameKind};
use flows_sys::time::thread_cpu_ns;
use flows_trace::{emit, EventKind, TraceRing};
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) type Handler = Arc<dyn Fn(&Pe, Message) + Send + Sync>;

/// The death-confirmed upcall (see `MachineBuilder::on_death_confirmed`).
pub(crate) type DeathUpcall = Arc<dyn Fn(&Pe, usize) + Send + Sync>;

/// Phi-accrual scale factor: phi = elapsed / (mean * ln 10), i.e. phi is
/// the negative decimal log of the probability the peer is alive under an
/// exponential inter-arrival model. phi 4 ≈ 9.2 mean intervals of
/// silence, phi 8 ≈ 18.4 — far beyond any plausible loss burst.
const PHI_SCALE: f64 = std::f64::consts::LOG10_E;

/// Per-peer failure-detector state (online mode only).
#[derive(Debug, Clone, Copy)]
struct PeerHealth {
    /// Local virtual time of the last heartbeat from this peer (0 = the
    /// detector has not started observing it yet).
    last_vt: u64,
    /// EWMA of observed heartbeat inter-arrival times (ns), floored at
    /// half the heartbeat period so a post-stall burst of queued
    /// heartbeats cannot collapse the threshold.
    mean_ns: f64,
    /// Currently above the suspicion threshold?
    suspected: bool,
    /// Virtual time the current suspicion started (hysteresis anchor: a
    /// confirm needs at least one heartbeat period of *additional*
    /// silence, so one stale evaluation can never convict on its own).
    suspect_vt: u64,
    /// Threaded mode: wall-clock time of the last heartbeat from this
    /// peer (or of the first observation).
    last_wall: u64,
}

/// Threaded mode: wall-clock silence a peer must also show before it is
/// confirmed dead. An idle observer jumps its virtual clock a heartbeat
/// period per ~0.2 ms of quiet, so a live peer that is merely busy or
/// descheduled for a few milliseconds of wall time looks silent for many
/// virtual periods; a dead peer stays silent in wall time as well.
const CONFIRM_WALL_QUIET_NS: u64 = 100_000_000;

thread_local! {
    static CURRENT_PE: Cell<*const Pe> = const { Cell::new(std::ptr::null()) };
    /// The CPU-clock reading that closed this OS thread's last busy pump
    /// (0 = none): the next pump starts from it instead of paying a second
    /// `thread_cpu_ns` syscall. Per OS thread, not per PE — the
    /// deterministic drive pumps every PE on one thread, and a per-PE
    /// reading would charge PE 1's CPU time to PE 0.
    static PUMP_CPU_NS: Cell<u64> = const { Cell::new(0) };
}

/// Consecutive idle pumps before an otherwise-idle PE jumps its virtual
/// clock to the next retransmission deadline. In threaded mode this gives
/// in-flight acks a few spins to arrive before we burn a retransmit.
const IDLE_PUMPS_BEFORE_RETX_JUMP: u32 = 8;

/// In threaded mode an idle pump is a handful of atomic loads, so a pump
/// count measures nothing about real waiting: a peer's reply travels at
/// OS-scheduling speed (microseconds to milliseconds on a loaded host).
/// Require this much *wall-clock* silence on top of the pump count before
/// jumping the virtual clock to a retransmission deadline, or a fast
/// sender storms the wire with spurious retransmits.
const RETX_WALL_QUIET_NS: u64 = 200_000;

/// How many cross-PE frames one pump pulls off the inbox per lock
/// acquisition (see `Receiver::try_recv_batch`).
const RX_BATCH: usize = 64;

/// A processing element of the simulated machine. All methods take `&self`
/// (interior mutability), so code running inside handlers *and* inside
/// user-level threads can reach its services through [`with_pe`] and the
/// crate-level free functions without aliasing `&mut`.
pub struct Pe {
    id: usize,
    num_pes: usize,
    /// Global id of this process's first PE (0 in a single-process
    /// machine). `txs` is indexed by `dest - base`.
    base: usize,
    /// The multi-process world, when this machine spans processes.
    /// Destinations outside `base..base + txs.len()` route through it.
    world: Option<Arc<flows_net::World>>,
    sched: Scheduler,
    rx: Receiver<Frame>,
    txs: Vec<Sender<Frame>>,
    /// The machine's handler table, each entry keyed by the type of the
    /// function registered there (see [`Pe::handler_of`]).
    handlers: Arc<Vec<(TypeId, Handler)>>,
    hub: Arc<Hub>,
    net: NetModel,
    fault: Option<FaultCtx>,
    modeled_time: bool,
    vtime: Cell<u64>,
    busy: Cell<u64>,
    local_q: RefCell<VecDeque<Message>>,
    /// Cross-PE frames drained from `rx` in batches, awaiting delivery.
    pending: RefCell<VecDeque<Frame>>,
    links: RefCell<LinkTable>,
    stall_left: Cell<u64>,
    stall_fired: Cell<bool>,
    crashed: Cell<bool>,
    idle_pumps: Cell<u32>,
    /// Driven by `MachineBuilder::run` (one OS thread per PE)? Enables
    /// the wall-clock retransmit gate (see `RETX_WALL_QUIET_NS`).
    threaded: bool,
    /// Wall clock at which the current idle streak crossed the pump
    /// threshold (threaded retransmit gate).
    idle_wall_start: Cell<u64>,
    /// This PE's payload recycling pool (from `SharedPools`).
    pool: Arc<PayloadPool>,
    /// Quiescence deltas accumulated locally and flushed to the hub only
    /// at idle entry — no machine-global atomics on the per-message path.
    local_sent: Cell<u64>,
    local_recv: Cell<u64>,
    /// Cumulative handler invocations (the bench's dispatch-rate counter).
    delivered: Cell<u64>,
    /// Of `delivered`, the messages a layer above delivered where they
    /// were sent, without the local queue ([`Pe::book_in_place`]).
    in_place: Cell<u64>,
    /// This PE's trace event ring when the machine was built with
    /// `.tracing(true)`. Installed as the OS thread's current ring for
    /// exactly the `enter()`..`leave()` span.
    ring: Option<Arc<TraceRing>>,
    /// The ring that was current before `enter()` (restored by `leave()`,
    /// which keeps nested machines from cross-recording).
    prev_ring: Cell<*const TraceRing>,
    /// Typed extension slots, scanned linearly: a PE holds a handful of
    /// types (comm, reduce, AMPI, recovery, chare), so a lookup is a few
    /// `TypeId` compares — cheaper than hashing on every message.
    exts: RefCell<Vec<(TypeId, Box<dyn Any>)>>,
    /// Phi-accrual detector state per peer (empty unless the plan enables
    /// online recovery).
    det: RefCell<Vec<PeerHealth>>,
    /// Virtual time of the last detector evaluation (0 = never). A large
    /// gap means the *observer* went silent, not its peers.
    det_eval_vt: Cell<u64>,
    /// Virtual time of the next heartbeat emission (0 = not armed yet).
    next_hb: Cell<u64>,
    /// Heartbeats emitted so far (drives the deterministic drop stream).
    hb_seq: Cell<u64>,
    /// Mask of dead peers whose links this PE has written off.
    reaped: Cell<u64>,
    /// Mask of peers this PE confirmed dead and still owes an upcall for
    /// (fires once the deceased's morgue record is published).
    upcall_pending: Cell<u64>,
    death_upcall: Option<DeathUpcall>,
}

impl std::fmt::Debug for Pe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pe")
            .field("id", &self.id)
            .field("vtime_ns", &self.vtime.get())
            .field("sched", &self.sched)
            .finish()
    }
}

#[allow(clippy::too_many_arguments)]
impl Pe {
    pub(crate) fn new(
        id: usize,
        num_pes: usize,
        base: usize,
        world: Option<Arc<flows_net::World>>,
        sched: Scheduler,
        rx: Receiver<Frame>,
        txs: Vec<Sender<Frame>>,
        handlers: Arc<Vec<(TypeId, Handler)>>,
        hub: Arc<Hub>,
        net: NetModel,
        fault: Option<FaultCtx>,
        modeled_time: bool,
        threaded: bool,
        pool: Arc<PayloadPool>,
        ring: Option<Arc<TraceRing>>,
        death_upcall: Option<DeathUpcall>,
    ) -> Pe {
        let det = if fault.as_ref().is_some_and(|c| c.plan.recovers()) {
            vec![
                PeerHealth {
                    last_vt: 0,
                    mean_ns: HEARTBEAT_NS as f64,
                    suspected: false,
                    suspect_vt: 0,
                    last_wall: 0,
                };
                num_pes
            ]
        } else {
            Vec::new()
        };
        Pe {
            id,
            num_pes,
            base,
            world,
            sched,
            rx,
            txs,
            handlers,
            hub,
            net,
            fault,
            modeled_time,
            vtime: Cell::new(0),
            busy: Cell::new(0),
            local_q: RefCell::new(VecDeque::new()),
            pending: RefCell::new(VecDeque::new()),
            links: RefCell::new(LinkTable::new(num_pes)),
            stall_left: Cell::new(0),
            stall_fired: Cell::new(false),
            crashed: Cell::new(false),
            idle_pumps: Cell::new(0),
            threaded,
            idle_wall_start: Cell::new(0),
            pool,
            local_sent: Cell::new(0),
            local_recv: Cell::new(0),
            delivered: Cell::new(0),
            in_place: Cell::new(0),
            ring,
            prev_ring: Cell::new(std::ptr::null()),
            exts: RefCell::new(Vec::new()),
            det: RefCell::new(det),
            det_eval_vt: Cell::new(0),
            next_hb: Cell::new(0),
            hb_seq: Cell::new(0),
            reaped: Cell::new(0),
            upcall_pending: Cell::new(0),
            death_upcall,
        }
    }

    /// Is this machine running the online-recovery protocol?
    fn online(&self) -> bool {
        self.fault.as_ref().is_some_and(|c| c.plan.recovers())
    }

    /// The attached fault plan, if any (layers above read the replication
    /// degree from here).
    pub fn fault_plan(&self) -> Option<&crate::fault::FaultPlan> {
        self.fault.as_ref().map(|c| &*c.plan)
    }

    /// Bitmask of peers confirmed dead by the failure detector. The comm
    /// and AMPI layers use it to remap roots/homes off dead PEs.
    pub fn confirmed_dead_mask(&self) -> u64 {
        self.hub.confirmed_mask()
    }

    /// Has `pe` been confirmed dead?
    pub fn is_confirmed_dead(&self, pe: usize) -> bool {
        self.hub.is_confirmed(pe)
    }

    /// This PE's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Machine size.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// The id this machine gave handler `f` at registration: every fn item
    /// and closure has a type of its own, and that type is the key. A
    /// function registered twice answers with its first id. Layers look
    /// their ids up here instead of storing them, so a handler's id is a
    /// property of the machine it runs in, never of the process.
    ///
    /// # Panics
    /// If `f` was never registered on this machine.
    #[inline]
    pub fn handler_of<F: Fn(&Pe, Message) + 'static>(&self, _f: F) -> HandlerId {
        let key = TypeId::of::<F>();
        let Some(i) = self.handlers.iter().position(|(k, _)| *k == key) else {
            panic!("handler {} is not registered on this machine", std::any::type_name::<F>());
        };
        HandlerId(i)
    }

    /// The PE's thread scheduler.
    pub fn sched(&self) -> &Scheduler {
        &self.sched
    }

    /// Current virtual time in nanoseconds (see crate docs).
    pub fn vtime_ns(&self) -> u64 {
        self.vtime.get()
    }

    /// Advance the virtual clock by an explicit modeled cost (counted as
    /// busy time).
    pub fn charge_ns(&self, ns: u64) {
        self.vtime.set(self.vtime.get() + ns);
        self.busy.set(self.busy.get() + ns);
    }

    /// Accumulated *busy* virtual time: work charged on this PE, excluding
    /// waits imposed by message arrival times. `vtime - busy` is how long
    /// the PE's clock sat waiting on the critical path.
    pub fn busy_ns(&self) -> u64 {
        self.busy.get()
    }

    /// Whether this PE has hit a scripted crash (a dead PE does nothing).
    pub fn crashed(&self) -> bool {
        self.crashed.get()
    }

    /// Handler invocations on this PE so far (the dispatch-rate counter).
    pub fn delivered(&self) -> u64 {
        self.delivered.get()
    }

    /// Of [`Pe::delivered`], the messages booked by [`Pe::book_in_place`].
    pub(crate) fn delivered_in_place(&self) -> u64 {
        self.in_place.get()
    }

    /// Book a message that a layer above delivered on this PE where it
    /// was sent, skipping the local queue: it counts, and traces, exactly
    /// as the self-send it replaces — `len` bytes to `handler` — would
    /// have at [`Pe::send`] and at its dispatch, so the quiescence ledger,
    /// `MachineReport::messages` and trace summaries cannot tell them
    /// apart. Only for a delivery that runs no user code (see DESIGN.md
    /// §6.7 on why a self-send otherwise enqueues).
    pub fn book_in_place(&self, handler: HandlerId, len: usize) {
        self.local_sent.set(self.local_sent.get() + 1);
        self.local_recv.set(self.local_recv.get() + 1);
        self.delivered.set(self.delivered.get() + 1);
        self.in_place.set(self.in_place.get() + 1);
        let (me, len, h) = (self.id as u64, len as u64, handler.0 as u64);
        emit(EventKind::MsgSend, me, len, h);
        emit(EventKind::MsgRecv, me, len, h);
    }

    /// An empty payload writer drawn from this PE's recycling pool.
    /// Build the message body in it, then [`PayloadBuf::freeze`] (or just
    /// pass it to [`Pe::send`]) — steady state, no allocation.
    pub fn payload_buf(&self) -> PayloadBuf {
        self.pool.buf()
    }

    /// Like [`Pe::payload_buf`] with a minimum capacity.
    pub fn payload_buf_with_capacity(&self, cap: usize) -> PayloadBuf {
        self.pool.buf_with_capacity(cap)
    }

    /// PUP-pack `v` into a pooled payload (the layers above use this to
    /// build wire messages without a fresh allocation per send).
    pub fn pack_payload<T: flows_pup::Pup + ?Sized>(&self, v: &mut T) -> Payload {
        let mut buf = self.pool.buf();
        flows_pup::pack_into(v, buf.vec_mut());
        buf.freeze()
    }

    /// This PE's payload pool (stats are used by benches and tests).
    pub fn payload_pool(&self) -> &Arc<PayloadPool> {
        &self.pool
    }

    /// Push one frame onto `dest`'s inbox and wake it if it is parked.
    /// In a multi-process machine, destinations hosted by another process
    /// get the same frame through the transport instead.
    fn post(&self, dest: usize, frame: Frame) {
        let local = dest.wrapping_sub(self.base);
        if let Some(tx) = self.txs.get(local) {
            tx.send(frame);
            self.hub.wake(dest);
        } else {
            let world = self
                .world
                .as_ref()
                .expect("non-local destination without a multi-process world");
            world.send(world.proc_of_pe(dest), &frame);
        }
    }

    /// A data frame carrying `msg` from this PE to `dest` under link
    /// sequence `seq` (0 = unsequenced).
    fn data_frame(&self, dest: usize, seq: u64, msg: Message) -> Frame {
        let h = msg.handler.0 as u64;
        Frame::data(self.id as u32, dest as u32, seq, h, msg.sent_vtime, msg.data)
    }

    /// Flush locally batched quiescence deltas to the hub counters.
    /// Called at idle entry (and before any quiescence check), so the
    /// global sent==recv comparison stays exact without per-message RMWs.
    pub(crate) fn flush_counters(&self) {
        let s = self.local_sent.replace(0);
        if s != 0 {
            self.hub.sent.fetch_add(s, Ordering::SeqCst);
        }
        let r = self.local_recv.replace(0);
        if r != 0 {
            self.hub.recv.fetch_add(r, Ordering::SeqCst);
        }
    }

    /// Send `data` to `handler` on PE `dest`. Never blocks; self-sends go
    /// through the local queue and never enter the (possibly faulty) link
    /// layer. Accepts anything payload-like: a [`Payload`] or pooled
    /// [`PayloadBuf`] (zero-copy), a `Vec<u8>`, or a byte slice/array.
    pub fn send(&self, dest: usize, handler: HandlerId, data: impl Into<Payload>) {
        assert!(dest < self.num_pes, "send to PE {dest} of {}", self.num_pes);
        let msg = Message {
            handler,
            data: data.into(),
            src_pe: self.id,
            sent_vtime: self.vtime.get(),
        };
        self.local_sent.set(self.local_sent.get() + 1);
        emit(
            EventKind::MsgSend,
            dest as u64,
            msg.data.len() as u64,
            handler.0 as u64,
        );
        if dest == self.id {
            self.local_q.borrow_mut().push_back(msg);
        } else if let Some(ctx) = &self.fault {
            if self.links.borrow().tx[dest].dead {
                // Peer confirmed dead and the link reaped: count the
                // logical send and write it off at the source so the
                // quiescence fixpoint stays exact.
                FaultStats::bump_by(&ctx.stats.written_off, 1);
                return;
            }
            self.link_send(dest, msg);
        } else {
            self.post(dest, self.data_frame(dest, 0, msg));
        }
    }

    /// Enqueue a message on the reliable link to `dest`, applying the
    /// fault plan's delay / reorder decisions and recording the packet for
    /// retransmission until acked.
    fn link_send(&self, dest: usize, mut msg: Message) {
        let ctx = self.fault.as_ref().expect("link_send without plan");
        let mut links = self.links.borrow_mut();
        let tx = &mut links.tx[dest];
        let seq = tx.assign_seq();
        if ctx.plan.delay_roll(self.id, dest, seq) {
            msg.sent_vtime += ctx.plan.delay_ns;
            FaultStats::bump(&ctx.stats.delayed);
        }
        tx.unacked.insert(
            seq,
            Unacked {
                msg: msg.clone(),
                deadline: self.vtime.get()
                    + rto_ns(
                        self.net.latency_ns,
                        ctx.plan.delay_ns,
                        0,
                        ctx.plan.jitter_roll(self.id, dest, seq, 0),
                    ),
                attempt: 0,
            },
        );
        if tx.pocket.is_none() && ctx.plan.reorder_roll(self.id, dest, seq) {
            // Hold this packet back; it goes out after the next send to
            // the same destination (or at the next pump).
            tx.pocket = Some((seq, msg));
            FaultStats::bump(&ctx.stats.reordered);
            return;
        }
        let pocketed = tx.pocket.take();
        self.transmit(dest, seq, &msg, 0);
        if let Some((pseq, pmsg)) = pocketed {
            // Flushed after its successor: the links observes them swapped.
            self.transmit(dest, pseq, &pmsg, 0);
        }
    }

    /// Physically enqueue one data packet, rolling drop/duplicate faults.
    /// The clones here share the payload (`Message::clone` bumps an `Arc`),
    /// so retransmissions and injected duplicates never copy the body.
    fn transmit(&self, dest: usize, seq: u64, msg: &Message, attempt: u32) {
        let ctx = self.fault.as_ref().expect("transmit without plan");
        if ctx.plan.drop_roll(self.id, dest, seq, attempt) {
            FaultStats::bump(&ctx.stats.dropped);
            emit(EventKind::FaultDrop, dest as u64, seq, attempt as u64);
        } else {
            FaultStats::bump(&ctx.stats.data_packets);
            self.post(dest, self.data_frame(dest, seq, msg.clone()));
        }
        if ctx.plan.dup_roll(self.id, dest, seq, attempt) {
            FaultStats::bump(&ctx.stats.duplicated);
            FaultStats::bump(&ctx.stats.data_packets);
            self.post(dest, self.data_frame(dest, seq, msg.clone()));
        }
    }

    /// Access (creating on first use) a typed per-PE extension slot. The
    /// comm/chare/AMPI layers keep their tables here. The closure must not
    /// suspend the calling thread (the borrow is checked at runtime).
    pub fn ext<T: Any + Default, R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut exts = self.exts.borrow_mut();
        let id = TypeId::of::<T>();
        let i = match exts.iter().position(|(t, _)| *t == id) {
            Some(i) => i,
            None => {
                exts.push((id, Box::new(T::default())));
                exts.len() - 1
            }
        };
        f(exts[i].1.downcast_mut::<T>().expect("ext type"))
    }

    /// Count a logical receive and run the message's handler.
    fn deliver_msg(&self, msg: Message) {
        self.local_recv.set(self.local_recv.get() + 1);
        self.delivered.set(self.delivered.get() + 1);
        emit(
            EventKind::MsgRecv,
            msg.src_pe as u64,
            msg.data.len() as u64,
            msg.handler.0 as u64,
        );
        // Virtual clock: the message cannot be processed before it arrives.
        let arrival = self
            .net
            .arrival(msg.sent_vtime, msg.data.len(), msg.src_pe == self.id);
        self.vtime.set(self.vtime.get().max(arrival));
        // Dispatch through a borrow: the handler table is frozen at build
        // time, so no per-delivery Arc refcount traffic.
        let (_, handler) = self
            .handlers
            .get(msg.handler.0)
            .unwrap_or_else(|| panic!("unregistered handler {:?}", msg.handler));
        handler(self, msg);
    }

    /// Deliver one pending message or link frame, if any. Returns
    /// whether one was processed. Cross-PE frames are drained from the
    /// inbox a batch at a time (one lock round trip per batch), and each
    /// is read here, field by field, as [`Frame::data`], [`Frame::ack`]
    /// and [`Frame::heartbeat`] wrote it, whether it came from a PE of
    /// this process or through the comm thread.
    // flows-wire: handles net-frame
    fn deliver_one(&self) -> bool {
        let local = self.local_q.borrow_mut().pop_front();
        if let Some(msg) = local {
            self.deliver_msg(msg);
            return true;
        }
        loop {
            let frame = {
                let mut pending = self.pending.borrow_mut();
                // `is_empty` is a lock-free length probe: an idle pump
                // costs one atomic load, not a mutex round trip.
                if pending.is_empty() && !self.rx.is_empty() {
                    self.rx.try_recv_batch(&mut pending, RX_BATCH);
                }
                pending.pop_front()
            };
            let Some(f) = frame else {
                return false;
            };
            let src = f.src_pe as usize;
            match f.kind {
                FrameKind::Data => {
                    let seq = f.a;
                    let msg = Message {
                        handler: HandlerId(f.b as usize),
                        data: f.body,
                        src_pe: src,
                        sent_vtime: f.c,
                    };
                    if seq == 0 {
                        self.deliver_msg(msg);
                    } else {
                        self.link_recv(src, seq, msg);
                    }
                }
                FrameKind::Ack => self.links.borrow_mut().tx[src].ack_through(f.a),
                FrameKind::Heartbeat => {
                    // Heartbeats are protocol-invisible: they update the
                    // detector but count as neither progress nor delivery,
                    // or an idle machine trading heartbeats could never
                    // quiesce. Keep draining for a real frame.
                    self.note_heartbeat(src, f.b);
                    continue;
                }
                // The comm thread consumes every control frame itself.
                FrameKind::Ctrl => continue,
            }
            return true;
        }
    }

    /// Sequenced data packet from `src`: dedupe, reassemble in order,
    /// deliver what is ready, and send a cumulative ack.
    fn link_recv(&self, src: usize, seq: u64, msg: Message) {
        let ctx = self.fault.as_ref().expect("sequenced packet without plan");
        let (ready, cum) = {
            let mut links = self.links.borrow_mut();
            let rx = &mut links.rx[src];
            let ready = match rx.offer(seq, msg) {
                RxOutcome::Deliver(v) => v,
                RxOutcome::Duplicate => {
                    FaultStats::bump(&ctx.stats.dup_dropped);
                    Vec::new()
                }
                RxOutcome::Parked => Vec::new(),
                RxOutcome::Dead => {
                    // Straggler from a reaped peer: already written off;
                    // drop without delivery or ack.
                    return;
                }
            };
            (ready, rx.cum_ack())
        };
        // Ack every data packet (acks are cheap and idempotent); a dropped
        // or stale sender state is repaired by the next retransmission.
        FaultStats::bump(&ctx.stats.acks);
        self.post(src, Frame::ack(self.id as u32, src as u32, cum));
        for m in ready {
            self.deliver_msg(m);
        }
    }

    /// Flush any pocketed (reorder-held) packets and retransmit everything
    /// whose deadline has passed. When the PE has been idle for a while and
    /// only timers remain, jump the virtual clock to the earliest deadline
    /// so recovery makes progress in both drive modes. Returns whether any
    /// packet moved.
    fn link_maintain(&self, other_progress: bool) -> bool {
        let ctx = match &self.fault {
            Some(c) => c,
            None => return false,
        };
        let mut moved = false;
        // Flush pockets: a reorder hold lasts at most one pump.
        let pockets: Vec<(usize, u64, Message)> = {
            let mut links = self.links.borrow_mut();
            links
                .tx
                .iter_mut()
                .enumerate()
                .filter_map(|(d, t)| t.pocket.take().map(|(s, m)| (d, s, m)))
                .collect()
        };
        for (dest, seq, msg) in pockets {
            self.transmit(dest, seq, &msg, 0);
            moved = true;
        }
        if !other_progress && !moved {
            let idle = self.idle_pumps.get() + 1;
            self.idle_pumps.set(idle);
            if idle == IDLE_PUMPS_BEFORE_RETX_JUMP && self.threaded {
                self.idle_wall_start.set(flows_sys::time::monotonic_ns());
            }
            if idle >= IDLE_PUMPS_BEFORE_RETX_JUMP && !self.has_local_work() {
                let quiet = !self.threaded
                    || flows_sys::time::monotonic_ns()
                        .saturating_sub(self.idle_wall_start.get())
                        >= RETX_WALL_QUIET_NS;
                if quiet {
                    let mut jump = self.links.borrow().min_deadline();
                    // While a failure is being detected or healed, the
                    // heartbeat schedule is also a legitimate clock source
                    // — without it a fully-blocked machine (no unacked
                    // data) would never accrue the silence that drives
                    // suspicion. Gated on an unresolved failure so a
                    // healthy idle machine still quiesces.
                    if self.hb_clock_armed() {
                        let nh = self.next_hb.get();
                        if nh > 0 {
                            jump = Some(jump.map_or(nh, |d| d.min(nh)));
                        }
                    }
                    if let Some(d) = jump {
                        if d > self.vtime.get() {
                            self.vtime.set(d);
                        }
                    }
                }
            }
        } else {
            self.idle_pumps.set(0);
        }
        // Heartbeats and the phi-accrual failure detector ride the fault
        // clock; none of it counts as progress.
        if ctx.plan.recovers() && !self.crashed.get() {
            self.heartbeat_maintain(ctx);
            self.detector_maintain(ctx);
            self.upcall_maintain(ctx);
        }
        // Retransmit everything due at the (possibly advanced) clock.
        let now = self.vtime.get();
        let due: Vec<(usize, u64, Message, u32)> = {
            let mut links = self.links.borrow_mut();
            let mut due = Vec::new();
            for (dest, tx) in links.tx.iter_mut().enumerate() {
                for (&seq, u) in tx.unacked.iter_mut() {
                    if u.deadline <= now {
                        u.attempt += 1;
                        if u.attempt > RTO_ATTEMPT_CAP {
                            FaultStats::bump(&ctx.stats.retransmits_capped);
                        }
                        u.deadline = now
                            + rto_ns(
                                self.net.latency_ns,
                                ctx.plan.delay_ns,
                                u.attempt,
                                ctx.plan.jitter_roll(self.id, dest, seq, u.attempt),
                            );
                        due.push((dest, seq, u.msg.clone(), u.attempt));
                    }
                }
            }
            due
        };
        for (dest, seq, msg, attempt) in due {
            FaultStats::bump(&ctx.stats.retransmits);
            emit(EventKind::FaultRetransmit, dest as u64, seq, attempt as u64);
            self.transmit(dest, seq, &msg, attempt);
            moved = true;
        }
        moved
    }

    /// Is the heartbeat schedule currently a clock source for idle jumps?
    /// Only while a failure is unresolved or a peer is under suspicion —
    /// a healthy idle machine must not keep its own clocks (and wires)
    /// alive trading heartbeats, or it would never quiesce.
    fn hb_clock_armed(&self) -> bool {
        if !self.online() || self.crashed.get() {
            return false;
        }
        self.hub.unresolved() || self.det.borrow().iter().any(|p| p.suspected)
    }

    /// Emit one heartbeat round if the period elapsed. Heartbeats are
    /// unsequenced, unacked, and invisible to the logical message counts;
    /// they share the plan's drop probability (an independent stream), so
    /// the detector sees the same lossy wire the data does.
    fn heartbeat_maintain(&self, ctx: &FaultCtx) {
        let period = HEARTBEAT_NS;
        let now = self.vtime.get();
        if self.next_hb.get() == 0 {
            self.next_hb.set(now + period);
            return;
        }
        if now < self.next_hb.get() {
            return;
        }
        self.next_hb.set(now + period);
        let hb = self.hb_seq.get() + 1;
        self.hb_seq.set(hb);
        for d in 0..self.num_pes {
            if d == self.id || self.hub.is_confirmed(d) {
                continue;
            }
            if ctx.plan.hb_drop_roll(self.id, d, hb) {
                continue;
            }
            FaultStats::bump(&ctx.stats.heartbeats);
            self.post(d, Frame::heartbeat(self.id as u32, d as u32, hb, now));
        }
    }

    /// Record a heartbeat arrival from `src`: update the inter-arrival
    /// EWMA and withdraw any active suspicion. In threaded machines the
    /// sender's clock also drags ours forward (Lamport-style): every PE
    /// idle-jumps its clock independently, and without the sync a fast
    /// observer would read its own clock advance as the peer's silence.
    fn note_heartbeat(&self, src: usize, sender_vt: u64) {
        if self.det.borrow().is_empty() || self.crashed.get() {
            return;
        }
        if self.threaded && sender_vt > self.vtime.get() {
            self.vtime.set(sender_vt);
        }
        let now = self.vtime.get().max(1);
        let period = HEARTBEAT_NS as f64;
        let mut cleared = None;
        {
            let mut det = self.det.borrow_mut();
            let ph = &mut det[src];
            if self.threaded {
                ph.last_wall = flows_sys::time::monotonic_ns();
            }
            if ph.last_vt != 0 {
                let dt = now.saturating_sub(ph.last_vt) as f64;
                ph.mean_ns = (0.8 * ph.mean_ns + 0.2 * dt).max(period * 0.5);
            }
            let silence = now.saturating_sub(ph.last_vt);
            ph.last_vt = now;
            if ph.suspected {
                ph.suspected = false;
                cleared = Some(silence);
            }
        }
        if let Some(silence) = cleared {
            emit(EventKind::FtClear, src as u64, silence, 0);
            self.hub.push_timeline(RecoveryEvent {
                phase: RecoveryPhase::Clear,
                pe: self.id,
                dead: src,
                vt: now,
                info: silence,
            });
        }
    }

    /// Phi-accrual evaluation: suspect silent peers, and — if this PE is
    /// the recovery leader for a suspect whose phi crossed the confirm
    /// threshold — confirm the death and fence the peer. The leader for a
    /// failure is the lowest PE this observer does not itself consider
    /// failed, so leadership survives the leader's own death.
    fn detector_maintain(&self, ctx: &FaultCtx) {
        let now = self.vtime.get();
        let period = HEARTBEAT_NS;
        let last_eval = self.det_eval_vt.get();
        self.det_eval_vt.set(now);
        if last_eval != 0 && now.saturating_sub(last_eval) > 4 * period {
            // The observer itself went dark (a recovery-protocol stint, a
            // stall, a long thread burst): its silence measurements
            // conflate each peer's absence with its own deafness, and one
            // stale evaluation must never convict a live peer. Re-arm the
            // observation windows and judge only fresh silence.
            let mut det = self.det.borrow_mut();
            for p in det.iter_mut() {
                if p.last_vt != 0 {
                    p.last_vt = now;
                }
            }
            return;
        }
        let confirmed = self.hub.confirmed_mask();
        let wall = if self.threaded {
            flows_sys::time::monotonic_ns()
        } else {
            0
        };
        let mut to_confirm: Vec<(usize, f64)> = Vec::new();
        {
            let mut det = self.det.borrow_mut();
            for p in 0..self.num_pes {
                if p == self.id || confirmed & (1 << p) != 0 {
                    continue;
                }
                let ph = &mut det[p];
                if ph.last_vt == 0 {
                    // First observation: treat "now" as a pseudo-heartbeat
                    // so silence is measured from when we started looking.
                    ph.last_vt = now.max(1);
                    ph.last_wall = wall;
                    continue;
                }
                let elapsed = now.saturating_sub(ph.last_vt);
                let phi = PHI_SCALE * elapsed as f64 / ph.mean_ns;
                if !ph.suspected && phi >= ctx.plan.phi_suspect {
                    ph.suspected = true;
                    ph.suspect_vt = now;
                    emit(
                        EventKind::FtSuspect,
                        p as u64,
                        (phi * 1000.0) as u64,
                        elapsed,
                    );
                    self.hub.push_timeline(RecoveryEvent {
                        phase: RecoveryPhase::Suspect,
                        pe: self.id,
                        dead: p,
                        vt: now,
                        info: (phi * 1000.0) as u64,
                    });
                }
                if ph.suspected
                    && phi >= ctx.plan.phi_confirm
                    && now.saturating_sub(ph.suspect_vt) >= period
                    && (!self.threaded
                        || wall.saturating_sub(ph.last_wall) >= CONFIRM_WALL_QUIET_NS)
                {
                    to_confirm.push((p, phi));
                }
            }
            for &(p, phi) in &to_confirm {
                // Leader check under the same detector snapshot.
                let leader = (0..self.num_pes).find(|&i| {
                    i != p && confirmed & (1 << i) == 0 && !det[i].suspected
                });
                if leader != Some(self.id) {
                    continue;
                }
                if self.hub.confirm(p) {
                    self.hub.fence(p);
                    emit(EventKind::FtConfirm, p as u64, (phi * 1000.0) as u64, 0);
                    self.hub.push_timeline(RecoveryEvent {
                        phase: RecoveryPhase::Confirm,
                        pe: self.id,
                        dead: p,
                        vt: now,
                        info: (phi * 1000.0) as u64,
                    });
                    self.upcall_pending
                        .set(self.upcall_pending.get() | 1 << p);
                }
            }
        }
    }

    /// Fire the death upcall for confirmed peers once their morgue record
    /// is published (a fenced-but-live peer publishes it at its next
    /// pump). Also settles traffic between the newly dead and any earlier
    /// casualties, which no survivor's own links account for.
    fn upcall_maintain(&self, ctx: &FaultCtx) {
        let mut pending = self.upcall_pending.get();
        if pending == 0 {
            return;
        }
        for p in 0..self.num_pes {
            if pending & (1 << p) == 0 || !self.hub.morgue_ready(p) {
                continue;
            }
            pending &= !(1 << p);
            self.upcall_pending.set(pending);
            for q in 0..self.num_pes {
                if q != p && self.hub.is_confirmed(q) && self.hub.morgue_ready(q) {
                    let lost = self.hub.reap_pair(p, q);
                    FaultStats::bump_by(&ctx.stats.written_off, lost);
                }
            }
            if let Some(cb) = &self.death_upcall {
                let cb = cb.clone();
                cb(self, p);
            }
        }
    }

    /// Write off this PE's links to a confirmed-dead peer using the
    /// deceased's published morgue record: everything we assigned that it
    /// never delivered, plus everything it assigned that we will never
    /// deliver (stragglers still in our channel are dropped on sight).
    /// Idempotent; called by every survivor when it learns of the death.
    pub fn reap_dead(&self, dead: usize) {
        let Some(ctx) = &self.fault else { return };
        if dead == self.id || self.reaped.get() & (1 << dead) != 0 {
            return;
        }
        let morgue = self
            .hub
            .morgue_get(dead)
            .expect("reap_dead before the deceased published its morgue");
        let mut links = self.links.borrow_mut();
        let tx = &mut links.tx[dead];
        let undelivered_out = tx.last_assigned() - morgue.rx_cum[self.id];
        tx.unacked.clear();
        tx.pocket = None;
        tx.dead = true;
        let rx = &mut links.rx[dead];
        let undelivered_in = morgue.tx_last[self.id] - rx.cum_ack();
        rx.reap();
        drop(links);
        FaultStats::bump_by(&ctx.stats.written_off, undelivered_out + undelivered_in);
        self.reaped.set(self.reaped.get() | 1 << dead);
    }

    /// Append a phase to the machine-wide recovery timeline (the AMPI
    /// layer records rollback/respawn/resume through this).
    pub fn note_recovery(&self, phase: RecoveryPhase, dead: usize, info: u64) {
        self.hub.push_timeline(RecoveryEvent {
            phase,
            pe: self.id,
            dead,
            vt: self.vtime.get(),
            info,
        });
    }

    /// Allocate a machine-wide unique, monotonically increasing recovery
    /// epoch. The recovery leader calls this once per round it starts;
    /// survivors adopt the largest epoch they have seen and drop traffic
    /// stamped with an older one (the rollback-boundary replay guard).
    pub fn alloc_recovery_epoch(&self) -> u64 {
        self.hub.next_epoch()
    }

    /// Declare the online recovery for `dead` complete: the machine may
    /// quiesce again. Called by the recovery driver (leader) after the
    /// resume barrier; also records the Resume phase.
    pub fn mark_recovery_resolved(&self, dead: usize, epoch: u64) {
        emit(EventKind::FtResume, dead as u64, epoch, 0);
        self.note_recovery(RecoveryPhase::Resume, dead, epoch);
        self.hub.resolve(dead);
    }

    /// Fail-stop this PE and publish its *morgue record* — per-peer
    /// cumulative-receive and last-assigned sequence counters — from which
    /// every survivor computes, exactly, how many logical messages died
    /// with it; those are written off so quiescence can be re-established
    /// without the dead PE's counters.
    fn die(&self, ctx: &FaultCtx) {
        self.crashed.set(true);
        emit(EventKind::FaultCrash, self.id as u64, 0, 0);
        // Self-sends queued locally die with us: counted as sent, never
        // received.
        let lost_local = self.local_q.borrow().len() as u64;
        self.local_q.borrow_mut().clear();
        FaultStats::bump_by(&ctx.stats.written_off, lost_local);
        // A dead node's memory vanishes: reclaim every user-level thread
        // so their shared-pool resources (isomalloc slots, alias frames)
        // are free for the recovery protocol to re-instate the threads'
        // committed images on surviving PEs.
        let reclaimed = self.sched.discard_all() as u64;
        self.flush_counters();
        let links = self.links.borrow();
        let morgue = Morgue {
            rx_cum: links.rx.iter().map(|r| r.cum_ack()).collect(),
            tx_last: links.tx.iter().map(|t| t.last_assigned()).collect(),
            reaped_mask: self.reaped.get(),
        };
        drop(links);
        self.hub.push_timeline(RecoveryEvent {
            phase: RecoveryPhase::Crash,
            pe: self.id,
            dead: self.id,
            vt: self.vtime.get(),
            info: reclaimed,
        });
        self.hub.record_death(self.id, morgue);
    }

    /// Check scripted PE faults. Returns `true` if the PE must skip this
    /// pump iteration (crashed or stalled).
    fn fault_gate(&self) -> bool {
        let ctx = match &self.fault {
            Some(c) => c,
            None => return false,
        };
        if self.crashed.get() {
            return true;
        }
        if self.hub.is_fenced(self.id) {
            // STONITH: the recovery leader confirmed us dead (e.g. a stall
            // that outlived the confirm threshold). Convert to a real
            // crash so the failure model stays fail-stop — we must not
            // wake back up half-recovered-around.
            self.die(ctx);
            return true;
        }
        if let Some(c) = ctx.plan.crash_for(self.id) {
            if self.vtime.get() >= c.at_vtime_ns {
                self.die(ctx);
                return true;
            }
        }
        if self.stall_left.get() > 0 {
            self.stall_left.set(self.stall_left.get() - 1);
            FaultStats::bump(&ctx.stats.stalled_steps);
            return true;
        }
        if !self.stall_fired.get() {
            if let Some(s) = ctx.plan.stall_for(self.id) {
                if self.vtime.get() >= s.at_vtime_ns {
                    self.stall_fired.set(true);
                    self.stall_left.set(s.for_steps);
                    FaultStats::bump(&ctx.stats.stalled_steps);
                    emit(EventKind::FaultStall, self.id as u64, s.for_steps, 0);
                    return true;
                }
            }
        }
        false
    }

    /// One scheduler-loop iteration: deliver pending messages, then run
    /// one thread burst. Returns whether any progress was made.
    /// The wall time spent is charged to the virtual clock.
    pub fn pump(&self) -> bool {
        if self.fault_gate() {
            return false;
        }
        // CPU time (see flows_sys::time::thread_cpu_ns): virtual time must
        // charge this PE's own work, not host preemption. Under modeled
        // time the clock never reads the host, so skip the syscall — it
        // would otherwise dominate an idle pump. Back-to-back busy pumps
        // share a reading: the last one's end is this one's start.
        let t0 = if self.modeled_time {
            0
        } else {
            match PUMP_CPU_NS.get() {
                0 => thread_cpu_ns(),
                carried => carried,
            }
        };
        let mut progress = false;
        // Drain a bounded batch of messages so threads stay responsive.
        for _ in 0..64 {
            if !self.deliver_one() {
                break;
            }
            progress = true;
        }
        if self.sched.step() {
            progress = true;
        }
        // Under modeled time (reproducible fault runs) only explicit
        // charges and network arrivals move the clock.
        if !self.modeled_time {
            // An idle pump charges nothing and drops the carried reading,
            // so the spinning and parking that follow it stay uncharged.
            PUMP_CPU_NS.set(if progress {
                let t1 = thread_cpu_ns();
                self.charge_ns(t1.saturating_sub(t0));
                t1
            } else {
                0
            });
        }
        if self.link_maintain(progress) {
            progress = true;
        }
        if !progress {
            // Idle: drain deferred slot-memory reclaim (warm alias windows,
            // cached isomalloc slabs) while nothing is runnable. No-op —
            // and syscall-free — when the reclaim lists are empty.
            self.sched.flush_reclaim();
        }
        progress
    }

    /// Local work only: queued messages or runnable threads.
    pub(crate) fn has_local_work(&self) -> bool {
        !self.local_q.borrow().is_empty()
            || !self.pending.borrow().is_empty()
            || !self.rx.is_empty()
            || self.sched.runnable() > 0
    }

    /// Is there any local work (messages, runnable threads, unfinished
    /// link-layer recovery, or an in-progress stall)? A crashed PE has no
    /// work — the survivors write its traffic off instead of waiting on
    /// it.
    pub fn has_work(&self) -> bool {
        if self.crashed.get() {
            return false;
        }
        self.has_local_work() || self.stall_left.get() > 0 || self.links.borrow().in_flight()
    }

    /// Make this PE current on the calling OS thread. Re-entering the
    /// current PE is a no-op (its trace ring and carried CPU reading stay).
    pub(crate) fn enter(&self) -> *const Pe {
        let prev = CURRENT_PE.with(|c| c.replace(self as *const Pe));
        if !std::ptr::eq(prev, self) {
            let ring = flows_trace::ring_ptr(self.ring.as_ref());
            // SAFETY: `self.ring` (an Arc) outlives the enter..leave span.
            self.prev_ring.set(unsafe { flows_trace::swap_current(ring) });
            // Whatever ran on this OS thread before this PE took it over
            // is not this PE's CPU time.
            PUMP_CPU_NS.set(0);
        }
        prev
    }

    pub(crate) fn leave(&self, prev: *const Pe) {
        if !std::ptr::eq(prev, self) {
            // SAFETY: restoring the pointer that was current before enter().
            unsafe { flows_trace::swap_current(self.prev_ring.get()) };
        }
        CURRENT_PE.with(|c| c.set(prev));
    }
}

/// Run `f` with the PE that is driving the calling code (handler or
/// user-level thread). Panics outside a machine.
pub fn with_pe<R>(f: impl FnOnce(&Pe) -> R) -> R {
    let p = CURRENT_PE.with(|c| c.get());
    assert!(
        !p.is_null(),
        "not running on a PE (use MachineBuilder::run / run_deterministic)"
    );
    // SAFETY: the pointer is installed by Pe::enter for exactly the span
    // the PE is being driven on this OS thread; Pe methods take &self.
    f(unsafe { &*p })
}

/// The calling PE's index.
pub fn my_pe() -> usize {
    with_pe(|p| p.id())
}

/// Machine size.
pub fn num_pes() -> usize {
    with_pe(|p| p.num_pes())
}

/// Send a message from whatever context is running on this PE.
pub fn send(dest: usize, handler: HandlerId, data: impl Into<Payload>) {
    with_pe(|p| p.send(dest, handler, data))
}

/// A pooled payload writer from the calling PE's pool.
pub fn payload_buf() -> PayloadBuf {
    with_pe(|p| p.payload_buf())
}

/// Current virtual time of the calling PE.
pub fn vtime_ns() -> u64 {
    with_pe(|p| p.vtime_ns())
}

/// Charge modeled work to the calling PE's virtual clock.
pub fn charge_ns(ns: u64) {
    with_pe(|p| p.charge_ns(ns))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, MachineBuilder};
    use std::sync::Mutex;

    /// `deliver_one` reads every link field from where `Frame::data`,
    /// `Frame::ack` and `Frame::heartbeat` put it.
    #[test]
    fn inbox_frames_deliver_their_link_fields() {
        let got = Arc::new(Mutex::new(Vec::<Message>::new()));
        let mut mb = MachineBuilder::new(2)
            .net_model(NetModel::zero())
            .fault_plan(FaultPlan::new(1).online_recovery(1));
        let h = {
            let got = got.clone();
            mb.handler(move |_, m| got.lock().unwrap().push(m))
        };
        // Threaded, so a heartbeat's clock drags the receiver's.
        let (seeds, ..) = mb.make_seeds(true);
        let pe = seeds.into_iter().next().unwrap()();
        let prev = pe.enter();

        let body: Payload = vec![7u8; 90].into();
        pe.post(0, Frame::data(1, 0, 0, h.0 as u64, 1_000, body.clone()));
        assert!(pe.deliver_one());
        {
            let got = got.lock().unwrap();
            let m = &got[0];
            assert_eq!((m.handler, m.src_pe, m.sent_vtime), (h, 1, 1_000));
            assert_eq!(m.data, body);
        }

        // Sequenced: seq 2 waits for seq 1, then both are delivered.
        pe.post(0, Frame::data(1, 0, 2, h.0 as u64, 2_000, Payload::empty()));
        assert!(pe.deliver_one());
        assert_eq!(got.lock().unwrap().len(), 1, "seq 2 is held for seq 1");
        pe.post(0, Frame::data(1, 0, 1, h.0 as u64, 2_000, Payload::empty()));
        assert!(pe.deliver_one());
        assert_eq!(got.lock().unwrap().len(), 3);
        assert_eq!(pe.links.borrow().rx[1].cum_ack(), 2);

        // An ack retires the send it covers.
        pe.send(1, h, Payload::empty());
        assert_eq!(pe.links.borrow().tx[1].unacked.len(), 1);
        pe.post(0, Frame::ack(1, 0, 1));
        assert!(pe.deliver_one());
        assert!(pe.links.borrow().tx[1].unacked.is_empty());

        // A heartbeat is no delivery, but its sender's clock is read.
        pe.post(0, Frame::heartbeat(1, 0, 9, 5_000_000));
        assert!(!pe.deliver_one());
        assert_eq!(pe.vtime_ns(), 5_000_000);
        pe.leave(prev);
    }
}
