//! The AMPI world: rank placement, message delivery, collectives and the
//! measurement-based load-balancing epoch.

use crate::nonblocking::RESERVED_TAG_BASE;
use crate::proto::{
    decode_rank_image, pack_rank_image, parse_rank_wire, route_rank_wire, BatchHead, LoadReport,
    MailEntry, MoveRec, PlanMsg, RankWire, PORT_AMPI,
};
use flows_comm::{CommLayer, ObjId, ReduceOp};
use flows_converse::{
    FaultPlan, IdMap, MachineBuilder, MachineReport, Message, NetModel, Payload, Pe,
};
use flows_core::{PackedThread, SchedConfig, StackFlavor, ThreadId, ThreadState};
use flows_lb::{LbStats, LbStrategy, NullLb, ObjLoad};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Batched-migration wire messages sent by LB epochs (process-global,
/// cumulative).
static LB_BATCH_MSGS: AtomicU64 = AtomicU64::new(0);

/// Cumulative count of batched-migration wire messages this process has
/// sent — diagnostics for tests and benches.
#[doc(hidden)]
pub fn lb_batch_messages() -> u64 {
    LB_BATCH_MSGS.load(Ordering::Relaxed)
}

/// What a rank's thread is blocked on: mail it receives, or a round of a
/// reduction it contributed to (a collective, an LB epoch or a checkpoint
/// cut, told apart by tag). [`RankBox::post`] and [`RankBox::complete`] are
/// the only code that clears it; each hands the rank its completion in
/// [`RankBox::done`] and names the thread to wake.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Wait {
    None,
    Recv { src: Option<u64>, tag: Option<u64> },
    Reduction { tag: u64, seq: u64 },
}

/// One parked point-to-point message: `data` is the buffer `recv` returns.
pub(crate) struct Mail {
    pub src: u64,
    pub tag: u64,
    pub data: Vec<u8>,
}

impl Mail {
    /// The one matcher of `recv`, `test` and the hand-over in `post`: `None`
    /// matches any source, or any user tag. A wildcard tag never matches the
    /// reserved tags that `scatter` and `alltoall` run on.
    fn matches(&self, src: Option<u64>, tag: Option<u64>) -> bool {
        let user = self.tag < RESERVED_TAG_BASE;
        src.is_none_or(|s| s == self.src) && tag.map_or(user, |t| t == self.tag)
    }
}

pub(crate) struct RankBox {
    pub tid: ThreadId,
    pub mailbox: VecDeque<Mail>,
    pub wait: Wait,
    /// The completion slot: the mail a `recv` wait matched, or a reduction's
    /// result (from source 0, with the reduction's tag). The woken rank takes
    /// it at once, so no image carries it: ranks are packed only in a
    /// reduction wait, before its completion.
    pub done: Option<Mail>,
    /// Next expected sequence number per source rank (MPI non-overtaking).
    /// The map itself never crosses a process boundary: packing a rank
    /// drains it into the sorted `next_seq` pairs of its `MoveRec`
    /// ([`seq_pairs`]) and unpack rebuilds it.
    pub next_seq: IdMap<u64, u64>,
    /// Next outgoing sequence number per destination rank. Lives here —
    /// not inside the rank's [`crate::Ampi`] handle — because the handle's
    /// heap spill (map buckets) would sit on the *process* heap, which
    /// a checkpoint image does not capture: a rollback would then resume a
    /// checkpoint-cut stack against live post-cut counters and every
    /// replayed send would run one sequence ahead of its receiver. In the
    /// box, the counters ride the explicit pup as sorted pairs, like
    /// `next_seq`.
    pub send_seq: IdMap<u64, u64>,
    /// Messages that arrived ahead of their sequence, keyed (src, seq).
    pub stashed: BTreeMap<(u64, u64), (u64, Vec<u8>)>,
}

/// A rank's sequence counters as the pairs its image carries, sorted so
/// the image bytes do not depend on the order the counters were created in.
fn seq_pairs(map: &IdMap<u64, u64>) -> Vec<(u64, u64)> {
    let mut pairs: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    pairs
}

impl RankBox {
    pub(crate) fn new(tid: ThreadId) -> RankBox {
        RankBox {
            tid,
            mailbox: VecDeque::new(),
            wait: Wait::None,
            done: None,
            next_seq: IdMap::default(),
            send_seq: IdMap::default(),
            stashed: BTreeMap::new(),
        }
    }

    /// The box of a rank arriving with the runtime state of its image
    /// (migration batch or checkpoint replica): the mail's buffers are taken
    /// back with [`Payload::into_vec`].
    pub(crate) fn from_rec(tid: ThreadId, rec: MoveRec) -> RankBox {
        RankBox {
            mailbox: rec.mailbox.into_iter()
                .map(|m| Mail { src: m.src, tag: m.tag, data: m.data.into_vec() })
                .collect(),
            next_seq: rec.next_seq.into_iter().collect(),
            send_seq: rec.send_seq.into_iter().collect(),
            stashed: rec.stashed.into_iter()
                .map(|(src, seq, tag, d)| ((src, seq), (tag, d.into_vec())))
                .collect(),
            ..RankBox::new(tid)
        }
    }

    /// Admit a point-to-point message in per-sender order: append it (and
    /// any unblocked stashed successors) to the mailbox, or stash it.
    /// `data` is the buffer `recv` will return — the sender's own `Vec`, or
    /// the arrival buffer taken over at delivery — so parking copies nothing.
    fn admit(&mut self, src: u64, seq: u64, tag: u64, data: Vec<u8>) {
        let expect = self.next_seq.entry(src).or_insert(0);
        if seq == *expect {
            *expect += 1;
            self.mailbox.push_back(Mail { src, tag, data });
            // Drain consecutive stashed messages from this source.
            while let Some((t, d)) = self.stashed.remove(&(src, *expect)) {
                *expect += 1;
                self.mailbox.push_back(Mail { src, tag: t, data: d });
            }
        } else if seq > *expect {
            self.stashed.insert((src, seq), (tag, data));
        }
        // seq < expect: a duplicate of a message already admitted (a
        // retransmission raced its ack, or a forwarding path replayed the
        // send). The per-sender sequence makes delivery idempotent — drop
        // it silently. A repeat of a stashed seq overwrites with identical
        // bytes, which is equally harmless.
    }

    /// The rank's runtime state as its image carries it, in a migration
    /// batch and a checkpoint frame alike. `image`
    /// turns each parked buffer into its image payload: a migration, whose
    /// box is already removed, moves it out; a checkpoint, whose box lives
    /// on (and whose matched boundary leaves the mailbox empty), copies it.
    pub(crate) fn move_rec(&mut self, rank: u64, mut image: impl FnMut(&mut Vec<u8>) -> Payload) -> MoveRec {
        debug_assert!(
            self.done.is_none() && !matches!(self.wait, Wait::Recv { .. }),
            "rank {rank} is packed in recv or with handed-over mail, which no image carries"
        );
        MoveRec {
            rank,
            mailbox: self.mailbox.iter_mut()
                .map(|m| MailEntry { src: m.src, tag: m.tag, data: image(&mut m.data) })
                .collect(),
            next_seq: seq_pairs(&self.next_seq),
            send_seq: seq_pairs(&self.send_seq),
            stashed: self.stashed.iter_mut()
                .map(|(&(src, seq), (tag, d))| (src, seq, *tag, image(d)))
                .collect(),
        }
    }

    /// Deliver a point-to-point message: [`RankBox::admit`] it, and when the
    /// rank waits in `recv` for mail it admits, hand the first match over to
    /// the completion slot and return the thread to wake. The waiter scanned
    /// the older mail already, so only the newly admitted mail is tested. The
    /// one delivery step of both paths: the routed one (`deliver`) and the
    /// same-PE one (`Ampi::send`).
    pub(crate) fn post(&mut self, src: u64, seq: u64, tag: u64, data: Vec<u8>) -> Option<ThreadId> {
        let old = self.mailbox.len();
        self.admit(src, seq, tag, data);
        let Wait::Recv { src, tag } = self.wait else {
            return None;
        };
        let i = old + self.mailbox.range(old..).position(|m| m.matches(src, tag))?;
        self.done = self.mailbox.remove(i);
        self.wait = Wait::None;
        Some(self.tid)
    }

    /// Complete round `seq` of reduction `tag` with its result: when the rank
    /// waits for exactly that round, fill the completion slot, clear the wait
    /// and return the thread to wake. The one wake of collectives, LB epochs
    /// and checkpoint cuts.
    pub(crate) fn complete(&mut self, tag: u64, seq: u64, data: Vec<u8>) -> Option<ThreadId> {
        if self.wait != (Wait::Reduction { tag, seq }) {
            return None;
        }
        self.done = Some(Mail { src: 0, tag, data });
        self.wait = Wait::None;
        Some(self.tid)
    }

    /// Remove and return the first message that matches, as `recv` returns
    /// it: `(source, tag, buffer)`.
    pub(crate) fn take(&mut self, src: Option<u64>, tag: Option<u64>) -> Option<(usize, u64, Vec<u8>)> {
        let i = self.mailbox.iter().position(|m| m.matches(src, tag))?;
        let m = self.mailbox.remove(i)?;
        Some((m.src as usize, m.tag, m.data))
    }
}

#[derive(Default)]
pub(crate) struct AmpiState {
    pub meta: Option<Arc<WorldMeta>>,
    pub ranks: IdMap<u64, RankBox>,
}

/// World-wide constants every PE knows.
#[allow(missing_docs)]
pub struct WorldMeta {
    pub size: usize,
    pub strategy: Arc<dyn LbStrategy + Send + Sync>,
    /// The rank main function — kept here so the online-recovery driver
    /// can respawn ranks from scratch when no checkpoint generation
    /// survives a failure.
    pub main: Arc<dyn Fn(&mut crate::Ampi) + Send + Sync>,
}

impl std::fmt::Debug for WorldMeta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorldMeta")
            .field("size", &self.size)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

/// The routed object id of rank `r`. Comm state is per-machine and each
/// machine hosts exactly one world, so the id — like the reduction tags
/// below and every AMPI record — names no world: a world has no id that
/// every process of a multi-process machine would agree on.
pub(crate) fn obj_of(rank: u64) -> ObjId {
    ObjId(rank)
}

/// Reduction tag of the collectives (barrier, reduce, allreduce).
pub(crate) const TAG_COLL: u64 = 0;
/// Reduction tag of the load-balancing gather.
pub(crate) const TAG_LB: u64 = 1;
/// Reduction tag of the coordinated checkpoint cut.
pub(crate) const TAG_CKPT: u64 = 2;

/// Block mapping of ranks onto PEs (AMPI's default).
pub fn pe_of_rank(rank: usize, ranks: usize, pes: usize) -> usize {
    rank * pes / ranks
}

/// Options for an AMPI run.
#[derive(Clone)]
pub struct AmpiOptions {
    /// Number of AMPI ranks (virtual processors).
    pub ranks: usize,
    /// Number of PEs (physical processors of the simulated machine).
    pub pes: usize,
    /// The load balancer invoked at `migrate()` points.
    pub strategy: Arc<dyn LbStrategy + Send + Sync>,
    /// Interconnect model.
    pub net: NetModel,
    /// Drive PEs on real OS threads (`false` = deterministic round-robin).
    pub threaded: bool,
    /// Advance virtual clocks by modeled costs only (no measured host
    /// CPU) — required for exactly-reproducible fault-injection runs.
    pub modeled_time: bool,
    /// Committed stack bytes per rank thread.
    pub stack_len: usize,
    /// Isomalloc slot bytes per rank thread (stack + heap).
    pub slot_len: usize,
    /// Fault plan injected into the machine. Scripted PE crashes need
    /// [`FaultPlan::online_recovery`] (the machine refuses them otherwise)
    /// and `modeled_time`; they are healed in place from the in-memory
    /// checkpoint shelf.
    pub faults: Option<FaultPlan>,
    /// Record a Projections-style event trace (see
    /// `MachineBuilder::tracing`); the reduction and raw rings ride in the
    /// returned `MachineReport`.
    pub tracing: bool,
    /// Span OS processes: this process drives the world's slice of the
    /// PEs and the rest live in sibling processes reached through the
    /// flows-net transport. Forces the threaded drive mode.
    pub multiproc: Option<Arc<flows_net::World>>,
}

impl AmpiOptions {
    /// `ranks` ranks over `pes` PEs, defaults elsewhere.
    pub fn new(ranks: usize, pes: usize) -> AmpiOptions {
        AmpiOptions {
            ranks,
            pes,
            strategy: Arc::new(NullLb),
            net: NetModel::default(),
            threaded: false,
            modeled_time: false,
            stack_len: 64 * 1024,
            slot_len: 1 << 20,
            faults: None,
            tracing: false,
            multiproc: None,
        }
    }

    /// Use a specific LB strategy.
    pub fn with_strategy(mut self, s: Arc<dyn LbStrategy + Send + Sync>) -> Self {
        self.strategy = s;
        self
    }

    /// Use a specific network model.
    pub fn with_net(mut self, net: NetModel) -> Self {
        self.net = net;
        self
    }

    /// Threaded drive mode.
    pub fn threaded(mut self, yes: bool) -> Self {
        self.threaded = yes;
        self
    }

    /// Modeled-cost-only virtual time (reproducible fault runs).
    pub fn modeled_time(mut self, yes: bool) -> Self {
        self.modeled_time = yes;
        self
    }

    /// Inject faults into the run: transport faults (drop/duplicate/
    /// delay/reorder), stalls, and — under [`FaultPlan::online_recovery`]
    /// and modeled time — PE crashes healed in place.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Record a Projections-style event trace of the run.
    pub fn tracing(mut self, yes: bool) -> Self {
        self.tracing = yes;
        self
    }

    /// Run this world across the processes of a [`flows_net::World`]
    /// (the machine spans `procs × pes_per_proc` PEs; `pes` must equal
    /// that product).
    pub fn multiproc(mut self, world: Arc<flows_net::World>) -> Self {
        self.multiproc = Some(world);
        self
    }
}

/// Run `main` as every rank of a fresh AMPI world. Returns the machine
/// report (virtual times, scheduler stats, recovery timeline) for the
/// harnesses. A plan with [`FaultPlan::online_recovery`] heals scripted
/// PE crashes in place; [`crate::run_world_ft`] reads the story back.
pub fn run_world(
    opts: AmpiOptions,
    main: impl Fn(&mut crate::Ampi) + Send + Sync + 'static,
) -> MachineReport {
    let pes = opts.pes;
    assert!(opts.ranks > 0 && pes > 0);
    assert!(
        opts.ranks >= pes,
        "AMPI needs at least one rank per PE (got {} ranks on {} PEs)",
        opts.ranks,
        pes
    );
    let recovers = opts.faults.as_ref().is_some_and(FaultPlan::recovers);
    assert!(
        !recovers || opts.modeled_time,
        "online recovery requires modeled time (deterministic replay)"
    );
    let meta = Arc::new(WorldMeta {
        size: opts.ranks,
        strategy: opts.strategy.clone(),
        main: Arc::new(main),
    });
    // Under recovery any single PE may end up hosting every rank after
    // repeated crashes; size the isomalloc region for that worst case.
    let slots_per_pe = (if recovers { opts.ranks + 2 } else { opts.ranks / pes + 2 }) * 2;

    let mut mb = MachineBuilder::new(pes)
        .net_model(opts.net)
        .modeled_time(opts.modeled_time)
        .tracing(opts.tracing)
        .sched_config(SchedConfig {
            stack_len: opts.stack_len,
            swap_kind: crate::proto::RANK_SWAP,
            ..SchedConfig::default()
        })
        .iso_layout(opts.slot_len, slots_per_pe);
    if let Some(p) = &opts.faults {
        mb = mb.fault_plan(p.clone());
    }
    let _ = CommLayer::register(&mut mb);
    mb.handler(on_lb_plan);
    mb.handler(on_move_batch);
    crate::recover::register(&mut mb);
    if recovers {
        mb = mb.on_death_confirmed(crate::recover::on_death_confirmed);
    }
    if let Some(w) = &opts.multiproc {
        mb = mb.multiproc(w.clone());
    }

    let init = move |pe: &Pe| init_pe(pe, &meta);
    // A multi-process machine has no deterministic round-robin mode: the
    // comm thread and the transport are inherently concurrent.
    let report = if opts.threaded || opts.multiproc.is_some() {
        mb.run(init)
    } else {
        mb.run_deterministic(init)
    };
    // A rank's panic ends only its own thread; it fails the run here.
    let panics = report.panicked_threads();
    assert!(panics == 0, "{panics} AMPI rank(s) panicked");
    report
}

fn init_pe(pe: &Pe, meta: &Arc<WorldMeta>) {
    pe.ext::<AmpiState, _>(|st| st.meta = Some(meta.clone()));
    flows_comm::set_delivery(pe, PORT_AMPI, deliver);
    let meta_for_sink = meta.clone();
    flows_comm::set_reduction_sink(pe, move |pe, red| on_reduction(pe, &meta_for_sink, red));

    for rank in 0..meta.size {
        if pe_of_rank(rank, meta.size, pe.num_pes()) == pe.id() {
            spawn_rank(pe, meta, rank as u64);
        }
    }
}

/// Spawn rank `rank`'s main thread fresh on this PE and register its
/// routed object (initial placement and scratch recovery respawn).
pub(crate) fn spawn_rank(pe: &Pe, meta: &Arc<WorldMeta>, rank: u64) {
    // The rank's stack must own no refcount: a rank that returned and is
    // then rolled back to a checkpoint taken before it returned would drop
    // a stack-held clone a second time. It calls through a non-owning
    // pointer instead; `WorldMeta` owns the closure for the world's life
    // (every PE's `AmpiState` holds the meta until machine teardown), so
    // user closures drop exactly once, at world end. Cross-process worlds
    // additionally require a capture-free `main` (a plain `fn`): a rank
    // respawned in another process from its image still runs inside the
    // call, and a closure environment would be read through a pointer into
    // the spawning process's heap.
    let main = Arc::as_ptr(&meta.main);
    let size = meta.size;
    let tid = pe
        .sched()
        .spawn(StackFlavor::Isomalloc, move || {
            let mut ampi = crate::Ampi::new(rank as usize, size);
            // SAFETY: the pointee is `meta.main`, kept alive by the world
            // meta past every rank thread's life (see above).
            unsafe { (*main)(&mut ampi) };
            ampi.finish();
        })
        .expect("spawn rank thread");
    pe.ext::<AmpiState, _>(|st| {
        st.ranks.insert(rank, RankBox::new(tid));
    });
    flows_comm::register_obj(pe, obj_of(rank));
}

/// Routed delivery to a rank living on this PE. The payload is the raw
/// message bytes followed by a pup'd [`RankWire`] header; the bytes are
/// sliced off as a prefix of the arrival buffer. Point-to-point mail takes
/// that buffer over at admission ([`Payload::into_vec`]), so the user data
/// reaches the mailbox — and, through `recv`, the user — without being
/// copied out of it; a view still shared (a link's retransmit table, an
/// shm slot) or inline is copied here instead, and the slot released.
fn deliver(pe: &Pe, obj: ObjId, payload: Payload) {
    let Some((w, data)) = parse_rank_wire(&payload) else {
        flows_comm::drop_malformed(pe);
        return;
    };
    // The prefix view must be the buffer's only one for `into_vec` to take it.
    drop(payload);
    let rank = obj.0 & 0xFFFF_FFFF;
    // Runtime commands (collective results, checkpoint orders) stamp the sender's recovery epoch in `seq`; one computed
    // before a rollback targets a cut that no longer exists and must be
    // dropped. Point-to-point mail (kind 0) instead relies on per-sender
    // rank sequence numbers: deterministic replay from the restored cut
    // regenerates byte-identical copies, which `admit` de-duplicates.
    if matches!(w.kind, 1 | 3) && w.seq != flows_comm::comm_epoch(pe) {
        return;
    }
    if w.kind == 3 {
        // A checkpoint order, the only other kind `parse_rank_wire` admits.
        return on_ckpt_snapshot(pe, rank, w.a);
    }
    // Point-to-point mail (kind 0) or a collective's result (kind 1).
    let wake = pe.ext::<AmpiState, _>(|st| {
        let b = st.ranks.get_mut(&rank).expect("wire for missing rank");
        match w.kind {
            0 => b.post(w.a, w.seq, w.b, data.into_vec()),
            _ => b.complete(TAG_COLL, w.a, data.into_vec()),
        }
    });
    if let Some(tid) = wake {
        pe.sched().awaken_tid(tid).expect("awaken rank");
    }
}

/// A checkpoint command arrived for a rank suspended in `checkpoint()`:
/// pack the rank exactly as a migration would, deposit the image on this
/// PE's in-memory checkpoint shelf, then unpack it in place and let it keep
/// running — a checkpoint *is* a migration whose destination is storage
/// (§4.5).
fn on_ckpt_snapshot(pe: &Pe, rank: u64, seq: u64) {
    let (tid, mut rec) = pe.ext::<AmpiState, _>(|st| {
        let b = st.ranks.get_mut(&rank).expect("checkpoint for missing rank");
        let want = Wait::Reduction { tag: TAG_CKPT, seq };
        assert_eq!(b.wait, want, "rank {rank} got a checkpoint command it was not waiting for");
        (b.tid, b.move_rec(rank, |d| Payload::from(&d[..])))
    });
    assert_eq!(
        pe.sched().state(tid),
        Some(ThreadState::Suspended),
        "rank {rank} must be suspended at its checkpoint() point"
    );
    let mut packed = pe.sched().pack_thread(tid).expect("pack rank for checkpoint");
    flows_trace::emit(
        flows_trace::EventKind::Checkpoint,
        rank,
        seq,
        packed.payload_len() as u64,
    );
    // The image is packed into its checkpoint frame on the shelf (own
    // copy), the thread bytes straight from the buffer `pack_thread`
    // filled, and later goes over the wire to the plan's buddy PEs.
    crate::recover::deposit_checkpoint(pe, seq, &mut rec, &mut packed);
    let back = pe.sched().unpack_thread(packed).expect("unpack after checkpoint");
    debug_assert_eq!(back, tid);
    let wake = pe.ext::<AmpiState, _>(|st| {
        let b = st.ranks.get_mut(&rank).expect("rank survives snapshot");
        b.complete(TAG_CKPT, seq, Vec::new())
    });
    debug_assert_eq!(wake, Some(tid));
    pe.sched().awaken_tid(tid).expect("awaken checkpointed rank");
    // Last local rank through its snapshot? Then this PE's slice of
    // generation `seq` is complete: replicate it to the buddies and vote
    // for the global commit.
    let pending = pe.ext::<AmpiState, _>(|st| {
        st.ranks
            .values()
            .any(|b| b.wait == Wait::Reduction { tag: TAG_CKPT, seq })
    });
    if !pending {
        crate::recover::finalize_generation(pe, seq);
    }
}

/// Reduction completions: collectives broadcast their result to every
/// rank; the LB reduction runs the strategy and broadcasts decisions.
fn on_reduction(pe: &Pe, meta: &Arc<WorldMeta>, red: flows_comm::Reduction) {
    if red.tag == TAG_COLL {
        // Each rank's wire is packed straight from the reduced bytes: one
        // copy per rank, which its routing hops then forward in place.
        let mut w = RankWire {
            kind: 1,
            a: red.seq,
            b: 0,
            seq: flows_comm::comm_epoch(pe),
        };
        for r in 0..meta.size as u64 {
            route_rank_wire(pe, obj_of(r), &mut w, &red.data);
        }
    } else if red.tag == TAG_CKPT {
        // Every rank reached its checkpoint() call — a coordinated
        // consistent cut. Order each rank, wherever it currently lives, to
        // snapshot itself.
        let mut w = RankWire {
            kind: 3,
            a: red.seq,
            b: 0,
            seq: flows_comm::comm_epoch(pe),
        };
        for r in 0..meta.size as u64 {
            route_rank_wire(pe, obj_of(r), &mut w, &[]);
        }
    } else if red.tag == TAG_LB {
        // The gathered load reports crossed process boundaries in a
        // multi-process world: a malformed gather is a counted drop.
        let Some(reports) = decode_load_reports(&red.data) else {
            flows_comm::drop_malformed(pe);
            return;
        };
        let stats = LbStats {
            num_pes: pe.num_pes(),
            objs: reports
                .iter()
                .map(|r| ObjLoad {
                    id: r.rank,
                    pe: r.pe as usize,
                    load: r.load_ns as f64 * 1e-9,
                    migratable: true,
                })
                .collect(),
            background: Vec::new(),
        };
        let migs = meta.strategy.decide(&stats);
        flows_trace::emit(
            flows_trace::EventKind::LbEpoch,
            red.seq,
            migs.len() as u64,
            reports.len() as u64,
        );
        let dest_of: IdMap<u64, usize> = migs.iter().map(|m| (m.obj, m.to)).collect();
        // One plan message per source PE instead of one decision wire per
        // rank. Every reporting rank is suspended in migrate(), so the PE
        // it reported from is where it still lives.
        let mut plans: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        for rep in &reports {
            let dest = dest_of.get(&rep.rank).copied().unwrap_or(rep.pe as usize);
            plans
                .entry(rep.pe as usize)
                .or_default()
                .push((rep.rank, dest as u64));
        }
        for (src, mut entries) in plans {
            entries.sort_unstable(); // deterministic handling order
            let mut p = PlanMsg {
                seq: red.seq,
                epoch: flows_comm::comm_epoch(pe),
                entries,
            };
            pe.send(src, pe.handler_of(on_lb_plan), pe.pack_payload(&mut p));
        }
    } else {
        panic!("reduction for unknown tag {}", red.tag);
    }
}

/// The concatenated [`LoadReport`]s of an LB reduction; `None` unless the
/// bytes are whole reports and nothing else.
pub(crate) fn decode_load_reports(mut rest: &[u8]) -> Option<Vec<LoadReport>> {
    let mut reports = Vec::new();
    while !rest.is_empty() {
        let (rep, used): (LoadReport, usize) = flows_pup::from_bytes_prefix(rest).ok()?;
        reports.push(rep);
        rest = &rest[used..];
    }
    Some(reports)
}

/// This PE's slice of an LB plan arrived: wake the stayers; pack the
/// movers and ship them, with every mover bound for the same destination
/// sharing ONE wire message — a pup'd [`BatchHead`] followed by `count`
/// rank images.
fn on_lb_plan(pe: &Pe, msg: Message) {
    let Ok(plan) = flows_pup::from_bytes::<PlanMsg>(&msg.data) else {
        flows_comm::drop_malformed(pe);
        return;
    };
    if plan.epoch != flows_comm::comm_epoch(pe) {
        return; // plan computed against a pre-rollback placement
    }
    let mut batches: BTreeMap<usize, Vec<(MoveRec, PackedThread)>> = BTreeMap::new();
    for &(rank, dest) in &plan.entries {
        let dest = dest as usize;
        if dest == pe.id() {
            // Staying: wake the rank, roll its load epoch.
            let tid = pe.ext::<AmpiState, _>(|st| {
                let b = st.ranks.get_mut(&rank).expect("plan for missing rank");
                b.complete(TAG_LB, plan.seq, Vec::new())
            });
            let tid =
                tid.unwrap_or_else(|| panic!("rank {rank} got an LB plan it was not waiting for"));
            pe.sched().reset_load_tid(tid);
            pe.sched().awaken_tid(tid).expect("awaken stayer");
            continue;
        }
        // Moving: pack the thread and its runtime state, queue it on the
        // destination's batch.
        let mut bx =
            pe.ext::<AmpiState, _>(|st| st.ranks.remove(&rank).expect("plan for missing rank"));
        assert_eq!(
            pe.sched().state(bx.tid),
            Some(ThreadState::Suspended),
            "rank {rank} must be suspended at its migrate() point"
        );
        let packed = pe.sched().pack_thread(bx.tid).expect("pack rank thread");
        flows_comm::migrate_obj_out(pe, obj_of(rank), dest);
        let rec = bx.move_rec(rank, |d| Payload::from_vec(std::mem::take(d)));
        batches.entry(dest).or_default().push((rec, packed));
    }
    for (dest, movers) in batches {
        let mut head = BatchHead {
            epoch: flows_comm::comm_epoch(pe),
            count: movers.len() as u64,
        };
        let cap = movers.iter().map(|(_, p)| p.payload_len() + 256).sum::<usize>();
        let mut buf = pe.payload_buf_with_capacity(32 + cap);
        flows_pup::pack_into(&mut head, buf.vec_mut());
        for (mut rec, packed) in movers {
            pack_rank_image(buf.vec_mut(), &mut rec, &packed);
        }
        LB_BATCH_MSGS.fetch_add(1, Ordering::Relaxed);
        pe.send(dest, pe.handler_of(on_move_batch), buf.freeze());
    }
}

/// Decode a whole migration batch: its head and every rank image, each
/// thread a zero-copy slice of `data`. `None` unless the bytes are exactly
/// `count` well-formed images behind the head.
pub(crate) fn decode_move_batch(data: &Payload) -> Option<(BatchHead, Vec<(MoveRec, PackedThread)>)> {
    let (head, mut off): (BatchHead, usize) = flows_pup::from_bytes_prefix(data).ok()?;
    let mut movers = Vec::new();
    for _ in 0..head.count {
        let (rec, thread, used) = decode_rank_image(data, off)?;
        off += used;
        movers.push((rec, thread));
    }
    (off == data.len()).then_some((head, movers))
}

/// Land a decoded rank image on this PE: unpack its thread (suspended, as
/// it was packed), rebuild its box, take its routed object in and start
/// its load epoch afresh. Returns the thread, which the caller wakes
/// (migration) or leaves asleep until recovery resumes (respawn).
pub(crate) fn land_rank(pe: &Pe, rec: MoveRec, thread: PackedThread) -> ThreadId {
    let tid = pe.sched().unpack_thread(thread).expect("unpack rank image");
    let rank = rec.rank;
    pe.ext::<AmpiState, _>(|st| {
        st.ranks.insert(rank, RankBox::from_rec(tid, rec));
    });
    flows_comm::migrate_obj_in(pe, obj_of(rank));
    pe.sched().reset_load_tid(tid);
    tid
}

/// A batch of migrated ranks arrives. The whole batch is decoded before
/// any rank is unpacked, so a malformed one is a counted drop that leaves
/// nothing half-applied.
fn on_move_batch(pe: &Pe, msg: Message) {
    let Some((head, movers)) = decode_move_batch(&msg.data) else {
        flows_comm::drop_malformed(pe);
        return;
    };
    if head.epoch != flows_comm::comm_epoch(pe) {
        return; // in-flight movers carry post-rollback-cut state; shelf wins
    }
    for (rec, thread) in movers {
        let tid = land_rank(pe, rec, thread);
        pe.sched().awaken_tid(tid).expect("awaken migrated rank");
    }
}

/// Internal accessors used by the `Ampi` handle (crate-private).
pub(crate) fn with_rank_box<R>(rank: u64, f: impl FnOnce(&mut RankBox) -> R) -> R {
    flows_converse::with_pe(|pe| {
        pe.ext::<AmpiState, _>(|st| {
            f(st.ranks.get_mut(&rank).expect("rank box on current PE"))
        })
    })
}

pub(crate) fn note_finished(rank: u64) {
    flows_converse::with_pe(|pe| {
        pe.ext::<AmpiState, _>(|st| {
            st.ranks.remove(&rank);
        });
    });
}

pub(crate) fn contribute_now(tag: u64, seq: u64, rank: u64, op: ReduceOp, size: usize, data: Vec<u8>) {
    flows_converse::with_pe(|pe| {
        flows_comm::contribute(pe, tag, seq, rank, op, size as u64, data)
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An LB plan, migration batches and an LB load-report gather that do
    /// not decode are counted drops (`flows_comm::route_drops`), never a
    /// panic: all three cross process boundaries in multi-process worlds.
    /// A batch whose thread was packed for the `Full` swap kind is one:
    /// AMPI's schedulers could not unpack it.
    #[test]
    fn malformed_lb_wires_are_counted_drops() {
        let drops = Arc::new(AtomicU64::new(u64::MAX));
        let d2 = drops.clone();
        let opts = AmpiOptions::new(1, 1).with_net(NetModel::zero());
        run_world(opts, move |ampi| {
            flows_converse::with_pe(|pe| {
                let garbage = vec![0xA5u8; 100];
                pe.send(0, pe.handler_of(on_lb_plan), garbage.clone());
                pe.send(0, pe.handler_of(on_move_batch), garbage.clone());
                pe.send(0, pe.handler_of(on_move_batch), bad_head_batch(9, 9).to_vec());
                pe.send(0, pe.handler_of(on_move_batch), bad_head_batch(8, 1).to_vec());
                // A one-rank gather completes at once, on this PE.
                flows_comm::contribute(pe, TAG_LB, 1 << 40, 0, ReduceOp::Concat, 1, garbage);
            });
            // All five were queued on this PE ahead of the contribution.
            ampi.barrier();
            d2.store(flows_converse::with_pe(flows_comm::route_drops), Ordering::Relaxed);
        });
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    /// A well-formed one-rank batch whose thread head carries `tag` at byte
    /// `at`: the head is id (8 bytes), swap kind, then the flavor tag.
    fn bad_head_batch(at: usize, tag: u8) -> Payload {
        let mut thread = crate::proto::thread_wire(&[7; 16]);
        let mut batch = flows_pup::to_bytes(&mut BatchHead { epoch: 0, count: 1 });
        flows_pup::pack_into(&mut MoveRec { rank: 5, ..MoveRec::default() }, &mut batch);
        let good = [batch.clone(), thread.clone()].concat();
        assert!(decode_move_batch(&good.into()).is_some(), "a Minimal flavor-0 head decodes");
        thread[at] = tag;
        batch.extend_from_slice(&thread);
        let batch: Payload = batch.into();
        assert!(decode_move_batch(&batch).is_none(), "the decoder refuses tag {tag} at byte {at}");
        batch
    }

    /// A rank's image bytes depend on its sequence counters, not on the
    /// order they were created in: the image carries them as sorted pairs.
    #[test]
    fn rank_images_do_not_depend_on_counter_insertion_order() {
        let counters: Vec<(u64, u64)> = (0..200u64).map(|r| (r * 37 % 211, r + 1)).collect();
        let mut a = RankBox::new(ThreadId(9));
        let mut b = RankBox::new(ThreadId(9));
        for &(peer, n) in &counters {
            a.next_seq.insert(peer, n);
            a.send_seq.insert(peer + 1000, 2 * n);
        }
        for &(peer, n) in counters.iter().rev() {
            b.send_seq.insert(peer + 1000, 2 * n);
            b.next_seq.insert(peer, n);
        }
        assert!(
            !a.next_seq.iter().eq(b.next_seq.iter()),
            "the maps must iterate differently for this pin to bite"
        );
        let copy = |d: &mut Vec<u8>| Payload::from(&d[..]);
        let (mut ra, mut rb) = (a.move_rec(3, copy), b.move_rec(3, copy));
        assert_eq!(flows_pup::to_bytes(&mut ra), flows_pup::to_bytes(&mut rb));
    }

    /// A rank's image bytes, pinned word by word: a box whose mailbox
    /// holds a message of at most `INLINE_CAP` bytes and a larger one, and
    /// whose stash holds one more. A checkpoint frame's payload, copied out
    /// of a staying box, is byte for byte the record a one-rank LB batch
    /// carries for the same box moved out of a leaving one; both arrival
    /// paths — migration and recovery respawn — decode it with the one
    /// decoder and rebuild a box with the same mail.
    #[test]
    fn rank_image_bytes_are_pinned_and_unpack_to_the_same_mail() {
        fn words(ws: &[u64]) -> Vec<u8> {
            ws.iter().flat_map(|w| w.to_le_bytes()).collect()
        }
        fn filled() -> RankBox {
            let mut b = RankBox::new(ThreadId(9));
            b.post(1, 0, 9, vec![1, 2, 3]);
            b.post(2, 0, 4, vec![0xAB; 100]);
            b.post(1, 2, 9, vec![0xCD; 70]); // rank 1's seq 1 is missing
            b.send_seq.insert(5, 3);
            b
        }
        /// (src, seq — `u64::MAX` in the mailbox — tag, bytes), then the
        /// sequence tables.
        type Mail = (Vec<(u64, u64, u64, Vec<u8>)>, Vec<(u64, u64)>, Vec<(u64, u64)>);
        fn mail(b: &RankBox) -> Mail {
            let parked = b.mailbox.iter().map(|m| (m.src, u64::MAX, m.tag, m.data.to_vec()));
            let stashed = (b.stashed.iter()).map(|(&(src, seq), (tag, d))| (src, seq, *tag, d.to_vec()));
            (parked.chain(stashed).collect(), seq_pairs(&b.next_seq), seq_pairs(&b.send_seq))
        }
        // The record, then the thread: a default head (40 bytes, zero but
        // its trailing `payload_len` of 16) and 16 payload bytes.
        let image_bytes = [
            words(&[3, 2, 1, 9, 3]),
            vec![1, 2, 3],
            words(&[2, 4, 100]),
            vec![0xAB; 100],
            words(&[2, 1, 1, 2, 1]), // next_seq: (1, 1), (2, 1)
            words(&[1, 5, 3]),       // send_seq: (5, 3)
            words(&[1, 1, 2, 9, 70]),
            vec![0xCD; 70],
            vec![0; 32],
            words(&[16]),
            vec![7; 16],
        ]
        .concat();
        let mut thread = PackedThread::from_bytes(&image_bytes[image_bytes.len() - 56..]).unwrap();

        let mut staying = filled();
        let want = mail(&staying);
        assert_eq!(want.0.len(), 3);
        let mut rec = staying.move_rec(3, |d| Payload::from(&d[..]));
        assert_eq!(mail(&staying), want, "a checkpoint leaves the mail in place");
        let frame = crate::recover::frame_image(&mut rec, &mut thread);
        let image = flows_core::unframe_payload(&frame).expect("checkpoint frame");
        assert_eq!(image, &image_bytes[..]);

        let mut leaving = filled().move_rec(3, |d| Payload::from_vec(std::mem::take(d)));
        let mut batch = flows_pup::to_bytes(&mut BatchHead { epoch: 2, count: 1 });
        let head_len = batch.len();
        pack_rank_image(&mut batch, &mut leaving, &thread);
        assert_eq!(&batch[head_len..], image, "the frame's payload is the batch record");

        let (_, movers) = decode_move_batch(&batch.into()).expect("one-rank batch");
        let (rec, back) = movers.into_iter().next().expect("the record");
        assert_eq!(back, thread, "migration arrival thread");
        assert_eq!(mail(&RankBox::from_rec(ThreadId(9), rec)), want, "migration arrival");
        let (rec, back) = crate::recover::decode_image(&frame, 3).expect("replica image");
        assert_eq!(back, thread, "recovery respawn thread");
        assert_eq!(mail(&RankBox::from_rec(ThreadId(9), rec)), want, "recovery respawn");
    }

    fn mail(b: &RankBox) -> Vec<(u64, u64, Vec<u8>)> {
        b.mailbox.iter().map(|m| (m.src, m.tag, m.data.clone())).collect()
    }

    /// An admission that drains stashed successors hands the first of them
    /// that the `recv` wait matches, in per-sender order, to the completion
    /// slot, and queues the rest in order.
    #[test]
    fn post_hands_over_the_first_match_and_queues_the_rest() {
        let mut b = RankBox::new(ThreadId(9));
        b.wait = Wait::Recv { src: Some(1), tag: Some(9) };
        for (seq, tag) in [(3, 5), (2, 9), (1, 9)] {
            assert_eq!(b.post(1, seq, tag, vec![seq as u8]), None, "seq {seq} is stashed");
        }
        assert_eq!(b.post(1, 0, 4, vec![0]), Some(ThreadId(9)));
        assert_eq!(b.wait, Wait::None);
        let m = b.done.take().expect("mail handed over");
        assert_eq!((m.src, m.tag, m.data), (1, 9, vec![1]));
        assert_eq!(mail(&b), [(1, 4, vec![0]), (1, 9, vec![2]), (1, 5, vec![3])]);
        assert!(b.stashed.is_empty());
    }

    /// Mail the `recv` wait does not match — another source, or a reserved
    /// tag under a wildcard — stays in the mailbox and wakes no one.
    #[test]
    fn a_non_matching_arrival_stays_in_the_mailbox() {
        let mut b = RankBox::new(ThreadId(9));
        let wait = Wait::Recv { src: Some(1), tag: None };
        b.wait = wait;
        assert_eq!(b.post(2, 0, 9, vec![1]), None);
        assert_eq!(b.post(1, 0, RESERVED_TAG_BASE + 1, vec![2]), None);
        assert_eq!((b.wait, b.done.is_none()), (wait, true));
        assert_eq!(mail(&b), [(2, 9, vec![1]), (1, RESERVED_TAG_BASE + 1, vec![2])]);
        assert_eq!(b.take(None, None), Some((2, 9, vec![1])), "a wildcard takes user tags only");
        assert_eq!(b.take(None, None), None);
    }

    /// `complete` wakes only the round the rank waits for: another tag,
    /// another round or a `recv` wait wakes no one and leaves the slot empty.
    #[test]
    fn complete_wakes_only_the_awaited_round() {
        let mut b = RankBox::new(ThreadId(9));
        let wait = Wait::Reduction { tag: TAG_COLL, seq: 3 };
        b.wait = wait;
        assert_eq!(b.complete(TAG_COLL, 2, vec![1]), None);
        assert_eq!(b.complete(TAG_LB, 3, vec![1]), None);
        assert_eq!((b.wait, b.done.is_none()), (wait, true));
        b.wait = Wait::Recv { src: None, tag: None };
        assert_eq!(b.complete(TAG_COLL, 3, vec![1]), None);
        assert!(b.done.is_none());
        b.wait = wait;
        assert_eq!(b.complete(TAG_COLL, 3, vec![7]), Some(ThreadId(9)));
        assert_eq!((b.wait, b.done.take().map(|m| m.data)), (Wait::None, Some(vec![7])));
    }

    /// The completion slot and the `recv` wait are not part of a rank's
    /// image, so packing a box that holds either is a bug `move_rec` trips on.
    #[test]
    #[cfg(debug_assertions)]
    fn move_rec_refuses_a_box_in_recv_or_with_handed_over_mail() {
        let pack = |mut b: RankBox| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                b.move_rec(3, |d| Payload::from(&d[..]));
            }));
            r.expect_err("move_rec must refuse the box")
        };
        let mut b = RankBox::new(ThreadId(9));
        b.wait = Wait::Recv { src: None, tag: None };
        b.post(1, 0, 9, vec![1]);
        assert!(b.done.is_some());
        pack(b);
        let mut b = RankBox::new(ThreadId(9));
        b.wait = Wait::Recv { src: None, tag: Some(9) };
        pack(b);
    }

    /// A batch decodes only as exactly `count` records behind its head.
    #[test]
    fn move_batch_decoder_wants_exactly_count_records() {
        let batch = |count: u64, tail: &[u8]| {
            let mut head = BatchHead { epoch: 0, count };
            let mut v = flows_pup::to_bytes(&mut head);
            v.extend_from_slice(tail);
            Payload::from(v)
        };
        let (head, movers) = decode_move_batch(&batch(0, &[])).expect("empty batch");
        assert_eq!((head.count, movers.len()), (0, 0));
        assert!(decode_move_batch(&batch(0, &[7])).is_none(), "trailing byte");
        assert!(decode_move_batch(&batch(1, &[])).is_none(), "missing record");
        assert!(decode_move_batch(&batch(u64::MAX, &[0; 64])).is_none(), "hostile count");
    }
}
