//! Online recovery: in-memory buddy checkpoints and in-place healing —
//! the one checkpoint store and the one crash path. A crash never tears
//! the world down: the surviving PEs' schedulers stay alive and heal
//! around the failure:
//!
//! * **Buddy replication.** Every checkpoint generation a PE packs each
//!   local rank image once, straight into its checkpoint frame (magic,
//!   format version 3 and a word-lane FNV-1a checksum written in place by
//!   `flows_core::frame_in_place`). The image is exactly the record an LB
//!   batch carries for the rank — its `MoveRec` and then its raw
//!   `PackedThread` bytes — so a checkpoint is a migration whose
//!   destination is memory. The PE deposits that frame on an in-memory
//!   *shelf* and ships it to its next `k` live ring successors (`k` is the
//!   plan's replication degree; 0 without recovery, when the images stay
//!   on their own shelf until the commit prunes them). Frames are
//!   shared [`Payload`]s: the shelf, the replication batch builder and a
//!   recovery re-replication hold the same bytes by refcount, and a buddy
//!   shelves zero-copy slices of the batch it received. A generation is
//!   *committed* (optimistically) once every owner has all its buddy acks
//!   and the commit coordinator has seen deposits covering every rank.
//! * **Failure detection.** The converse layer's phi-accrual detector
//!   confirms a silent PE dead, fences it, and invokes the
//!   death-confirmed upcall on the confirming PE — the *recovery leader*.
//! * **Recovery protocol.** The leader allocates a fresh machine-wide
//!   *recovery epoch* and drives START → INVENTORY → PLAN → PLAN_DONE →
//!   RESUME. On START every survivor rolls back: it discards all rank
//!   threads, purges pending reductions and dead locations, adopts the
//!   epoch (all epoch-stamped traffic from before the rollback is dropped
//!   on sight from here on) and reports its checksum-valid shelf holdings.
//!   The leader picks the newest generation with full rank coverage —
//!   falling back to older generations when copies are missing or
//!   corrupt, and to a from-scratch restart of every rank on the
//!   survivors when none survives (the paper's restart on fewer
//!   processors, recorded as a `Restart` phase) — and
//!   broadcasts a holder-constrained respawn assignment. Survivors unpack
//!   their assigned ranks through the normal migration path (suspended:
//!   admission stays paused), re-replicate the adopted images to new
//!   buddies, and report done. An image lands through the same decoder
//!   and landing step as a migrated rank. On RESUME every rank is
//!   awakened and the machine quiesces normally — no scheduler was ever
//!   torn down.
//!
//! A crash *during* recovery confirms on some survivor, which starts a
//! round with a larger epoch covering every unhealed death; the stale
//! round's messages are dropped everywhere and its partial state is
//! re-rolled-back by the new START.

use crate::proto::{ctl, decode_rank_image, pack_rank_image, CtlMsg, MoveRec, RepHead, RepRec};
use crate::world::{land_rank, obj_of, pe_of_rank, AmpiState};
use flows_converse::{IdMap, MachineBuilder, Message, Payload, Pe, RecoveryPhase};
use flows_core::{frame_in_place, unframe_payload, PackedThread, ThreadId, ThreadState, FRAME_HEADER_LEN};
use std::collections::BTreeMap;

/// Marks a shelf holding as *owned* (the rank lived on the holder at
/// deposit time) in inventory pairs.
pub(crate) const OWN_BIT: u64 = 1 << 63;

/// Fixed key whose live mapping picks the commit coordinator.
const CTL_KEY: u64 = 0;

/// One shelved checkpoint image: the framed (checksummed) rank image
/// bytes. The frame is shared,
/// never copied: an own deposit is the buffer the image was packed into,
/// a buddy copy is a slice of the replication batch it arrived in.
struct Replica {
    frame: Payload,
    /// The rank lived on this PE when the image was taken (or was adopted
    /// here by a recovery plan) — owners respawn their ranks in place.
    own: bool,
}

/// Leader-side state of one recovery round.
struct LeaderState {
    epoch: u64,
    dead_mask: u64,
    live_mask: u64,
    inventories: BTreeMap<usize, Vec<(u64, u64)>>,
    plan_done: u64,
    genp1: u64,
}

#[derive(Default)]
pub(crate) struct RecoverState {
    /// generation → rank → replica (own deposits and buddy copies).
    shelf: BTreeMap<u64, IdMap<u64, Replica>>,
    /// Steady-state replication: generation → (acks outstanding, own rank
    /// count to report in the commit vote).
    await_acks: IdMap<u64, (usize, u64)>,
    /// Recovery re-replication acks outstanding (purpose-1).
    rec_acks: usize,
    /// Commit coordinator: generation → (voter mask, rank-count sum).
    votes: IdMap<u64, (u64, u64)>,
    /// Latest globally-committed generation + 1 (0 = none yet).
    committed_p1: u64,
    /// Idempotency guards: last epoch each phase ran at. The rollback's is
    /// the PE's adopted epoch itself, [`flows_comm::comm_epoch`]: traffic
    /// stamped older is stale.
    planned: u64,
    resumed: u64,
    /// Dead PEs whose recovery has completed (they stay fenced forever).
    healed: u64,
    /// Ranks to spawn from scratch at RESUME (no generation survived).
    scratch: Vec<u64>,
    /// Leader this PE's PLAN_DONE goes to.
    plan_leader: usize,
    leader: Option<LeaderState>,
    /// Recovery traffic dropped as invalid: replica frames failing their
    /// checksum, and replica batches or control messages that do not
    /// decode.
    invalid_msgs: u64,
}

/// Register the recovery control + replication handlers on this machine;
/// PEs find their ids with [`Pe::handler_of`].
pub(crate) fn register(mb: &mut MachineBuilder) {
    mb.handler(on_ctl);
    mb.handler(on_replica);
}

/// The plan's buddy-replication degree (0 without a plan).
fn replication(pe: &Pe) -> usize {
    pe.fault_plan().map_or(0, |p| p.replication)
}

/// This PE's `k` buddies: the next `k` ring successors not in `dead_mask`.
pub(crate) fn buddies_of(me: usize, n: usize, k: usize, dead_mask: u64) -> Vec<usize> {
    (1..n)
        .map(|i| (me + i) % n)
        .filter(|&c| dead_mask & (1 << c) == 0)
        .take(k)
        .collect()
}

/// Pick the rollback generation and respawn assignment from the
/// survivors' inventories (pairs of `(gen, rank | OWN_BIT)`): the newest
/// generation where every rank has at least one valid holder, each rank
/// assigned to its owner when the owner survives, otherwise to the
/// least-loaded holder. Pure — property-tested below. `None` means no
/// complete generation survives (restart from scratch).
pub(crate) fn best_gen(
    size: usize,
    inventories: &BTreeMap<usize, Vec<(u64, u64)>>,
) -> Option<(u64, Vec<(u64, u64)>)> {
    let mut gens: BTreeMap<u64, IdMap<u64, Vec<(bool, usize)>>> = BTreeMap::new();
    for (&pe, holdings) in inventories {
        for &(gen, coded) in holdings {
            let rank = coded & !OWN_BIT;
            let own = coded & OWN_BIT != 0;
            gens.entry(gen).or_default().entry(rank).or_default().push((own, pe));
        }
    }
    for (&gen, ranks) in gens.iter().rev() {
        if !(0..size as u64).all(|r| ranks.contains_key(&r)) {
            continue;
        }
        let mut assigned: IdMap<usize, usize> = IdMap::default();
        let mut assign = Vec::with_capacity(size);
        let mut orphans: Vec<u64> = Vec::new();
        for r in 0..size as u64 {
            let mut holders = ranks[&r].clone();
            holders.sort_unstable();
            // Owner-held ranks respawn in place (no image moves, survivor
            // placement is undisturbed).
            if let Some(&(_, pe)) = holders.iter().find(|&&(own, _)| own) {
                assign.push((r, pe as u64));
                *assigned.entry(pe).or_default() += 1;
            } else {
                orphans.push(r);
            }
        }
        // Orphans (the dead PE's ranks) go to the least-loaded holder;
        // ties break on PE id so every survivor computes the same plan.
        for r in orphans {
            let mut holders: Vec<usize> = ranks[&r].iter().map(|&(_, pe)| pe).collect();
            holders.sort_unstable();
            holders.dedup();
            let pe = *holders
                .iter()
                .min_by_key(|&&pe| (assigned.get(&pe).copied().unwrap_or(0), pe))
                .expect("coverage checked");
            assign.push((r, pe as u64));
            *assigned.entry(pe).or_default() += 1;
        }
        assign.sort_unstable();
        return Some((gen, assign));
    }
    None
}

// ---------------------------------------------------------------------
// Healthy path: shelf deposits, buddy replication, commit votes.
// ---------------------------------------------------------------------

/// Pack a rank image exactly once, straight into its checkpoint frame:
/// the buffer is sized by a sizing pass (arithmetic over the field
/// lengths once pup's primitives inline) and the frame header is written
/// in place in front of the image, whose bytes are the ones
/// [`pack_rank_image`] appends to an LB batch.
pub(crate) fn frame_image(rec: &mut MoveRec, thread: &mut PackedThread) -> Payload {
    let len = flows_pup::packed_size(rec) + flows_pup::packed_size(thread);
    let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + len);
    frame_in_place(&mut frame, |out| pack_rank_image(out, rec, thread));
    Payload::from_vec(frame)
}

/// Deposit one local rank's image for generation `gen` (called from the
/// checkpoint snapshot path). The image is packed into its
/// frame here, once; that one buffer is the shelf's own copy and the
/// source of every buddy replica.
pub(crate) fn deposit_checkpoint(pe: &Pe, gen: u64, rec: &mut MoveRec, thread: &mut PackedThread) {
    let rank = rec.rank;
    let frame = frame_image(rec, thread);
    pe.ext::<RecoverState, _>(|rs| {
        rs.shelf.entry(gen).or_default().insert(rank, Replica { frame, own: true });
    });
}

/// All local ranks have deposited generation `gen`: ship the images to
/// this PE's buddies; once every buddy acks, vote for the commit.
pub(crate) fn finalize_generation(pe: &Pe, gen: u64) {
    let k = replication(pe);
    let buddies = buddies_of(pe.id(), pe.num_pes(), k, pe.confirmed_dead_mask());
    let epoch = flows_comm::comm_epoch(pe);
    let own: Vec<(u64, Payload)> = pe.ext::<RecoverState, _>(|rs| {
        let mut own: Vec<(u64, Payload)> = rs
            .shelf
            .get(&gen)
            .map(|g| {
                g.iter()
                    .filter(|(_, rep)| rep.own)
                    .map(|(&r, rep)| (r, rep.frame.clone()))
                    .collect()
            })
            .unwrap_or_default();
        own.sort_unstable_by_key(|e| e.0);
        if !buddies.is_empty() && !own.is_empty() {
            rs.await_acks.insert(gen, (buddies.len(), own.len() as u64));
        }
        own
    });
    if buddies.is_empty() || own.is_empty() {
        cast_vote(pe, gen, epoch, own.len() as u64);
        return;
    }
    let wire = build_rep_batch(pe, gen, epoch, 0, &own);
    for b in &buddies {
        pe.send(*b, pe.handler_of(on_replica), wire.clone());
    }
}

fn build_rep_batch(pe: &Pe, gen: u64, epoch: u64, purpose: u8, images: &[(u64, Payload)]) -> Payload {
    let head = RepHead {
        owner: pe.id() as u64,
        gen,
        epoch,
        purpose,
        count: images.len() as u64,
    };
    let cap: usize = images.iter().map(|(_, f)| f.len() + 64).sum();
    let mut buf = pe.payload_buf_with_capacity(64 + cap);
    write_rep_batch(buf.vec_mut(), head, images);
    buf.freeze()
}

/// Append a replication batch to `out`: the pup'd head, then per image a
/// pup'd [`RepRec`] followed by the raw frame bytes.
pub(crate) fn write_rep_batch(out: &mut Vec<u8>, mut head: RepHead, images: &[(u64, Payload)]) {
    flows_pup::pack_into(&mut head, out);
    for (r, frame) in images {
        let mut rec = RepRec { rank: *r, len: frame.len() as u64 };
        flows_pup::pack_into(&mut rec, out);
        out.extend_from_slice(frame);
    }
}

/// Decode a replication batch that crossed a process boundary, trusting
/// none of it: a short or undecodable head or record, a frame length that
/// runs past the end, or bytes left over after `count` records is an
/// `Err`, never a panic. Every frame comes back as a zero-copy slice of
/// `data`; checksums are the caller's to verify.
pub(crate) fn parse_rep_batch(data: &Payload) -> Result<(RepHead, Vec<(RepRec, Payload)>), String> {
    let (head, mut off): (RepHead, usize) =
        flows_pup::from_bytes_prefix(data).map_err(|e| format!("replica head: {e}"))?;
    let mut recs = Vec::new();
    for i in 0..head.count {
        let (rec, used): (RepRec, usize) = flows_pup::from_bytes_prefix(&data[off..])
            .map_err(|e| format!("replica record {i} of {}: {e}", head.count))?;
        off += used;
        let end = usize::try_from(rec.len)
            .ok()
            .and_then(|len| off.checked_add(len))
            .filter(|&end| end <= data.len())
            .ok_or_else(|| {
                format!("replica record {i}: frame of {} bytes, {} left", rec.len, data.len() - off)
            })?;
        recs.push((rec, data.slice(off..end)));
        off = end;
    }
    if off != data.len() {
        return Err(format!("{} trailing bytes after {} records", data.len() - off, head.count));
    }
    Ok((head, recs))
}

impl RecoverState {
    /// Shelve a batch's buddy copies for generation `gen`, each only after
    /// its frame checksum verifies (corruption is detected *here*, not at
    /// recovery time); a corrupt frame is counted and dropped.
    fn shelve_replicas(&mut self, gen: u64, recs: Vec<(RepRec, Payload)>) {
        for (rec, frame) in recs {
            if unframe_payload(&frame).is_ok() {
                self.shelf
                    .entry(gen)
                    .or_default()
                    .insert(rec.rank, Replica { frame, own: false });
            } else {
                self.invalid_msgs += 1;
            }
        }
    }
}

/// A buddy-replication batch arrives: decode it defensively, shelve every
/// checksum-valid frame as a slice of the arrival buffer, then ack the
/// owner. A malformed batch counts as one invalid replica and is not
/// acked, so the owner's generation never commits on it.
pub(crate) fn on_replica(pe: &Pe, msg: Message) {
    let Ok((h, recs)) = parse_rep_batch(&msg.data) else {
        pe.ext::<RecoverState, _>(|rs| rs.invalid_msgs += 1);
        return;
    };
    if h.epoch < flows_comm::comm_epoch(pe) {
        return;
    }
    pe.ext::<RecoverState, _>(|rs| rs.shelve_replicas(h.gen, recs));
    let mut ack = CtlMsg {
        kind: ctl::ACK,
        epoch: h.epoch,
        a: h.gen,
        b: h.purpose as u64,
        pairs: Vec::new(),
    };
    pe.send(h.owner as usize, pe.handler_of(on_ctl), pe.pack_payload(&mut ack));
}

fn cast_vote(pe: &Pe, gen: u64, epoch: u64, count: u64) {
    let coord = flows_comm::live_root_of(pe, CTL_KEY);
    if coord == pe.id() {
        on_vote(pe, pe.id(), gen, count);
    } else {
        let mut m = CtlMsg { kind: ctl::VOTE, epoch, a: gen, b: count, pairs: Vec::new() };
        pe.send(coord, pe.handler_of(on_ctl), pe.pack_payload(&mut m));
    }
}

/// Commit coordinator: a generation commits once the voters' rank counts
/// cover the whole world (rank ownership is disjoint across PEs at the
/// cut, so the sum reaching `size` means every image is replicated).
fn on_vote(pe: &Pe, from: usize, gen: u64, count: u64) {
    let size = pe
        .ext::<AmpiState, _>(|st| st.meta.as_ref().map(|m| m.size))
        .expect("world meta") as u64;
    let commit = pe.ext::<RecoverState, _>(|rs| {
        let v = rs.votes.entry(gen).or_insert((0, 0));
        if v.0 & (1 << from) != 0 {
            return false;
        }
        v.0 |= 1 << from;
        v.1 += count;
        if v.1 >= size {
            rs.votes.remove(&gen);
            true
        } else {
            false
        }
    });
    if !commit {
        return;
    }
    let epoch = flows_comm::comm_epoch(pe);
    let dead = pe.confirmed_dead_mask();
    let mut m = CtlMsg { kind: ctl::COMMIT, epoch, a: gen, b: 0, pairs: Vec::new() };
    let wire = pe.pack_payload(&mut m);
    for d in 0..pe.num_pes() {
        if d != pe.id() && dead & (1 << d) == 0 {
            pe.send(d, pe.handler_of(on_ctl), wire.clone());
        }
    }
    on_commit(pe, gen);
}

/// A commit marker: advance the committed watermark and prune the shelf,
/// keeping the committed generation plus one older as the corruption
/// fallback. The marker is an optimization hint only — recovery picks its
/// rollback target from inventory-verified availability, never from this.
fn on_commit(pe: &Pe, gen: u64) {
    pe.ext::<RecoverState, _>(|rs| {
        if gen + 1 > rs.committed_p1 {
            rs.committed_p1 = gen + 1;
            rs.shelf.retain(|&g, _| g + 1 >= gen);
            rs.await_acks.retain(|&g, _| g > gen);
            rs.votes.retain(|&g, _| g > gen);
        }
    });
}

// ---------------------------------------------------------------------
// Recovery rounds.
// ---------------------------------------------------------------------

/// Death-confirmed upcall (runs on the PE whose phi detector won the
/// confirmation): become the recovery leader and start a round covering
/// every confirmed-but-unhealed death.
pub(crate) fn on_death_confirmed(pe: &Pe, _dead: usize) {
    start_round(pe);
}

fn start_round(pe: &Pe) {
    let healed = pe.ext::<RecoverState, _>(|rs| rs.healed);
    let all = (1u64 << pe.num_pes()) - 1;
    let confirmed = pe.confirmed_dead_mask() & all;
    let dead_mask = confirmed & !healed;
    if dead_mask == 0 {
        return;
    }
    let live_mask = all & !confirmed;
    let epoch = pe.alloc_recovery_epoch();
    pe.ext::<RecoverState, _>(|rs| {
        rs.leader = Some(LeaderState {
            epoch,
            dead_mask,
            live_mask,
            inventories: BTreeMap::new(),
            plan_done: 0,
            genp1: 0,
        });
    });
    let mut m = CtlMsg { kind: ctl::START, epoch, a: dead_mask, b: 0, pairs: Vec::new() };
    let wire = pe.pack_payload(&mut m);
    for d in 0..pe.num_pes() {
        if d != pe.id() && live_mask & (1 << d) != 0 {
            pe.send(d, pe.handler_of(on_ctl), wire.clone());
        }
    }
    handle_start(pe, pe.id(), epoch, dead_mask);
}

/// Roll this PE back: adopt the round's epoch (everything stamped older
/// is dropped from here on), write off the dead, discard every rank
/// thread and its routed registration, purge half-gathered reductions,
/// and report the checksum-valid shelf inventory to the leader.
fn handle_start(pe: &Pe, leader: usize, epoch: u64, dead_mask: u64) {
    if epoch <= flows_comm::comm_epoch(pe) {
        return;
    }
    pe.ext::<RecoverState, _>(|rs| {
        // A smaller-epoch round is superseded — including one this PE led.
        if rs.leader.as_ref().is_some_and(|l| l.epoch < epoch) {
            rs.leader = None;
        }
        rs.scratch.clear();
        rs.await_acks.clear();
        rs.votes.clear();
        rs.rec_acks = 0;
    });
    flows_comm::set_comm_epoch(pe, epoch);
    for d in 0..pe.num_pes() {
        if dead_mask & (1 << d) != 0 {
            pe.reap_dead(d);
            flows_comm::purge_dead_locations(pe, d);
        }
    }
    // Half-gathered reductions embed pre-rollback data (e.g. LB reports
    // naming dead placements); every participant re-contributes after the
    // rollback, so drop the streams wholesale.
    flows_comm::purge_pending(pe);
    // Every running rank stack is post-cut state now; the shelf images
    // are authoritative. Handlers run on the PE pump, so no rank thread
    // is current here.
    let (meta, boxes) = pe.ext::<AmpiState, _>(|st| {
        let meta = st.meta.clone().expect("world meta");
        let mut boxes: Vec<(u64, ThreadId)> =
            st.ranks.iter().map(|(&r, b)| (r, b.tid)).collect();
        boxes.sort_unstable_by_key(|e| e.0);
        st.ranks.clear();
        (meta, boxes)
    });
    for (_, tid) in &boxes {
        pe.sched().discard_thread(*tid).expect("discard rank at rollback");
    }
    for r in 0..meta.size as u64 {
        flows_comm::evict_obj(pe, obj_of(r));
    }
    let lowest_dead = lowest_bit(dead_mask);
    let (cp1, pairs) = pe.ext::<RecoverState, _>(RecoverState::inventory);
    flows_trace::emit(flows_trace::EventKind::FtRollback, lowest_dead as u64, cp1, epoch);
    pe.note_recovery(RecoveryPhase::Rollback, lowest_dead, cp1);
    if leader == pe.id() {
        record_inventory(pe, pe.id(), pairs);
    } else {
        let mut m = CtlMsg { kind: ctl::INVENTORY, epoch, a: pe.id() as u64, b: cp1, pairs };
        pe.send(leader, pe.handler_of(on_ctl), pe.pack_payload(&mut m));
    }
}

fn lowest_bit(mask: u64) -> usize {
    mask.trailing_zeros() as usize % 64
}

/// Decode rank `rank`'s shelved checkpoint frame, trusting none of it:
/// its checksum, then the one rank-image decoder over the frame's payload,
/// which must be exactly one image of that rank. The inventory's validity
/// check and the respawn in [`apply_plan`] share it, so a frame the
/// respawn could not decode never counts towards a generation.
pub(crate) fn decode_image(frame: &Payload, rank: u64) -> Option<(MoveRec, PackedThread)> {
    unframe_payload(frame).ok()?;
    let image = frame.slice_from(FRAME_HEADER_LEN);
    let (rec, thread, used) = decode_rank_image(&image, 0)?;
    (rec.rank == rank && used == image.len()).then_some((rec, thread))
}

impl RecoverState {
    /// Walk the shelf, dropping any holding whose frame fails its checksum
    /// or does not decode (the corruption-fallback point: a bad buddy copy
    /// simply vanishes from the inventory, and `best_gen` falls back to
    /// another holder or an older generation). Returns `(committed+1,
    /// (gen, rank|OWN_BIT) pairs)`.
    fn inventory(&mut self) -> (u64, Vec<(u64, u64)>) {
        let mut pairs = Vec::new();
        let mut dropped = 0u64;
        for (&gen, ranks) in self.shelf.iter_mut() {
            ranks.retain(|&r, rep| {
                if decode_image(&rep.frame, r).is_some() {
                    pairs.push((gen, r | if rep.own { OWN_BIT } else { 0 }));
                    true
                } else {
                    dropped += 1;
                    false
                }
            });
        }
        self.invalid_msgs += dropped;
        // Shelf buckets iterate in hash order, which depends on their
        // insertion history; sort so the inventory wire bytes (and
        // everything downstream of them) are run-to-run stable.
        pairs.sort_unstable();
        (self.committed_p1, pairs)
    }
}

/// Leader: collect inventories; once every live PE reported, compute the
/// rollback generation + respawn assignment and broadcast the plan.
fn record_inventory(pe: &Pe, from: usize, pairs: Vec<(u64, u64)>) {
    let ready = pe.ext::<RecoverState, _>(|rs| {
        let l = rs.leader.as_mut()?;
        l.inventories.insert(from, pairs);
        if l.inventories.len() == l.live_mask.count_ones() as usize {
            Some((l.epoch, l.dead_mask, l.live_mask, std::mem::take(&mut l.inventories)))
        } else {
            None
        }
    });
    let Some((epoch, dead_mask, live_mask, inventories)) = ready else { return };
    let size = pe
        .ext::<AmpiState, _>(|st| st.meta.as_ref().map(|m| m.size))
        .expect("world meta");
    let (genp1, assign) = match best_gen(size, &inventories) {
        Some((g, assign)) => (g + 1, assign),
        None => {
            // No complete generation survives anywhere: restart every
            // rank from scratch, block-mapped over the live PEs.
            let live: Vec<usize> =
                (0..pe.num_pes()).filter(|&p| live_mask & (1 << p) != 0).collect();
            let assign = (0..size as u64)
                .map(|r| (r, live[pe_of_rank(r as usize, size, live.len())] as u64))
                .collect();
            (0, assign)
        }
    };
    pe.ext::<RecoverState, _>(|rs| {
        if let Some(l) = rs.leader.as_mut() {
            l.genp1 = genp1;
        }
    });
    let mut m = CtlMsg { kind: ctl::PLAN, epoch, a: genp1, b: dead_mask, pairs: assign.clone() };
    let wire = pe.pack_payload(&mut m);
    for d in 0..pe.num_pes() {
        if d != pe.id() && live_mask & (1 << d) != 0 {
            pe.send(d, pe.handler_of(on_ctl), wire.clone());
        }
    }
    apply_plan(pe, pe.id(), epoch, genp1, dead_mask, &assign);
}

/// Apply the leader's plan: unpack my assigned ranks from the shelf
/// through the normal migration path — but *suspended* (admission stays
/// paused until RESUME) — and re-replicate the adopted images to new
/// buddies. `genp1 == 0` means scratch restart (spawning is deferred to
/// RESUME, since fresh threads are runnable immediately).
fn apply_plan(pe: &Pe, leader: usize, epoch: u64, genp1: u64, dead_mask: u64, assign: &[(u64, u64)]) {
    let current = flows_comm::comm_epoch(pe);
    let proceed = pe.ext::<RecoverState, _>(|rs| {
        if epoch < current || rs.planned >= epoch {
            return false;
        }
        rs.planned = epoch;
        rs.plan_leader = leader;
        if genp1 > 0 {
            rs.committed_p1 = genp1;
            // Generations newer than the rollback target are post-cut
            // state: no survivor may ever fall back to them.
            rs.shelf.retain(|&g, _| g < genp1);
        }
        true
    });
    if !proceed {
        return;
    }
    let me = pe.id() as u64;
    let mine: Vec<u64> = assign.iter().filter(|&&(_, p)| p == me).map(|&(r, _)| r).collect();
    if genp1 == 0 {
        pe.ext::<RecoverState, _>(|rs| rs.scratch = mine);
        plan_done(pe, epoch, leader);
        return;
    }
    let g = genp1 - 1;
    let lowest_dead = lowest_bit(dead_mask);
    let mut adopted: Vec<(u64, Payload)> = Vec::new();
    for &rank in &mine {
        let frame = pe.ext::<RecoverState, _>(|rs| {
            let rep = rs
                .shelf
                .get(&g)
                .and_then(|gens| gens.get(&rank))
                .expect("assigned rank must be on the assignee's shelf");
            rep.frame.clone()
        });
        // The inventory kept only frames this decoder accepts, but a
        // peer's re-replication batch, checked by checksum alone, may
        // have replaced one since: a counted drop, never a panic.
        let Some((rec, thread)) = decode_image(&frame, rank) else {
            pe.ext::<RecoverState, _>(|rs| rs.invalid_msgs += 1);
            continue;
        };
        land_rank(pe, rec, thread);
        flows_trace::emit(flows_trace::EventKind::FtRespawn, rank, lowest_dead as u64, g);
        adopted.push((rank, frame));
    }
    // Ownership moves with the assignment: future inventories must report
    // the adopter as the in-place respawn site.
    pe.ext::<RecoverState, _>(|rs| {
        if let Some(gens) = rs.shelf.get_mut(&g) {
            for (r, rep) in gens.iter_mut() {
                rep.own = mine.contains(r);
            }
        }
    });
    if !mine.is_empty() {
        pe.note_recovery(RecoveryPhase::Respawn, lowest_dead, g);
    }
    let buddies = buddies_of(pe.id(), pe.num_pes(), replication(pe), pe.confirmed_dead_mask() | dead_mask);
    if adopted.is_empty() || buddies.is_empty() {
        plan_done(pe, epoch, leader);
        return;
    }
    pe.ext::<RecoverState, _>(|rs| rs.rec_acks = buddies.len());
    let wire = build_rep_batch(pe, g, epoch, 1, &adopted);
    for b in &buddies {
        pe.send(*b, pe.handler_of(on_replica), wire.clone());
    }
}

fn plan_done(pe: &Pe, epoch: u64, leader: usize) {
    if leader == pe.id() {
        record_plan_done(pe, pe.id());
    } else {
        let mut m = CtlMsg { kind: ctl::PLAN_DONE, epoch, a: pe.id() as u64, b: 0, pairs: Vec::new() };
        pe.send(leader, pe.handler_of(on_ctl), pe.pack_payload(&mut m));
    }
}

/// Leader: once every live PE is respawned and re-replicated, broadcast
/// RESUME, resolve the deaths, and — if another failure was confirmed
/// while this round ran — immediately drive the next round.
fn record_plan_done(pe: &Pe, from: usize) {
    let ready = pe.ext::<RecoverState, _>(|rs| {
        let l = rs.leader.as_mut()?;
        l.plan_done |= 1 << from;
        if l.plan_done & l.live_mask == l.live_mask {
            Some((l.epoch, l.genp1, l.dead_mask, l.live_mask))
        } else {
            None
        }
    });
    let Some((epoch, genp1, dead_mask, live_mask)) = ready else { return };
    if genp1 == 0 {
        // No generation survived: the whole world restarts from scratch
        // on the survivors — restart on fewer processors.
        pe.note_recovery(RecoveryPhase::Restart, lowest_bit(dead_mask), epoch);
    }
    let mut m = CtlMsg { kind: ctl::RESUME, epoch, a: genp1, b: dead_mask, pairs: Vec::new() };
    let wire = pe.pack_payload(&mut m);
    for d in 0..pe.num_pes() {
        if d != pe.id() && live_mask & (1 << d) != 0 {
            pe.send(d, pe.handler_of(on_ctl), wire.clone());
        }
    }
    apply_resume(pe, epoch, genp1, dead_mask);
    for dd in 0..pe.num_pes() {
        if dead_mask & (1 << dd) != 0 {
            pe.mark_recovery_resolved(dd, epoch);
        }
    }
    let healed = pe.ext::<RecoverState, _>(|rs| rs.healed);
    let all = (1u64 << pe.num_pes()) - 1;
    if pe.confirmed_dead_mask() & all & !healed != 0 {
        start_round(pe);
    }
}

/// Un-pause admission: spawn any scratch ranks, then wake every
/// respawned rank inside the `checkpoint()` it was packed in.
fn apply_resume(pe: &Pe, epoch: u64, _genp1: u64, dead_mask: u64) {
    let current = flows_comm::comm_epoch(pe);
    let work = pe.ext::<RecoverState, _>(|rs| {
        if epoch < current || rs.resumed >= epoch {
            return None;
        }
        rs.resumed = epoch;
        rs.healed |= dead_mask;
        if rs.leader.as_ref().is_some_and(|l| l.epoch == epoch) {
            rs.leader = None;
        }
        Some(std::mem::take(&mut rs.scratch))
    });
    let Some(mut scratch) = work else { return };
    let meta = pe.ext::<AmpiState, _>(|st| st.meta.clone()).expect("world meta");
    scratch.sort_unstable();
    for rank in scratch {
        crate::world::spawn_rank(pe, &meta, rank);
    }
    // Awaken in rank order: hash iteration order depends on the map's
    // history and would leak it into the scheduler queue and post-recovery
    // event timing.
    let mut tids: Vec<(u64, ThreadId)> =
        pe.ext::<AmpiState, _>(|st| st.ranks.iter().map(|(&r, b)| (r, b.tid)).collect());
    tids.sort_unstable_by_key(|e| e.0);
    for (_, tid) in tids {
        if pe.sched().state(tid) == Some(ThreadState::Suspended) {
            pe.sched().awaken_tid(tid).expect("awaken respawned rank");
        }
    }
}

/// Decode a control message that may have crossed a process boundary,
/// trusting none of it: bytes that do not decode exactly, an unknown kind,
/// or a PE index outside the `num_pes` machine is an `Err`, never a panic.
pub(crate) fn parse_ctl(data: &[u8], num_pes: usize) -> Result<CtlMsg, String> {
    let m: CtlMsg = flows_pup::from_bytes(data).map_err(|e| format!("ctl message: {e}"))?;
    let on_machine = |p: u64| p < num_pes as u64;
    let pes_ok = match m.kind {
        ctl::INVENTORY | ctl::PLAN_DONE => on_machine(m.a),
        ctl::PLAN => m.pairs.iter().all(|&(_, p)| on_machine(p)),
        k if k > ctl::VOTE => return Err(format!("unknown ctl kind {k}")),
        _ => true,
    };
    if pes_ok {
        Ok(m)
    } else {
        Err(format!("ctl kind {} names a PE outside {num_pes}", m.kind))
    }
}

/// Recovery control-plane dispatcher (see [`ctl`] for the kinds). A
/// malformed message is counted with the invalid replicas and dropped.
// flows-wire: handles ampi-ctl
pub(crate) fn on_ctl(pe: &Pe, msg: Message) {
    let Ok(m) = parse_ctl(&msg.data, pe.num_pes()) else {
        pe.ext::<RecoverState, _>(|rs| rs.invalid_msgs += 1);
        return;
    };
    if m.kind != ctl::START {
        // START carries the *new* epoch; everything else from an older
        // epoch is pre-rollback traffic.
        if m.epoch < flows_comm::comm_epoch(pe) {
            return;
        }
    }
    match m.kind {
        ctl::COMMIT => on_commit(pe, m.a),
        ctl::ACK => on_ack(pe, m.a, m.b),
        ctl::START => handle_start(pe, msg.src_pe, m.epoch, m.a),
        ctl::INVENTORY => record_inventory(pe, m.a as usize, m.pairs),
        ctl::PLAN => apply_plan(pe, msg.src_pe, m.epoch, m.a, m.b, &m.pairs),
        ctl::PLAN_DONE => record_plan_done(pe, m.a as usize),
        ctl::RESUME => apply_resume(pe, m.epoch, m.a, m.b),
        ctl::VOTE => on_vote(pe, msg.src_pe, m.a, m.b),
        _ => {} // refused by parse_ctl
    }
}

fn on_ack(pe: &Pe, gen: u64, purpose: u64) {
    let epoch = flows_comm::comm_epoch(pe);
    if purpose == 0 {
        let vote = pe.ext::<RecoverState, _>(|rs| match rs.await_acks.get_mut(&gen) {
            Some(e) => {
                e.0 -= 1;
                if e.0 == 0 {
                    let n = e.1;
                    rs.await_acks.remove(&gen);
                    Some(n)
                } else {
                    None
                }
            }
            None => None,
        });
        if let Some(n) = vote {
            cast_vote(pe, gen, epoch, n);
        }
    } else {
        let done = pe.ext::<RecoverState, _>(|rs| {
            if rs.rec_acks > 0 {
                rs.rec_acks -= 1;
                if rs.rec_acks == 0 {
                    Some(rs.plan_leader)
                } else {
                    None
                }
            } else {
                None
            }
        });
        if let Some(leader) = done {
            plan_done(pe, epoch, leader);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flows_core::PackedThread;

    fn inv(entries: &[(usize, &[(u64, u64)])]) -> BTreeMap<usize, Vec<(u64, u64)>> {
        entries.iter().map(|&(pe, hs)| (pe, hs.to_vec())).collect()
    }

    #[test]
    fn buddies_skip_the_dead_and_wrap() {
        assert_eq!(buddies_of(2, 4, 1, 0), vec![3]);
        assert_eq!(buddies_of(3, 4, 2, 0), vec![0, 1]);
        // PE 3 dead: 2's first buddy wraps to 0.
        assert_eq!(buddies_of(2, 4, 1, 1 << 3), vec![0]);
        // Everyone else dead: no buddies.
        assert_eq!(buddies_of(1, 4, 2, 0b1101), vec![]);
        // No recovery (k = 0): images stay on their own shelf.
        assert_eq!(buddies_of(1, 4, 0, 0), vec![]);
    }

    #[test]
    fn best_gen_prefers_newest_complete_generation() {
        let o = OWN_BIT;
        // Gen 3 is missing rank 1 everywhere; gen 2 is complete.
        let inventories = inv(&[
            (0, &[(3, o), (2, o), (2, 1)]),
            (1, &[(2, 1 | o), (2, 0)]),
        ]);
        let (g, assign) = best_gen(2, &inventories).expect("gen 2 complete");
        assert_eq!(g, 2);
        // Owners keep their ranks in place.
        assert_eq!(assign, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn best_gen_spreads_orphans_over_holders() {
        let o = OWN_BIT;
        // PE 2 died; its ranks 2 and 3 have buddy copies on 0 and 1.
        let inventories = inv(&[
            (0, &[(1, o), (1, 2), (1, 3)]),
            (1, &[(1, 1 | o), (1, 2), (1, 3)]),
        ]);
        let (g, assign) = best_gen(4, &inventories).expect("complete");
        assert_eq!(g, 1);
        // One orphan each: the greedy assignment balances.
        let to0 = assign.iter().filter(|&&(_, p)| p == 0).count();
        let to1 = assign.iter().filter(|&&(_, p)| p == 1).count();
        assert_eq!((to0, to1), (2, 2), "{assign:?}");
    }

    #[test]
    fn best_gen_none_when_a_rank_is_lost() {
        let inventories = inv(&[(0, &[(5, OWN_BIT)])]);
        assert!(best_gen(2, &inventories).is_none());
    }

    #[test]
    fn assignment_is_deterministic_across_leaders() {
        let o = OWN_BIT;
        let a = inv(&[
            (0, &[(4, o), (4, 2), (4, 5)]),
            (1, &[(4, 1 | o), (4, 3 | o), (4, 2), (4, 5)]),
            (3, &[(4, 4 | o), (4, 5), (4, 2)]),
        ]);
        let r1 = best_gen(6, &a).unwrap();
        let r2 = best_gen(6, &a).unwrap();
        assert_eq!(r1, r2);
        // Every rank assigned exactly once, only to holders.
        let (_, assign) = r1;
        let mut ranks: Vec<u64> = assign.iter().map(|&(r, _)| r).collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 1, 2, 3, 4, 5]);
    }

    /// A valid rank thread's wire image of exactly `len` bytes: the head
    /// of [`crate::proto::thread_wire`], then `len - 40` payload bytes.
    fn thread_image(len: usize) -> Vec<u8> {
        let head = PackedThread::default().to_bytes().len();
        crate::proto::thread_wire(&(0..len - head).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    /// A rank image with parked mail (inline and shared bodies), both
    /// sequence tables and a stashed out-of-order message.
    fn sample_image(rank: u64, thread_len: usize) -> (MoveRec, PackedThread) {
        use crate::proto::MailEntry;
        let rec = MoveRec {
            rank,
            mailbox: vec![
                MailEntry { src: 1, tag: 9, data: vec![0xAB; 100].into() },
                MailEntry { src: 2, tag: 4, data: vec![1, 2, 3].into() },
            ],
            next_seq: vec![(1, 5), (2, 1)],
            send_seq: vec![(0, 3)],
            stashed: vec![(1, 7, 9, vec![0xCD; 70].into())],
        };
        (rec, PackedThread::from_bytes(&thread_image(thread_len)).expect("thread image"))
    }

    fn sample_frame(rank: u64, thread_len: usize) -> Payload {
        let (mut rec, mut thread) = sample_image(rank, thread_len);
        frame_image(&mut rec, &mut thread)
    }

    /// Packing into the frame in place changes no byte: the frame is
    /// exactly `frame_payload` of the pup'd record followed by the
    /// thread's wire bytes, and it decodes to the original image.
    #[test]
    fn in_place_frame_matches_the_framed_pup_bytes() {
        let len = 256 * 1024 + 13;
        let (mut rec, mut thread) = sample_image(3, len);
        let frame = frame_image(&mut rec, &mut thread);
        let rec_bytes = flows_pup::to_bytes(&mut rec.clone());
        let reference = flows_core::frame_payload(&[rec_bytes.clone(), thread_image(len)].concat());
        assert_eq!(frame.len(), reference.len());
        assert!(frame.as_slice() == &reference[..], "in-place frame differs from the pinned wire");
        assert!(
            unframe_payload(&frame).unwrap()[rec_bytes.len()..] == thread_image(len)[..],
            "the thread follows the record as its raw wire bytes"
        );
        assert_eq!(decode_image(&frame, 3), Some((rec, thread)));
        assert_eq!(decode_image(&frame, 4), None, "a frame answers for its own rank only");
    }

    /// The checkpoint frame of a 256 KiB + 13 B rank image, pinned by its
    /// length and checksum: any change to the image wire fails here.
    #[test]
    fn the_rank_image_frame_is_pinned() {
        let frame = sample_frame(3, 256 * 1024 + 13);
        let sum = u64::from_le_bytes(frame[16..24].try_into().unwrap());
        assert_eq!((frame.len(), sum), (262_522, 0xb879_8e6d_78b4_5c05));
    }

    /// The thread is read in one piece, not a byte loop: the decoded
    /// thread's payload is a zero-copy slice of the frame, exactly the
    /// head's `payload_len` long, and a head that claims one byte more or
    /// less than the image holds is refused.
    #[test]
    fn the_thread_run_unpacks_in_one_piece() {
        let len = 4096 + 40;
        let frame = sample_frame(1, len);
        let (_, thread) = decode_image(&frame, 1).expect("rank image");
        assert_eq!(thread.payload_len(), len - 40);
        assert!(thread.payload().same_backing(&frame), "the payload is a slice of the frame");
        assert_eq!(thread, PackedThread::from_bytes(&thread_image(len)).unwrap());
        let image = unframe_payload(&frame).unwrap();
        let at = image.len() - len + 32; // the thread head's `payload_len`
        for n in [len - 41, len - 39] {
            let mut bad = image.to_vec();
            bad[at..at + 8].copy_from_slice(&(n as u64).to_le_bytes());
            let bad: Payload = flows_core::frame_payload(&bad).into();
            assert!(unframe_payload(&bad).is_ok(), "the checksum must verify");
            assert_eq!(decode_image(&bad, 1), None, "a {n}-byte payload of a {len}-byte thread accepted");
        }
    }

    /// Frames whose checksum holds but which do not decode — a truncated
    /// image, one whose thread head carries flavor tag 9, one whose
    /// thread was packed for the `Full` swap kind (tag 1), which AMPI's
    /// schedulers cannot unpack, and two whose thread is a copy-stack
    /// (flavor tag 0) or alias (tag 2) thread, which a rank never is —
    /// are shelved (their checksums verify),
    /// then dropped and counted at inventory, so their generations are
    /// never complete and the plan falls back to an older one: the respawn
    /// never meets them.
    #[test]
    fn a_checksum_valid_frame_that_does_not_decode_is_counted_at_inventory() {
        let good = |r: u64| (RepRec { rank: r, len: 0 }, sample_frame(r, 300));
        let image = unframe_payload(&sample_frame(1, 300)).unwrap().to_vec();
        let truncated = &image[..image.len() - 5];
        // The thread head: id (8 bytes), swap kind, then the flavor tag.
        let head = image.len() - 300;
        let mut flavor_9 = image.clone();
        flavor_9[head + 9] = 9;
        let mut full_swap = image.clone();
        full_swap[head + 8] = 1;
        let (mut copy_stack, mut alias) = (image.clone(), image.clone());
        copy_stack[head + 9] = 0;
        alias[head + 9] = 2;
        let mut rs = RecoverState::default();
        rs.shelve_replicas(4, vec![good(0), good(1)]);
        let bad: [(u64, &[u8]); 5] =
            [(5, truncated), (6, &flavor_9), (7, &full_swap), (8, &copy_stack), (9, &alias)];
        for (gen, bytes) in bad {
            let frame: Payload = flows_core::frame_payload(bytes).into();
            assert!(unframe_payload(&frame).is_ok(), "the checksum must verify");
            rs.shelve_replicas(gen, vec![good(0), (RepRec { rank: 1, len: 0 }, frame)]);
        }
        assert_eq!(rs.invalid_msgs, 0, "shelving checks the checksum only");
        let (_, pairs) = rs.inventory();
        assert_eq!(rs.invalid_msgs, 5);
        assert_eq!(pairs, vec![(4, 0), (4, 1), (5, 0), (6, 0), (7, 0), (8, 0), (9, 0)]);
        let inventories = BTreeMap::from([(0, pairs)]);
        assert_eq!(best_gen(2, &inventories).map(|(g, _)| g), Some(4));
    }

    fn three_frames(thread_len: usize) -> Vec<Payload> {
        (0..3).map(|r| sample_frame(r, thread_len + r as usize)).collect()
    }

    fn batch_of(frames: &[Payload]) -> Payload {
        let head = RepHead { owner: 2, gen: 5, epoch: 1, purpose: 0, count: frames.len() as u64 };
        let images: Vec<(u64, Payload)> =
            frames.iter().enumerate().map(|(r, f)| (r as u64, f.clone())).collect();
        let mut out = Vec::new();
        write_rep_batch(&mut out, head, &images);
        out.into()
    }

    /// Byte offsets of the head's `count` field and of the first record's
    /// `len` field (each the last `u64` of its pup'd struct).
    fn count_and_len_offsets() -> (usize, usize) {
        let head = flows_pup::packed_size(&mut RepHead::default());
        let rec = flows_pup::packed_size(&mut RepRec::default());
        (head - 8, head + rec - 8)
    }

    #[test]
    fn rep_batch_parses_into_slices_of_the_arrival_buffer() {
        let frames = three_frames(300);
        let batch = batch_of(&frames);
        let (head, recs) = parse_rep_batch(&batch).expect("well-formed batch");
        assert_eq!((head.owner, head.gen, head.count), (2, 5, 3));
        for (r, (rec, frame)) in recs.iter().enumerate() {
            assert_eq!((rec.rank, rec.len), (r as u64, frames[r].len() as u64));
            assert_eq!(frame, &frames[r]);
            assert!(frame.same_backing(&batch), "record {r} must be a zero-copy slice");
        }
    }

    /// One corrupt frame among three: the other two are shelved as slices
    /// of the batch, the bad one is counted and never shelved.
    #[test]
    fn a_corrupt_frame_in_a_batch_is_counted_and_the_rest_shelved() {
        let frames = three_frames(300);
        let mut bytes = batch_of(&frames).to_vec();
        // Flip one payload byte inside the second frame.
        let (_, len_at) = count_and_len_offsets();
        let second = len_at + 8 + frames[0].len() + flows_pup::packed_size(&mut RepRec::default());
        bytes[second + FRAME_HEADER_LEN + 40] ^= 0x10;
        let batch: Payload = bytes.into();
        let (head, recs) = parse_rep_batch(&batch).expect("structure is intact");
        let mut rs = RecoverState::default();
        rs.shelve_replicas(head.gen, recs);
        assert_eq!(rs.invalid_msgs, 1);
        let shelved = &rs.shelf[&5];
        let mut ranks: Vec<u64> = shelved.keys().copied().collect();
        ranks.sort_unstable();
        assert_eq!(ranks, vec![0, 2]);
        for (r, rep) in shelved {
            assert!(rep.frame.same_backing(&batch), "rank {r} shelved as a copy");
            assert!(!rep.own);
            assert_eq!(rep.frame, frames[*r as usize]);
        }
    }

    #[test]
    fn every_truncation_of_a_batch_is_an_error() {
        let bytes = batch_of(&three_frames(200)).to_vec();
        for n in 0..bytes.len() {
            assert!(parse_rep_batch(&bytes[..n].to_vec().into()).is_err(), "truncation to {n} accepted");
        }
    }

    #[test]
    fn unknown_ctl_kinds_and_off_machine_pes_are_refused() {
        let bad = [
            CtlMsg { kind: ctl::VOTE + 1, ..CtlMsg::default() },
            CtlMsg { kind: ctl::INVENTORY, a: 4, ..CtlMsg::default() },
            CtlMsg { kind: ctl::PLAN_DONE, a: 64, ..CtlMsg::default() },
            CtlMsg { kind: ctl::PLAN, pairs: vec![(0, 1), (1, 4)], ..CtlMsg::default() },
        ];
        for mut m in bad {
            assert!(parse_ctl(&flows_pup::to_bytes(&mut m), 4).is_err(), "{m:?} accepted");
        }
    }
}
