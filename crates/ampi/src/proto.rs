//! Wire formats of the AMPI layer.

#![allow(missing_docs)] // field meanings documented on each struct

use flows_comm::{ObjId, Port};
use flows_converse::{Payload, PayloadBuf, Pe};
use flows_core::PackedThread;
use flows_pup::{pup_fields, Pup, Puper};

/// The comm-layer port AMPI rank traffic travels on.
pub const PORT_AMPI: Port = 1;

/// Header of a payload routed to a rank. The wire format is the raw
/// message bytes followed by this header pup'd as a fixed-size suffix —
/// the receive path parses the suffix and takes the bytes before it as a
/// zero-copy [`Payload`] prefix of the arrival buffer, whose `Vec` the
/// mailbox takes over and `recv` hands the user without a copy. `kind`
/// selects the interpretation:
/// * 0 — point-to-point message: `a` = source rank, `b` = tag, `seq` =
///   per-(source, destination) sequence number enforcing MPI's
///   non-overtaking guarantee even when forwarding paths race during
///   migration;
/// * 1 — collective result: `a` = collective sequence number;
/// * 3 — checkpoint command: `a` = checkpoint sequence; the rank packs
///   itself into the generation store and resumes.
// flows-image: root
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RankWire {
    pub kind: u8,
    pub a: u64,
    pub b: u64,
    pub seq: u64,
}
pup_fields!(RankWire { kind, a, b, seq });

/// Bytes of a packed [`RankWire`] (u8 + 3 × u64).
pub(crate) const RANK_WIRE_LEN: usize = 25;

/// Route `data` to rank object `obj` with `hdr`: the raw bytes and then the
/// header are packed straight into the routed wire's one pooled buffer —
/// the only copy of the message bytes between sender and `recv`'s return.
/// The inverse is [`parse_rank_wire`].
pub(crate) fn route_rank_wire(pe: &Pe, obj: ObjId, hdr: &mut RankWire, data: &[u8]) {
    flows_comm::route_with(pe, obj, PORT_AMPI, RANK_WIRE_LEN + data.len(), |buf| {
        pack_rank_wire(buf, hdr, data)
    });
}

fn pack_rank_wire(buf: &mut PayloadBuf, hdr: &mut RankWire, data: &[u8]) {
    buf.extend_from_slice(data);
    flows_pup::pack_into(hdr, buf.vec_mut());
}

/// Split a delivered rank wire into its header (the last
/// [`RANK_WIRE_LEN`] bytes) and a zero-copy view of the message bytes, a
/// prefix of the arrival buffer. `None` for bytes too short for the header
/// or an unknown `kind`: routed bytes cross process boundaries in
/// multi-process worlds, so the caller counts a drop instead of panicking.
pub(crate) fn parse_rank_wire(payload: &Payload) -> Option<(RankWire, Payload)> {
    let at = payload.len().checked_sub(RANK_WIRE_LEN)?;
    let w: RankWire = flows_pup::from_bytes(&payload[at..]).ok()?;
    matches!(w.kind, 0 | 1 | 3).then(|| (w, payload.slice(0..at)))
}

/// One parked point-to-point message as a rank image carries it (the
/// mailbox itself holds the `Vec`s that `recv` returns).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MailEntry {
    pub src: u64,
    pub tag: u64,
    pub data: Payload,
}
pup_fields!(MailEntry { src, tag, data });

/// A rank's checkpoint image: the packed thread plus the runtime state
/// that lives outside the thread's own memory — its mailbox and the
/// per-sender in-order delivery state. (Migration ships the leaner
/// [`MoveRec`] batch record instead.) The thread travels as one
/// length-prefixed byte run ([`PackedThread::pup_run`]): packed straight
/// from the buffer `pack_thread` filled, unpacked with one copy.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RankMove {
    pub world: u64,
    pub rank: u64,
    /// Recovery epoch the image was taken in.
    pub epoch: u64,
    pub thread: PackedThread,
    pub mailbox: Vec<MailEntry>,
    /// Next expected per-sender sequence numbers: (src, seq) pairs.
    pub next_seq: Vec<(u64, u64)>,
    /// Next outgoing per-destination sequence numbers: (dest, seq) pairs.
    /// Sender-side protocol state lives here — NOT in rank-private heap
    /// memory — precisely so a rollback restores it to the checkpoint cut
    /// along with the rest of the image.
    pub send_seq: Vec<(u64, u64)>,
    /// Out-of-order messages held back: (src, seq, tag, data).
    pub stashed: Vec<(u64, u64, u64, Payload)>,
}
impl Pup for RankMove {
    fn pup(&mut self, p: &mut Puper) {
        self.world.pup(p);
        self.rank.pup(p);
        self.epoch.pup(p);
        self.thread.pup_run(p);
        self.mailbox.pup(p);
        self.next_seq.pup(p);
        self.send_seq.pup(p);
        self.stashed.pup(p);
    }
}

impl RankMove {
    /// The checkpoint image of a rank whose runtime state is `rec` and
    /// whose packed thread is `thread`.
    pub fn from_rec(world: u64, epoch: u64, thread: PackedThread, rec: MoveRec) -> RankMove {
        RankMove {
            world,
            rank: rec.rank,
            epoch,
            thread,
            mailbox: rec.mailbox,
            next_seq: rec.next_seq,
            send_seq: rec.send_seq,
            stashed: rec.stashed,
        }
    }
}

/// The LB plan for one source PE: every rank living there paired with its
/// destination PE. The reduction root sends ONE plan per source PE
/// (instead of one decision wire per rank); the source wakes its stayers
/// and packs its movers locally.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PlanMsg {
    pub world: u64,
    /// LB epoch sequence number.
    pub seq: u64,
    /// Sender's recovery epoch; a plan computed before a rollback embeds
    /// stale placement and is dropped by the receiver.
    pub epoch: u64,
    /// (rank, destination PE), sorted by rank for deterministic handling.
    pub entries: Vec<(u64, u64)>,
}
pup_fields!(PlanMsg {
    world,
    seq,
    epoch,
    entries
});

/// Header of a batched migration message: all the ranks one LB epoch moves
/// between one (source, destination) PE pair ride a single wire message.
/// `count` records follow, each a pup'd [`MoveRec`] immediately followed
/// by that rank's raw `PackedThread` wire bytes.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchHead {
    pub world: u64,
    /// Sender's recovery epoch (same rationale as [`RankMove::epoch`]).
    pub epoch: u64,
    pub count: u64,
}
pup_fields!(BatchHead { world, epoch, count });

/// Per-rank record inside a batch: the runtime state living outside the
/// thread's own memory (cf. [`RankMove`], which additionally carries the
/// thread image inline for the checkpoint store).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MoveRec {
    pub rank: u64,
    pub mailbox: Vec<MailEntry>,
    pub next_seq: Vec<(u64, u64)>,
    pub send_seq: Vec<(u64, u64)>,
    pub stashed: Vec<(u64, u64, u64, Payload)>,
}
pup_fields!(MoveRec {
    rank,
    mailbox,
    next_seq,
    send_seq,
    stashed
});

/// Header of a buddy-replication batch: all of one owner PE's rank images
/// for one checkpoint generation, shipped to a buddy in a single wire
/// message. `count` records follow, each a pup'd [`RepRec`] immediately
/// followed by that rank's framed checkpoint image (magic + version 2 +
/// length + word-lane FNV-1a checksum around the `RankMove` wire form,
/// written in place by `flows_core::frame_in_place` when the rank was
/// packed). The receiver decodes the batch defensively — a malformed one
/// is counted invalid, never a panic — shelves each frame as a zero-copy
/// slice of the batch after verifying its checksum, and verifies it again
/// at inventory and before any recovery unpack.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RepHead {
    pub world: u64,
    /// PE whose checkpoint this is (the shelf key on the buddy).
    pub owner: u64,
    /// Checkpoint generation being replicated.
    pub gen: u64,
    /// Sender's recovery epoch at replication time.
    pub epoch: u64,
    /// 0 = steady-state replication (after a local checkpoint deposit);
    /// 1 = recovery re-replication (respawned ranks acquiring new buddies).
    pub purpose: u8,
    pub count: u64,
}
pup_fields!(RepHead {
    world,
    owner,
    gen,
    epoch,
    purpose,
    count
});

/// Per-rank record inside a replication batch.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RepRec {
    pub rank: u64,
    /// Accumulated load at pack time, restored into the scheduler on
    /// recovery unpack so LB keeps working across a rollback.
    pub load_ns: u64,
    /// Byte length of the framed image that follows this record.
    pub len: u64,
}
pup_fields!(RepRec { rank, load_ns, len });

/// Message kinds of the recovery control plane ([`CtlMsg::kind`]).
// flows-wire: defines ampi-ctl
pub mod ctl {
    /// Coordinator → all; generation `a` is globally committed.
    pub const COMMIT: u8 = 0;
    /// Buddy → owner; replica batch for generation `a` stored (`b`
    /// echoes the batch's `purpose`).
    pub const ACK: u8 = 1;
    /// Leader → all live; begin recovery round `epoch` for the dead-PE
    /// set `a` (bitmask).
    pub const START: u8 = 2;
    /// Survivor `a` → leader; `b` = its committed generation, `pairs` =
    /// (gen, rank | OWN_BIT) for every checksum-valid shelf holding.
    pub const INVENTORY: u8 = 3;
    /// Leader → all live; roll back to generation `a - 1` (`a == 0`
    /// means scratch restart), dead mask `b`, `pairs` = the full
    /// (rank, assigned PE) respawn map.
    pub const PLAN: u8 = 4;
    /// Survivor `a` → leader; its assigned ranks are respawned and
    /// re-replicated.
    pub const PLAN_DONE: u8 = 5;
    /// Leader → all live; recovery round `epoch` is complete, generation
    /// `a` is the new baseline, dead mask `b` is healed.
    pub const RESUME: u8 = 6;
    /// Owner → coordinator; all of `a`'s deposits and buddy acks for
    /// generation `a` are in (commit barrier input).
    pub const VOTE: u8 = 7;
}

/// Recovery control-plane message. One struct, one converse handler;
/// [`ctl`] names the `kind` values and documents each interpretation
/// (fields unused by a kind are zero).
#[derive(Debug, Default, Clone, PartialEq)]
pub struct CtlMsg {
    pub kind: u8,
    /// Recovery epoch this message belongs to (0 for pre-failure commit
    /// traffic); stale epochs are dropped on receipt.
    pub epoch: u64,
    pub a: u64,
    pub b: u64,
    pub pairs: Vec<(u64, u64)>,
}
pup_fields!(CtlMsg {
    kind,
    epoch,
    a,
    b,
    pairs
});

/// One rank's measured load, contributed to the LB reduction.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct LoadReport {
    pub rank: u64,
    pub pe: u64,
    pub load_ns: u64,
}
pup_fields!(LoadReport { rank, pe, load_ns });

/// A valid packed thread with `payload` as its payload: the head of a
/// default thread (40 bytes, all zero but its trailing `payload_len`)
/// and then the payload, as raw wire bytes.
#[cfg(test)]
pub(crate) fn thread_wire(payload: &[u8]) -> Vec<u8> {
    let mut img = PackedThread::default().to_bytes();
    let head = img.len();
    img[head - 8..].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    img.extend_from_slice(payload);
    img
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wires_round_trip() {
        let mut w = RankWire {
            kind: 3,
            a: 5,
            b: 7,
            seq: 9,
        };
        let bytes = flows_pup::to_bytes(&mut w);
        assert_eq!(flows_pup::from_bytes::<RankWire>(&bytes).unwrap(), w);
        // The header is fixed-size: bytes after it must survive a prefix
        // parse untouched.
        let mut framed = bytes.clone();
        framed.extend_from_slice(&[1, 2, 3]);
        let (back, used) = flows_pup::from_bytes_prefix::<RankWire>(&framed).unwrap();
        assert_eq!(back, w);
        assert_eq!(&framed[used..], &[1, 2, 3]);

        let mut mv = RankMove {
            world: 1,
            rank: 3,
            epoch: 2,
            thread: PackedThread::from_bytes(&thread_wire(&[9; 100])).unwrap(),
            mailbox: vec![MailEntry {
                src: 0,
                tag: 42,
                data: vec![7].into(),
            }],
            next_seq: vec![(0, 3)],
            send_seq: vec![(4, 6)],
            stashed: vec![(0, 5, 42, vec![8].into())],
        };
        let bytes = flows_pup::to_bytes(&mut mv);
        assert_eq!(flows_pup::from_bytes::<RankMove>(&bytes).unwrap(), mv);
    }

    /// The wire an AMPI message travels as, byte for byte: raw message
    /// bytes, rank header, routing header (object, port, hops 0, not
    /// pinned) — the headers trail the body, so the delivered message is
    /// a prefix of the arrival buffer.
    #[test]
    fn one_buffer_rank_wire_pins_the_framed_bytes() {
        #[derive(Default)]
        struct RouteHdr {
            obj: u64,
            port: u8,
            hops: u32,
            pinned: u8,
        }
        pup_fields!(RouteHdr { obj, port, hops, pinned });

        let wires = std::sync::Mutex::new(Vec::new());
        flows_converse::MachineBuilder::new(1).run_deterministic(|pe| {
            for (n, obj) in [(0usize, 3u64), (64, 0), (4096, u32::MAX as u64 + 5)] {
                let data: Vec<u8> = (0..n).map(|i| (i * 7) as u8).collect();
                let mut w = RankWire { kind: 0, a: 11, b: 1 << 40, seq: 9 };
                let len = RANK_WIRE_LEN + n;
                let wire = flows_comm::route_wire_with(pe, ObjId(obj), PORT_AMPI, len, |buf| {
                    pack_rank_wire(buf, &mut w, &data)
                });
                let mut route = RouteHdr {
                    obj,
                    port: PORT_AMPI,
                    ..RouteHdr::default()
                };
                let mut want = data.clone();
                want.extend(flows_pup::to_bytes(&mut w));
                want.extend(flows_pup::to_bytes(&mut route));
                wires.lock().unwrap().push((wire.to_vec(), want));
            }
        });
        let wires = wires.into_inner().unwrap();
        assert_eq!(wires.len(), 3);
        for (got, want) in wires {
            assert_eq!(got, want);
        }
    }

    /// The rank header is the fixed-size suffix `RANK_WIRE_LEN` says.
    #[test]
    fn rank_wire_len_is_the_pup_size() {
        assert_eq!(
            flows_pup::packed_size(&mut RankWire::default()),
            RANK_WIRE_LEN
        );
    }

    mod decode {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Arbitrary bytes never panic the rank-wire decoder: it
            /// refuses anything too short or of an unknown kind, and what
            /// it accepts re-packs to the bytes it came from.
            #[test]
            fn arbitrary_bytes_are_refused_or_round_trip(
                bytes in proptest::collection::vec(any::<u8>(), 0..80),
            ) {
                let p: Payload = bytes.clone().into();
                match parse_rank_wire(&p) {
                    None => prop_assert!(
                        bytes.len() < RANK_WIRE_LEN
                            || !matches!(bytes[bytes.len() - RANK_WIRE_LEN], 0 | 1 | 3)
                    ),
                    Some((mut w, data)) => {
                        let mut again = PayloadBuf::new();
                        pack_rank_wire(&mut again, &mut w, &data);
                        prop_assert_eq!(&again[..], &bytes[..]);
                    }
                }
            }
        }
    }
}
