//! Wire formats of the AMPI layer.

#![allow(missing_docs)] // field meanings documented on each struct

use flows_comm::{ObjId, Port};
use flows_converse::{Payload, PayloadBuf, Pe};
use flows_core::{PackedThread, StackFlavor, SwapKind};
use flows_pup::pup_fields;

/// The comm-layer port AMPI rank traffic travels on.
pub const PORT_AMPI: Port = 1;

/// The swap kind of every AMPI scheduler, so the one a rank image's
/// thread must have been packed under.
pub(crate) const RANK_SWAP: SwapKind = SwapKind::Minimal;

/// The stack flavor every rank thread is spawned with, so the one a rank
/// image's thread must carry: its stack lives in an isomalloc slot.
pub(crate) const RANK_FLAVOR: StackFlavor = StackFlavor::Isomalloc;

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

/// The LB plan for one source PE: every rank living there paired with its
/// destination PE. The reduction root sends ONE plan per source PE
/// (instead of one decision wire per rank); the source wakes its stayers
/// and packs its movers locally.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct PlanMsg {
    /// LB epoch sequence number.
    pub seq: u64,
    /// Sender's recovery epoch; a plan computed before a rollback embeds
    /// stale placement and is dropped by the receiver.
    pub epoch: u64,
    /// (rank, destination PE), sorted by rank for deterministic handling.
    pub entries: Vec<(u64, u64)>,
}
pup_fields!(PlanMsg { seq, epoch, entries });

/// Header of a batched migration message: all the ranks one LB epoch moves
/// between one (source, destination) PE pair ride a single wire message.
/// `count` rank images (`pack_rank_image`) follow.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct BatchHead {
    /// Sender's recovery epoch: movers packed before a rollback carry
    /// post-cut state and are dropped by the receiver.
    pub epoch: u64,
    pub count: u64,
}
pup_fields!(BatchHead { epoch, count });

/// A rank's runtime state outside its thread's own memory: its mailbox and
/// the per-sender in-order delivery state. Followed by the rank's raw
/// `PackedThread` wire bytes, it is the rank's one image form
/// (`pack_rank_image`): a record of an LB batch and the payload of a
/// checkpoint frame alike.
// flows-image: root
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MoveRec {
    pub rank: u64,
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
pup_fields!(MoveRec {
    rank,
    mailbox,
    next_seq,
    send_seq,
    stashed
});

/// Append a rank image to `out`: the pup'd record, then the thread's raw
/// wire bytes (head and payload). The one writer of both image uses — an
/// LB batch record and a checkpoint frame's payload; the inverse is
/// [`decode_rank_image`].
pub(crate) fn pack_rank_image(out: &mut Vec<u8>, rec: &mut MoveRec, thread: &PackedThread) {
    flows_pup::pack_into(rec, out);
    thread.pack_into(out);
}

/// Decode the rank image at `off` of `data`, trusting none of it: the
/// record, then the thread, whose head must carry [`RANK_SWAP`] and
/// [`RANK_FLAVOR`] and whose payload becomes a zero-copy slice of `data`.
/// Returns the image and the bytes it spans. The one decoder of migration
/// arrival, the recovery inventory and the respawn.
pub(crate) fn decode_rank_image(data: &Payload, off: usize) -> Option<(MoveRec, PackedThread, usize)> {
    let (rec, used): (MoveRec, usize) = flows_pup::from_bytes_prefix(data.get(off..)?).ok()?;
    let (thread, len) = PackedThread::from_payload(data, off + used).ok()?;
    thread.packed_as(RANK_SWAP, RANK_FLAVOR).then_some((rec, thread, used + len))
}

/// Header of a buddy-replication batch: all of one owner PE's rank images
/// for one checkpoint generation, shipped to a buddy in a single wire
/// message. `count` records follow, each a pup'd [`RepRec`] immediately
/// followed by that rank's framed checkpoint image (magic + version 3 +
/// length + word-lane FNV-1a checksum around the rank image of
/// `pack_rank_image`, written in place by `flows_core::frame_in_place`
/// when the rank was packed). The receiver decodes the batch defensively — a malformed one
/// is counted invalid, never a panic — shelves each frame as a zero-copy
/// slice of the batch after verifying its checksum, and verifies it again
/// at inventory and before any recovery unpack.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RepHead {
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
    /// Byte length of the framed image that follows this record.
    pub len: u64,
}
pup_fields!(RepRec { rank, len });

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

/// A valid rank thread with `payload` as its payload: the head of a
/// default thread (40 bytes, all zero but the flavor tag at byte 9, which
/// names [`RANK_FLAVOR`], and the trailing `payload_len`) and then the
/// payload, as raw wire bytes.
#[cfg(test)]
pub(crate) fn thread_wire(payload: &[u8]) -> Vec<u8> {
    let mut img = PackedThread::default().to_bytes();
    let head = img.len();
    img[9] = 1; // after the id (8 bytes) and the swap kind: Isomalloc
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

        // A rank image sits behind whatever precedes it and spans exactly
        // its record and thread; the thread is a zero-copy slice.
        let mut rec = MoveRec {
            rank: 3,
            mailbox: vec![MailEntry {
                src: 0,
                tag: 42,
                data: vec![7].into(),
            }],
            next_seq: vec![(0, 3)],
            send_seq: vec![(4, 6)],
            stashed: vec![(0, 5, 42, vec![8].into())],
        };
        let thread = PackedThread::from_bytes(&thread_wire(&[9; 100])).unwrap();
        let mut bytes = vec![0xEE; 5];
        pack_rank_image(&mut bytes, &mut rec, &thread);
        let data = Payload::from(bytes);
        let (back, t, used) = decode_rank_image(&data, 5).unwrap();
        assert_eq!((back, &t, 5 + used), (rec, &thread, data.len()));
        assert!(t.payload().same_backing(&data));
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

    /// One table of every AMPI decoder of bytes that cross a process
    /// boundary, each line run through `flows_pup::check_decoder`: a
    /// decoder refuses the bytes or accepts exactly what it re-encodes,
    /// and never panics. A new decoder is fuzzed by adding its line.
    mod decode {
        use super::*;
        use crate::recover::{decode_image, frame_image, parse_ctl, parse_rep_batch, write_rep_batch};
        use crate::world::{decode_load_reports, decode_move_batch};

        /// Decode, then re-encode what was accepted: `None` for refused
        /// bytes, else the re-encoding and the bytes the decoder consumed.
        type Decoder = fn(&Payload) -> Option<(Vec<u8>, usize)>;

        fn rec() -> MoveRec {
            MoveRec {
                rank: 3,
                mailbox: vec![MailEntry { src: 1, tag: 9, data: vec![0xAB; 40].into() }],
                next_seq: vec![(1, 2)],
                send_seq: vec![(0, 4)],
                stashed: vec![(1, 3, 9, vec![0xCD; 7].into())],
            }
        }

        fn thread() -> PackedThread {
            PackedThread::from_bytes(&thread_wire(&[5; 24])).unwrap()
        }

        fn image() -> Vec<u8> {
            let mut out = Vec::new();
            pack_rank_image(&mut out, &mut rec(), &thread());
            out
        }

        fn frame() -> Payload {
            frame_image(&mut rec(), &mut thread())
        }

        fn repack<T: flows_pup::Pup>(mut items: Vec<T>) -> Vec<u8> {
            let mut out = Vec::new();
            for x in &mut items {
                flows_pup::pack_into(x, &mut out);
            }
            out
        }

        /// (name, a valid wire, its decoder).
        type Entry = (&'static str, fn() -> Vec<u8>, Decoder);

        const DECODERS: [Entry; 8] = [
            ("rank wire", || {
                let mut buf = PayloadBuf::new();
                pack_rank_wire(&mut buf, &mut RankWire { kind: 0, a: 1, b: 2, seq: 3 }, &[1, 2, 3, 4]);
                buf.to_vec()
            }, |p| {
                let (mut w, data) = parse_rank_wire(p)?;
                let mut buf = PayloadBuf::new();
                pack_rank_wire(&mut buf, &mut w, &data);
                Some((buf.to_vec(), p.len()))
            }),
            ("load reports", || {
                repack(vec![
                    LoadReport { rank: 0, pe: 1, load_ns: 2 },
                    LoadReport { rank: 3, pe: 0, load_ns: 9 },
                ])
            }, |p| Some((repack(decode_load_reports(p)?), p.len()))),
            ("LB plan", || {
                flows_pup::to_bytes(&mut PlanMsg { seq: 4, epoch: 1, entries: vec![(0, 1), (1, 0)] })
            }, |p| Some((flows_pup::to_bytes(&mut flows_pup::from_bytes::<PlanMsg>(p).ok()?), p.len()))),
            ("rank image", image, |p| {
                let (mut rec, thread, used) = decode_rank_image(p, 0)?;
                let mut out = Vec::new();
                pack_rank_image(&mut out, &mut rec, &thread);
                Some((out, used))
            }),
            ("migration batch", || {
                [flows_pup::to_bytes(&mut BatchHead { epoch: 1, count: 2 }), image(), image()].concat()
            }, |p| {
                let (mut head, movers) = decode_move_batch(p)?;
                let mut out = flows_pup::to_bytes(&mut head);
                for (mut rec, thread) in movers {
                    pack_rank_image(&mut out, &mut rec, &thread);
                }
                Some((out, p.len()))
            }),
            ("checkpoint frame", || frame().to_vec(), |p| {
                let (mut rec, mut thread) = decode_image(p, 3)?;
                Some((frame_image(&mut rec, &mut thread).to_vec(), p.len()))
            }),
            ("replica batch", || {
                let head = RepHead { owner: 1, gen: 2, epoch: 0, purpose: 0, count: 2 };
                let mut out = Vec::new();
                write_rep_batch(&mut out, head, &[(3, frame()), (4, frame())]);
                out
            }, |p| {
                let (head, recs) = parse_rep_batch(p).ok()?;
                let images: Vec<(u64, Payload)> = recs.into_iter().map(|(r, f)| (r.rank, f)).collect();
                let mut out = Vec::new();
                write_rep_batch(&mut out, head, &images);
                Some((out, p.len()))
            }),
            ("recovery control", || {
                let pairs = vec![(0, 1), (1, 3)];
                flows_pup::to_bytes(&mut CtlMsg { kind: ctl::PLAN, epoch: 2, a: 1, b: 0, pairs })
            }, |p| Some((flows_pup::to_bytes(&mut parse_ctl(p, 4).ok()?), p.len()))),
        ];

        #[test]
        fn every_decoder_refuses_or_round_trips() {
            for (name, wire, decode) in DECODERS {
                flows_pup::check_decoder(name, &wire(), |b| decode(&Payload::from(b)));
            }
        }
    }
}
