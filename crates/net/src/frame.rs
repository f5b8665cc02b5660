//! The framed wire format every flows-net backend carries.
//!
//! One frame is one converse-level event between PEs, within a process
//! or across a process boundary: a data message (with its link-layer
//! sequence number), an ack, a heartbeat, or a control frame between
//! processes, whose tag byte and body belong to the layer above. The
//! header is a fixed [`HEADER_LEN`]-byte little-endian prefix; the body
//! travels uninterpreted, so the shared-memory backend can hand it to the
//! receiver as a zero-copy view of the ring slot.

use flows_core::Payload;

/// Fixed header size: kind(1) ctrl(1) src_pe(4) dst_pe(4) a(8) b(8)
/// c(8) body_len(4).
pub const HEADER_LEN: usize = 38;

/// What a frame carries. `Data`/`Ack`/`Heartbeat` are the converse link
/// layer's own records: a PE's inbox carries them between the threads of
/// one process as well, and the PE reads them in one place. A `Ctrl`
/// frame is a process-to-process record of the layer above: a tag byte
/// and a body, both opaque here.
// flows-wire: defines net-frame
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// An application message: `a` = link seq (0 = unsequenced),
    /// `b` = handler id, `c` = send-side virtual time.
    Data,
    /// Cumulative link ack: `a` = cum.
    Ack,
    /// Failure-detector heartbeat: `a` = hb_seq, `b` = the sender's
    /// virtual clock.
    Heartbeat,
    /// A process-to-process control frame: `ctrl` is its tag, the body
    /// its record, and `a`/`b`/`c` are zero.
    Ctrl,
}

impl FrameKind {
    fn code(self) -> u8 {
        match self {
            FrameKind::Data => 1,
            FrameKind::Ack => 2,
            FrameKind::Heartbeat => 3,
            FrameKind::Ctrl => 4,
        }
    }

    fn from_code(c: u8) -> Option<FrameKind> {
        Some(match c {
            1 => FrameKind::Data,
            2 => FrameKind::Ack,
            3 => FrameKind::Heartbeat,
            4 => FrameKind::Ctrl,
            _ => return None,
        })
    }
}

/// One transport frame: fixed header fields plus an uninterpreted body.
#[derive(Debug, Clone)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Control tag, opaque to this crate; 0 for non-control frames.
    pub ctrl: u8,
    /// Global source PE (or proc rank for control frames).
    pub src_pe: u32,
    /// Global destination PE; `u32::MAX` for control frames.
    pub dst_pe: u32,
    /// Kind-specific field (seq / cum / hb_seq).
    pub a: u64,
    /// Kind-specific field (handler id / vt).
    pub b: u64,
    /// Kind-specific field (send vtime).
    pub c: u64,
    /// The body bytes (zero-copy view on the shm receive path).
    pub body: Payload,
}

/// Decoded header fields, before the body is attached.
#[derive(Debug, Clone, Copy)]
pub struct Header {
    /// See [`Frame::kind`].
    pub kind: FrameKind,
    /// See [`Frame::ctrl`].
    pub ctrl: u8,
    /// See [`Frame::src_pe`].
    pub src_pe: u32,
    /// See [`Frame::dst_pe`].
    pub dst_pe: u32,
    /// See [`Frame::a`].
    pub a: u64,
    /// See [`Frame::b`].
    pub b: u64,
    /// See [`Frame::c`].
    pub c: u64,
    /// Length of the body that follows the header.
    pub body_len: u32,
}

impl Header {
    /// Decode a header from (at least) [`HEADER_LEN`] bytes. `None` on
    /// a short buffer or unknown frame kind.
    pub fn decode(h: &[u8]) -> Option<Header> {
        if h.len() < HEADER_LEN {
            return None;
        }
        let u32_at = |o: usize| u32::from_le_bytes(h[o..o + 4].try_into().unwrap());
        let u64_at = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().unwrap());
        Some(Header {
            kind: FrameKind::from_code(h[0])?,
            ctrl: h[1],
            src_pe: u32_at(2),
            dst_pe: u32_at(6),
            a: u64_at(10),
            b: u64_at(18),
            c: u64_at(26),
            body_len: u32_at(34),
        })
    }
}

impl Frame {
    /// A data frame (`seq` 0 = unsequenced fast path).
    pub fn data(src_pe: u32, dst_pe: u32, seq: u64, handler: u64, vtime: u64, body: Payload) -> Frame {
        Frame {
            kind: FrameKind::Data,
            ctrl: 0,
            src_pe,
            dst_pe,
            a: seq,
            b: handler,
            c: vtime,
            body,
        }
    }

    /// A cumulative ack frame.
    pub fn ack(src_pe: u32, dst_pe: u32, cum: u64) -> Frame {
        Frame {
            kind: FrameKind::Ack,
            ctrl: 0,
            src_pe,
            dst_pe,
            a: cum,
            b: 0,
            c: 0,
            body: Payload::empty(),
        }
    }

    /// A heartbeat frame. `vt` is the sender's virtual clock, used by
    /// receivers in threaded machines to keep loosely synchronized.
    pub fn heartbeat(src_pe: u32, dst_pe: u32, hb_seq: u64, vt: u64) -> Frame {
        Frame {
            kind: FrameKind::Heartbeat,
            ctrl: 0,
            src_pe,
            dst_pe,
            a: hb_seq,
            b: vt,
            c: 0,
            body: Payload::empty(),
        }
    }

    /// A control frame between processes: `tag` and `body` are the
    /// layer above's, and `src_pe` carries the sender's proc rank.
    pub fn control(tag: u8, src_proc: u32, body: Payload) -> Frame {
        Frame {
            kind: FrameKind::Ctrl,
            ctrl: tag,
            src_pe: src_proc,
            dst_pe: u32::MAX,
            a: 0,
            b: 0,
            c: 0,
            body,
        }
    }

    /// Total encoded size (header + body).
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.body.len()
    }

    /// Write the header into `out`.
    pub fn encode_header(&self, out: &mut [u8; HEADER_LEN]) {
        out[0] = self.kind.code();
        out[1] = self.ctrl;
        out[2..6].copy_from_slice(&self.src_pe.to_le_bytes());
        out[6..10].copy_from_slice(&self.dst_pe.to_le_bytes());
        out[10..18].copy_from_slice(&self.a.to_le_bytes());
        out[18..26].copy_from_slice(&self.b.to_le_bytes());
        out[26..34].copy_from_slice(&self.c.to_le_bytes());
        out[34..38].copy_from_slice(&(self.body.len() as u32).to_le_bytes());
    }

    /// Append the full frame (header + body) to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let mut h = [0u8; HEADER_LEN];
        self.encode_header(&mut h);
        out.extend_from_slice(&h);
        out.extend_from_slice(self.body.as_slice());
    }

    /// Reattach a decoded header to its body.
    pub fn from_header(h: Header, body: Payload) -> Frame {
        debug_assert_eq!(h.body_len as usize, body.len());
        Frame {
            kind: h.kind,
            ctrl: h.ctrl,
            src_pe: h.src_pe,
            dst_pe: h.dst_pe,
            a: h.a,
            b: h.b,
            c: h.c,
            body,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let body: Payload = vec![9u8; 100].into();
        let f = Frame::data(3, 7, 42, 5, 1_000_000, body.clone());
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN + 100);
        let h = Header::decode(&buf).unwrap();
        assert_eq!(h.kind, FrameKind::Data);
        assert_eq!((h.src_pe, h.dst_pe), (3, 7));
        assert_eq!((h.a, h.b, h.c), (42, 5, 1_000_000));
        assert_eq!(h.body_len, 100);
        let g = Frame::from_header(h, Payload::from_vec(buf[HEADER_LEN..].to_vec()));
        assert_eq!(g.body, body);
    }

    #[test]
    fn control_and_empty_bodies() {
        let f = Frame::control(5, 2, Payload::empty());
        let mut buf = Vec::new();
        f.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let h = Header::decode(&buf).unwrap();
        assert_eq!(h.kind, FrameKind::Ctrl);
        assert_eq!((h.ctrl, h.src_pe, h.dst_pe), (5, 2, u32::MAX));
        assert_eq!((h.a, h.b, h.c), (0, 0, 0));
        assert_eq!(h.body_len, 0);
    }

    #[test]
    fn short_or_garbage_headers_are_rejected() {
        assert!(Header::decode(&[0u8; 10]).is_none());
        let mut junk = [0u8; HEADER_LEN];
        junk[0] = 99;
        assert!(Header::decode(&junk).is_none());
    }
}
