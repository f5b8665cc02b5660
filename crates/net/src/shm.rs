//! Lock-free shared-memory rings over a `memfd` segment — the
//! intra-host transport backend.
//!
//! One segment holds, for every ordered process pair `(src, dst)`, a
//! fixed ring of message slots. Each ring is strictly single-producer /
//! single-consumer: the producing process serializes its PE threads on
//! a *local* mutex (nothing shared is locked), and only the destination
//! process's comm thread consumes. A slot's `state` word is the only
//! synchronization: the producer waits for `FREE`, writes the frame
//! once, and publishes with a `Release` store of `FULL`; the consumer
//! acquires `FULL`, hands the body to the PE as a zero-copy
//! [`ExternRegion`] view of the slot, and the slot returns to `FREE`
//! when the last payload view drops. Bodies never transit a socket or
//! an intermediate buffer — the producer's single write into the ring
//! is the only time the bytes move.
//!
//! Blocking is futex-based: each process has a doorbell word in the
//! segment header; producers bump it after publishing and issue a
//! `FUTEX_WAKE` only when the consumer has advertised it is parked, so
//! a busy receiver costs zero syscalls per message.

use crate::frame::{Frame, Header, HEADER_LEN};
use flows_core::{ExternRegion, Payload};
use flows_sys::{futex, page_align_up, MemFd, Mapping, SysError, SysResult};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Segment magic ("FLOWNET1").
const MAGIC: u64 = 0x464c_4f57_4e45_5431;

/// Segment header size (magic + geometry, padded to a cache line).
const HDR_LEN: usize = 64;

/// Per-process control block stride (one cache line each).
const CTRL_STRIDE: usize = 64;
/// Doorbell word: bumped by producers after publishing a slot; the
/// futex the consumer sleeps on.
const CTRL_DOORBELL: usize = 0;
/// Parked flag: 1 while the consumer is (about to be) in `FUTEX_WAIT`.
const CTRL_PARKED: usize = 4;
/// Ready flag: set once the process has attached (bring-up barrier).
const CTRL_READY: usize = 8;

/// Per-slot header: state(4) len(4) flags(4) pad(4).
const SLOT_HDR: usize = 16;
const SLOT_FREE: u32 = 0;
const SLOT_FULL: u32 = 1;
/// Slot flag: this slot is one chunk of a spilled (oversized) frame and
/// more chunks follow.
const FLAG_MORE: u32 = 1;

/// How long a poll waits for the next chunk of a spilled frame before it
/// leaves the frame half-assembled for a later poll. A live producer
/// publishes chunks back to back, so the wait is normally one chunk copy;
/// the bound keeps a producer that stalls or dies mid-frame from holding
/// the consumer.
const SPILL_CHUNK_WAIT: Duration = Duration::from_micros(50);

/// Default slots per ring.
pub const DEFAULT_SLOTS: usize = 64;
/// Default slot capacity; `SLOT_HDR + DEFAULT_SLOT_BYTES` is one 4 KiB
/// page, so a default ring slot never splits a frame that fits a page.
pub const DEFAULT_SLOT_BYTES: usize = 4096 - SLOT_HDR;

/// A mapped flows-net segment: geometry plus raw accessors. Shared by
/// the transport and by the [`SlotRegion`] payload views that keep
/// slots pinned.
pub struct Segment {
    fd: MemFd,
    map: Mapping,
    procs: usize,
    slots: usize,
    slot_bytes: usize,
}

impl Segment {
    fn layout_len(procs: usize, slots: usize, slot_bytes: usize) -> usize {
        let stride = Self::stride_of(slot_bytes);
        page_align_up(HDR_LEN + procs * CTRL_STRIDE + procs * procs * slots * stride)
    }

    fn stride_of(slot_bytes: usize) -> usize {
        (SLOT_HDR + slot_bytes).next_multiple_of(64)
    }

    /// Create a fresh segment for `procs` processes (leader side).
    pub fn create(procs: usize, slots: usize, slot_bytes: usize) -> SysResult<Arc<Segment>> {
        if procs < 2 || slots < 2 || !slots.is_power_of_two() || slot_bytes < HEADER_LEN {
            return Err(SysError::logic(
                "shm_segment",
                format!("bad geometry: procs={procs} slots={slots} slot_bytes={slot_bytes}"),
            ));
        }
        let len = Self::layout_len(procs, slots, slot_bytes);
        let fd = MemFd::new("flows-net", len as u64)?;
        let seg = Self::map_over(fd, procs, slots, slot_bytes)?;
        // A fresh memfd reads as zeros, so every slot starts FREE and
        // every control block unparked; only the geometry header needs
        // writing.
        seg.write_bytes(0, &MAGIC.to_le_bytes());
        seg.write_bytes(8, &(procs as u32).to_le_bytes());
        seg.write_bytes(12, &(slots as u32).to_le_bytes());
        seg.write_bytes(16, &(slot_bytes as u32).to_le_bytes());
        Ok(seg)
    }

    /// Map an existing segment (child side; `fd` usually comes from
    /// [`MemFd::open_pid_fd`]). Validates magic and geometry.
    pub fn attach(fd: MemFd) -> SysResult<Arc<Segment>> {
        let probe = {
            let mut hdr = [0u8; 20];
            fd.read_at(0, &mut hdr)?;
            hdr
        };
        if u64::from_le_bytes(probe[0..8].try_into().unwrap()) != MAGIC {
            return Err(SysError::logic("shm_segment", "bad magic".into()));
        }
        let procs = u32::from_le_bytes(probe[8..12].try_into().unwrap()) as usize;
        let slots = u32::from_le_bytes(probe[12..16].try_into().unwrap()) as usize;
        let slot_bytes = u32::from_le_bytes(probe[16..20].try_into().unwrap()) as usize;
        let want = Self::layout_len(procs, slots, slot_bytes);
        if procs < 2
            || slots < 2
            || !slots.is_power_of_two()
            || slot_bytes < HEADER_LEN
            || fd.len() < want as u64
        {
            return Err(SysError::logic(
                "shm_segment",
                format!("inconsistent geometry: procs={procs} slots={slots} len={}", fd.len()),
            ));
        }
        Self::map_over(fd, procs, slots, slot_bytes)
    }

    fn map_over(fd: MemFd, procs: usize, slots: usize, slot_bytes: usize) -> SysResult<Arc<Segment>> {
        let len = Self::layout_len(procs, slots, slot_bytes);
        let map = Mapping::reserve(len)?;
        map.alias_file(0, len, fd.fd(), 0)?;
        Ok(Arc::new(Segment {
            fd,
            map,
            procs,
            slots,
            slot_bytes,
        }))
    }

    /// The memfd backing this segment (for the meta file's attach info).
    pub fn fd(&self) -> std::os::fd::RawFd {
        self.fd.fd()
    }

    /// Number of processes the segment was sized for.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The mapped virtual-address range, for zero-copy assertions
    /// ("this payload's bytes live inside the shared arena").
    pub fn range(&self) -> (usize, usize) {
        (self.map.addr(), self.map.addr() + self.map.len())
    }

    fn ctrl_off(&self, proc: usize) -> usize {
        HDR_LEN + proc * CTRL_STRIDE
    }

    fn slot_off(&self, src: usize, dst: usize, idx: usize) -> usize {
        let stride = Self::stride_of(self.slot_bytes);
        HDR_LEN
            + self.procs * CTRL_STRIDE
            + ((src * self.procs + dst) * self.slots + idx) * stride
    }

    fn atom(&self, off: usize) -> &AtomicU32 {
        debug_assert!(off + 4 <= self.map.len() && off.is_multiple_of(4));
        // SAFETY: `off` is a 4-aligned offset inside the mapping (all
        // layout offsets are multiples of 16); concurrent cross-process
        // access to the word is exactly what AtomicU32 permits.
        unsafe { &*(self.map.ptr(off) as *const AtomicU32) }
    }

    fn bytes(&self, off: usize, len: usize) -> &[u8] {
        debug_assert!(off + len <= self.map.len());
        // SAFETY: range is inside the mapping, and the slot protocol
        // guarantees the producer stopped writing before the consumer
        // (or a payload view) reads: reads happen only after an Acquire
        // load observes SLOT_FULL, which the producer stores with
        // Release after its last byte write.
        unsafe { std::slice::from_raw_parts(self.map.ptr(off), len) }
    }

    fn write_bytes(&self, off: usize, src: &[u8]) {
        debug_assert!(off + src.len() <= self.map.len());
        // SAFETY: range is inside the mapping; the slot protocol makes
        // the producer the only writer while the slot is FREE.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.map.ptr(off), src.len()) };
    }
}

/// A zero-copy payload view of one ring slot's body. Holding it pins
/// the slot; dropping the last view stores `FREE`, returning the slot
/// to its producer.
struct SlotRegion {
    seg: Arc<Segment>,
    state_off: usize,
    data_off: usize,
    len: usize,
}

impl ExternRegion for SlotRegion {
    fn bytes(&self) -> &[u8] {
        self.seg.bytes(self.data_off, self.len)
    }
}

impl Drop for SlotRegion {
    fn drop(&mut self) {
        self.seg.atom(self.state_off).store(SLOT_FREE, Ordering::Release); // flows-atomic: publishes shm-slot-free
    }
}

/// The shared-memory transport endpoint of one process.
pub struct ShmTransport {
    seg: Arc<Segment>,
    rank: usize,
    /// Producer tails, one per destination; the mutex serializes this
    /// process's PE threads (local, never shared across processes).
    tails: Vec<Mutex<u64>>,
    /// Consumer lanes, one per source; only the comm thread consumes.
    lanes: Mutex<Vec<Lane>>,
    /// Round-robin scan start so no source ring starves.
    rr: AtomicUsize,
    dead: Vec<AtomicBool>,
    /// See [`ShmTransport::slot_drops`].
    drops: AtomicU64,
}

/// The consumer's read position in one source ring, plus the spilled
/// frame it is reassembling from that ring, if one is half arrived.
#[derive(Default)]
struct Lane {
    head: u64,
    spill: Option<Spill>,
}

/// A spilled frame in reassembly: the bytes so far and, once the header
/// has arrived, the header and the frame's `HEADER_LEN + body_len`.
#[derive(Default)]
struct Spill {
    buf: Vec<u8>,
    head: Option<(Header, usize)>,
}

/// What one spilled chunk did to its frame.
enum Chunk {
    /// More chunks are due.
    Pending,
    /// The frame is complete.
    Whole(Frame),
    /// A chunk overran its slot, or the chunks do not add up to the
    /// header's `HEADER_LEN + body_len`.
    Refused,
}

impl Spill {
    /// Append the chunk of `len` bytes in the slot at `off`; `more` is its
    /// `FLAG_MORE`.
    fn take_chunk(&mut self, seg: &Segment, off: usize, len: usize, more: bool) -> Chunk {
        let over = |t: usize| self.buf.len() + len > t;
        if len > seg.slot_bytes || self.head.is_some_and(|(_, t)| over(t)) {
            return Chunk::Refused;
        }
        self.buf.extend_from_slice(seg.bytes(off + SLOT_HDR, len));
        if self.head.is_none() && self.buf.len() >= HEADER_LEN {
            let Some(h) = Header::decode(&self.buf) else { return Chunk::Refused };
            let total = HEADER_LEN + h.body_len as usize;
            if self.buf.len() > total {
                return Chunk::Refused;
            }
            self.head = Some((h, total));
        }
        match (self.head, more) {
            (Some((hdr, total)), false) if self.buf.len() == total => {
                let body = Payload::from_vec(self.buf.split_off(HEADER_LEN));
                Chunk::Whole(Frame::from_header(hdr, body))
            }
            (Some((_, total)), true) if self.buf.len() < total => Chunk::Pending,
            (None, true) => Chunk::Pending,
            _ => Chunk::Refused, // the chunks and the header disagree
        }
    }
}

impl ShmTransport {
    /// Wrap a segment as the endpoint for process `rank`.
    pub fn new(seg: Arc<Segment>, rank: usize) -> Arc<ShmTransport> {
        assert!(rank < seg.procs);
        let procs = seg.procs;
        Arc::new(ShmTransport {
            seg,
            rank,
            tails: (0..procs).map(|_| Mutex::new(0)).collect(),
            lanes: Mutex::new((0..procs).map(|_| Lane::default()).collect()),
            rr: AtomicUsize::new(0),
            dead: (0..procs).map(|_| AtomicBool::new(false)).collect(),
            drops: AtomicU64::new(0),
        })
    }

    /// The segment this endpoint maps.
    pub fn segment(&self) -> &Arc<Segment> {
        &self.seg
    }

    /// This endpoint's process rank.
    pub fn rank_of(&self) -> usize {
        self.rank
    }

    /// Announce this process attached (bring-up barrier contribution).
    pub fn set_ready(&self) {
        self.seg
            .atom(self.seg.ctrl_off(self.rank) + CTRL_READY)
            .store(1, Ordering::Release); // flows-atomic: publishes shm-ready
    }

    /// Wait until every process has set its ready flag.
    pub fn wait_all_ready(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            let all = (0..self.seg.procs)
                // flows-atomic: consumes shm-ready
                .all(|p| self.seg.atom(self.seg.ctrl_off(p) + CTRL_READY).load(Ordering::Acquire) == 1);
            if all {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn ring_doorbell(&self, dst: usize) {
        let ctrl = self.seg.ctrl_off(dst);
        let doorbell = self.seg.atom(ctrl + CTRL_DOORBELL);
        // SeqCst on both sides closes the classic lost-wakeup race with
        // the consumer's parked-flag / doorbell-snapshot ordering.
        doorbell.fetch_add(1, Ordering::SeqCst); // flows-atomic: publishes shm-doorbell
        if self.seg.atom(ctrl + CTRL_PARKED).load(Ordering::SeqCst) == 1 { // flows-atomic: consumes shm-parked
            let _ = futex::wake(doorbell, 1);
        }
    }

    /// Wait for slot `off` to be FREE; false if `dst` died meanwhile.
    fn wait_free(&self, off: usize, dst: usize) -> bool {
        let state = self.seg.atom(off);
        let mut spins = 0u32;
        while state.load(Ordering::Acquire) != SLOT_FREE { // flows-atomic: consumes shm-slot-free
            if self.dead[dst].load(Ordering::Relaxed) {
                return false;
            }
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                // Ring full: the consumer always drains, so yield until
                // it catches up (or its payload views drop).
                std::thread::yield_now();
            }
        }
        true
    }

    /// Send a frame to process `dst`. Frames to a dead process are
    /// dropped (the machine's written-off accounting covers them).
    pub fn send(&self, dst: usize, frame: &Frame) {
        debug_assert_ne!(dst, self.rank);
        if self.dead[dst].load(Ordering::Relaxed) {
            return;
        }
        let total = frame.wire_len();
        let seg = &self.seg;
        if total <= seg.slot_bytes {
            // Fast path: the frame fits one slot — header and body are
            // written straight into the shared arena, the only time the
            // body bytes move.
            let mut tail = self.tails[dst].lock();
            let idx = (*tail % seg.slots as u64) as usize;
            let off = seg.slot_off(self.rank, dst, idx);
            if !self.wait_free(off, dst) {
                return;
            }
            let mut hdr = [0u8; HEADER_LEN];
            frame.encode_header(&mut hdr);
            seg.write_bytes(off + SLOT_HDR, &hdr);
            seg.write_bytes(off + SLOT_HDR + HEADER_LEN, frame.body.as_slice());
            seg.atom(off + 4).store(total as u32, Ordering::Relaxed);
            seg.atom(off + 8).store(0, Ordering::Relaxed);
            seg.atom(off).store(SLOT_FULL, Ordering::Release); // flows-atomic: publishes shm-slot-full
            *tail += 1;
            drop(tail);
            self.ring_doorbell(dst);
            return;
        }
        // Spill path: the frame is bigger than a slot, so it crosses in
        // chunks and the bytes get staged once on each side. Counted so
        // the zero-copy tests can pin the fast path.
        crate::bump_body_copies();
        let mut buf = Vec::with_capacity(total);
        frame.encode(&mut buf);
        let mut tail = self.tails[dst].lock();
        let mut written = 0usize;
        while written < total {
            let chunk = (total - written).min(seg.slot_bytes);
            let idx = (*tail % seg.slots as u64) as usize;
            let off = seg.slot_off(self.rank, dst, idx);
            if !self.wait_free(off, dst) {
                return;
            }
            seg.write_bytes(off + SLOT_HDR, &buf[written..written + chunk]);
            seg.atom(off + 4).store(chunk as u32, Ordering::Relaxed);
            let more = if written + chunk < total { FLAG_MORE } else { 0 };
            seg.atom(off + 8).store(more, Ordering::Relaxed);
            seg.atom(off).store(SLOT_FULL, Ordering::Release); // flows-atomic: publishes shm-slot-full
            *tail += 1;
            written += chunk;
        }
        drop(tail);
        self.ring_doorbell(dst);
    }

    /// Poll every source ring once (round-robin start); `None` when all
    /// are empty. A spilled frame whose next chunk is not published within
    /// [`SPILL_CHUNK_WAIT`] stays half-assembled in its lane until a later
    /// poll, so a producer that dies mid-frame never stalls the caller.
    pub fn try_recv(&self) -> Option<(usize, Frame)> {
        let seg = &self.seg;
        let procs = seg.procs;
        let mut lanes = self.lanes.lock();
        let start = self.rr.fetch_add(1, Ordering::Relaxed);
        for i in 0..procs {
            let src = (start + i) % procs;
            if src == self.rank {
                continue;
            }
            let lane = &mut lanes[src];
            loop {
                let idx = (lane.head % seg.slots as u64) as usize;
                let off = seg.slot_off(src, self.rank, idx);
                let full = seg.atom(off).load(Ordering::Acquire) == SLOT_FULL; // flows-atomic: consumes shm-slot-full
                let mid_frame = lane.spill.is_some();
                if !(full || mid_frame && self.await_chunk(src, off)) {
                    // The rest of a half-assembled frame never comes once
                    // its producer has died.
                    if mid_frame && self.dead[src].load(Ordering::Relaxed) {
                        lane.spill = None;
                        self.drops.fetch_add(1, Ordering::Relaxed);
                    }
                    break;
                }
                let len = seg.atom(off + 4).load(Ordering::Relaxed) as usize;
                let more = seg.atom(off + 8).load(Ordering::Relaxed) & FLAG_MORE != 0;
                if lane.spill.is_some() || more {
                    if lane.spill.is_none() {
                        // Spilled bytes are staged once on this side.
                        crate::bump_body_copies();
                    }
                    let spill = lane.spill.get_or_insert_with(Spill::default);
                    let step = spill.take_chunk(seg, off, len, more);
                    seg.atom(off).store(SLOT_FREE, Ordering::Release); // flows-atomic: publishes shm-slot-free
                    lane.head += 1;
                    match step {
                        Chunk::Pending => continue,
                        Chunk::Whole(frame) => {
                            lane.spill = None;
                            return Some((src, frame));
                        }
                        Chunk::Refused => {
                            // The frame's chunks not consumed yet are each
                            // discarded by later polls.
                            lane.spill = None;
                            self.drops.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
                // The slot's length word is the peer's claim: it must fit the
                // slot and agree with the header, or the body view below would
                // run past the slot (and, at the last slot, past the mapping).
                let hdr = Header::decode(seg.bytes(off + SLOT_HDR, HEADER_LEN))
                    .filter(|h| len <= seg.slot_bytes && len == HEADER_LEN + h.body_len as usize);
                let Some(hdr) = hdr else {
                    // A corrupt slot must not wedge the ring: bailing out
                    // with the slot still FULL would make every later poll
                    // re-read the same slot and the producer's lane would
                    // stall forever once the ring wrapped. Discard the slot
                    // and keep scanning.
                    seg.atom(off).store(SLOT_FREE, Ordering::Release); // flows-atomic: publishes shm-slot-free
                    lane.head += 1;
                    self.drops.fetch_add(1, Ordering::Relaxed);
                    break;
                };
                let body_len = hdr.body_len as usize;
                let body = if body_len == 0 {
                    seg.atom(off).store(SLOT_FREE, Ordering::Release); // flows-atomic: publishes shm-slot-free
                    Payload::empty()
                } else {
                    // Zero-copy handoff: the payload aliases the slot; the
                    // slot frees itself when the last view drops (or right
                    // here, for small bodies that inline).
                    let region: Arc<dyn ExternRegion> = Arc::new(SlotRegion {
                        seg: seg.clone(),
                        state_off: off,
                        data_off: off + SLOT_HDR + HEADER_LEN,
                        len: body_len,
                    });
                    Payload::from_extern(region)
                };
                lane.head += 1;
                return Some((src, Frame::from_header(hdr, body)));
            }
        }
        None
    }

    /// Wait, at most [`SPILL_CHUNK_WAIT`] and only while `src` lives, for
    /// the slot at `off` to fill with the next chunk of a frame in flight.
    fn await_chunk(&self, src: usize, off: usize) -> bool {
        let state = self.seg.atom(off);
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            if state.load(Ordering::Acquire) == SLOT_FULL { // flows-atomic: consumes shm-slot-full
                return true;
            }
            spins = spins.wrapping_add(1);
            if self.dead[src].load(Ordering::Relaxed)
                || (spins.is_multiple_of(64) && start.elapsed() >= SPILL_CHUNK_WAIT)
            {
                return false;
            }
            std::hint::spin_loop();
        }
    }

    /// True when any source ring has an undelivered slot.
    fn any_full(&self) -> bool {
        let seg = &self.seg;
        let lanes = self.lanes.lock();
        (0..seg.procs).any(|src| {
            src != self.rank && {
                let idx = (lanes[src].head % seg.slots as u64) as usize;
                // flows-atomic: consumes shm-slot-full
                seg.atom(seg.slot_off(src, self.rank, idx)).load(Ordering::Acquire) == SLOT_FULL
            }
        })
    }

    /// Sleep on the doorbell until a producer publishes or `timeout`
    /// elapses. Returns immediately if work is already pending.
    pub fn park(&self, timeout: Duration) {
        let ctrl = self.seg.ctrl_off(self.rank);
        let doorbell = self.seg.atom(ctrl + CTRL_DOORBELL);
        let parked = self.seg.atom(ctrl + CTRL_PARKED);
        let snapshot = doorbell.load(Ordering::SeqCst); // flows-atomic: consumes shm-doorbell
        parked.store(1, Ordering::SeqCst); // flows-atomic: publishes shm-parked
        if self.any_full() {
            parked.store(0, Ordering::SeqCst);
            return;
        }
        let _ = futex::wait(doorbell, snapshot, Some(timeout));
        parked.store(0, Ordering::SeqCst);
    }

    /// Ring slots (or spilled frames) this endpoint has discarded as
    /// malformed: a header that does not decode, a slot length that
    /// overruns the slot or disagrees with the header, a spilled frame
    /// whose chunks do not add up to its header's length, or one whose
    /// producer died mid-frame. A corrupt or hostile peer costs a counted
    /// drop, never an out-of-bounds view or a wedged ring.
    pub fn slot_drops(&self) -> u64 {
        self.drops.load(Ordering::Relaxed)
    }

    /// Stop sending to (and waiting on slots of) process `proc`.
    pub fn mark_dead(&self, proc: usize) {
        self.dead[proc].store(true, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flows_sys::counters;

    fn pair() -> (Arc<ShmTransport>, Arc<ShmTransport>) {
        let seg = Segment::create(2, 8, DEFAULT_SLOT_BYTES).unwrap();
        (ShmTransport::new(seg.clone(), 0), ShmTransport::new(seg, 1))
    }

    #[test]
    fn data_frame_round_trip_is_zero_copy() {
        let (a, b) = pair();
        let copies_before = crate::body_copies();
        let body: Payload = (0..200u8).collect::<Vec<_>>().into();
        a.send(1, &Frame::data(0, 1, 7, 3, 99, body.clone()));
        let (src, got) = b.try_recv().expect("frame pending");
        assert_eq!(src, 0);
        assert_eq!((got.a, got.b, got.c), (7, 3, 99));
        assert_eq!(got.body, body);
        let (lo, hi) = a.segment().range();
        let p = got.body.as_slice().as_ptr() as usize;
        assert!(p >= lo && p < hi, "body must alias the shared arena");
        assert_eq!(crate::body_copies(), copies_before, "fast path copies nothing");
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn slot_is_reused_after_payload_drops() {
        let (a, b) = pair();
        // 8 slots; send 3 rounds of 8 so the ring must wrap — works only
        // if the receiver's drops free the slots.
        for round in 0..3u8 {
            for i in 0..8u8 {
                a.send(1, &Frame::data(0, 1, 0, 0, 0, vec![round; 100 + i as usize].into()));
            }
            for _ in 0..8 {
                let (_, f) = b.try_recv().expect("slot pending");
                assert_eq!(f.body[0], round);
            }
        }
    }

    #[test]
    fn corrupt_header_slot_is_discarded_not_wedged() {
        let (a, b) = pair();
        a.send(1, &Frame::ack(0, 1, 7));
        // Smash the frame's kind byte in the shared slot — a buggy or
        // hostile peer writes garbage. The receiver used to bail out of
        // try_recv with the slot still FULL, re-reading the same slot on
        // every later poll and stalling the lane forever.
        let seg = a.segment();
        let off = seg.slot_off(0, 1, 0);
        seg.write_bytes(off + SLOT_HDR, &[99]);
        a.send(1, &Frame::ack(0, 1, 8));
        // The corrupt slot is discarded (one poll may come back empty
        // while the scan cursor passes it), then the good frame arrives.
        let mut got = None;
        for _ in 0..4 {
            if let Some(x) = b.try_recv() {
                got = Some(x);
                break;
            }
        }
        let (src, f) = got.expect("ring must not wedge on a corrupt header");
        assert_eq!(src, 0);
        assert_eq!(f.a, 8);
        // The discarded slot really went back to FREE: the ring still
        // sustains full-depth traffic past the poisoned index.
        for i in 0..16u64 {
            a.send(1, &Frame::ack(0, 1, i));
            let (_, f) = b.try_recv().expect("ring healthy after discard");
            assert_eq!(f.a, i);
        }
    }

    /// The slot's length word must fit the slot and agree with the
    /// header; otherwise the body view would run past the slot.
    #[test]
    fn slot_length_past_the_slot_is_a_counted_drop() {
        let (a, b) = pair();
        let seg = a.segment();
        let off = seg.slot_off(0, 1, 0);
        a.send(1, &Frame::data(0, 1, 1, 0, 0, vec![3u8; 100].into()));
        seg.atom(off + 4).store(u32::MAX, Ordering::Relaxed);
        let drops = b.slot_drops();
        assert!(b.try_recv().is_none());
        assert!(b.slot_drops() > drops, "counted");
        a.send(1, &Frame::ack(0, 1, 8));
        assert_eq!(b.try_recv().expect("ring healthy").1.a, 8);
    }

    /// Send a three-chunk spilled frame from `a` to `b`: returns the
    /// frame's body and the offsets of its chunk slots.
    fn spill_three(a: &ShmTransport) -> (Vec<u8>, [usize; 3]) {
        let body: Vec<u8> = (0..2 * DEFAULT_SLOT_BYTES + 2000).map(|i| (i * 7) as u8).collect();
        a.send(1, &Frame::data(0, 1, 5, 2, 1, body.clone().into()));
        let seg = a.segment();
        (body, [0, 1, 2].map(|i| seg.slot_off(0, 1, i)))
    }

    #[test]
    fn spill_chunk_longer_than_its_slot_is_refused() {
        let (a, b) = pair();
        let (_, chunks) = spill_three(&a);
        a.segment().atom(chunks[1] + 4).store(u32::MAX, Ordering::Relaxed);
        let drops = b.slot_drops();
        assert!(b.try_recv().is_none());
        assert!(b.slot_drops() > drops, "counted");
    }

    /// Withdraw the publication of the slot at `off`, as if its producer
    /// had not written it yet; returns the state word to restore.
    fn unpublish(seg: &Segment, off: usize) -> u32 {
        seg.atom(off).swap(SLOT_FREE, Ordering::AcqRel)
    }

    #[test]
    fn spill_waits_across_polls_for_its_last_chunk() {
        let (a, b) = pair();
        let (body, chunks) = spill_three(&a);
        let seg = a.segment();
        let state = unpublish(seg, chunks[2]);
        let drops = b.slot_drops();
        assert!(b.try_recv().is_none(), "two of three chunks: nothing yet");
        assert!(b.try_recv().is_none(), "still waiting, not refused");
        assert_eq!(b.slot_drops(), drops, "a pending frame is no drop");
        seg.atom(chunks[2]).store(state, Ordering::Release);
        let (src, got) = b.try_recv().expect("the last chunk completes the frame");
        assert_eq!(src, 0);
        assert_eq!(got.body, body);
        assert_eq!(b.slot_drops(), drops);
    }

    #[test]
    fn spill_is_dropped_once_its_producer_is_dead() {
        let (a, b) = pair();
        let (_, chunks) = spill_three(&a);
        // The last chunk never arrives: its producer dies after the
        // receiver has taken the first two and returned to its loop.
        unpublish(a.segment(), chunks[2]);
        let drops = b.slot_drops();
        assert!(b.try_recv().is_none());
        assert_eq!(b.slot_drops(), drops);
        b.mark_dead(0);
        assert!(b.try_recv().is_none());
        assert_eq!(b.slot_drops(), drops + 1, "the half frame is a counted drop");
    }

    /// A producer that publishes chunks while the consumer polls (and
    /// parks between them) gets every frame through whole, including
    /// frames larger than the whole ring.
    #[test]
    fn concurrent_spills_reassemble() {
        let (a, b) = pair();
        let sizes = [3 * DEFAULT_SLOT_BYTES, 20 * DEFAULT_SLOT_BYTES + 5, 100];
        let a2 = a.clone();
        let producer = std::thread::spawn(move || {
            for (i, &n) in sizes.iter().enumerate() {
                a2.send(1, &Frame::data(0, 1, i as u64, 0, 0, vec![i as u8; n].into()));
            }
        });
        let mut got = 0;
        let t0 = Instant::now();
        while got < sizes.len() {
            assert!(t0.elapsed() < Duration::from_secs(20), "stalled at frame {got}");
            match b.try_recv() {
                Some((_, f)) => {
                    assert_eq!(f.a, got as u64);
                    assert_eq!(f.body.len(), sizes[got]);
                    assert!(f.body.as_slice().iter().all(|&x| x == got as u8));
                    got += 1;
                }
                None => b.park(Duration::from_millis(5)),
            }
        }
        producer.join().unwrap();
    }

    mod smashed {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// A byte of a one-slot frame's length word or header smashed
            /// by the peer: the frame arrives with its true body length,
            /// or the slot is a counted drop; the ring keeps working.
            #[test]
            fn smashed_slot_is_whole_or_a_counted_drop(
                at in 0usize..4 + HEADER_LEN,
                byte in any::<u8>(),
                len in 0usize..300,
            ) {
                let (a, b) = pair();
                a.send(1, &Frame::data(0, 1, 1, 2, 3, vec![9u8; len].into()));
                let seg = a.segment();
                let off = seg.slot_off(0, 1, 0);
                if at < 4 {
                    seg.write_bytes(off + 4 + at, &[byte]);
                } else {
                    seg.write_bytes(off + SLOT_HDR + at - 4, &[byte]);
                }
                let drops = b.slot_drops();
                match b.try_recv() {
                    Some((_, f)) => prop_assert_eq!(f.body.len(), len),
                    None => prop_assert!(b.slot_drops() > drops, "uncounted drop"),
                }
                a.send(1, &Frame::ack(0, 1, 77));
                let next = (0..4).find_map(|_| b.try_recv());
                prop_assert_eq!(next.map(|(_, f)| f.a), Some(77));
            }

            /// The same for a spilled frame: a byte of any chunk's length
            /// or flags word, or of its first bytes (the frame header in
            /// the first chunk), smashed after the producer published
            /// and died. Every poll returns; the frame arrives with its
            /// true length or is a counted drop.
            #[test]
            fn smashed_spill_is_whole_or_a_counted_drop(
                chunk in 0usize..3,
                at in 0usize..8 + HEADER_LEN,
                byte in any::<u8>(),
            ) {
                let (a, b) = pair();
                let (body, chunks) = spill_three(&a);
                let seg = a.segment();
                let off = chunks[chunk];
                if at < 8 {
                    seg.write_bytes(off + 4 + at, &[byte]);
                } else {
                    seg.write_bytes(off + SLOT_HDR + at - 8, &[byte]);
                }
                b.mark_dead(0);
                let drops = b.slot_drops();
                let mut got = Vec::new();
                for _ in 0..8 {
                    if let Some((_, f)) = b.try_recv() {
                        got.push(f);
                    }
                }
                for f in &got {
                    prop_assert_eq!(f.body.len(), body.len());
                }
                prop_assert!(got.len() == 1 || b.slot_drops() > drops, "uncounted drop");
            }
        }
    }

    #[test]
    fn backpressure_blocks_producer_until_consumer_drains() {
        let (a, b) = pair();
        let a2 = a.clone();
        let producer = std::thread::spawn(move || {
            for i in 0..100u64 {
                a2.send(1, &Frame::data(0, 1, i, 0, 0, vec![1u8; 128].into()));
            }
        });
        let mut got = 0;
        while got < 100 {
            if let Some((_, f)) = b.try_recv() {
                assert_eq!(f.a, got);
                got += 1;
            } else {
                std::thread::yield_now();
            }
        }
        producer.join().unwrap();
    }

    #[test]
    fn oversized_frames_spill_and_reassemble() {
        let (a, b) = pair();
        let copies_before = crate::body_copies();
        let body: Vec<u8> = (0..20_000u32).map(|i| i as u8).collect();
        a.send(1, &Frame::data(0, 1, 5, 2, 1, body.clone().into()));
        let (_, got) = b.try_recv().expect("spilled frame pending");
        assert_eq!(got.body, body);
        assert_eq!((got.a, got.b), (5, 2));
        assert!(crate::body_copies() > copies_before, "spill path is counted");
    }

    #[test]
    fn park_wakes_on_doorbell() {
        let (a, b) = pair();
        let b2 = b.clone();
        let waiter = std::thread::spawn(move || {
            let before = counters::snapshot();
            let t0 = Instant::now();
            b2.park(Duration::from_secs(5));
            let waited = t0.elapsed();
            let d = counters::snapshot().since(&before);
            (waited, d.futex_wait)
        });
        std::thread::sleep(Duration::from_millis(50));
        a.send(1, &Frame::ack(0, 1, 9));
        let (waited, futex_waits) = waiter.join().unwrap();
        assert!(waited < Duration::from_secs(4), "woken, not timed out");
        assert_eq!(futex_waits, 1);
        assert!(b.try_recv().is_some());
        // A busy receiver never parks, so the producer never wakes:
        // steady-state messaging costs zero futex syscalls.
        let before = counters::snapshot();
        for _ in 0..32 {
            a.send(1, &Frame::ack(0, 1, 1));
            b.try_recv().unwrap();
        }
        let d = counters::snapshot().since(&before);
        assert_eq!(d.futex_wake + d.futex_wait, 0);
    }

    #[test]
    fn sends_to_dead_procs_are_dropped() {
        let (a, b) = pair();
        a.mark_dead(1);
        for _ in 0..1000 {
            a.send(1, &Frame::ack(0, 1, 1));
        }
        // Ring has 8 slots; 1000 sends didn't block because they were
        // dropped before touching the ring. Nothing was published.
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn attach_rejects_garbage() {
        let fd = MemFd::new("flows-net-junk", 4096 * 4).unwrap();
        assert!(Segment::attach(fd).is_err());
    }
}
