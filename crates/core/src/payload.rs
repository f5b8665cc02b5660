//! Reference-counted message payloads and per-PE recycling buffer pools.
//!
//! The paper's argument (§2.4) is that message handling must cost less
//! than a microsecond; a runtime that memcpys every payload at every hop
//! (send → retransmit buffer → duplicate → rewrap) cannot get there. A
//! [`Payload`] is an `Arc`-backed byte buffer: cloning it — for a
//! retransmit table, a duplicate-injection fault, a multicast — bumps a
//! refcount instead of copying bytes, and [`Payload::slice`] carves
//! zero-copy views (a routed message's header vs. its body).
//!
//! Buffers are built through a [`PayloadBuf`] writer drawn from a
//! [`PayloadPool`] and *promoted without copy* by [`PayloadBuf::freeze`].
//! When the last `Payload` clone drops, the underlying `Vec` returns to
//! the pool it came from, so a steady-state message loop (ping-pong, ring,
//! stencil exchange) allocates nothing after warm-up — the pool's
//! [`PoolStats::allocs`] counter makes that claim testable. The exception
//! is a receiver that keeps the bytes: [`Payload::into_vec`] hands it the
//! buffer itself instead of a copy, and the pool replaces it on a later
//! miss ([`PoolStats::detached`]).

use flows_pup::{Pup, Puper};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Retained buffers per pool before excess buffers are simply freed.
const DEFAULT_MAX_FREE: usize = 256;

/// Default capacity of a freshly allocated pool buffer.
const DEFAULT_MIN_CAP: usize = 1024;

/// A recycling pool of byte buffers. One lives on each PE (seeded from
/// `SharedPools`); the pool itself is `Send + Sync`, so a buffer
/// allocated on one PE and dropped on another finds its way home.
pub struct PayloadPool {
    free: Mutex<Vec<Vec<u8>>>,
    max_free: usize,
    min_cap: usize,
    allocs: AtomicU64,
    reuses: AtomicU64,
    returns: AtomicU64,
    detached: AtomicU64,
    high_water: AtomicU64,
}

impl std::fmt::Debug for PayloadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("PayloadPool")
            .field("free", &s.free_now)
            .field("allocs", &s.allocs)
            .field("reuses", &s.reuses)
            .finish()
    }
}

/// A snapshot of a pool's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Fresh heap allocations (pool misses).
    pub allocs: u64,
    /// Buffers handed out from the free list (pool hits).
    pub reuses: u64,
    /// Buffers returned to the free list on drop.
    pub returns: u64,
    /// Buffers currently parked in the free list.
    pub free_now: usize,
    /// Buffers that left the pool for good, handed to a receiver as its
    /// owned `Vec` by [`Payload::into_vec`]; a later miss replaces them.
    pub detached: u64,
    /// The largest `free_now` the pool has reached.
    pub high_water: usize,
}

impl PayloadPool {
    /// A pool whose fresh buffers start at `min_cap` bytes of capacity
    /// and which retains at most `max_free` returned buffers.
    pub fn new(min_cap: usize, max_free: usize) -> Arc<PayloadPool> {
        Arc::new(PayloadPool {
            free: Mutex::new(Vec::new()),
            max_free,
            min_cap: min_cap.max(1),
            allocs: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            detached: AtomicU64::new(0),
            high_water: AtomicU64::new(0),
        })
    }

    /// A pool with default sizing.
    pub fn with_defaults() -> Arc<PayloadPool> {
        PayloadPool::new(DEFAULT_MIN_CAP, DEFAULT_MAX_FREE)
    }

    /// Draw an empty writer from the pool (recycled when possible).
    pub fn buf(self: &Arc<Self>) -> PayloadBuf {
        self.buf_with_capacity(self.min_cap)
    }

    /// Draw an empty writer with at least `cap` bytes of capacity.
    pub fn buf_with_capacity(self: &Arc<Self>, cap: usize) -> PayloadBuf {
        let recycled = self.free.lock().pop();
        let mut data = match recycled {
            Some(v) => {
                self.reuses.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                self.allocs.fetch_add(1, Ordering::Relaxed);
                Vec::with_capacity(cap.max(self.min_cap))
            }
        };
        if data.capacity() < cap {
            data.reserve(cap - data.len());
        }
        PayloadBuf {
            data,
            pool: Some(self.clone()),
        }
    }

    /// Return a buffer to the free list (called from `Payload`/
    /// `PayloadBuf` drops; cleared before reuse).
    fn put(&self, mut v: Vec<u8>) {
        if v.capacity() == 0 {
            return;
        }
        v.clear();
        let mut free = self.free.lock();
        if free.len() < self.max_free {
            free.push(v);
            self.returns.fetch_add(1, Ordering::Relaxed);
            self.high_water.fetch_max(free.len() as u64, Ordering::Relaxed);
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            reuses: self.reuses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            free_now: self.free.lock().len(),
            detached: self.detached.load(Ordering::Relaxed),
            high_water: self.high_water.load(Ordering::Relaxed) as usize,
        }
    }
}

/// The shared backing store of one or more [`Payload`] views. Returns its
/// bytes to the originating pool when the last view drops.
struct Backing {
    data: Vec<u8>,
    pool: Option<Arc<PayloadPool>>,
}

impl Drop for Backing {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

/// A mutable byte-buffer writer, drawn from a [`PayloadPool`] (or free-
/// standing), promoted into an immutable shared [`Payload`] by
/// [`PayloadBuf::freeze`] *without copying*. Dropping an unfrozen writer
/// returns its buffer to the pool.
pub struct PayloadBuf {
    data: Vec<u8>,
    pool: Option<Arc<PayloadPool>>,
}

impl PayloadBuf {
    /// A pool-less writer (plain heap buffer).
    pub fn new() -> PayloadBuf {
        PayloadBuf {
            data: Vec::new(),
            pool: None,
        }
    }

    /// The underlying `Vec`, for writers that want `std` APIs (and for
    /// `flows_pup::pack_into`, which packs any `Pup` into a `&mut Vec`).
    pub fn vec_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Append bytes.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    /// Append one byte.
    pub fn push(&mut self, b: u8) {
        self.data.push(b);
    }

    /// Grow (zero-filling) or shrink to `len` bytes.
    pub fn resize(&mut self, len: usize, fill: u8) {
        self.data.resize(len, fill);
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// No bytes written yet?
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Promote into an immutable shared [`Payload`]. Over [`INLINE_CAP`]
    /// bytes the buffer moves — no copy — and the pool handle travels
    /// along so the bytes are recycled when the payload fully drops. At
    /// or below the threshold the bytes are copied inline and the buffer
    /// goes straight back to its pool, skipping the Arc allocation and
    /// the later (possibly cross-PE) pool return.
    pub fn freeze(mut self) -> Payload {
        let len = self.data.len();
        if len <= INLINE_CAP {
            // Dropping `self` returns the buffer to its pool.
            return Payload::inline_from(&self.data);
        }
        Payload {
            repr: Repr::Shared {
                backing: Arc::new(Backing {
                    data: std::mem::take(&mut self.data),
                    pool: self.pool.take(),
                }),
                off: 0,
                len,
            },
        }
    }
}

impl Default for PayloadBuf {
    fn default() -> Self {
        PayloadBuf::new()
    }
}

impl Drop for PayloadBuf {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

impl std::ops::Deref for PayloadBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for PayloadBuf {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Payloads at or below this many bytes are stored inline in the
/// [`Payload`] value itself — no `Arc`, no pool round-trip. Small control
/// messages (acks, decisions, fan-in contributions) are the common case,
/// and for them the refcount allocation plus the pool's mutex (contended
/// when many senders target one PE) costs more than copying the bytes.
pub const INLINE_CAP: usize = 64;

/// Foreign memory a [`Payload`] can alias without copying: the
/// shared-memory transport implements this for its ring slots, so a
/// message body delivered from another process is a view *into the
/// shared arena* — the slot is reclaimed (the implementor's `Drop`)
/// when the last payload view drops. The bytes must stay valid and
/// unchanged for the implementor's lifetime.
pub trait ExternRegion: Send + Sync {
    /// The region's bytes (stable for the region's whole lifetime).
    fn bytes(&self) -> &[u8];
}

enum Repr {
    /// Small payload, stored by value. Clone copies the array; drop is
    /// free.
    Inline { len: u8, bytes: [u8; INLINE_CAP] },
    /// Large payload, a view of a shared backing buffer.
    Shared {
        backing: Arc<Backing>,
        off: usize,
        len: usize,
    },
    /// A view of memory owned outside the payload system (a transport
    /// ring slot, a mapped segment). Dropping the last view releases
    /// the region.
    Extern {
        region: Arc<dyn ExternRegion>,
        off: usize,
        len: usize,
    },
}

/// An immutable, cheaply clonable byte buffer — the machine's message
/// payload type. Payloads over [`INLINE_CAP`] bytes are `Arc`-backed:
/// `Clone` bumps a refcount and [`Payload::slice`] makes zero-copy
/// subviews. At or below the threshold the bytes live inline in the value
/// (copied on clone/slice, but allocation- and lock-free).
/// `Deref<Target = [u8]>` gives slice access either way.
// flows-image: opaque — the hand-written Pup impl serializes the byte
// contents only; backings, pools and extern-region views are re-bound
// (inline or freshly Arc-backed) when the image is unpacked.
pub struct Payload {
    repr: Repr,
}

impl Payload {
    /// The empty payload (no allocation).
    pub fn empty() -> Payload {
        Payload::inline_from(&[])
    }

    fn inline_from(src: &[u8]) -> Payload {
        debug_assert!(src.len() <= INLINE_CAP);
        let mut bytes = [0u8; INLINE_CAP];
        bytes[..src.len()].copy_from_slice(src);
        Payload {
            repr: Repr::Inline {
                len: src.len() as u8,
                bytes,
            },
        }
    }

    /// Wrap an owned `Vec`. Over [`INLINE_CAP`] bytes: no copy; at or
    /// below: the bytes are copied inline and the `Vec` dropped.
    pub fn from_vec(v: Vec<u8>) -> Payload {
        if v.len() <= INLINE_CAP {
            return Payload::inline_from(&v);
        }
        let len = v.len();
        Payload {
            repr: Repr::Shared {
                backing: Arc::new(Backing {
                    data: v,
                    pool: None,
                }),
                off: 0,
                len,
            },
        }
    }

    /// Alias foreign memory (a transport ring slot, a mapped segment)
    /// without copying. The region is released — the implementor's
    /// `Drop` runs — when the last view drops. Regions at or below
    /// [`INLINE_CAP`] bytes are copied inline and released immediately:
    /// for a shm ring slot that frees the slot at decode time, which is
    /// the right trade for small control messages.
    pub fn from_extern(region: Arc<dyn ExternRegion>) -> Payload {
        let len = region.bytes().len();
        if len <= INLINE_CAP {
            return Payload::inline_from(region.bytes());
        }
        Payload {
            repr: Repr::Extern {
                region,
                off: 0,
                len,
            },
        }
    }

    /// Byte length of this view.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Shared { len, .. } => *len,
            Repr::Extern { len, .. } => *len,
        }
    }

    /// Is this view empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, bytes } => &bytes[..*len as usize],
            Repr::Shared { backing, off, len } => &backing.data[*off..*off + *len],
            Repr::Extern { region, off, len } => &region.bytes()[*off..*off + *len],
        }
    }

    /// A subview of `range` (relative to this view): zero-copy on a
    /// shared payload, a byte copy on an inline one. Panics on an
    /// out-of-bounds range, like slice indexing.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Payload {
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "slice {range:?} out of payload of {} bytes",
            self.len()
        );
        match &self.repr {
            Repr::Inline { .. } => Payload::inline_from(&self.as_slice()[range]),
            Repr::Shared { backing, off, .. } => Payload {
                repr: Repr::Shared {
                    backing: backing.clone(),
                    off: off + range.start,
                    len: range.end - range.start,
                },
            },
            Repr::Extern { region, off, .. } => Payload {
                repr: Repr::Extern {
                    region: region.clone(),
                    off: off + range.start,
                    len: range.end - range.start,
                },
            },
        }
    }

    /// A subview from `start` to the end (see [`Payload::slice`]).
    pub fn slice_from(&self, start: usize) -> Payload {
        self.slice(start..self.len())
    }

    /// Copy the bytes out into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }

    /// Extract the bytes. The backing buffer itself is handed over,
    /// truncated to this view, when this is its only view and the view is
    /// a prefix of it (offset 0) — the shape of every delivered routed
    /// message, whose headers trail its body. A pooled buffer taken this
    /// way leaves its pool for good (counted in [`PoolStats::detached`]);
    /// the pool allocates a replacement on a later miss. So that a small
    /// message never pins a big buffer, the buffer is taken only when its
    /// capacity is at most twice `max(len, pool's min capacity)`.
    /// Everything else copies: a view with a live clone or sibling slice,
    /// an offset view, a big buffer under a small view (which then goes
    /// home to its pool), an extern view and an inline payload.
    #[inline]
    pub fn into_vec(self) -> Vec<u8> {
        if let Repr::Shared { backing, off: 0, len } = self.repr {
            let min_cap = backing.pool.as_ref().map_or(0, |p| p.min_cap);
            if backing.data.capacity() <= 2 * len.max(min_cap) {
                match Arc::try_unwrap(backing) {
                    Ok(mut backing) => {
                        if let Some(pool) = backing.pool.take() {
                            pool.detached.fetch_add(1, Ordering::Relaxed);
                        }
                        let mut v = std::mem::take(&mut backing.data);
                        v.truncate(len);
                        return v;
                    }
                    Err(backing) => return backing.data[..len].to_vec(),
                }
            }
            return backing.data[..len].to_vec();
        }
        self.to_vec()
    }

    /// Mutable access to the bytes of this view, granted only when nothing
    /// else can observe them: an inline payload, or the sole view of its
    /// shared backing (built on `Arc::get_mut`). `None` for a payload with
    /// a live clone — a retransmit table's copy, an injected duplicate —
    /// for a slice whose sibling views are alive, and for an extern view
    /// (foreign memory is read-only). A forwarding layer rewrites a header
    /// in place through this and falls back to a copy on `None`.
    #[inline]
    pub fn get_mut(&mut self) -> Option<&mut [u8]> {
        match &mut self.repr {
            Repr::Inline { len, bytes } => Some(&mut bytes[..*len as usize]),
            Repr::Shared { backing, off, len } => {
                Arc::get_mut(backing).map(|b| &mut b.data[*off..*off + *len])
            }
            Repr::Extern { .. } => None,
        }
    }

    /// Do two payloads share the same backing buffer? (Aliasing probe for
    /// tests: `clone` and `slice` of payloads over [`INLINE_CAP`] bytes
    /// share; inline payloads never do.)
    pub fn same_backing(&self, other: &Payload) -> bool {
        match (&self.repr, &other.repr) {
            (Repr::Shared { backing: a, .. }, Repr::Shared { backing: b, .. }) => {
                Arc::ptr_eq(a, b)
            }
            (Repr::Extern { region: a, .. }, Repr::Extern { region: b, .. }) => {
                std::ptr::addr_eq(Arc::as_ptr(a), Arc::as_ptr(b))
            }
            _ => false,
        }
    }

    /// How many views share this backing buffer (1 for inline payloads).
    pub fn ref_count(&self) -> usize {
        match &self.repr {
            Repr::Inline { .. } => 1,
            Repr::Shared { backing, .. } => Arc::strong_count(backing),
            Repr::Extern { region, .. } => Arc::strong_count(region),
        }
    }
}

impl Clone for Payload {
    fn clone(&self) -> Payload {
        Payload {
            repr: match &self.repr {
                Repr::Inline { len, bytes } => Repr::Inline {
                    len: *len,
                    bytes: *bytes,
                },
                Repr::Shared { backing, off, len } => Repr::Shared {
                    backing: backing.clone(),
                    off: *off,
                    len: *len,
                },
                Repr::Extern { region, off, len } => Repr::Extern {
                    region: region.clone(),
                    off: *off,
                    len: *len,
                },
            },
        }
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Payload({} bytes", self.len())?;
        if matches!(self.repr, Repr::Inline { .. }) {
            write!(f, ", inline")?;
        } else if matches!(self.repr, Repr::Extern { .. }) {
            write!(f, ", extern")?;
        } else if self.ref_count() > 1 {
            write!(f, ", {} refs", self.ref_count())?;
        }
        write!(f, ")")
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        Payload::from_vec(v)
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        if v.len() <= INLINE_CAP {
            return Payload::inline_from(v);
        }
        Payload::from_vec(v.to_vec())
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Payload {
        Payload::from_vec(v.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(v: &[u8; N]) -> Payload {
        Payload::from_vec(v.to_vec())
    }
}

impl From<PayloadBuf> for Payload {
    fn from(b: PayloadBuf) -> Payload {
        b.freeze()
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Payload {}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Payload {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == &other[..]
    }
}

impl<const N: usize> PartialEq<[u8; N]> for Payload {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

/// PUP support so payloads embed in migration/checkpoint wire structs
/// (length-prefixed raw bytes, like `Vec<u8>` but bulk, not per-element).
impl Pup for Payload {
    fn pup(&mut self, p: &mut Puper) {
        let mut n = self.len() as u64;
        n.pup(p);
        if p.is_unpacking() {
            *self = p.take(n as usize).map_or_else(Payload::empty, Payload::from);
        } else {
            p.write(self.as_slice());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A length prefix that claims more than the input holds fails once,
    /// before anything is allocated: `needed` names the whole claimed run
    /// (a chunked read would have allocated its first chunk and named
    /// that), and the unpacked field is empty.
    #[test]
    fn hostile_length_prefixes_truncate_before_allocating() {
        let hostile = u64::MAX.to_le_bytes();
        let mut wire = hostile.to_vec();
        wire.extend([7u8; 16]);
        let truncated = |at| flows_pup::PupError::Truncated { needed: usize::MAX, at };
        let r = flows_pup::from_bytes::<Payload>(&wire);
        assert_eq!(r.err(), Some(truncated(8)));

        // A thread head whose last field, the payload length, is u64::MAX.
        let mut wire = crate::PackedThread::default().to_bytes();
        let head_len = wire.len();
        wire[head_len - 8..].copy_from_slice(&hostile);
        wire.extend([7u8; 16]);
        let mut t = crate::PackedThread::default();
        let mut p = Puper::unpacker(&wire);
        t.pup(&mut p);
        assert_eq!(p.finish(), Err(truncated(head_len)));
        assert_eq!(t.payload_len(), 0);
    }

    #[test]
    fn clone_and_slice_share_backing() {
        // Over INLINE_CAP bytes: views alias one Arc-backed buffer.
        let v: Vec<u8> = (0..100).collect();
        let p: Payload = v.clone().into();
        let q = p.clone();
        assert!(p.same_backing(&q));
        assert_eq!(p, q);
        let tail = p.slice_from(2);
        assert!(tail.same_backing(&p));
        assert_eq!(tail, v[2..]);
        assert_eq!(tail.slice(1..2), [3u8]);
    }

    #[test]
    fn small_payloads_are_inline() {
        // At or below INLINE_CAP: no Arc, no sharing, still equal bytes.
        let p: Payload = vec![1u8, 2, 3, 4, 5].into();
        let q = p.clone();
        assert!(!p.same_backing(&q), "inline payloads never share");
        assert_eq!(p.ref_count(), 1);
        assert_eq!(p, q);
        assert_eq!(p.slice(1..4), [2u8, 3, 4]);
        assert_eq!(p.slice_from(3), [4u8, 5]);
        assert_eq!(p.to_vec(), vec![1, 2, 3, 4, 5]);
        assert_eq!(Payload::empty().len(), 0);

        // Freezing a small pooled buffer inlines the bytes and returns
        // the buffer to the pool immediately — the whole small-message
        // round trip does one pool draw and zero Arc allocations.
        let pool = PayloadPool::new(16, 8);
        let mut b = pool.buf();
        b.extend_from_slice(b"ack");
        let p = b.freeze();
        assert_eq!(p, b"ack".to_vec());
        assert_eq!(pool.stats().returns, 1, "buffer went home at freeze");
        assert_eq!(pool.stats().free_now, 1);

        // The boundary: INLINE_CAP bytes inline, INLINE_CAP + 1 share.
        let at: Payload = vec![7u8; INLINE_CAP].into();
        assert!(!at.same_backing(&at.clone()));
        let over: Payload = vec![7u8; INLINE_CAP + 1].into();
        assert!(over.same_backing(&over.clone()));
    }

    #[test]
    fn freeze_promotes_without_copy() {
        let pool = PayloadPool::new(64, 8);
        let mut buf = pool.buf();
        buf.extend_from_slice(&[9u8; 100]);
        let base = buf.as_ptr() as usize;
        let p = buf.freeze();
        assert_eq!(p.as_slice().as_ptr() as usize, base, "no copy on freeze");
        assert_eq!(p, vec![9u8; 100]);
    }

    #[test]
    fn pool_recycles_dropped_buffers() {
        let pool = PayloadPool::new(64, 8);
        let p = {
            let mut b = pool.buf();
            b.extend_from_slice(&[9; 100]);
            b.freeze()
        };
        let q = p.clone();
        drop(p);
        assert_eq!(pool.stats().returns, 0, "still referenced");
        drop(q);
        let s = pool.stats();
        assert_eq!(s.returns, 1);
        assert_eq!(s.free_now, 1);
        // Next draw reuses the same storage: no new allocation.
        let b2 = pool.buf();
        let s = pool.stats();
        assert_eq!(s.reuses, 1);
        assert_eq!(s.allocs, 1, "only the first draw allocated");
        assert!(b2.is_empty(), "recycled buffers come back cleared");
        assert!(b2.data.capacity() >= 100);
    }

    #[test]
    fn steady_state_loop_allocates_nothing() {
        let pool = PayloadPool::new(64, 8);
        // Warm-up: one buffer enters the pool.
        drop(pool.buf_with_capacity(256).freeze());
        let allocs_after_warmup = pool.stats().allocs;
        for i in 0..1000u32 {
            let mut b = pool.buf_with_capacity(256);
            b.extend_from_slice(&i.to_le_bytes());
            let p = b.freeze();
            let q = p.clone(); // a "retransmit table" reference
            assert_eq!(q.slice(0..4), i.to_le_bytes());
            drop(p);
            drop(q);
        }
        assert_eq!(
            pool.stats().allocs,
            allocs_after_warmup,
            "steady-state send loop must not allocate"
        );
        assert_eq!(pool.stats().reuses, 1000);
    }

    #[test]
    fn into_vec_avoids_copy_when_unique_and_unpooled() {
        let v = vec![7u8; 100];
        let base = v.as_ptr() as usize;
        let p = Payload::from_vec(v);
        let out = p.into_vec();
        assert_eq!(out.as_ptr() as usize, base);
        // Pooled: copies, and the buffer still returns to the pool.
        let pool = PayloadPool::new(64, 8);
        let mut b = pool.buf();
        b.extend_from_slice(&[1, 2, 3]);
        let out = b.freeze().into_vec();
        assert_eq!(out, vec![1, 2, 3]);
        assert_eq!(pool.stats().returns, 1, "pooled bytes went home");
    }

    /// The routed-delivery shape: a sole-owned prefix view hands over its
    /// backing buffer itself, truncated to the view — pooled or not.
    #[test]
    fn into_vec_hands_over_a_sole_owned_prefix() {
        let wire = Payload::from_vec(vec![3u8; 200]);
        let base = wire.as_ptr();
        let body = wire.slice(0..160);
        drop(wire);
        let out = body.into_vec();
        assert_eq!(out.as_ptr(), base, "the same allocation");
        assert_eq!(out, vec![3u8; 160]);

        let pool = PayloadPool::new(64, 8);
        let mut b = pool.buf_with_capacity(200);
        b.extend_from_slice(&[4u8; 200]);
        let wire = b.freeze();
        let base = wire.as_ptr();
        let body = wire.slice(0..160);
        drop(wire);
        let out = body.into_vec();
        assert_eq!(out.as_ptr(), base, "the same pooled allocation");
        assert_eq!(out, vec![4u8; 160]);
        let s = pool.stats();
        assert_eq!((s.detached, s.returns, s.free_now), (1, 0, 0), "{s:?}");
        // The pool replaces it on its next miss.
        drop(pool.buf());
        assert_eq!(pool.stats().allocs, 2);
    }

    /// Anything but a sole-owned, right-sized prefix view copies.
    #[test]
    fn into_vec_copies_whatever_it_cannot_own() {
        let pool = PayloadPool::new(64, 8);
        let wire = || {
            let mut b = pool.buf_with_capacity(200);
            b.extend_from_slice(&(0..200u8).collect::<Vec<_>>());
            b.freeze()
        };
        // A live clone keeps its bytes.
        let w = wire();
        let keep = w.clone();
        let out = w.slice(0..100).into_vec();
        assert_ne!(out.as_ptr(), keep.as_ptr());
        assert_eq!(out[..], keep[..100]);
        drop((w, keep));
        // A sibling slice keeps its bytes.
        let w = wire();
        let base = w.as_ptr();
        let (head, tail) = (w.slice(0..100), w.slice(100..200));
        drop(w);
        let out = head.into_vec();
        assert_ne!(out.as_ptr(), base);
        assert_eq!(tail[0], 100);
        drop(tail);
        // An offset view, even held alone.
        let out = wire().slice(10..200).into_vec();
        assert_eq!(out[0], 10);
        assert_eq!(pool.stats().detached, 0, "nothing left the pool");
        assert_eq!(pool.stats().returns, 3, "every buffer went home");

        // An extern view: foreign memory is never handed out.
        struct Region(Vec<u8>);
        impl ExternRegion for Region {
            fn bytes(&self) -> &[u8] {
                &self.0
            }
        }
        let e = Payload::from_extern(Arc::new(Region(vec![5u8; 200])));
        let base = e.as_ptr();
        let out = e.slice(0..150).into_vec();
        assert_ne!(out.as_ptr(), base);
        assert_eq!(out, vec![5u8; 150]);
        // An inline payload has no heap buffer to hand over.
        assert_eq!(Payload::from(vec![6u8; 10]).into_vec(), vec![6u8; 10]);
    }

    /// A small view over a big buffer copies, and the buffer goes home:
    /// a small message must not pin a buffer sized for a bulk one.
    #[test]
    fn into_vec_does_not_hand_a_small_message_a_big_buffer() {
        let pool = PayloadPool::new(64, 8);
        let mut b = pool.buf_with_capacity(64 * 1024);
        b.extend_from_slice(&[7u8; 300]);
        let wire = b.freeze();
        let base = wire.as_ptr();
        let body = wire.slice(0..200);
        drop(wire);
        let out = body.into_vec();
        assert_ne!(out.as_ptr(), base);
        assert_eq!(out, vec![7u8; 200]);
        let s = pool.stats();
        assert_eq!((s.detached, s.returns, s.free_now), (0, 1, 1), "{s:?}");

        // At the bound (capacity = 2 × the pool's min capacity) it is
        // still handed over.
        assert_eq!(pool.buf().data.capacity(), 64 * 1024, "the big buffer, recycled");
        let pool = PayloadPool::new(128, 8);
        let mut b = pool.buf_with_capacity(256);
        b.extend_from_slice(&[8u8; 100]);
        assert!(b.data.capacity() <= 256);
        let out = b.freeze().into_vec();
        assert_eq!(out, vec![8u8; 100]);
        assert_eq!(pool.stats().detached, 1);
    }

    #[test]
    fn pool_high_water_is_the_largest_free_list() {
        let pool = PayloadPool::new(16, 8);
        let bufs: Vec<Payload> = (0..5)
            .map(|_| {
                let mut b = pool.buf();
                b.resize(100, 1);
                b.freeze()
            })
            .collect();
        drop(bufs);
        let held: Vec<PayloadBuf> = (0..3).map(|_| pool.buf()).collect();
        let s = pool.stats();
        assert_eq!((s.free_now, s.high_water), (2, 5), "{s:?}");
        drop(held);
        assert_eq!(pool.stats().high_water, 5);
    }

    #[test]
    fn cross_thread_drop_returns_to_origin_pool() {
        let pool = PayloadPool::new(64, 8);
        let mut b = pool.buf();
        b.extend_from_slice(&[5; 50]);
        let p = b.freeze();
        std::thread::spawn(move || {
            assert_eq!(p.len(), 50);
            drop(p);
        })
        .join()
        .unwrap();
        assert_eq!(pool.stats().returns, 1);
        assert_eq!(pool.stats().free_now, 1);
    }

    #[test]
    fn pup_round_trip_in_a_struct() {
        #[derive(Default)]
        struct Wire {
            tag: u32,
            body: Payload,
        }
        flows_pup::pup_fields!(Wire { tag, body });
        let mut w = Wire {
            tag: 9,
            body: vec![1u8, 2, 3].into(),
        };
        let bytes = flows_pup::to_bytes(&mut w);
        let r: Wire = flows_pup::from_bytes(&bytes).unwrap();
        assert_eq!(r.tag, 9);
        assert_eq!(r.body, [1u8, 2, 3]);
    }

    #[test]
    fn extern_region_aliases_without_copy_and_releases_on_drop() {
        use std::sync::atomic::AtomicBool;

        struct Region {
            bytes: Vec<u8>,
            released: Arc<AtomicBool>,
        }
        impl ExternRegion for Region {
            fn bytes(&self) -> &[u8] {
                &self.bytes
            }
        }
        impl Drop for Region {
            fn drop(&mut self) {
                self.released.store(true, Ordering::SeqCst);
            }
        }

        let released = Arc::new(AtomicBool::new(false));
        let bytes: Vec<u8> = (0..200u8).collect();
        let base = bytes.as_ptr() as usize;
        let region: Arc<dyn ExternRegion> = Arc::new(Region {
            bytes,
            released: released.clone(),
        });
        let p = Payload::from_extern(region);
        assert_eq!(p.len(), 200);
        assert_eq!(p.as_slice().as_ptr() as usize, base, "aliases, no copy");
        let tail = p.slice_from(100);
        assert!(tail.same_backing(&p), "subviews share the region");
        assert_eq!(tail.as_slice().as_ptr() as usize, base + 100);
        assert_eq!(tail[0], 100);
        let q = p.clone();
        assert_eq!(q.ref_count(), 3);
        drop(p);
        drop(q);
        assert!(!released.load(Ordering::SeqCst), "tail still holds it");
        drop(tail);
        assert!(released.load(Ordering::SeqCst), "last view frees the slot");

        // Small regions inline and release the slot immediately.
        let released = Arc::new(AtomicBool::new(false));
        let small: Arc<dyn ExternRegion> = Arc::new(Region {
            bytes: vec![7u8; 8],
            released: released.clone(),
        });
        let p = Payload::from_extern(small);
        assert!(released.load(Ordering::SeqCst), "inlined, slot freed");
        assert_eq!(p, vec![7u8; 8]);
    }

    #[test]
    fn get_mut_is_granted_only_to_a_sole_owner() {
        // Sole owner of a shared backing: granted, and writes land in the
        // one buffer every later view reads.
        let mut p: Payload = vec![1u8; 100].into();
        p.get_mut().expect("sole owner")[0] = 9;
        assert_eq!(p[0], 9);
        // Inline payloads have no shared storage: always granted.
        let mut small: Payload = vec![1u8, 2, 3].into();
        small.get_mut().expect("inline")[2] = 7;
        assert_eq!(small, [1u8, 2, 7]);

        // A live clone (a retransmit table's, a duplicate's) refuses.
        let q = p.clone();
        assert!(p.get_mut().is_none(), "clone alive");
        drop(q);
        assert!(p.get_mut().is_some(), "clone gone");

        // A slice with a live sibling refuses; once alone it is granted
        // exactly its own range.
        let mut tail = p.slice_from(90);
        assert!(tail.get_mut().is_none(), "sibling alive");
        drop(p);
        let t = tail.get_mut().expect("sibling gone");
        assert_eq!(t.len(), 10);
        t[0] = 4;
        assert_eq!(tail[0], 4);

        // An extern view aliases foreign memory: never granted, even alone.
        struct Region(Vec<u8>);
        impl ExternRegion for Region {
            fn bytes(&self) -> &[u8] {
                &self.0
            }
        }
        let mut e = Payload::from_extern(Arc::new(Region(vec![0u8; 200])));
        assert_eq!(e.ref_count(), 1);
        assert!(e.get_mut().is_none(), "extern view");
    }

    #[test]
    fn retained_buffers_are_capped() {
        let pool = PayloadPool::new(16, 2);
        let bufs: Vec<Payload> = (0..5).map(|_| pool.buf().freeze()).collect();
        drop(bufs);
        assert!(pool.stats().free_now <= 2);
    }
}
