//! Thread migration: packing a suspended thread into bytes and
//! reinstating it on another PE (paper §3.4).
//!
//! What travels: the live stack bytes, the isomalloc heap (for
//! [`StackFlavor::Isomalloc`]), the privatized globals block, the saved
//! stack pointer and metadata. What does *not* travel: nothing needs to —
//! all three migratable flavors guarantee the stack executes at the same
//! virtual address on the destination, so every pointer in the image stays
//! valid (the paper's central trick).
//!
//! ### Wire format
//! A packed thread is a PUP'd [`Head`] followed by a *raw* flavor payload
//! whose length is the head's last field. The payload is held as an
//! Arc-backed [`Payload`], so the pack side writes the thread's bytes once
//! (straight from the arena into a pooled message buffer), the transport
//! shares the buffer by refcount, and the unpack side copies once into the
//! destination arena. Batched migrations concatenate these records and
//! parse them back with [`PackedThread::from_payload`] — zero-copy slices
//! of the one incoming message.

use crate::payload::Payload;
use crate::scheduler::Scheduler;
use crate::tcb::{FlavorData, StackFlavor, Tcb, ThreadId, ThreadState};
use flows_arch::{Context, SwapKind};
use flows_mem::slab::STACK_RED_ZONE;
use flows_pup::Pup;
use flows_sys::error::{SysError, SysResult};

/// A thread serialized for migration: a self-describing head plus the raw
/// flavor payload (stack/heap bytes) behind a refcounted buffer.
// flows-image: root
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PackedThread {
    head: Head,
    payload: Payload,
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Head {
    id: ThreadId,
    swap_kind: u8,
    flavor: u8,
    state: u8,
    sp: u64,
    load_ns: u64,
    priority: i32,
    globals: Option<Vec<u8>>,
    /// Byte length of the raw payload that follows the head on the wire.
    /// Kept as the last head field so the wire layout is head ++ payload.
    payload_len: u64,
}

/// The one head decoder: unpacking refuses a head whose swap-kind or
/// flavor tag names no known value, since a packed thread crosses process
/// boundaries and an image that decodes must be one `unpack_thread` can
/// reinstate. [`PackedThread::from_bytes`], [`PackedThread::from_payload`]
/// and a checkpoint's `Vec<PackedThread>` all read heads through it.
impl Pup for Head {
    fn pup(&mut self, p: &mut flows_pup::Puper) {
        self.id.pup(p);
        self.swap_kind.pup(p);
        self.flavor.pup(p);
        self.state.pup(p);
        self.sp.pup(p);
        self.load_ns.pup(p);
        self.priority.pup(p);
        self.globals.pup(p);
        self.payload_len.pup(p);
        if p.is_unpacking() && !p.has_error() && self.tags().is_err() {
            p.fail(flows_pup::PupError::Corrupt("packed thread tag"));
        }
    }
}

impl Head {
    /// The swap kind and migratable flavor the head's tags name.
    fn tags(&self) -> SysResult<(SwapKind, StackFlavor)> {
        Ok((tag_kind(self.swap_kind)?, tag_flavor(self.flavor)?))
    }
}

/// PUP traversal matching the wire format exactly (head, then raw tail) so
/// checkpoints embedding `Vec<PackedThread>` serialize identically to the
/// migration path.
impl Pup for PackedThread {
    fn pup(&mut self, p: &mut flows_pup::Puper) {
        self.head.pup(p);
        if p.is_unpacking() {
            let n = self.head.payload_len as usize;
            self.payload = p.take(n).map_or_else(Payload::empty, Payload::from);
        } else {
            p.write(self.payload.as_slice());
        }
    }
}

fn kind_tag(k: SwapKind) -> u8 {
    match k {
        SwapKind::Minimal => 0,
        SwapKind::Full => 1,
        SwapKind::SignalMask => 2,
    }
}

fn tag_kind(t: u8) -> SysResult<SwapKind> {
    Ok(match t {
        0 => SwapKind::Minimal,
        1 => SwapKind::Full,
        2 => SwapKind::SignalMask,
        _ => return Err(SysError::logic("unpack", "bad swap kind tag".into())),
    })
}

/// The migratable flavor a wire tag names: the inverse of [`flavor_tag`]
/// over the flavors a packed thread can have.
fn tag_flavor(t: u8) -> SysResult<StackFlavor> {
    [StackFlavor::StackCopy, StackFlavor::Isomalloc, StackFlavor::Alias]
        .into_iter()
        .find(|&f| flavor_tag(f) == t)
        .ok_or_else(|| SysError::logic("unpack", format!("bad flavor tag {t}")))
}

/// Parse the head at the front of `bytes` (tags checked by its `Pup`).
/// Returns the head and its byte length.
fn decode_head(bytes: &[u8]) -> SysResult<(Head, usize)> {
    flows_pup::from_bytes_prefix(bytes)
        .map_err(|e| SysError::logic("packed_thread", format!("corrupt: {e}")))
}

/// Stack-flavor wire tag — also the encoding trace events carry
/// (`flows_trace::FLAVOR_NAMES` maps it back to names).
pub(crate) fn flavor_tag(f: StackFlavor) -> u8 {
    match f {
        StackFlavor::StackCopy => 0,
        StackFlavor::Isomalloc => 1,
        StackFlavor::Alias => 2,
        StackFlavor::Standard => 3,
    }
}

impl PackedThread {
    /// The migrating thread's id.
    pub fn id(&self) -> ThreadId {
        self.head.id
    }

    /// Whether the thread was packed under swap kind `kind`: only a
    /// scheduler of that kind can unpack it.
    pub fn swap_kind_is(&self, kind: SwapKind) -> bool {
        self.head.swap_kind == kind_tag(kind)
    }

    /// Bytes in the image payload (stack + heap data).
    pub fn payload_len(&self) -> usize {
        self.payload.len()
    }

    /// The raw payload, sharable by refcount (for transports that frame
    /// the head and tail themselves).
    pub fn payload(&self) -> &Payload {
        &self.payload
    }

    /// Measured CPU load (ns) of the thread's current epoch, captured at
    /// pack time. Lets a restart path feed real loads to a load balancer
    /// when placing restored threads.
    pub fn load_ns(&self) -> u64 {
        self.head.load_ns
    }

    /// Append the wire image (head ++ raw payload) to `out`; returns the
    /// bytes appended. This is how batched migration packs several threads
    /// into one message.
    pub fn pack_into(&self, out: &mut Vec<u8>) -> usize {
        let start = out.len();
        let mut head = self.head.clone();
        #[cfg(feature = "sanitize")]
        checked_pack_into(&mut head, out);
        #[cfg(not(feature = "sanitize"))]
        flows_pup::pack_into(&mut head, out);
        out.extend_from_slice(self.payload.as_slice());
        out.len() - start
    }

    /// Serialize to raw bytes (for shipping through a message layer).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.payload.len());
        self.pack_into(&mut out);
        out
    }

    /// Deserialize from raw bytes (copies the payload; use
    /// [`PackedThread::from_payload`] to share an incoming buffer instead).
    /// A head with an unknown swap-kind or flavor tag is refused.
    pub fn from_bytes(bytes: &[u8]) -> SysResult<PackedThread> {
        let (head, used) = decode_head(bytes)?;
        if bytes.len() - used != head.payload_len as usize {
            return Err(SysError::logic(
                "packed_thread",
                format!(
                    "payload length mismatch: head says {}, got {}",
                    head.payload_len,
                    bytes.len() - used
                ),
            ));
        }
        Ok(PackedThread {
            payload: Payload::from(&bytes[used..]),
            head,
        })
    }

    /// Parse one packed thread starting at `offset` of a shared buffer,
    /// refusing unknown tags as [`PackedThread::from_bytes`] does.
    /// The payload becomes a zero-copy slice of `wire`. Returns the thread
    /// and the bytes consumed, so callers walk a concatenation of records.
    pub fn from_payload(wire: &Payload, offset: usize) -> SysResult<(PackedThread, usize)> {
        let s = &wire.as_slice()[offset..];
        let (head, used) = decode_head(s)?;
        let plen = head.payload_len as usize;
        if s.len() - used < plen {
            return Err(SysError::logic(
                "packed_thread",
                format!("truncated payload: head says {plen}, {} left", s.len() - used),
            ));
        }
        let payload = wire.slice(offset + used..offset + used + plen);
        Ok((PackedThread { head, payload }, used + plen))
    }
}

/// Pack `v` while validating its PUP contract: the sizing traversal and
/// the packing traversal must agree on the byte count, or every record
/// packed after this one lands at a wrong wire offset. A disagreement
/// trips [`flows_trace::san::SanCheck::PupSize`]. Used on every packed
/// head under `sanitize`; exposed so tests can feed it a lying impl.
#[cfg(feature = "sanitize")]
pub fn checked_pack_into<T: Pup>(v: &mut T, out: &mut Vec<u8>) -> usize {
    let declared = flows_pup::packed_size(v);
    let wrote = flows_pup::pack_into(v, out);
    if wrote != declared {
        flows_trace::san::trip(
            flows_trace::san::SanCheck::PupSize,
            "Pup impl's declared size disagrees with the bytes it packed",
            declared as u64,
            wrote as u64,
        );
    }
    wrote
}

/// Verify a vacated isomalloc slot really is inaccessible, against the
/// kernel's view of the address space. After a migration away, the
/// source PE must not be able to read the slot — a readable vacated slot
/// means a stale-pointer read there would silently return dead bytes
/// instead of faulting. Trips [`flows_trace::san::SanCheck::VacatedSlot`].
/// (A failure to read `/proc/self/maps` is not a detection and is
/// ignored.)
#[cfg(feature = "sanitize")]
pub fn assert_slot_vacated(base: usize, len: usize) {
    if let Ok(false) = flows_mem::maps::range_is_unreadable(base, len) {
        flows_trace::san::trip(
            flows_trace::san::SanCheck::VacatedSlot,
            "migrated-away slot is still readable on the source PE",
            base as u64,
            len as u64,
        );
    }
}

impl Scheduler {
    /// Pack `tid` for migration away from this PE.
    ///
    /// The thread must be started (its entry closure has begun executing),
    /// not currently running, and of a migratable flavor. On success the
    /// thread no longer exists on this PE.
    pub fn pack_thread(&self, tid: ThreadId) -> SysResult<PackedThread> {
        self.pack_thread_inner(tid, false)
    }

    /// [`Scheduler::pack_thread`] for a thread already popped off the run
    /// queue (the steal path uses `RunQueue::steal_tail` first), skipping
    /// the O(queue) removal scan per thread.
    pub(crate) fn pack_thread_unqueued(&self, tid: ThreadId) -> SysResult<PackedThread> {
        self.pack_thread_inner(tid, true)
    }

    fn pack_thread_inner(&self, tid: ThreadId, unqueued: bool) -> SysResult<PackedThread> {
        // SAFETY: single-OS-thread access between context switches.
        let inner = unsafe { &mut *self.inner_ptr() };
        inner
            .threads
            .get(&tid)
            .ok_or("is not here")
            .and_then(|t| t.packable())
            .map_err(|why| SysError::logic("pack", format!("{tid} {why}")))?;
        let mut tcb = inner.threads.remove(&tid).expect("checked above");
        if !unqueued {
            inner.runq.remove(tid);
        }
        let sp = tcb.ctx.saved_sp();
        let flavor = tcb.flavor.flavor();
        let data = tcb.take_flavor();
        // One copy: straight from the thread's memory into a pooled
        // message buffer (shared by refcount all the way to the wire).
        let mut buf = inner
            .shared
            .payload_pool(inner.pe)
            .buf_with_capacity(4 * 1024);
        let out = buf.vec_mut();
        match data {
            FlavorData::Iso { slab } => {
                #[cfg(feature = "sanitize")]
                let (slot_base, slot_len) = (slab.slot().base(), slab.slot().len());
                slab.pack_into(sp, out)?;
                #[cfg(feature = "sanitize")]
                assert_slot_vacated(slot_base, slot_len);
            }
            FlavorData::Copy { image } => {
                out.extend_from_slice(image.saved());
            }
            FlavorData::Alias { binding } => {
                if sp <= binding.floor || sp > binding.top {
                    return Err(SysError::logic(
                        "pack",
                        format!("{tid}: sp {sp:#x} outside the thread's alias window"),
                    ));
                }
                // Only the live suffix travels; the rest of the frame is
                // zero by construction (frames recycle hole-punched). The
                // window identity rides inside sp — the destination
                // derives it back with wid_for_sp.
                let floor = sp.saturating_sub(STACK_RED_ZONE).max(binding.floor);
                let mut pool = inner.shared.alias().lock();
                pool.read_bound_tail_into(&binding, binding.top - floor, out)?;
                // Zero syscalls without sanitize: frame and mapping stay
                // parked in-transit for the adopting PE. Under sanitize
                // the frame is punched and the window unmapped so stale
                // source-side touches fault.
                pool.begin_transit(&binding)?;
                #[cfg(feature = "sanitize")]
                {
                    drop(pool);
                    assert_slot_vacated(binding.floor, binding.top - binding.floor);
                }
            }
            FlavorData::Standard { .. } => unreachable!("checked migratable"),
            // A started isomalloc thread always owns a materialized slab.
            FlavorData::IsoLazy { .. } => unreachable!("unstarted threads are not packable"),
        }
        let payload = buf.freeze();
        inner.stats.migrations_out += 1;
        flows_trace::emit(
            flows_trace::EventKind::MigPack,
            tid.0,
            payload.len() as u64,
            flavor_tag(flavor) as u64,
        );
        Ok(PackedThread {
            head: Head {
                id: tid,
                swap_kind: kind_tag(tcb.ctx.kind()),
                flavor: flavor_tag(flavor),
                state: matches!(tcb.state, ThreadState::Ready) as u8,
                sp: sp as u64,
                // The accumulated load travels with the thread, so the
                // destination PE's LB epoch continues where this one left
                // off.
                load_ns: tcb.load_ns,
                priority: tcb.priority,
                globals: tcb.globals.take(),
                payload_len: payload.len() as u64,
            },
            payload,
        })
    }

    /// Destroy a thread without running it to completion, reclaiming its
    /// stack resources. This is the rollback primitive of online recovery:
    /// threads whose state advanced past the last committed checkpoint are
    /// discarded and their committed images re-instated via
    /// [`Scheduler::unpack_thread`]. Works on every flavor (unlike packing)
    /// and on threads that never started; only the currently running
    /// thread cannot be discarded.
    pub fn discard_thread(&self, tid: ThreadId) -> SysResult<()> {
        // SAFETY: single-OS-thread access between context switches.
        let inner = unsafe { &mut *self.inner_ptr() };
        if inner.threads.get(&tid).is_some_and(|t| t.state == ThreadState::Running) {
            return Err(SysError::logic("discard", format!("{tid} is running")));
        }
        let mut tcb = inner
            .threads
            .remove(&tid)
            .ok_or_else(|| SysError::logic("discard", format!("{tid} is not here")))?;
        inner.runq.remove(tid);
        // Alias windows live in the shared pool and must be returned
        // through it (release punches the frame and unmaps the window
        // immediately — rollback must not leave stale pairs warm); every
        // other flavor reclaims on drop (Iso slabs free their slot,
        // Standard stacks are plain memory).
        if let FlavorData::Alias { binding } = tcb.take_flavor() {
            inner.shared.alias().lock().release(&binding)?;
        }
        flows_trace::emit(flows_trace::EventKind::ThreadExit, tid.0, 1, 0);
        Ok(())
    }

    /// Discard every thread on this scheduler (except a currently running
    /// one, which cannot be), returning how many were reclaimed. The
    /// crash simulation uses it to model a failed node's memory vanishing:
    /// isomalloc slots and alias frames go back to the shared pools, so
    /// the threads' committed checkpoint images can later be re-instated
    /// at the same addresses on surviving PEs.
    pub fn discard_all(&self) -> usize {
        let tids: Vec<ThreadId> = {
            // SAFETY: single-OS-thread access between context switches.
            let inner = unsafe { &*self.inner_ptr() };
            inner.threads.keys().copied().collect()
        };
        let mut reclaimed = 0;
        for tid in tids {
            if self.discard_thread(tid).is_ok() {
                reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Reinstate a migrated thread on this PE. Ready threads join the run
    /// queue; suspended threads wait for [`Scheduler::awaken_tid`].
    pub fn unpack_thread(&self, packed: PackedThread) -> SysResult<ThreadId> {
        // SAFETY: single-OS-thread access between context switches.
        let inner = unsafe { &mut *self.inner_ptr() };
        let PackedThread { head: w, payload } = packed;
        if payload.len() != w.payload_len as usize {
            return Err(SysError::logic(
                "unpack",
                "payload length disagrees with head".into(),
            ));
        }
        if inner.threads.contains_key(&w.id) {
            return Err(SysError::logic(
                "unpack",
                format!("{} already lives on this PE", w.id),
            ));
        }
        let (kind, flavor) = w.tags()?;
        if kind != inner.cfg.swap_kind {
            return Err(SysError::logic(
                "unpack",
                format!(
                    "thread uses {} swap but this scheduler uses {}",
                    kind.name(),
                    inner.cfg.swap_kind.name()
                ),
            ));
        }
        let (flavor, sp) = match flavor {
            StackFlavor::StackCopy => {
                let image = flows_mem::CopyStack::from_saved(payload.to_vec());
                (FlavorData::Copy { image }, w.sp as usize)
            }
            StackFlavor::Isomalloc => {
                // The slab cache may hold a parked slab that still owns
                // this image's slot; unpack_with evicts it before adopting
                // (the double-ownership hazard).
                let mut cache = inner.shared.slab_cache().lock();
                let (slab, sp) = flows_mem::ThreadSlab::unpack_with(
                    inner.shared.region(),
                    payload.as_slice(),
                    Some(&mut cache),
                )?;
                drop(cache);
                if sp != w.sp as usize {
                    return Err(SysError::logic("unpack", "sp mismatch in image".into()));
                }
                (FlavorData::Iso { slab: Box::new(slab) }, sp)
            }
            StackFlavor::Alias => {
                let sp = w.sp as usize;
                let mut pool = inner.shared.alias().lock();
                // The saved sp names the thread's window machine-wide.
                let wid = pool.wid_for_sp(sp)?;
                let floor_w = pool.window_floor(wid);
                let top = pool.window_top(wid);
                let floor = sp.saturating_sub(STACK_RED_ZONE).max(floor_w);
                if payload.len() != top - floor {
                    return Err(SysError::logic(
                        "unpack",
                        format!(
                            "alias image is {} bytes, sp implies {}",
                            payload.len(),
                            top - floor
                        ),
                    ));
                }
                // Re-binds the window whatever its state: in-transit pairs
                // reuse their mapping (one pwrite total), reclaimed or
                // rolled-back windows get a zeroed frame first.
                let binding = pool.adopt(wid, payload.as_slice())?;
                (FlavorData::Alias { binding }, sp)
            }
            StackFlavor::Standard => unreachable!("tag_flavor names migratable flavors only"),
        };
        let mut ctx = Context::new(kind);
        // SAFETY: sp was saved by a suspend through a same-kind context and
        // its stack bytes were just reinstated at the same address.
        unsafe { ctx.set_saved_sp(sp) };
        let ready = w.state == 1;
        let tcb = Box::new(Tcb {
            id: w.id,
            ctx,
            state: if ready {
                ThreadState::Ready
            } else {
                ThreadState::Suspended
            },
            flavor,
            entry_raw: None,
            globals: w.globals,
            panicked: false,
            priority: w.priority,
            load_ns: w.load_ns,
        });
        inner.threads.insert(w.id, tcb);
        if ready {
            inner.runq.push(w.id, w.priority);
        }
        inner.stats.migrations_in += 1;
        flows_trace::emit(
            flows_trace::EventKind::MigUnpack,
            w.id.0,
            w.payload_len,
            w.flavor as u64,
        );
        Ok(w.id)
    }
}

/// Convenience for in-process machines: pack on `from`, unpack on `to`.
pub fn migrate(from: &Scheduler, to: &Scheduler, tid: ThreadId) -> SysResult<()> {
    let packed = from.pack_thread(tid)?;
    to.unpack_thread(packed)?;
    Ok(())
}
