//! The isomalloc region: one machine-wide address-space reservation,
//! divided into per-PE slot ranges (paper §3.4.2, Figure 2).
//!
//! All PEs agree on the region layout at startup. PE *p* allocates thread
//! slots only from its own range, so slot addresses are unique across the
//! whole (simulated) machine and a thread can migrate anywhere knowing its
//! addresses are free on the destination.

use flows_sys::error::{SysError, SysResult};
use flows_sys::map::{Mapping, Protection};
use flows_sys::page::{page_align_down, page_align_up, page_size};
use parking_lot::Mutex;
use std::sync::Arc;

/// Default preferred base of the isomalloc region: 16 TiB, far above the
/// heap and far below the stack / vdso region on x86-64 Linux.
pub const DEFAULT_BASE: usize = 0x1000_0000_0000;

/// Layout of the machine-wide isomalloc region.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsoConfig {
    /// Preferred fixed base address (0 = let the kernel choose; migration
    /// still works inside one OS process because every PE shares the same
    /// mapping object, but a real multi-node machine needs the fixed base).
    pub base: usize,
    /// Number of PE ranges to carve.
    pub num_pes: usize,
    /// Slots in each PE range.
    pub slots_per_pe: usize,
    /// Bytes per slot (page multiple; stack at the top, heap at the bottom).
    pub slot_len: usize,
}

impl IsoConfig {
    /// A reasonable configuration for `num_pes` PEs: 1 MiB slots, 1024
    /// slots per PE.
    pub fn for_pes(num_pes: usize) -> IsoConfig {
        IsoConfig {
            base: DEFAULT_BASE,
            num_pes,
            slots_per_pe: 1024,
            slot_len: 1 << 20,
        }
    }

    /// Total bytes of address space the region reserves.
    pub fn total_len(&self) -> usize {
        self.num_pes * self.slots_per_pe * self.slot_len
    }

    fn validate(&self) -> SysResult<()> {
        if self.num_pes == 0 || self.slots_per_pe == 0 {
            return Err(SysError::logic("iso_config", "zero PEs or slots".into()));
        }
        if self.slot_len == 0 || !self.slot_len.is_multiple_of(page_size()) {
            return Err(SysError::logic(
                "iso_config",
                format!("slot_len {:#x} must be a positive page multiple", self.slot_len),
            ));
        }
        if !self.base.is_multiple_of(page_size()) {
            return Err(SysError::logic("iso_config", "unaligned base".into()));
        }
        Ok(())
    }
}

struct PeSlots {
    next_fresh: usize,
    free: Vec<usize>,
    live: usize,
}

/// Which parts of a slot are *warm*: still committed read-write from a
/// previous tenant. Slots keep their page protections when freed — only
/// the physical pages go back to the kernel (`madvise`) — so the next
/// tenant's commits of already-warm ranges are pure bookkeeping, no
/// syscalls. Heap commits grow up from the slot base and stack commits
/// grow down from the slot top, so two extents capture the whole history:
/// `[0, low)` and `[high, slot_len)` are read-write.
#[derive(Debug, Clone, Copy)]
struct Warm {
    low: usize,
    high: usize,
    /// A commit landed strictly between the extents, which the two-extent
    /// summary cannot represent; the slot reverts to a full decommit when
    /// dropped.
    tainted: bool,
}

/// The reserved region plus per-PE slot allocators.
pub struct IsoRegion {
    cfg: IsoConfig,
    map: Mapping,
    pes: Vec<Mutex<PeSlots>>,
    warm: Vec<Mutex<Warm>>,
}

impl std::fmt::Debug for IsoRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IsoRegion")
            .field("base", &format_args!("{:#x}", self.map.addr()))
            .field("cfg", &self.cfg)
            .finish()
    }
}

impl IsoRegion {
    /// Reserve the region. Tries the configured fixed base first and falls
    /// back to a kernel-chosen address (reported by [`IsoRegion::base`]).
    pub fn new(cfg: IsoConfig) -> SysResult<Arc<IsoRegion>> {
        cfg.validate()?;
        let total = page_align_up(cfg.total_len());
        let map = if cfg.base != 0 {
            match Mapping::reserve_at(cfg.base, total) {
                Ok(m) => m,
                Err(_) => Mapping::reserve(total)?,
            }
        } else {
            Mapping::reserve(total)?
        };
        // Ask for transparent huge pages across the whole reservation when
        // the kernel allows anonymous THP (startup probe). Best-effort and
        // advisory: slots that commit ≥ 2 MiB contiguously may get their
        // pages assembled into huge mappings, everything else is untouched,
        // and a kernel without THP just ignores the hint.
        if crate::probe::hugepage_probe().thp_anon {
            let _ = map.advise_hugepage(0, total);
        }
        let pes = (0..cfg.num_pes)
            .map(|_| {
                Mutex::new(PeSlots {
                    next_fresh: 0,
                    free: Vec::new(),
                    live: 0,
                })
            })
            .collect();
        let warm = (0..cfg.num_pes * cfg.slots_per_pe)
            .map(|_| {
                Mutex::new(Warm {
                    low: 0,
                    high: cfg.slot_len,
                    tainted: false,
                })
            })
            .collect();
        Ok(Arc::new(IsoRegion { cfg, map, pes, warm }))
    }

    /// Actual base address of the reservation.
    pub fn base(&self) -> usize {
        self.map.addr()
    }

    /// The layout this region was built with.
    pub fn cfg(&self) -> &IsoConfig {
        &self.cfg
    }

    /// Whether the region landed at its preferred fixed base — required
    /// for cross-address-space migration on a real machine.
    pub fn at_fixed_base(&self) -> bool {
        self.cfg.base != 0 && self.map.addr() == self.cfg.base
    }

    fn slot_offset(&self, global_index: usize) -> usize {
        global_index * self.cfg.slot_len
    }

    /// Allocate a fresh slot from `pe`'s range.
    pub fn alloc_slot(self: &Arc<Self>, pe: usize) -> SysResult<Slot> {
        if pe >= self.cfg.num_pes {
            return Err(SysError::logic(
                "alloc_slot",
                format!("pe {pe} out of range ({} PEs)", self.cfg.num_pes),
            ));
        }
        let mut st = self.pes[pe].lock();
        let local = if let Some(i) = st.free.pop() {
            i
        } else if st.next_fresh < self.cfg.slots_per_pe {
            let i = st.next_fresh;
            st.next_fresh += 1;
            i
        } else {
            return Err(SysError::logic(
                "alloc_slot",
                format!("pe {pe} exhausted its {} slots", self.cfg.slots_per_pe),
            ));
        };
        st.live += 1;
        drop(st);
        Ok(Slot {
            region: Arc::clone(self),
            global_index: pe * self.cfg.slots_per_pe + local,
        })
    }

    /// Re-materialize a slot handle from its global index after migration.
    /// The caller is responsible for ensuring exactly one live handle per
    /// index (the migration protocol releases the source handle with
    /// [`Slot::into_global_index`] before the destination adopts it).
    ///
    /// A recovery respawn adopts indices whose previous handle was
    /// *dropped* (the dead PE or the rollback discarded its threads), so if the
    /// index sits on its home PE's free list it is reclaimed: removed from
    /// the list and counted live again. Otherwise the index is presumed
    /// still owned remotely (normal migration) and accounting is untouched.
    pub fn adopt_slot(self: &Arc<Self>, global_index: usize) -> SysResult<Slot> {
        if global_index >= self.cfg.num_pes * self.cfg.slots_per_pe {
            return Err(SysError::logic(
                "adopt_slot",
                format!("slot index {global_index} out of range"),
            ));
        }
        let pe = global_index / self.cfg.slots_per_pe;
        let local = global_index % self.cfg.slots_per_pe;
        let mut st = self.pes[pe].lock();
        if let Some(pos) = st.free.iter().position(|&i| i == local) {
            st.free.swap_remove(pos);
            st.live += 1;
        } else if local >= st.next_fresh {
            // Never allocated by THIS region instance: the image comes
            // from another process of the same machine (cross-process
            // recovery respawn), whose region allocated the index out of
            // its own instance of this PE's range. Materialize it here —
            // skipped fresh indices go to the free list so the invariant
            // "every index is free-listed, fresh, or live" holds and the
            // eventual drop balances.
            for i in st.next_fresh..local {
                st.free.push(i);
            }
            st.next_fresh = local + 1;
            st.live += 1;
        }
        drop(st);
        Ok(Slot {
            region: Arc::clone(self),
            global_index,
        })
    }

    /// Number of live slots currently allocated from `pe`'s range.
    pub fn live_slots(&self, pe: usize) -> usize {
        self.pes[pe].lock().live
    }

    /// Discard the physical pages of every listed slot, whole-slot, with
    /// adjacent indices merged into a single `madvise` each (the slab
    /// cache's batched flush). Protections are untouched, so the slots'
    /// warm extents stay warm and read zero on next touch — the same
    /// postcondition as `Slot::drop`'s clean path, at a fraction of the
    /// syscalls when a batch of neighbors retires together.
    pub(crate) fn discard_slot_runs(&self, indices: &mut [usize]) -> SysResult<()> {
        indices.sort_unstable();
        let slot_len = self.cfg.slot_len;
        let mut i = 0;
        while i < indices.len() {
            let start = indices[i];
            let mut len = 1;
            while i + len < indices.len() && indices[i + len] == start + len {
                len += 1;
            }
            self.map.discard(start * slot_len, len * slot_len)?;
            i += len;
        }
        Ok(())
    }
}

/// An owned thread slot: `slot_len` bytes of globally unique address space.
///
/// Dropping the slot decommits its pages and returns it to its home PE's
/// free list.
#[derive(Debug)]
pub struct Slot {
    // flowslint::allow(migration-image-closure): the region handle is
    // process-local on purpose — a packed thread never serializes it;
    // unpack re-derives the slot from the destination's own IsoRegion at
    // the same global_index (iso slots occupy identical addresses in
    // every process, §3.4.2).
    region: Arc<IsoRegion>,
    global_index: usize,
}

impl Slot {
    /// First address of the slot.
    pub fn base(&self) -> usize {
        self.region.base() + self.region.slot_offset(self.global_index)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.region.cfg.slot_len
    }

    /// Slots are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// One-past-the-end address (the initial stack top).
    pub fn top(&self) -> usize {
        self.base() + self.len()
    }

    /// The machine-wide slot index (stable across migration).
    pub fn global_index(&self) -> usize {
        self.global_index
    }

    /// The PE from whose range this slot was carved.
    pub fn home_pe(&self) -> usize {
        self.global_index / self.region.cfg.slots_per_pe
    }

    /// The region this slot belongs to.
    pub fn region(&self) -> &Arc<IsoRegion> {
        &self.region
    }

    /// Commit `[offset, offset+len)` of the slot read-write. Ranges still
    /// warm from a previous tenant (see [`Warm`]) commit without a syscall.
    pub fn commit(&self, offset: usize, len: usize) -> SysResult<()> {
        self.check(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        let (o, e) = (page_align_down(offset), page_align_up(offset + len));
        let mut w = self.region.warm[self.global_index].lock();
        if e <= w.low || o >= w.high {
            return Ok(());
        }
        self.region.map.commit(
            self.region.slot_offset(self.global_index) + offset,
            len,
            Protection::ReadWrite,
        )?;
        if o <= w.low && e >= w.high {
            // The commit spans the whole remaining gap: the slot is now
            // fully read-write. Keep `low <= high` (an empty gap at the
            // top) — crossed extents would make ensure_uncommitted
            // decommit ranges that are in use.
            w.low = self.region.cfg.slot_len;
            w.high = self.region.cfg.slot_len;
        } else if o <= w.low {
            w.low = w.low.max(e);
        } else if e >= w.high {
            w.high = w.high.min(o);
        } else {
            w.tainted = true;
        }
        Ok(())
    }

    /// Decommit `[offset, offset+len)` (pages returned to the kernel and
    /// reprotected `PROT_NONE`).
    pub fn decommit(&self, offset: usize, len: usize) -> SysResult<()> {
        self.check(offset, len)?;
        self.region
            .map
            .decommit(self.region.slot_offset(self.global_index) + offset, len)?;
        let (o, e) = (page_align_down(offset), page_align_up(offset + len));
        let mut w = self.region.warm[self.global_index].lock();
        if o == 0 && e >= self.region.cfg.slot_len {
            *w = Warm {
                low: 0,
                high: self.region.cfg.slot_len,
                tainted: false,
            };
        } else {
            w.low = w.low.min(o);
            w.high = w.high.max(e);
        }
        Ok(())
    }

    /// Return the physical pages of `[offset, offset+len)` to the kernel
    /// *without* touching protections: warm ranges stay warm and read zero
    /// on next touch. One `madvise`, no `mprotect`.
    pub fn discard(&self, offset: usize, len: usize) -> SysResult<()> {
        self.check(offset, len)?;
        self.region
            .map
            .discard(self.region.slot_offset(self.global_index) + offset, len)
    }

    /// Return every physical page of this slot to the kernel without
    /// changing protections (the warm extents stay RW for the next
    /// tenant). Only the warm extents are madvised — nothing else can
    /// hold resident pages — so the cost tracks the committed footprint,
    /// not the slot size.
    pub fn discard_committed(&self) -> SysResult<()> {
        let slot_len = self.len();
        let w = self.region.warm[self.global_index].lock();
        if w.tainted {
            return self.discard(0, slot_len);
        }
        if w.low > 0 {
            self.discard(0, w.low)?;
        }
        if w.high < slot_len {
            self.discard(w.high, slot_len - w.high)?;
        }
        Ok(())
    }

    /// Enforce that `[offset, offset+len)` is `PROT_NONE` — the guard-page
    /// discipline between heap arena and stack. Costs zero syscalls when
    /// the range was never warmed (the common case: a recycled slot reused
    /// with the same layout); otherwise decommits exactly the warm part.
    pub fn ensure_uncommitted(&self, offset: usize, len: usize) -> SysResult<()> {
        self.check(offset, len)?;
        if len == 0 {
            return Ok(());
        }
        let base = self.region.slot_offset(self.global_index);
        let (o, e) = (page_align_down(offset), page_align_up(offset + len));
        let mut w = self.region.warm[self.global_index].lock();
        if w.tainted {
            self.region.map.decommit(base + o, e - o)?;
            w.low = w.low.min(o);
            w.high = w.high.max(e);
            return Ok(());
        }
        if o < w.low {
            self.region.map.decommit(base + o, w.low - o)?;
            w.low = o;
        }
        if e > w.high {
            self.region.map.decommit(base + w.high, e - w.high)?;
            w.high = e;
        }
        Ok(())
    }

    fn check(&self, offset: usize, len: usize) -> SysResult<()> {
        if offset.checked_add(len).is_none_or(|e| e > self.len()) {
            return Err(SysError::logic(
                "slot_range",
                format!("{offset:#x}+{len:#x} outside slot of {:#x}", self.len()),
            ));
        }
        Ok(())
    }

    /// Release ownership for migration: decommits nothing, frees nothing —
    /// the slot's bytes travel with the packed thread and the index is
    /// re-adopted on the destination PE.
    pub fn into_global_index(self) -> usize {
        self.release()
    }

    /// Give up this handle without running `Drop` (no page discard, no
    /// free-list push) but *with* releasing its region reference, so a
    /// dropped machine's region is unmapped once its last slot is gone.
    fn release(self) -> usize {
        let this = std::mem::ManuallyDrop::new(self);
        // SAFETY: `this` is never dropped, so reading the Arc out moves
        // the handle's one region reference; it is dropped exactly once.
        drop(unsafe { std::ptr::read(&this.region) });
        this.global_index
    }

    /// Whether a commit ever landed between the warm extents (such a slot
    /// must take the full-decommit drop path; the batched flush skips it).
    pub(crate) fn warm_tainted(&self) -> bool {
        self.region.warm[self.global_index].lock().tainted
    }

    /// Free-list bookkeeping of `Slot::drop` *without* the page discard —
    /// the slab cache's flush path, which has already discarded this
    /// slot's pages in a coalesced run via
    /// [`IsoRegion::discard_slot_runs`].
    pub(crate) fn recycle_without_discard(self) {
        let pe = self.home_pe();
        let local = self.global_index % self.region.cfg.slots_per_pe;
        let mut st = self.region.pes[pe].lock();
        st.free.push(local);
        st.live -= 1;
        drop(st);
        self.release();
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        // Best effort: return physical pages and recycle the index. Warm
        // recycling — pages are discarded (they read zero on next touch)
        // but protections are kept so the next tenant commits for free.
        let off = self.region.slot_offset(self.global_index);
        let slot_len = self.region.cfg.slot_len;
        {
            let mut w = self.region.warm[self.global_index].lock();
            if w.tainted {
                let _ = self.region.map.decommit(off, slot_len);
                *w = Warm {
                    low: 0,
                    high: slot_len,
                    tainted: false,
                };
            } else {
                // Only the warm extents can hold resident pages; madvise
                // just those instead of walking the whole (possibly huge)
                // slot.
                if w.low > 0 {
                    let _ = self.region.map.discard(off, w.low);
                }
                if w.high < slot_len {
                    let _ = self.region.map.discard(off + w.high, slot_len - w.high);
                }
            }
        }
        let pe = self.home_pe();
        let local = self.global_index % self.region.cfg.slots_per_pe;
        let mut st = self.region.pes[pe].lock();
        st.free.push(local);
        st.live -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_region(pes: usize) -> Arc<IsoRegion> {
        IsoRegion::new(IsoConfig {
            base: 0, // anywhere: unit tests must not fight over the fixed base
            num_pes: pes,
            slots_per_pe: 4,
            slot_len: 64 * 1024,
        })
        .unwrap()
    }

    #[test]
    fn slots_are_disjoint_and_unique() {
        let r = small_region(3);
        let mut slots = Vec::new();
        for pe in 0..3 {
            for _ in 0..4 {
                slots.push(r.alloc_slot(pe).unwrap());
            }
        }
        let mut ranges: Vec<_> = slots.iter().map(|s| (s.base(), s.top())).collect();
        ranges.sort();
        for w in ranges.windows(2) {
            assert!(w[0].1 <= w[1].0, "slots must not overlap");
        }
        let ids: std::collections::HashSet<_> =
            slots.iter().map(|s| s.global_index()).collect();
        assert_eq!(ids.len(), 12);
    }

    #[test]
    fn exhaustion_and_reuse() {
        let r = small_region(1);
        let slots: Vec<_> = (0..4).map(|_| r.alloc_slot(0).unwrap()).collect();
        assert!(r.alloc_slot(0).is_err(), "5th slot must fail");
        assert_eq!(r.live_slots(0), 4);
        let freed_base = slots[1].base();
        drop(slots);
        assert_eq!(r.live_slots(0), 0);
        let s = r.alloc_slot(0).unwrap();
        // Freed slots are recycled (LIFO), same address range reappears.
        assert!(s.base() >= freed_base - 3 * 64 * 1024);
    }

    #[test]
    fn commit_write_read_across_alloc_free() {
        let r = small_region(1);
        let s = r.alloc_slot(0).unwrap();
        s.commit(0, 4096).unwrap();
        // SAFETY: just committed.
        unsafe {
            *(s.base() as *mut u64) = 0xDEAD_BEEF;
            assert_eq!(*(s.base() as *const u64), 0xDEAD_BEEF);
        }
        let idx = s.global_index();
        let base = s.base();
        drop(s);
        // Recycled slot must read zero after recommit (decommitted on drop).
        let s2 = r.alloc_slot(0).unwrap();
        assert_eq!(s2.global_index(), idx);
        assert_eq!(s2.base(), base);
        s2.commit(0, 4096).unwrap();
        // SAFETY: just committed.
        unsafe { assert_eq!(*(s2.base() as *const u64), 0) };
    }

    #[test]
    fn adopt_round_trip() {
        let r = small_region(2);
        let s = r.alloc_slot(1).unwrap();
        let base = s.base();
        let idx = s.into_global_index();
        let s2 = r.adopt_slot(idx).unwrap();
        assert_eq!(s2.base(), base);
        assert_eq!(s2.home_pe(), 1);
        assert!(r.adopt_slot(999).is_err());
    }

    /// Checkpoint-restart flow: the old handle is *dropped* (not forgotten
    /// as in migration), then the index is adopted again. The adoption must
    /// reclaim the index so accounting stays balanced and a later alloc
    /// cannot hand out a second handle to the same slot.
    #[test]
    fn adopt_reclaims_freed_index() {
        let r = small_region(1);
        let s = r.alloc_slot(0).unwrap();
        let idx = s.global_index();
        drop(s); // crashed machine teardown
        assert_eq!(r.live_slots(0), 0);
        let s2 = r.adopt_slot(idx).unwrap(); // restore from checkpoint
        assert_eq!(r.live_slots(0), 1, "reclaimed index is live again");
        // Fresh allocations must not alias the restored slot.
        let others: Vec<_> = (0..3).map(|_| r.alloc_slot(0).unwrap()).collect();
        assert!(others.iter().all(|o| o.global_index() != idx));
        assert!(r.alloc_slot(0).is_err(), "region is genuinely full");
        drop(s2);
        drop(others);
        assert_eq!(r.live_slots(0), 0, "drop accounting balanced");
    }

    #[test]
    fn out_of_range_pe_rejected() {
        let r = small_region(1);
        assert!(r.alloc_slot(1).is_err());
    }

    #[test]
    fn fixed_base_reservation_when_available() {
        // The default 16 TiB base should be free in a test process; if some
        // sanitizer claims it, the fallback still yields a working region.
        let r = IsoRegion::new(IsoConfig {
            base: DEFAULT_BASE + (7 << 30), // offset to dodge other tests
            num_pes: 1,
            slots_per_pe: 2,
            slot_len: 64 * 1024,
        })
        .unwrap();
        let s = r.alloc_slot(0).unwrap();
        s.commit(0, 4096).unwrap();
        // SAFETY: just committed.
        unsafe { *(s.base() as *mut u8) = 1 };
    }
}
