//! Memory-aliasing stacks (paper §3.4.3, Figure 3) with per-PE private
//! windows and deferred batch reclaim.
//!
//! Every thread's stack lives in its own physical *frame* — a page-aligned
//! extent of one `memfd` object. The paper's original scheme executes all
//! aliased threads from a single common virtual window and remaps it with
//! `mmap(MAP_FIXED)` on **every** context switch. That puts a syscall (and
//! a process-wide lock) in the switch hot loop, which is exactly where the
//! paper's Figure 4 shows the flavor falling behind.
//!
//! This implementation reserves a *window per thread slot* instead: one
//! machine-wide `PROT_NONE` reservation carved into `num_pes ×
//! windows_per_pe` windows of `frame_len` bytes. A thread binds a window
//! once, its frame is aliased into that window on the first resume, and
//! every later local switch costs **zero** syscalls and **zero** locks —
//! the mapping simply stays put, because no other thread shares the
//! window. Virtual-address cost grows with the live-thread bound (like
//! isomalloc) rather than staying at one stack, which is the documented
//! trade against the paper's 32-bit motivation; in exchange, any number of
//! aliased threads can run concurrently across PEs.
//!
//! ### Window lifecycle
//!
//! ```text
//!   Free ──bind──▶ Bound{mapped:false} ──map_window──▶ Bound{mapped:true}
//!    ▲                    │                                   │
//!    │                 release                             retire
//!    │                    ▼                                   ▼
//!    └──────flush────  (punched)                      Warm{frame} ──bind──▶ Bound
//!                                                         │
//!   pack: Bound ──begin_transit──▶ InTransit ──adopt──▶ Bound
//! ```
//!
//! * `Free` — window unmapped, no frame; on its home PE's free list (or
//!   still uncarved fresh territory).
//! * `Warm` — a thread exited here: frame *and* mapping are kept intact,
//!   parked on the home PE's warm list. Respawning from a warm pair costs
//!   zero syscalls (the stale contents are dead; a fresh bootstrap frame
//!   is built on top, mirroring the Standard flavor's recycled stacks).
//! * `Bound` — owned by a live thread ([`AliasBinding`]).
//! * `InTransit` — the thread packed for migration; the window identity
//!   travels inside the saved stack pointer and is re-bound by
//!   [`AliasStackPool::adopt`] wherever the thread lands.
//!
//! Warm windows are only reused *with their own frame* — their pages are
//! stale, not zero. Frames on the free list are always hole-punched first
//! and therefore read zero, which migration's "write only the live tail"
//! reconstruction relies on.
//!
//! ### Deferred reclaim
//!
//! Nothing is unmapped or punched on the exit path. Warm pairs accumulate
//! per PE until the list crosses a high-water mark (or the PE goes idle
//! and calls [`AliasStackPool::flush`]); one flush then releases a batch:
//! adjacent windows merge into single `MAP_FIXED PROT_NONE` remaps and
//! adjacent frames into single hole punches. Each flush bumps the
//! `reclaim_batch` counter and emits a `RemapBatch` trace event. Under
//! `sanitize` the high-water mark defaults to zero, so reclamation is
//! eager (through the same code path) and vacated windows fault on touch.

use flows_sys::error::{SysError, SysResult};
use flows_sys::map::Mapping;
use flows_sys::memfd::{MemFd, HUGE_2MIB};
use flows_sys::page::page_size;
use flows_trace::{emit, EventKind};

/// Identifier of a stack frame inside the pool's `memfd`.
pub type FrameId = usize;

/// Identifier of a virtual window inside the pool's reservation.
pub type WindowId = usize;

/// A live thread's claim on one window + one frame. Stored in the thread
/// control block; `mapped` is the lock-free fast-path check — once true,
/// resuming the thread touches neither the pool nor the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AliasBinding {
    /// The physical frame holding the thread's stack bytes.
    pub frame: FrameId,
    /// The window the frame is (or will be) aliased into.
    pub wid: WindowId,
    /// Lowest address of the window (the stack floor).
    pub floor: usize,
    /// One past the highest address (the initial stack top).
    pub top: usize,
    /// Whether the frame is currently aliased into the window.
    pub mapped: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WindowState {
    Free,
    Warm { frame: FrameId },
    Bound { frame: FrameId, mapped: bool },
    InTransit { frame: Option<FrameId>, mapped: bool },
}

/// Warm pairs a PE may park before a batch flush runs. Zero under
/// `sanitize`: every retire reclaims eagerly through the same flush path,
/// so vacated windows are provably inaccessible.
#[cfg(not(feature = "sanitize"))]
const DEFAULT_HIGH_WATER: usize = 128;
#[cfg(feature = "sanitize")]
const DEFAULT_HIGH_WATER: usize = 0;

/// A pool of aliasable stack frames plus per-PE private window ranges.
#[derive(Debug)]
pub struct AliasStackPool {
    memfd: MemFd,
    frame_len: usize,
    map: Mapping,
    /// Offset of window 0 inside the reservation (non-zero only when the
    /// backing is hugetlb and the window base needed 2 MiB alignment).
    win_off0: usize,
    num_pes: usize,
    windows_per_pe: usize,
    states: Vec<WindowState>,
    /// Per PE: first never-carved local window index.
    next_fresh: Vec<usize>,
    /// Per PE: carved windows in state `Free`.
    free_windows: Vec<Vec<WindowId>>,
    /// Per PE: windows in state `Warm`, oldest first.
    warm: Vec<Vec<WindowId>>,
    /// Hole-punched frames (read zero), ready for reuse.
    free_frames: Vec<FrameId>,
    n_frames: usize,
    high_water: usize,
    batches: u64,
}

impl AliasStackPool {
    /// Single-PE convenience constructor: `initial_frames` windows on PE 0
    /// and memfd capacity for as many frames (both grow-/steal-free).
    pub fn new(frame_len: usize, initial_frames: usize) -> SysResult<AliasStackPool> {
        Self::new_windowed(frame_len, 1, initial_frames.max(1), initial_frames)
    }

    /// Create a pool with frames of `frame_len` bytes (page multiple),
    /// `windows_per_pe` private windows for each of `num_pes` PEs, and
    /// initial memfd capacity for `initial_frames` (grows on demand).
    ///
    /// When the startup probe reports free 2 MiB hugetlb pages and
    /// `frame_len` is a 2 MiB multiple, the frame store is backed by
    /// hugetlb pages (window base 2 MiB-aligned to match); otherwise it
    /// falls back to a regular memfd. See [`crate::probe::HugePageProbe`].
    pub fn new_windowed(
        frame_len: usize,
        num_pes: usize,
        windows_per_pe: usize,
        initial_frames: usize,
    ) -> SysResult<AliasStackPool> {
        let pg = page_size();
        if frame_len == 0 || !frame_len.is_multiple_of(pg) {
            return Err(SysError::logic(
                "alias_pool",
                format!("frame_len {frame_len:#x} must be a positive page multiple"),
            ));
        }
        if num_pes == 0 || windows_per_pe == 0 {
            return Err(SysError::logic(
                "alias_pool",
                "zero PEs or windows per PE".into(),
            ));
        }
        let num_windows = num_pes
            .checked_mul(windows_per_pe)
            .and_then(|w| w.checked_mul(frame_len))
            .ok_or_else(|| SysError::logic("alias_pool", "window range overflows".into()))?
            / frame_len;
        let total = num_windows * frame_len;
        let cap = initial_frames.max(1);
        let want_hugetlb = frame_len.is_multiple_of(HUGE_2MIB as usize)
            && crate::probe::hugepage_probe().frames_can_use_hugetlb(frame_len);
        let memfd = if want_hugetlb {
            MemFd::new_hugetlb("flows-alias-stacks", (frame_len * cap) as u64)?
        } else {
            MemFd::new("flows-alias-stacks", (frame_len * cap) as u64)?
        };
        // Hugetlb file mappings need 2 MiB-aligned addresses; over-reserve
        // and start the window range at the first aligned byte.
        let (map, win_off0) = if memfd.is_hugetlb() {
            let align = HUGE_2MIB as usize;
            let m = Mapping::reserve(total + align)?;
            let rem = m.addr() % align;
            (m, if rem == 0 { 0 } else { align - rem })
        } else {
            (Mapping::reserve(total)?, 0)
        };
        Ok(AliasStackPool {
            memfd,
            frame_len,
            map,
            win_off0,
            num_pes,
            windows_per_pe,
            states: vec![WindowState::Free; num_windows],
            next_fresh: vec![0; num_pes],
            free_windows: vec![Vec::new(); num_pes],
            warm: vec![Vec::new(); num_pes],
            free_frames: Vec::new(),
            n_frames: 0,
            high_water: DEFAULT_HIGH_WATER,
            batches: 0,
        })
    }

    /// Bytes per frame (= per window).
    pub fn frame_len(&self) -> usize {
        self.frame_len
    }

    /// PEs this pool serves.
    pub fn num_pes(&self) -> usize {
        self.num_pes
    }

    /// Private windows reserved for each PE.
    pub fn windows_per_pe(&self) -> usize {
        self.windows_per_pe
    }

    /// Total windows across all PEs.
    pub fn num_windows(&self) -> usize {
        self.num_pes * self.windows_per_pe
    }

    /// Lowest address of window `wid` (its stack floor).
    pub fn window_floor(&self, wid: WindowId) -> usize {
        self.map.addr() + self.win_off0 + wid * self.frame_len
    }

    /// One past the highest address of window `wid` — the initial stack
    /// top of the thread bound to it.
    pub fn window_top(&self, wid: WindowId) -> usize {
        self.window_floor(wid) + self.frame_len
    }

    /// The PE from whose range `wid` was carved.
    pub fn home_pe(&self, wid: WindowId) -> usize {
        wid / self.windows_per_pe
    }

    /// Number of frames ever created and not freed.
    pub fn live_frames(&self) -> usize {
        self.n_frames - self.free_frames.len()
    }

    /// Warm pairs currently parked on `pe`'s reclaim list.
    pub fn warm_windows(&self, pe: usize) -> usize {
        self.warm[pe].len()
    }

    /// Batched reclaim flushes performed so far.
    pub fn reclaim_batches(&self) -> u64 {
        self.batches
    }

    /// Override the warm-list high-water mark (tests; `0` = eager).
    pub fn set_high_water(&mut self, n: usize) {
        self.high_water = n;
    }

    /// Recover a window id from a stack pointer saved inside it — how a
    /// migrated-in thread's image names its window (the sp travels in the
    /// packed head; the window range is machine-wide, so the id is stable
    /// across PEs).
    pub fn wid_for_sp(&self, sp: usize) -> SysResult<WindowId> {
        let base = self.window_floor(0);
        let end = base + self.num_windows() * self.frame_len;
        if sp <= base || sp > end {
            return Err(SysError::logic(
                "alias_wid",
                format!("sp {sp:#x} outside the window range [{base:#x},{end:#x})"),
            ));
        }
        Ok((sp - 1 - base) / self.frame_len)
    }

    // --- binding ---------------------------------------------------------

    /// Claim a window + frame for a thread spawning on `pe`. Preference
    /// order: `pe`'s warm list (zero syscalls — frame and mapping reused
    /// as-is), `pe`'s free/fresh windows, then other PEs' free/fresh, then
    /// other PEs' warm pairs. Fails only when every window machine-wide is
    /// owned.
    pub fn bind(&mut self, pe: usize) -> SysResult<AliasBinding> {
        if pe >= self.num_pes {
            return Err(SysError::logic(
                "alias_bind",
                format!("pe {pe} out of range ({} PEs)", self.num_pes),
            ));
        }
        if let Some(wid) = self.warm[pe].pop() {
            return self.rebind_warm(wid);
        }
        if let Some(wid) = self.take_free_window(pe) {
            return self.bind_fresh(wid);
        }
        for q in 0..self.num_pes {
            if q == pe {
                continue;
            }
            if let Some(wid) = self.take_free_window(q) {
                return self.bind_fresh(wid);
            }
        }
        for q in 0..self.num_pes {
            if q == pe {
                continue;
            }
            if let Some(wid) = self.warm[q].pop() {
                return self.rebind_warm(wid);
            }
        }
        Err(SysError::logic(
            "alias_bind",
            format!("all {} alias windows are owned", self.num_windows()),
        ))
    }

    fn rebind_warm(&mut self, wid: WindowId) -> SysResult<AliasBinding> {
        let WindowState::Warm { frame } = self.states[wid] else {
            return Err(SysError::logic(
                "alias_bind",
                format!("warm-list window {wid} is not Warm"),
            ));
        };
        self.states[wid] = WindowState::Bound { frame, mapped: true };
        Ok(self.binding(frame, wid, true))
    }

    fn bind_fresh(&mut self, wid: WindowId) -> SysResult<AliasBinding> {
        let frame = self.alloc_frame()?;
        self.states[wid] = WindowState::Bound { frame, mapped: false };
        Ok(self.binding(frame, wid, false))
    }

    fn binding(&self, frame: FrameId, wid: WindowId, mapped: bool) -> AliasBinding {
        AliasBinding {
            frame,
            wid,
            floor: self.window_floor(wid),
            top: self.window_top(wid),
            mapped,
        }
    }

    /// Alias the binding's frame into its window (one `MAP_FIXED` remap).
    /// Idempotent; after it succeeds the thread resumes lock- and
    /// syscall-free until it exits or migrates.
    pub fn map_window(&mut self, b: &mut AliasBinding) -> SysResult<()> {
        match self.states[b.wid] {
            WindowState::Bound { frame, mapped } if frame == b.frame => {
                if !mapped {
                    self.map.alias_file(
                        self.win_off0 + b.wid * self.frame_len,
                        self.frame_len,
                        self.memfd.fd(),
                        (b.frame * self.frame_len) as u64,
                    )?;
                    self.states[b.wid] = WindowState::Bound { frame, mapped: true };
                }
                b.mapped = true;
                Ok(())
            }
            s => Err(SysError::logic(
                "alias_map",
                format!("window {} not bound to frame {} ({s:?})", b.wid, b.frame),
            )),
        }
    }

    // --- exit / discard --------------------------------------------------

    /// Thread-exit fast path: park the (window, frame) pair warm on the
    /// window's home PE. Zero syscalls — the mapping and the stale frame
    /// contents are left in place for the next [`AliasStackPool::bind`] —
    /// until the warm list crosses the high-water mark, which triggers a
    /// batched flush.
    pub fn retire(&mut self, b: AliasBinding) -> SysResult<()> {
        match self.states[b.wid] {
            WindowState::Bound { frame, mapped } if frame == b.frame => {
                if mapped {
                    let home = self.home_pe(b.wid);
                    self.states[b.wid] = WindowState::Warm { frame };
                    self.warm[home].push(b.wid);
                    self.maybe_flush(home)
                } else {
                    // Never ran: no mapping exists, nothing to keep warm.
                    self.punch_frame(frame)?;
                    self.free_frames.push(frame);
                    self.make_free(b.wid);
                    Ok(())
                }
            }
            s => Err(SysError::logic(
                "alias_retire",
                format!("window {} not bound to frame {} ({s:?})", b.wid, b.frame),
            )),
        }
    }

    /// Discard a live thread's claim immediately (rollback path): punch
    /// the frame, tear down the mapping, return the window to its home
    /// free list.
    pub fn release(&mut self, b: &AliasBinding) -> SysResult<()> {
        match self.states[b.wid] {
            WindowState::Bound { frame, mapped } if frame == b.frame => {
                self.punch_frame(frame)?;
                self.free_frames.push(frame);
                if mapped {
                    self.map
                        .unalias(self.win_off0 + b.wid * self.frame_len, self.frame_len)?;
                }
                self.make_free(b.wid);
                Ok(())
            }
            s => Err(SysError::logic(
                "alias_release",
                format!("window {} not bound to frame {} ({s:?})", b.wid, b.frame),
            )),
        }
    }

    // --- migration -------------------------------------------------------

    /// Append the last `tail_len` bytes of the binding's frame to `out`
    /// without touching the mapping (one `pread`). Stacks grow down, so
    /// the tail is the live part — migration ships it and nothing else.
    pub fn read_bound_tail_into(
        &self,
        b: &AliasBinding,
        tail_len: usize,
        out: &mut Vec<u8>,
    ) -> SysResult<()> {
        match self.states[b.wid] {
            WindowState::Bound { frame, .. } if frame == b.frame => {
                self.read_frame_tail_into(frame, tail_len, out)
            }
            s => Err(SysError::logic(
                "alias_pack",
                format!("window {} not bound to frame {} ({s:?})", b.wid, b.frame),
            )),
        }
    }

    /// Mark a packed thread's window in-transit. Without `sanitize` the
    /// frame and its mapping stay intact (zero syscalls; re-adoption on
    /// any PE of this machine is a tail write). Under `sanitize` the frame
    /// is punched and the window unmapped, so any stale access on the
    /// source faults instead of silently reading departed bytes.
    pub fn begin_transit(&mut self, b: &AliasBinding) -> SysResult<()> {
        match self.states[b.wid] {
            WindowState::Bound { frame, mapped } if frame == b.frame => {
                #[cfg(not(feature = "sanitize"))]
                {
                    self.states[b.wid] = WindowState::InTransit {
                        frame: Some(frame),
                        mapped,
                    };
                    Ok(())
                }
                #[cfg(feature = "sanitize")]
                {
                    self.punch_frame(frame)?;
                    self.free_frames.push(frame);
                    if mapped {
                        self.map
                            .unalias(self.win_off0 + b.wid * self.frame_len, self.frame_len)?;
                    }
                    self.states[b.wid] = WindowState::InTransit {
                        frame: None,
                        mapped: false,
                    };
                    Ok(())
                }
            }
            s => Err(SysError::logic(
                "alias_transit",
                format!("window {} not bound to frame {} ({s:?})", b.wid, b.frame),
            )),
        }
    }

    /// Re-bind window `wid` for a migrated-in (or rolled-back) thread and
    /// reinstate `tail` as the top of its stack. Everything below the tail
    /// reads zero afterwards. Handles every reachable window state:
    ///
    /// * `InTransit` with its frame — the normal migration round trip:
    ///   one `pwrite`, mapping reused as-is.
    /// * `InTransit` without a frame (`sanitize` transit) — fresh zeroed
    ///   frame plus the tail write.
    /// * `Warm` — the thread exited after this image was captured and a
    ///   rollback re-instates it: the parked pair is pulled off the warm
    ///   list and its frame punched first (stale bytes below the tail must
    ///   not survive into the restored stack).
    /// * `Free` — the pair was already reclaimed (or the image predates
    ///   any tenant): allocate a zeroed frame, carving the window out of
    ///   fresh territory if it was never used.
    /// * `Bound` — error: the window still belongs to a live thread.
    pub fn adopt(&mut self, wid: WindowId, tail: &[u8]) -> SysResult<AliasBinding> {
        if wid >= self.num_windows() {
            return Err(SysError::logic(
                "alias_adopt",
                format!("window {wid} out of range ({})", self.num_windows()),
            ));
        }
        match self.states[wid] {
            WindowState::InTransit { frame: Some(frame), mapped } => {
                self.write_frame_tail(frame, tail)?;
                self.states[wid] = WindowState::Bound { frame, mapped };
                Ok(self.binding(frame, wid, mapped))
            }
            WindowState::InTransit { frame: None, .. } => {
                let frame = self.alloc_frame()?;
                self.write_frame_tail(frame, tail)?;
                self.states[wid] = WindowState::Bound { frame, mapped: false };
                Ok(self.binding(frame, wid, false))
            }
            WindowState::Warm { frame } => {
                let home = self.home_pe(wid);
                let pos = self.warm[home]
                    .iter()
                    .position(|&w| w == wid)
                    .ok_or_else(|| {
                        SysError::logic("alias_adopt", format!("warm window {wid} not listed"))
                    })?;
                self.warm[home].remove(pos);
                // The previous tenant's bytes are stale: punch before the
                // tail write so below-tail reads zero again.
                self.punch_frame(frame)?;
                self.write_frame_tail(frame, tail)?;
                self.states[wid] = WindowState::Bound { frame, mapped: true };
                Ok(self.binding(frame, wid, true))
            }
            WindowState::Free => {
                self.claim_specific(wid)?;
                let frame = self.alloc_frame()?;
                self.write_frame_tail(frame, tail)?;
                self.states[wid] = WindowState::Bound { frame, mapped: false };
                Ok(self.binding(frame, wid, false))
            }
            WindowState::Bound { .. } => Err(SysError::logic(
                "alias_adopt",
                format!("window {wid} is still owned by a live thread"),
            )),
        }
    }

    // --- deferred reclaim ------------------------------------------------

    /// Flush `pe`'s warm list completely, releasing every parked pair in
    /// coalesced batches (idle/park hook). Returns pairs released.
    pub fn flush(&mut self, pe: usize) -> SysResult<usize> {
        self.flush_to(pe, 0)
    }

    /// Flush every PE's warm list completely. Returns pairs released.
    pub fn flush_all(&mut self) -> SysResult<usize> {
        let mut n = 0;
        for pe in 0..self.num_pes {
            n += self.flush_to(pe, 0)?;
        }
        Ok(n)
    }

    fn maybe_flush(&mut self, pe: usize) -> SysResult<()> {
        if self.warm[pe].len() > self.high_water {
            self.flush_to(pe, self.high_water / 2)?;
        }
        Ok(())
    }

    /// Release warm pairs of `pe`, oldest first, until `keep` remain.
    /// Adjacent windows collapse into one remap and adjacent frames into
    /// one hole punch, so a flush of N pairs costs far fewer than 2N
    /// syscalls in the common batch-exit pattern.
    fn flush_to(&mut self, pe: usize, keep: usize) -> SysResult<usize> {
        let n = self.warm[pe].len().saturating_sub(keep);
        if n == 0 {
            return Ok(0);
        }
        let drained: Vec<WindowId> = self.warm[pe].drain(..n).collect();
        let mut wids = Vec::with_capacity(drained.len());
        let mut frames = Vec::with_capacity(drained.len());
        for wid in drained {
            let WindowState::Warm { frame } = self.states[wid] else {
                return Err(SysError::logic(
                    "alias_flush",
                    format!("warm-list window {wid} is not Warm"),
                ));
            };
            self.states[wid] = WindowState::Free;
            self.free_windows[pe].push(wid);
            wids.push(wid);
            frames.push(frame);
        }
        wids.sort_unstable();
        for (start, len) in runs(&wids) {
            self.map.unalias(
                self.win_off0 + start * self.frame_len,
                len * self.frame_len,
            )?;
        }
        frames.sort_unstable();
        for (start, len) in runs(&frames) {
            self.memfd
                .discard((start * self.frame_len) as u64, (len * self.frame_len) as u64)?;
        }
        self.free_frames.extend_from_slice(&frames);
        self.batches += 1;
        flows_sys::counters::note_reclaim_batch();
        emit(EventKind::RemapBatch, pe as u64, n as u64, 0);
        Ok(n)
    }

    // --- internals -------------------------------------------------------

    fn make_free(&mut self, wid: WindowId) {
        let home = self.home_pe(wid);
        self.states[wid] = WindowState::Free;
        self.free_windows[home].push(wid);
    }

    fn take_free_window(&mut self, pe: usize) -> Option<WindowId> {
        if let Some(wid) = self.free_windows[pe].pop() {
            return Some(wid);
        }
        if self.next_fresh[pe] < self.windows_per_pe {
            let wid = pe * self.windows_per_pe + self.next_fresh[pe];
            self.next_fresh[pe] += 1;
            return Some(wid);
        }
        None
    }

    /// Take a *specific* `Free` window out of circulation (adoption of a
    /// migrated image): off its home free list, or carved out of fresh
    /// territory with the skipped locals made available for binding.
    fn claim_specific(&mut self, wid: WindowId) -> SysResult<()> {
        let home = self.home_pe(wid);
        let local = wid % self.windows_per_pe;
        if let Some(pos) = self.free_windows[home].iter().position(|&w| w == wid) {
            self.free_windows[home].swap_remove(pos);
            return Ok(());
        }
        if local >= self.next_fresh[home] {
            for skipped in self.next_fresh[home]..local {
                self.free_windows[home].push(home * self.windows_per_pe + skipped);
            }
            self.next_fresh[home] = local + 1;
            return Ok(());
        }
        Err(SysError::logic(
            "alias_adopt",
            format!("window {wid} is not free"),
        ))
    }

    fn alloc_frame(&mut self) -> SysResult<FrameId> {
        if let Some(f) = self.free_frames.pop() {
            // Recycled frames were hole-punched on free, so they read zero.
            return Ok(f);
        }
        let f = self.n_frames;
        let needed = ((f + 1) * self.frame_len) as u64;
        if needed > self.memfd.len() {
            let target = (self.memfd.len() * 2).max(needed);
            self.memfd.grow(target)?;
        }
        self.n_frames += 1;
        Ok(f)
    }

    fn punch_frame(&self, f: FrameId) -> SysResult<()> {
        self.memfd
            .discard((f * self.frame_len) as u64, self.frame_len as u64)
    }

    fn check_frame(&self, f: FrameId) -> SysResult<()> {
        if f >= self.n_frames || self.free_frames.contains(&f) {
            return Err(SysError::logic(
                "alias_frame",
                format!("frame {f} is not live (of {})", self.n_frames),
            ));
        }
        Ok(())
    }

    /// Read a frame's bytes without mapping it.
    pub fn read_frame(&self, f: FrameId) -> SysResult<Vec<u8>> {
        self.check_frame(f)?;
        let mut buf = vec![0u8; self.frame_len];
        self.memfd.read_at((f * self.frame_len) as u64, &mut buf)?;
        Ok(buf)
    }

    /// Append the last `tail_len` bytes of frame `f` to `out` without
    /// mapping the frame (one `pread`).
    pub fn read_frame_tail_into(
        &self,
        f: FrameId,
        tail_len: usize,
        out: &mut Vec<u8>,
    ) -> SysResult<()> {
        self.check_frame(f)?;
        if tail_len > self.frame_len {
            return Err(SysError::logic(
                "alias_read",
                format!("tail {tail_len:#x} exceeds frame {:#x}", self.frame_len),
            ));
        }
        let start = out.len();
        out.resize(start + tail_len, 0);
        self.memfd.read_at(
            (f * self.frame_len + (self.frame_len - tail_len)) as u64,
            &mut out[start..],
        )
    }

    /// Overwrite the last `tail.len()` bytes of frame `f` (one `pwrite`).
    pub fn write_frame_tail(&mut self, f: FrameId, tail: &[u8]) -> SysResult<()> {
        self.check_frame(f)?;
        if tail.len() > self.frame_len {
            return Err(SysError::logic(
                "alias_write",
                format!("tail {:#x} exceeds frame {:#x}", tail.len(), self.frame_len),
            ));
        }
        self.memfd.write_at(
            (f * self.frame_len + (self.frame_len - tail.len())) as u64,
            tail,
        )
    }
}

/// Decompose a sorted id list into maximal `(start, len)` runs of
/// consecutive ids.
fn runs(sorted: &[usize]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < sorted.len() {
        let start = sorted[i];
        let mut len = 1;
        while i + len < sorted.len() && sorted[i + len] == start + len {
            len += 1;
        }
        out.push((start, len));
        i += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use flows_sys::counters::snapshot;

    const FL: usize = 64 * 1024;

    /// 2 PEs × 4 windows, warm reclaim effectively unbounded so tests see
    /// deferred behavior regardless of the sanitize default.
    fn pool() -> AliasStackPool {
        let mut p = AliasStackPool::new_windowed(FL, 2, 4, 2).unwrap();
        p.set_high_water(usize::MAX);
        p
    }

    fn bind_mapped(p: &mut AliasStackPool, pe: usize) -> AliasBinding {
        let mut b = p.bind(pe).unwrap();
        p.map_window(&mut b).unwrap();
        b
    }

    #[test]
    fn windows_are_private_and_concurrent() {
        // The point of the redesign: two live threads, both mapped at
        // once, each seeing its own frame — no remap between "switches".
        let mut p = pool();
        let a = bind_mapped(&mut p, 0);
        let b = bind_mapped(&mut p, 0);
        assert_ne!(a.wid, b.wid);
        assert_ne!(a.frame, b.frame);
        // SAFETY: both windows are mapped read-write.
        unsafe {
            *((a.top - 8) as *mut u64) = 0xAAAA;
            *((b.top - 8) as *mut u64) = 0xBBBB;
            assert_eq!(*((a.top - 8) as *const u64), 0xAAAA);
            assert_eq!(*((b.top - 8) as *const u64), 0xBBBB);
        }
        let before = snapshot();
        // A "context switch" between them is nothing at all — both stay
        // mapped; re-mapping an already-mapped binding is a no-op.
        let mut a2 = a;
        p.map_window(&mut a2).unwrap();
        assert_eq!(snapshot().since(&before).total(), 0);
    }

    #[test]
    fn warm_pair_respawn_is_syscall_free() {
        let mut p = pool();
        let a = bind_mapped(&mut p, 0);
        let (wid, frame) = (a.wid, a.frame);
        let before = snapshot();
        p.retire(a).unwrap();
        assert_eq!(p.warm_windows(0), 1);
        let b = p.bind(0).unwrap();
        assert_eq!((b.wid, b.frame), (wid, frame), "warm pair reused");
        assert!(b.mapped, "mapping survived the park");
        let d = snapshot().since(&before);
        assert_eq!(d.total(), 0, "retire + warm respawn must cost nothing");
    }

    #[test]
    fn flush_coalesces_and_returns_pairs() {
        let mut p = pool();
        let bindings: Vec<_> = (0..4).map(|_| bind_mapped(&mut p, 0)).collect();
        let tops: Vec<usize> = bindings.iter().map(|b| b.top).collect();
        for b in bindings {
            p.retire(b).unwrap();
        }
        assert_eq!(p.warm_windows(0), 4);
        let before = snapshot();
        let released = p.flush(0).unwrap();
        assert_eq!(released, 4);
        assert_eq!(p.warm_windows(0), 0);
        assert_eq!(p.reclaim_batches(), 1);
        let d = snapshot().since(&before);
        // 4 adjacent windows and 4 adjacent frames collapse into one
        // remap and one hole punch.
        assert_eq!(d.remap, 1, "adjacent windows must merge into one unalias");
        assert_eq!(d.fallocate, 1, "adjacent frames must merge into one punch");
        // Freed frames recycle zeroed.
        let b = bind_mapped(&mut p, 0);
        assert!(tops.contains(&b.top), "window recycled");
        // SAFETY: window just mapped.
        unsafe { assert_eq!(*((b.top - 8) as *const u64), 0, "punched frame reads zero") };
    }

    #[test]
    fn high_water_triggers_batched_flush() {
        let mut p = AliasStackPool::new_windowed(FL, 1, 8, 2).unwrap();
        p.set_high_water(3);
        let bindings: Vec<_> = (0..6).map(|_| bind_mapped(&mut p, 0)).collect();
        for b in bindings {
            p.retire(b).unwrap();
        }
        // Crossing 3 parked pairs flushes down to high_water/2 = 1.
        assert!(p.reclaim_batches() >= 1);
        assert!(p.warm_windows(0) <= 3);
    }

    #[test]
    fn migration_round_trip_preserves_tail_and_zero_floor() {
        let mut p = pool();
        let b = bind_mapped(&mut p, 0);
        // SAFETY: mapped window.
        unsafe { *((b.top - 16) as *mut u64) = 0x5EED };
        let mut tail = Vec::new();
        p.read_bound_tail_into(&b, 64, &mut tail).unwrap();
        assert_eq!(tail.len(), 64);
        p.begin_transit(&b).unwrap();
        let b2 = p.adopt(b.wid, &tail).unwrap();
        assert_eq!(b2.wid, b.wid);
        assert_eq!((b2.floor, b2.top), (b.floor, b.top));
        let img = p.read_frame(b2.frame).unwrap();
        assert_eq!(&img[FL - 64..], &tail[..]);
        assert!(
            img[..FL - 64].iter().all(|&x| x == 0),
            "below the tail must read zero"
        );
    }

    #[test]
    fn adopt_from_warm_punches_stale_bytes() {
        let mut p = pool();
        let b = bind_mapped(&mut p, 0);
        let wid = b.wid;
        // Dirty the frame deep below where the next tail will land.
        // SAFETY: the window is mapped read-write for this binding.
        unsafe { *((b.floor + 128) as *mut u64) = 0xDEAD };
        p.retire(b).unwrap(); // parked warm, stale bytes intact
        let tail = vec![7u8; 32];
        let b2 = p.adopt(wid, &tail).unwrap();
        assert!(b2.mapped, "warm mapping reused");
        let img = p.read_frame(b2.frame).unwrap();
        assert_eq!(&img[FL - 32..], &tail[..]);
        assert!(
            img[..FL - 32].iter().all(|&x| x == 0),
            "stale tenant bytes must be punched before adoption"
        );
        assert_eq!(p.warm_windows(0), 0, "pair left the warm list");
    }

    #[test]
    fn adopt_from_free_and_fresh_territory() {
        let mut p = pool();
        // Window 2 of PE 0 was never carved; adopting it must skip 0 and 1
        // into the free list rather than losing them.
        let tail = vec![9u8; 16];
        let b = p.adopt(2, &tail).unwrap();
        assert_eq!(b.wid, 2);
        assert!(!b.mapped);
        let c = p.bind(0).unwrap();
        assert!(c.wid < 2, "skipped fresh windows are bindable");
        // Adopting an owned window is refused.
        assert!(p.adopt(2, &tail).is_err());
        assert!(p.adopt(99, &tail).is_err());
    }

    #[test]
    fn release_returns_window_and_frame() {
        let mut p = pool();
        let b = bind_mapped(&mut p, 0);
        let (wid, frame) = (b.wid, b.frame);
        assert_eq!(p.live_frames(), 1);
        p.release(&b).unwrap();
        assert_eq!(p.live_frames(), 0);
        let b2 = p.bind(0).unwrap();
        assert_eq!(b2.wid, wid, "window recycled via free list");
        assert_eq!(b2.frame, frame, "frame recycled");
        assert!(!b2.mapped, "released windows come back unmapped");
        // Releasing an already-free window is refused.
        p.release(&b2).unwrap();
        assert!(p.release(&b2).is_err());
    }

    #[test]
    fn cross_pe_steal_when_home_range_exhausts() {
        let mut p = AliasStackPool::new_windowed(FL, 2, 2, 2).unwrap();
        p.set_high_water(usize::MAX);
        let _a = bind_mapped(&mut p, 0);
        let _b = bind_mapped(&mut p, 0);
        let mut c = p.bind(0).unwrap(); // steals from PE 1's range
        assert_eq!(p.home_pe(c.wid), 1);
        p.map_window(&mut c).unwrap();
        let d = p.bind(0).unwrap();
        assert_eq!(p.home_pe(d.wid), 1);
        assert!(p.bind(0).is_err(), "machine-wide exhaustion reported");
        // Retired stolen windows go home: PE 1 finds them warm.
        p.retire(c).unwrap();
        assert_eq!(p.warm_windows(1), 1);
    }

    #[test]
    fn wid_round_trips_through_sp() {
        let p = pool();
        for wid in 0..p.num_windows() {
            let top = p.window_top(wid);
            let floor = p.window_floor(wid);
            assert_eq!(p.wid_for_sp(top).unwrap(), wid);
            assert_eq!(p.wid_for_sp(floor + 1).unwrap(), wid);
        }
        assert!(p.wid_for_sp(p.window_floor(0)).is_err());
        assert!(p.wid_for_sp(p.window_top(p.num_windows() - 1) + 1).is_err());
    }

    #[test]
    fn memfd_grows_beyond_initial_frames() {
        // 8 windows but capacity for only 2 frames: binding all 8 forces
        // the store to grow.
        let mut p = AliasStackPool::new_windowed(FL, 1, 8, 2).unwrap();
        p.set_high_water(usize::MAX);
        let bs: Vec<_> = (0..8).map(|_| bind_mapped(&mut p, 0)).collect();
        assert_eq!(p.live_frames(), 8);
        for (i, b) in bs.iter().enumerate() {
            // SAFETY: every window is mapped.
            unsafe { *((b.top - 8) as *mut u64) = i as u64 };
        }
        for (i, b) in bs.iter().enumerate() {
            // SAFETY: as above.
            unsafe { assert_eq!(*((b.top - 8) as *const u64), i as u64) };
        }
    }

    #[test]
    fn frame_tail_io_validates_lengths() {
        let mut p = pool();
        let b = bind_mapped(&mut p, 0);
        let tail: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        p.write_frame_tail(b.frame, &tail).unwrap();
        let mut got = Vec::new();
        p.read_frame_tail_into(b.frame, 1000, &mut got).unwrap();
        assert_eq!(got, tail);
        let big = vec![0u8; FL + 1];
        assert!(p.write_frame_tail(b.frame, &big).is_err());
        assert!(p.read_frame_tail_into(b.frame, FL + 1, &mut got).is_err());
        assert!(p.read_frame(999).is_err());
    }

    #[test]
    fn runs_decomposition() {
        assert_eq!(runs(&[]), Vec::<(usize, usize)>::new());
        assert_eq!(runs(&[3]), vec![(3, 1)]);
        assert_eq!(runs(&[1, 2, 3, 7, 9, 10]), vec![(1, 3), (7, 1), (9, 2)]);
    }

    #[test]
    fn sanitize_transit_leaves_no_readable_window() {
        // Under sanitize, begin_transit must tear the mapping down; the
        // bookkeeping (not a fault handler) is asserted here.
        let mut p = pool();
        let b = bind_mapped(&mut p, 0);
        p.begin_transit(&b).unwrap();
        #[cfg(feature = "sanitize")]
        {
            assert_eq!(p.live_frames(), 0, "sanitize transit frees the frame");
            assert!(
                crate::maps::range_is_unreadable(b.floor, p.frame_len()).unwrap(),
                "vacated window must fault on touch"
            );
        }
        let b2 = p.adopt(b.wid, &[1, 2, 3]).unwrap();
        assert_eq!(b2.wid, b.wid);
        let img = p.read_frame(b2.frame).unwrap();
        assert_eq!(&img[FL - 3..], &[1, 2, 3]);
    }
}
