//! The per-PE user-level thread scheduler (the "Cth" analog, §2.3).
//!
//! Non-preemptive: a thread runs until it calls [`yield_now`], [`suspend`],
//! or returns. The scheduler is strictly single-OS-thread (one per PE of
//! the simulated machine); cross-PE interaction happens through message
//! queues in `flows-converse` and through thread migration
//! ([`Scheduler::pack_thread`] / [`Scheduler::unpack_thread`]).
//!
//! ### Aliasing discipline
//! A scheduler's state is mutated both by `step()` (on the scheduler side
//! of a context switch) and by the free functions called from inside
//! threads (on the other side). All such access goes through a raw pointer
//! to an `UnsafeCell`'d inner struct, and **no Rust reference to scheduler
//! state is ever held across a context switch** — see `Context::swap_raw`.

use crate::privatize::PrivatizeMode;
use crate::shared::{SharedPools, DEFAULT_STACK_LEN};
use crate::idhash::IdMap;
use crate::tcb::{Entry, FlavorData, StackFlavor, Tcb, ThreadId, ThreadState};
use flows_arch::{set_exit_hook, Context, InitialStack, SwapKind};
use flows_sys::error::{SysError, SysResult};
use flows_sys::time::{cycles, ticks_to_ns};
use flows_trace::{emit, EventKind};
use std::cell::{Cell, UnsafeCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Partition the thread-id namespace for one process of a multi-process
/// machine: ids minted after this call are at least `rank << 48`, so
/// threads created in different processes can never collide when packed
/// images (which carry their ids) cross the process boundary during
/// migration or recovery. Monotone and idempotent.
pub fn seed_tid_namespace(rank: usize) {
    NEXT_TID.fetch_max((rank as u64) << 48 | 1, Ordering::Relaxed);
}

// flowslint::allow(no-global-state): scheduler identity is per-OS-thread
// by design — a migratable flow asks "which scheduler is driving me right
// now?", and the answer changes when the flow migrates. This is the one
// TLS cell that must NOT migrate with the thread.
thread_local! {
    static CURRENT_SCHED: Cell<*const Scheduler> = const { Cell::new(std::ptr::null()) };
}

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SchedConfig {
    /// Swap routine used for every thread of this scheduler.
    pub swap_kind: SwapKind,
    /// Committed stack bytes for Standard and Isomalloc threads.
    pub stack_len: usize,
    /// How privatized globals are switched.
    pub privatize: PrivatizeMode,
    /// The registered globals, if the program privatizes any.
    pub globals: Option<Arc<crate::privatize::GlobalsLayout>>,
    /// Defer isomalloc slot allocation to first resume. Spawning then
    /// costs only the Tcb — no slot, no commit, no VMA — so a node can
    /// hold far more live threads than `vm.max_map_count` allows
    /// committed stacks. Off by default: eager spawn reports slot
    /// exhaustion as a spawn error rather than failing the thread when
    /// it first runs.
    pub lazy_iso: bool,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            swap_kind: SwapKind::Minimal,
            stack_len: DEFAULT_STACK_LEN,
            privatize: PrivatizeMode::GotSwap,
            globals: None,
            lazy_iso: false,
        }
    }
}

/// Counters exposed for tests and benches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Thread resumes (≈ context switches into threads).
    pub switches: u64,
    /// Threads ever spawned here.
    pub spawned: u64,
    /// Threads that finished here.
    pub completed: u64,
    /// Of `completed`, the threads whose entry panicked (or that could not
    /// be activated): a failed flow, which only this counter reports.
    pub panicked: u64,
    /// Threads packed for migration away.
    pub migrations_out: u64,
    /// Threads unpacked after migrating in.
    pub migrations_in: u64,
}

/// Priorities inside `[LANE_MIN, LANE_MIN + LANES)` get their own FIFO
/// lane; anything outside falls back to the overflow heap.
const LANE_MIN: i32 = -32;
const LANES: usize = 64;

/// Priority run queue: lower priority value = more urgent (Charm++'s
/// convention); FIFO among equal priorities (§2.3 — "the application's
/// priority structure can be directly used by the thread scheduler").
///
/// Implemented as 64 intrusive FIFO lanes (one per priority in
/// `[-32, 31]`) plus a one-word occupancy bitmask: push, pop and the
/// "anything ready?" probe are O(1) — `trailing_zeros` of the mask finds
/// the most urgent non-empty lane. Out-of-range priorities (rare) ride a
/// conventional binary heap on the side.
pub(crate) struct RunQueue {
    lanes: Vec<std::collections::VecDeque<ThreadId>>,
    /// Bit `i` set ⇔ `lanes[i]` is non-empty.
    ready: u64,
    overflow: std::collections::BinaryHeap<std::cmp::Reverse<(i32, u64, ThreadId)>>,
    seq: u64,
    len: usize,
}

impl Default for RunQueue {
    fn default() -> RunQueue {
        RunQueue {
            lanes: (0..LANES).map(|_| std::collections::VecDeque::new()).collect(),
            ready: 0,
            overflow: std::collections::BinaryHeap::new(),
            seq: 0,
            len: 0,
        }
    }
}

impl RunQueue {
    #[inline]
    fn lane_of(priority: i32) -> Option<usize> {
        let lane = priority.wrapping_sub(LANE_MIN);
        (0..LANES as i32).contains(&lane).then_some(lane as usize)
    }

    pub fn push(&mut self, tid: ThreadId, priority: i32) {
        self.len += 1;
        match Self::lane_of(priority) {
            Some(lane) => {
                self.lanes[lane].push_back(tid);
                self.ready |= 1 << lane;
            }
            None => {
                self.seq += 1;
                self.overflow.push(std::cmp::Reverse((priority, self.seq, tid)));
            }
        }
    }

    pub fn pop(&mut self) -> Option<ThreadId> {
        if self.ready != 0 {
            let lane = self.ready.trailing_zeros() as usize;
            // An overflow priority can only beat the lanes from below
            // their range (more urgent than -32).
            if let Some(std::cmp::Reverse((p, _, _))) = self.overflow.peek() {
                if *p < lane as i32 + LANE_MIN {
                    self.len -= 1;
                    return self.overflow.pop().map(|std::cmp::Reverse((_, _, t))| t);
                }
            }
            let tid = self.lanes[lane].pop_front().expect("ready bit set");
            if self.lanes[lane].is_empty() {
                self.ready &= !(1 << lane);
            }
            self.len -= 1;
            return Some(tid);
        }
        let tid = self.overflow.pop().map(|std::cmp::Reverse((_, _, t))| t);
        if tid.is_some() {
            self.len -= 1;
        }
        tid
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// Chunked tail steal: take up to `max` entries — never more than
    /// half the lane — from the **back** of the longest lane, taking
    /// only entries `stealable` approves. The victim's remaining threads are
    /// untouched at the front of the lane, so FIFO-within-priority is
    /// preserved for everything it keeps; the stolen chunk comes back in
    /// its original arrival order (oldest first), ready to re-queue on
    /// the thief in the same relative order. The overflow heap (rare
    /// out-of-range priorities) is deliberately not stealable.
    pub fn steal_tail(
        &mut self,
        max: usize,
        mut stealable: impl FnMut(ThreadId) -> bool,
    ) -> Vec<ThreadId> {
        let Some(lane_idx) = (0..LANES)
            .filter(|&i| self.ready & (1 << i) != 0)
            .max_by_key(|&i| self.lanes[i].len())
        else {
            return Vec::new();
        };
        let lane = &mut self.lanes[lane_idx];
        let quota = max.min(lane.len() / 2);
        if quota == 0 {
            return Vec::new();
        }
        // Walk from the back, collecting indices of stealable entries;
        // indices come out descending, so removal never shifts a
        // yet-to-be-removed index.
        let mut picked: Vec<usize> = Vec::with_capacity(quota);
        for i in (0..lane.len()).rev() {
            if picked.len() == quota {
                break;
            }
            if stealable(lane[i]) {
                picked.push(i);
            }
        }
        let mut stolen: Vec<ThreadId> = picked
            .iter()
            .map(|&i| lane.remove(i).expect("picked index in range"))
            .collect();
        stolen.reverse(); // back-to-front removal → restore arrival order
        self.len -= stolen.len();
        if lane.is_empty() {
            self.ready &= !(1 << lane_idx);
        }
        stolen
    }

    /// Physically remove every queued entry of `tid` (cold path: only
    /// migration/pack uses it). O(queued threads), which is fine — a stale
    /// entry left behind could later switch into a thread that has since
    /// suspended or left the PE.
    pub fn remove(&mut self, tid: ThreadId) {
        for (i, lane) in self.lanes.iter_mut().enumerate() {
            let before = lane.len();
            lane.retain(|t| *t != tid);
            self.len -= before - lane.len();
            if lane.is_empty() {
                self.ready &= !(1 << i);
            }
        }
        let before = self.overflow.len();
        let entries: Vec<_> = std::mem::take(&mut self.overflow)
            .into_iter()
            .filter(|std::cmp::Reverse((_, _, t))| *t != tid)
            .collect();
        self.overflow = entries.into();
        self.len -= before - self.overflow.len();
    }
}

/// Retired Standard stacks kept for reuse (bounded so a spawn burst does
/// not pin memory forever).
const STD_STACK_CACHE: usize = 128;

pub(crate) struct Inner {
    pub pe: usize,
    pub shared: Arc<SharedPools>,
    pub cfg: SchedConfig,
    pub runq: RunQueue,
    pub threads: IdMap<ThreadId, Box<Tcb>>,
    /// The running thread's control block, so thread-side calls
    /// (`switch_out`, `with_current_tcb`) skip the map lookup. Non-null
    /// exactly while a thread runs (`Box<Tcb>` addresses are stable
    /// across map rehashes).
    pub current_tcb: *mut Tcb,
    pub sched_ctx: Context,
    pub stats: SchedStats,
    /// Scratch buffer for `PrivatizeMode::CopyInOut`.
    globals_buf: Vec<u8>,
    /// Saved TLS installation to restore after a thread runs.
    globals_prev: (*mut u8, u64),
    /// Stacks of finished Standard threads, reused (uncleared — a fresh
    /// bootstrap frame is built on top) instead of reallocated.
    std_stacks: Vec<Vec<u8>>,
}

/// One PE's user-level thread scheduler. `!Send`/`!Sync`: each PE's OS
/// thread builds and drives its own.
pub struct Scheduler {
    inner: UnsafeCell<Inner>,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // SAFETY: read-only peek at plain fields.
        let inner = unsafe { &*self.inner.get() };
        f.debug_struct("Scheduler")
            .field("pe", &inner.pe)
            .field("threads", &inner.threads.len())
            .field("runnable", &inner.runq.len())
            .finish()
    }
}

impl Scheduler {
    /// Create the scheduler for PE `pe` of the machine whose memory
    /// substrate is `shared`.
    pub fn new(pe: usize, shared: Arc<SharedPools>, cfg: SchedConfig) -> Scheduler {
        let globals_buf = cfg
            .globals
            .as_ref()
            .map(|l| vec![0u8; l.block_len()])
            .unwrap_or_default();
        // Anchor the tick→ns ratio before any burst can start, so even the
        // first bursts convert against a span that covers them.
        ticks_to_ns(0);
        Scheduler {
            inner: UnsafeCell::new(Inner {
                pe,
                shared,
                sched_ctx: Context::new(cfg.swap_kind),
                cfg,
                runq: RunQueue::default(),
                threads: IdMap::default(),
                current_tcb: std::ptr::null_mut(),
                stats: SchedStats::default(),
                globals_buf,
                globals_prev: (std::ptr::null_mut(), 0),
                std_stacks: Vec::new(),
            }),
        }
    }

    fn inner(&self) -> *mut Inner {
        self.inner.get()
    }

    /// This scheduler's PE number.
    pub fn pe(&self) -> usize {
        // SAFETY: immutable field.
        unsafe { (*self.inner()).pe }
    }

    /// The machine-wide memory pools.
    pub fn shared(&self) -> Arc<SharedPools> {
        // SAFETY: clone of an immutable Arc field.
        unsafe { (*self.inner()).shared.clone() }
    }

    /// Spawn a thread with the scheduler's default stack length.
    pub fn spawn(
        &self,
        flavor: StackFlavor,
        f: impl FnOnce() + 'static,
    ) -> SysResult<ThreadId> {
        // SAFETY: default read.
        let len = unsafe { (*self.inner()).cfg.stack_len };
        self.spawn_with(flavor, len, f)
    }

    /// Spawn a thread with an explicit committed stack length (Standard
    /// and Isomalloc flavors; Copy/Alias use the pool's common length).
    pub fn spawn_with(
        &self,
        flavor: StackFlavor,
        stack_len: usize,
        f: impl FnOnce() + 'static,
    ) -> SysResult<ThreadId> {
        self.spawn_prio(flavor, stack_len, 0, f)
    }

    /// Spawn with a scheduling priority: lower values run first; equal
    /// priorities round-robin. The default everywhere else is 0.
    pub fn spawn_prio(
        &self,
        flavor: StackFlavor,
        stack_len: usize,
        priority: i32,
        f: impl FnOnce() + 'static,
    ) -> SysResult<ThreadId> {
        // SAFETY: single-threaded access; no context switch in here.
        let inner = unsafe { &mut *self.inner() };
        let data = match flavor {
            StackFlavor::Standard => {
                let want = stack_len.max(flows_arch::stack::MIN_STACK * 4);
                let stack = match inner.std_stacks.iter().position(|s| s.len() == want) {
                    // Reuse a retired stack as-is: its contents are dead
                    // and the bootstrap frame is rebuilt on first resume.
                    Some(i) => inner.std_stacks.swap_remove(i),
                    None => vec![0u8; want],
                };
                FlavorData::Standard { stack }
            }
            StackFlavor::Isomalloc => {
                let want = flows_sys::page::page_align_up(stack_len.max(4096));
                if inner.cfg.lazy_iso {
                    // Million-thread mode: the slab (slot + commit) is
                    // materialized at first resume, so an unstarted
                    // thread costs no region resources at all.
                    FlavorData::IsoLazy { want }
                } else {
                    // Prefer a parked slab from the reclaim cache — its
                    // slot is still committed and warm, so the rebuild
                    // costs no syscalls at all — including a neighbour
                    // PE's slab when the local list is dry (stolen
                    // threads that exited here leave warm slabs under
                    // other PEs' labels).
                    let cached = inner.shared.slab_cache().lock().take_any(inner.pe, want);
                    let slab = match cached {
                        Some(slab) => slab,
                        None => {
                            let slot = inner.shared.region().alloc_slot(inner.pe)?;
                            flows_mem::ThreadSlab::new(slot, want)?
                        }
                    };
                    FlavorData::Iso { slab: Box::new(slab) }
                }
            }
            StackFlavor::Alias => {
                // Warm pairs (window + frame, mapping intact) are preferred
                // inside bind: respawning after an exit is syscall-free.
                let binding = inner.shared.alias().lock().bind(inner.pe)?;
                FlavorData::Alias { binding }
            }
            StackFlavor::StackCopy => FlavorData::Copy {
                image: flows_mem::CopyStack::new(),
            },
        };
        let id = ThreadId(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        let ftag = crate::migrate::flavor_tag(data.flavor()) as u64;
        let entry_raw = entry_cell(f);
        let tcb = Box::new(Tcb {
            id,
            ctx: Context::new(inner.cfg.swap_kind),
            state: ThreadState::Ready,
            flavor: data,
            entry_raw: Some(entry_raw),
            globals: inner.cfg.globals.as_ref().map(|l| l.new_block()),
            panicked: false,
            priority,
            load_ns: 0,
        });
        inner.threads.insert(id, tcb);
        inner.runq.push(id, priority);
        inner.stats.spawned += 1;
        emit(EventKind::ThreadCreate, id.0, ftag, stack_len as u64);
        Ok(id)
    }

    /// Run one ready thread until it suspends/yields/finishes. Returns
    /// `false` when the run queue is empty.
    pub fn step(&self) -> bool {
        // SAFETY: see the module-level aliasing discipline. No reference
        // into `inner` outlives a context switch.
        unsafe {
            let inner = self.inner();
            assert!(
                (*inner).current_tcb.is_null(),
                "Scheduler::step called from inside a running thread"
            );
            let Some(tid) = (*inner).runq.pop() else {
                return false;
            };
            let prev = CURRENT_SCHED.with(|c| c.replace(self as *const Scheduler));
            set_exit_hook(thread_exit_hook);
            self.resume(tid);
            CURRENT_SCHED.with(|c| c.set(prev));
            true
        }
    }

    /// Run until no thread is runnable.
    pub fn run(&self) {
        while self.step() {}
    }

    /// Drain this PE's deferred-reclaim lists: parked alias warm pairs
    /// and cached isomalloc slabs are released in coalesced batches.
    /// Called when the PE goes idle (the converse pump with no progress);
    /// deliberately *not* part of [`Scheduler::run`], so back-to-back
    /// bursts of work keep their warm pools.
    pub fn flush_reclaim(&self) {
        // SAFETY: plain access between switches.
        let inner = unsafe { &mut *self.inner() };
        let _ = inner.shared.alias().lock().flush(inner.pe);
        let _ = inner.shared.slab_cache().lock().flush(inner.pe);
    }

    /// Publish this PE's runnable count to the steal mesh so idle PEs
    /// can pick victims. Called at pump boundaries, not per switch — a
    /// slightly stale count only costs a thief a worse victim choice.
    #[inline]
    pub fn publish_steal_load(&self) {
        // SAFETY: plain read between switches.
        let inner = unsafe { &*self.inner() };
        inner.shared.steal().publish_load(inner.pe, inner.runq.len());
    }

    /// Victim half of the steal protocol: if thieves have requested work
    /// and this PE has enough to share, pop a chunk from the tail of the
    /// richest run-queue lane, pack the threads, and deposit them in the
    /// requesters' inboxes (round-robin). Returns a bitmask of thief PEs
    /// that received at least one thread — the converse layer wakes
    /// those parkers. Must be called between switches.
    pub fn donate_steals(&self) -> u64 {
        // SAFETY: single-threaded access between switches; pack_thread
        // below re-establishes its own access.
        let inner = unsafe { &mut *self.inner() };
        assert!(
            inner.current_tcb.is_null(),
            "donate_steals called from inside a running thread"
        );
        let mesh = inner.shared.steal();
        if !mesh.has_requests(inner.pe) || inner.runq.len() <= crate::steal::STEAL_KEEP_MIN {
            return 0;
        }
        let mask = mesh.take_requests(inner.pe);
        let me = inner.pe;
        let thieves: Vec<usize> = (0..mesh.num_pes())
            .filter(|&t| t != me && mask & (1 << (t as u64 & 63)) != 0)
            .collect();
        if thieves.is_empty() {
            return 0;
        }
        // Split borrows: the stealability check reads the thread map while
        // the queue mutates — disjoint fields of Inner.
        let Inner { runq, threads, .. } = inner;
        let tids = runq.steal_tail(crate::steal::MAX_STEAL_CHUNK, |tid| {
            threads.get(&tid).is_some_and(|t| t.packable().is_ok())
        });
        if tids.is_empty() {
            return 0; // nothing stealable yet; thieves will re-request
        }
        let mut boxes: Vec<Vec<crate::migrate::PackedThread>> =
            thieves.iter().map(|_| Vec::new()).collect();
        for (i, tid) in tids.into_iter().enumerate() {
            // The tid was just unqueued by steal_tail; pack skips the
            // O(queue) removal scan.
            match self.pack_thread_unqueued(tid) {
                Ok(p) => boxes[i % thieves.len()].push(p),
                Err(_) => {
                    // Pack refused (cannot happen for entries the filter
                    // approved, but never lose a thread): re-queue it.
                    // SAFETY: plain access between switches.
                    let inner = unsafe { &mut *self.inner() };
                    if let Some(t) = inner.threads.get(&tid) {
                        let prio = t.priority;
                        inner.runq.push(tid, prio);
                    }
                }
            }
        }
        // SAFETY: re-borrow after pack_thread_unqueued calls.
        let inner = unsafe { &*self.inner() };
        let mesh = inner.shared.steal();
        let mut woken = 0u64;
        for (t, chunk) in thieves.into_iter().zip(boxes) {
            if !chunk.is_empty() {
                woken |= 1 << (t as u64 & 63);
                mesh.donate(t, chunk);
            }
        }
        woken
    }

    /// Thief half of the steal protocol: drain this PE's donation inbox,
    /// unpacking every thread locally (warm slot/window adoption — see
    /// flows-mem). Returns the number of threads absorbed; emits one
    /// `StealHit` covering the batch.
    pub fn absorb_steals(&self) -> usize {
        let (pe, shared) = {
            // SAFETY: plain reads between switches.
            let inner = unsafe { &*self.inner() };
            (inner.pe, inner.shared.clone())
        };
        let packed = shared.steal().absorb(pe);
        if packed.is_empty() {
            return 0;
        }
        let mut n = 0usize;
        let mut bytes = 0u64;
        for p in packed {
            bytes += p.payload_len() as u64;
            match self.unpack_thread(p) {
                Ok(_) => n += 1,
                Err(e) => debug_assert!(false, "absorbed thread failed to unpack: {e}"),
            }
        }
        if n > 0 {
            emit(EventKind::StealHit, pe as u64, n as u64, bytes);
        }
        n
    }

    /// Post (or refresh) a steal request at the currently richest victim.
    /// Cheap when the machine is genuinely idle — two relaxed scans, no
    /// locks — and idempotent, so idle paths may call it every iteration.
    /// Safe to call while this PE is counted idle: it moves no threads.
    pub fn request_steal(&self) {
        // SAFETY: plain reads between switches.
        let inner = unsafe { &*self.inner() };
        let mesh = inner.shared.steal();
        mesh.publish_load(inner.pe, inner.runq.len());
        if let Some((victim, vload)) = mesh.richest_victim(inner.pe) {
            if mesh.request(victim, inner.pe) {
                emit(
                    EventKind::StealAttempt,
                    victim as u64,
                    inner.pe as u64,
                    vload as u64,
                );
            }
        }
    }

    /// Switch into `tid`, then act on the status it left with. This
    /// epilogue is the only code that requeues a yielded flow or retires a
    /// finished one — including a flow that could not be activated.
    ///
    /// # Safety
    /// Must be called on the scheduler's own OS thread, outside any
    /// running thread.
    unsafe fn resume(&self, tid: ThreadId) {
        let inner = self.inner();
        // SAFETY: exclusive access between switches.
        unsafe {
            let tcb: *mut Tcb = match (*inner).threads.get_mut(&tid) {
                // A real exit is reaped below, so only sanitize scaffolding
                // leaves a `Done` block to skip.
                Some(b) if b.state != ThreadState::Done => &mut **b,
                _ => return, // packed away while queued
            };

            // Activation: give the flow a stack to land on. Only the
            // stack-copy common region still needs its process-wide lock
            // held while the thread runs; alias threads own private
            // windows, so a resumed alias thread whose window is already
            // mapped touches neither the pool lock nor the kernel.
            let mut copy_guard = None;
            let stack_top: Option<usize> = match &mut (*tcb).flavor {
                FlavorData::Standard { stack } => Some(stack.as_ptr() as usize + stack.len()),
                FlavorData::Iso { slab } => Some(slab.stack_top()),
                // Lazy isomalloc: the first landing acquires the slot (a
                // warm cached slab when one fits, a fresh one otherwise).
                &mut FlavorData::IsoLazy { want } => {
                    let cached = (*inner).shared.slab_cache().lock().take_any((*inner).pe, want);
                    let built = match cached {
                        Some(slab) => Ok(slab),
                        None => (*inner)
                            .shared
                            .region()
                            .alloc_slot((*inner).pe)
                            .and_then(|slot| flows_mem::ThreadSlab::new(slot, want)),
                    };
                    built.ok().map(|slab| {
                        let top = slab.stack_top();
                        (*tcb).flavor = FlavorData::Iso { slab: Box::new(slab) };
                        top
                    })
                }
                // First landing on this window (fresh bind or migrated in
                // unmapped): one MAP_FIXED, then never again for this
                // tenancy.
                FlavorData::Alias { binding } => {
                    let mapped = binding.mapped
                        || (*inner).shared.alias().lock().map_window(binding).is_ok();
                    mapped.then_some(binding.top)
                }
                FlavorData::Copy { image } => {
                    let g = (*inner).shared.copy().lock();
                    // SAFETY: we hold the region lock; nothing executes on
                    // the common region.
                    let top = g.switch_in(image).is_ok().then(|| g.top());
                    copy_guard = Some(g);
                    top
                }
            };
            match stack_top {
                Some(top) => self.switch_in(tcb, top),
                // No slot, window mapping or common-region copy-in: the
                // flow dies marked panicked, without having run, and is
                // retired below like any flow that finished.
                None => {
                    (*tcb).state = ThreadState::Done;
                    (*tcb).panicked = true;
                }
            }

            // ---- the one epilogue ----
            let status = (*tcb).state;
            if let (Some(g), FlavorData::Copy { image }) = (&copy_guard, &mut (*tcb).flavor) {
                if status != ThreadState::Done {
                    // SAFETY: the thread is parked; we still hold the
                    // region lock.
                    g.switch_out(image, (*tcb).ctx.saved_sp())
                        .expect("copy-stack switch out");
                }
            }
            drop(copy_guard);
            match status {
                ThreadState::Ready => (*inner).runq.push(tid, (*tcb).priority),
                ThreadState::Suspended => {}
                ThreadState::Done => {
                    let (lifetime, panicked) = ((*tcb).load_ns, (*tcb).panicked);
                    if let Some(mut dead) = (*inner).threads.remove(&tid) {
                        // Every flavor's exit path is a deferred-reclaim
                        // list push — no unmap, no decommit, no punch inline.
                        match dead.take_flavor() {
                            FlavorData::Standard { stack }
                                if (*inner).std_stacks.len() < STD_STACK_CACHE =>
                            {
                                (*inner).std_stacks.push(stack);
                            }
                            FlavorData::Iso { slab } => {
                                let _ = (*inner).shared.slab_cache().lock().put((*inner).pe, *slab);
                            }
                            // Parks the (window, frame) pair warm with its
                            // mapping intact: zero syscalls here.
                            FlavorData::Alias { binding } => {
                                let _ = (*inner).shared.alias().lock().retire(binding);
                            }
                            // Plain memory, or (a lazy flow that never
                            // landed) nothing at all.
                            _ => {}
                        }
                    }
                    (*inner).stats.completed += 1;
                    (*inner).stats.panicked += panicked as u64;
                    emit(EventKind::ThreadExit, tid.0, lifetime, 0);
                }
                ThreadState::Running => unreachable!("{tid} switched out without a status"),
            }
        }
    }

    /// Land on an activated flow's stack and run it until it switches
    /// out: the burst is charged to it and the PE's globals are back in
    /// place when this returns.
    ///
    /// # Safety
    /// As [`Scheduler::resume`]; `stack_top` is the top of `tcb`'s stack.
    unsafe fn switch_in(&self, tcb: *mut Tcb, stack_top: usize) {
        let inner = self.inner();
        // SAFETY: exclusive access between switches.
        unsafe {
            // Sanitize: plant a canary word at the stack floor of flavors
            // that own dedicated stack memory. Verified after the thread
            // switches out — a clobbered canary means the stack overflowed
            // or a wild write landed at its floor while the thread ran.
            #[cfg(feature = "sanitize")]
            let canary_floor: Option<usize> = match &(*tcb).flavor {
                FlavorData::Standard { stack } => Some(stack.as_ptr() as usize),
                FlavorData::Iso { slab } => Some(slab.stack_bottom()),
                // Alias windows are private per-thread now, so their floor
                // can carry a canary too.
                FlavorData::Alias { binding } => Some(binding.floor),
                // Copy threads execute on the shared common region whose
                // floor is not private to one thread.
                _ => None,
            };
            #[cfg(feature = "sanitize")]
            if let Some(floor) = canary_floor {
                // SAFETY: floor is the base of this thread's committed
                // stack; live frames are far above it (or overflowing,
                // which is exactly what the canary detects).
                flows_arch::canary::arm(floor);
            }

            if let Some(entry_raw) = (*tcb).entry_raw.take() {
                // SAFETY: the stack region is committed/active; the frame
                // stays valid while the thread lives (flavor data owns it).
                (*tcb).ctx = InitialStack::build(
                    (*inner).cfg.swap_kind,
                    stack_top as *mut u8,
                    thread_main,
                    entry_raw.get(),
                );
            }

            // Swap-global privatization: install the thread's block. The
            // layout is borrowed, not Arc-cloned — the borrow ends before
            // the context switch below.
            if let Some(layout) = (*inner).cfg.globals.as_deref() {
                if let Some(block) = (*tcb).globals.as_mut() {
                    let prev = match (*inner).cfg.privatize {
                        PrivatizeMode::GotSwap => layout.install_block(block),
                        PrivatizeMode::CopyInOut => {
                            (*inner).globals_buf.copy_from_slice(block);
                            layout.install_block(&mut (*inner).globals_buf)
                        }
                    };
                    (*inner).globals_prev = prev;
                }
            }

            let tid = (*tcb).id;
            (*inner).current_tcb = tcb;
            (*tcb).state = ThreadState::Running;
            (*inner).stats.switches += 1;
            let ftag = crate::migrate::flavor_tag((*tcb).flavor.flavor()) as u64;
            emit(EventKind::SwitchIn, tid.0, ftag, 0);
            let burst_start = cycles();

            Context::swap_raw(&raw mut (*inner).sched_ctx, &raw const (*tcb).ctx);

            // ---- the thread ran and came back ----
            // One measurement feeds both the balancer's counter and the
            // trace. Wall ticks: a non-preemptive PE owns its OS thread. A
            // negative delta (the OS thread moved to a core whose counter
            // is behind) clamps to an empty burst.
            let burst = ticks_to_ns(cycles().saturating_sub(burst_start));
            (*tcb).load_ns += burst;
            emit(EventKind::SwitchOut, tid.0, burst, ftag);
            (*inner).current_tcb = std::ptr::null_mut();

            #[cfg(feature = "sanitize")]
            if let Some(floor) = canary_floor {
                // SAFETY: the thread is parked; its stack memory is still
                // owned by the flavor data.
                if !flows_arch::canary::intact(floor) {
                    flows_trace::san::trip(
                        flows_trace::san::SanCheck::StackCanary,
                        "stack canary clobbered while the thread ran",
                        tid.0,
                        floor as u64,
                    );
                }
            }

            if let Some(layout) = (*inner).cfg.globals.as_deref() {
                if let Some(block) = (*tcb).globals.as_mut() {
                    if (*inner).cfg.privatize == PrivatizeMode::CopyInOut {
                        block.copy_from_slice(&(*inner).globals_buf);
                    }
                    layout.restore((*inner).globals_prev);
                }
            }
        }
    }

    /// Move a suspended thread back to the run queue. The one wake body,
    /// behind [`awaken`] too: it reaches scheduler state through the raw
    /// pointer only, so a flow may call it while the scheduler side is
    /// parked in `resume`.
    pub fn awaken_tid(&self, tid: ThreadId) -> SysResult<()> {
        // SAFETY: on this scheduler's OS thread (`Scheduler` is !Send and
        // !Sync); no reference into scheduler state outlives the call.
        unsafe {
            let inner = self.inner();
            match (*inner).threads.get_mut(&tid) {
                Some(tcb) if tcb.state == ThreadState::Suspended => {
                    tcb.state = ThreadState::Ready;
                    (*inner).runq.push(tid, tcb.priority);
                    Ok(())
                }
                Some(tcb) => Err(awaken_state_error(tid, tcb.state)),
                None => Err(SysError::logic("awaken", format!("{tid} is not here"))),
            }
        }
    }

    /// Number of threads in the run queue.
    pub fn runnable(&self) -> usize {
        // SAFETY: plain read between switches.
        unsafe { (*self.inner()).runq.len() }
    }

    /// Number of live threads on this PE.
    pub fn thread_count(&self) -> usize {
        // SAFETY: plain read between switches.
        unsafe { (*self.inner()).threads.len() }
    }

    /// A thread's state, if it lives here.
    pub fn state(&self, tid: ThreadId) -> Option<ThreadState> {
        // SAFETY: plain read between switches.
        unsafe { (*self.inner()).threads.get(&tid).map(|t| t.state) }
    }

    /// Whether the thread's entry panicked (observable until the Tcb is
    /// reaped at completion — poll from another thread before then, or
    /// check [`SchedStats::completed`]).
    pub fn panicked(&self, tid: ThreadId) -> Option<bool> {
        // SAFETY: plain read between switches.
        unsafe { (*self.inner()).threads.get(&tid).map(|t| t.panicked) }
    }

    /// Counters.
    pub fn stats(&self) -> SchedStats {
        // SAFETY: plain read between switches.
        unsafe { (*self.inner()).stats }
    }

    /// Measured per-thread on-CPU time (the load balancer's input):
    /// `(thread, nanoseconds)` pairs for every live thread.
    pub fn loads(&self) -> Vec<(ThreadId, u64)> {
        // SAFETY: plain read between switches.
        let inner = unsafe { &*self.inner() };
        inner
            .threads
            .iter()
            .map(|(&id, t)| (id, t.load_ns))
            .collect()
    }

    /// Zero the per-thread load counters (start of a new LB epoch).
    pub fn reset_loads(&self) {
        // SAFETY: plain mutation between switches.
        let inner = unsafe { &mut *self.inner() };
        for tcb in inner.threads.values_mut() {
            tcb.load_ns = 0;
        }
    }

    /// Zero one thread's load counter (when its LB epoch rolls over).
    pub fn reset_load_tid(&self, tid: ThreadId) {
        // SAFETY: plain mutation between switches.
        let inner = unsafe { &mut *self.inner() };
        if let Some(tcb) = inner.threads.get_mut(&tid) {
            tcb.load_ns = 0;
        }
    }

    pub(crate) fn inner_ptr(&self) -> *mut Inner {
        self.inner()
    }
}

/// Build the heap cell the entry trampoline consumes at first resume.
fn entry_cell<F: FnOnce() + 'static>(f: F) -> std::num::NonZeroUsize {
    fn call_on_stack<F: FnOnce()>(env: *mut ()) {
        // Move the environment out of its spawn-time box onto THIS
        // thread's own stack and free the box now — while still in the
        // process (and at latest the first resume) that allocated it.
        // From here on the thread's entry state lives entirely in its own
        // stack: a packed image carries it, and thread exit frees nothing
        // from a heap that may belong to another process after a
        // cross-process migration. (Return addresses still point into the
        // text segment, which is why such migration additionally needs an
        // identical text base — `TopologySpec::migratable` in flows-net.)
        // SAFETY: `Entry` invariant — env is the matching `Box::into_raw`,
        // consumed exactly once (at first resume).
        let f: F = *unsafe { Box::from_raw(env as *mut F) };
        f();
    }
    fn drop_env<F>(env: *mut ()) {
        // SAFETY: `Entry` invariant, never-started reclaim path.
        drop(unsafe { Box::from_raw(env as *mut F) });
    }
    let cell = Box::new(Entry {
        call: call_on_stack::<F>,
        drop_env: drop_env::<F>,
        env: Box::into_raw(Box::new(f)) as *mut (),
    });
    std::num::NonZeroUsize::new(Box::into_raw(cell) as usize).expect("Box::into_raw is never null")
}

/// The C-ABI entry every flow starts in: consumes the entry cell and
/// runs it, catching panics so a failing thread cannot unwind into the
/// hand-crafted bootstrap frame.
extern "C" fn thread_main(arg: usize) {
    // SAFETY: `arg` is the Box::into_raw of spawn's entry cell, consumed
    // exactly once (entry_raw was take()n before first resume).
    let entry = unsafe { Box::from_raw(arg as *mut Entry) };
    let (call, env) = (entry.call, entry.env);
    drop(entry);
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| call(env)));
    if result.is_err() {
        with_current_tcb(|tcb| tcb.panicked = true);
    }
    // Returning lands in the exit trampoline → thread_exit_hook.
}

/// The running flow's scheduler state and control block, if a flow runs
/// on this OS thread.
fn running() -> Option<(*mut Inner, *mut Tcb)> {
    let sched = CURRENT_SCHED.with(|c| c.get());
    if sched.is_null() {
        return None;
    }
    // SAFETY: `CURRENT_SCHED` is set only while its scheduler drives this
    // OS thread; the scheduler side holds no references (see module docs).
    let (inner, tcb) = unsafe {
        let inner = (*sched).inner_ptr();
        (inner, (*inner).current_tcb)
    };
    (!tcb.is_null()).then_some((inner, tcb))
}

fn with_current_tcb<R>(f: impl FnOnce(&mut Tcb) -> R) -> Option<R> {
    // SAFETY: the running flow's own control block, used on its stack.
    running().map(|(_, tcb)| f(unsafe { &mut *tcb }))
}

/// The one way out of a running flow: record why it stops and switch to
/// the scheduler, whose epilogue in `resume` acts on `status` — requeue
/// (`Ready`), leave parked (`Suspended`) or retire (`Done`). Returns
/// `false`, without switching, when no flow runs on this OS thread.
fn switch_out(status: ThreadState) -> bool {
    let Some((inner, tcb)) = running() else {
        return false;
    };
    // SAFETY: module-level aliasing discipline; the scheduler context is
    // parked in `resume`.
    unsafe {
        (*tcb).state = status;
        Context::swap_raw(&raw mut (*tcb).ctx, &raw const (*inner).sched_ctx);
    }
    true
}

/// Exit hook installed per OS thread: a returning flow switches out
/// `Done`, never to return.
fn thread_exit_hook() -> ! {
    assert!(switch_out(ThreadState::Done), "thread exited outside a scheduler");
    unreachable!("a finished thread was resumed");
}

/// Put the calling thread at the back of the run queue and run someone
/// else. No-op when called outside a thread.
pub fn yield_now() {
    switch_out(ThreadState::Ready);
}

/// Suspend the calling thread until [`awaken`]/[`Scheduler::awaken_tid`].
pub fn suspend() {
    assert!(
        switch_out(ThreadState::Suspended),
        "suspend() called outside a flows-core thread"
    );
}

/// The calling thread's id, if inside one.
pub fn current() -> Option<ThreadId> {
    with_current_tcb(|tcb| tcb.id)
}

/// Awaken a suspended thread *of the same PE* from inside another thread
/// (or handler running on the PE).
pub fn awaken(tid: ThreadId) -> SysResult<()> {
    let sched = CURRENT_SCHED.with(|c| c.get());
    assert!(
        !sched.is_null(),
        "awaken() must be called from inside a flows-core thread"
    );
    // SAFETY: `CURRENT_SCHED` names the scheduler driving this OS thread.
    unsafe { (*sched).awaken_tid(tid) }
}

impl Scheduler {
    /// Test scaffolding for the sanitizer suite: force a live thread's
    /// state to `Done` so the use-after-exit detector can be exercised.
    /// Every real exit, an activation failure included, is reaped at
    /// once, so this is the only way a `Done` control block stays in the
    /// table.
    #[doc(hidden)]
    #[cfg(feature = "sanitize")]
    pub fn sanitize_force_done(&self, tid: ThreadId) {
        // SAFETY: single-threaded access between switches.
        let inner = unsafe { &mut *self.inner() };
        if let Some(tcb) = inner.threads.get_mut(&tid) {
            tcb.state = ThreadState::Done;
        }
    }
}

/// Failure path of the wake body, for both entry points. Awakening a `Ready`
/// thread is an application-level error (reported, recoverable); awakening
/// a `Running` or `Done` thread means scheduler state itself is wrong, so
/// it is debug-asserted — and, under `sanitize`, trips the corresponding
/// detector before any corrupted bookkeeping can propagate.
fn awaken_state_error(tid: ThreadId, state: ThreadState) -> SysError {
    #[cfg(feature = "sanitize")]
    match state {
        ThreadState::Running => flows_trace::san::trip(
            flows_trace::san::SanCheck::DoubleAwaken,
            "awaken of the currently running thread",
            tid.0,
            0,
        ),
        ThreadState::Done => flows_trace::san::trip(
            flows_trace::san::SanCheck::UseAfterExit,
            "awaken of a thread that already exited",
            tid.0,
            0,
        ),
        _ => {}
    }
    debug_assert!(
        !matches!(state, ThreadState::Running | ThreadState::Done),
        "awaken of {tid} in state {state:?} — scheduler lifecycle bug"
    );
    SysError::logic("awaken", format!("{tid} is {state:?}, not Suspended"))
}

/// The calling thread's accumulated on-CPU time in nanoseconds (excludes
/// the burst currently executing). `None` outside a thread.
pub fn current_load_ns() -> Option<u64> {
    with_current_tcb(|tcb| tcb.load_ns)
}

/// Change the calling thread's scheduling priority (takes effect at its
/// next yield). `None` outside a thread.
pub fn set_priority(priority: i32) -> Option<()> {
    with_current_tcb(|tcb| {
        tcb.priority = priority;
    })
}

/// Allocate from the calling thread's migratable (isomalloc) heap — the
/// paper's "override malloc inside the threading context" hook (§3.4.2).
/// Returns `None` outside a thread or for non-isomalloc flavors.
pub fn iso_malloc(size: usize) -> Option<*mut u8> {
    with_current_tcb(|tcb| match &mut tcb.flavor {
        FlavorData::Iso { slab } => slab.malloc(size).ok(),
        _ => None,
    })
    .flatten()
}

/// The calling thread's stack floor (lowest committed stack address), for
/// flavors that own dedicated stack memory — where the sanitizer's canary
/// word lives. `None` outside a thread or on shared-region flavors.
#[cfg(feature = "sanitize")]
pub fn current_stack_floor() -> Option<usize> {
    with_current_tcb(|tcb| match &tcb.flavor {
        FlavorData::Standard { stack } => Some(stack.as_ptr() as usize),
        FlavorData::Iso { slab } => Some(slab.stack_bottom()),
        FlavorData::Alias { binding } => Some(binding.floor),
        _ => None,
    })
    .flatten()
}

/// Free a pointer from [`iso_malloc`]. Returns whether the free succeeded.
pub fn iso_free(ptr: *mut u8) -> bool {
    with_current_tcb(|tcb| match &mut tcb.flavor {
        FlavorData::Iso { slab } => slab.free(ptr).is_ok(),
        _ => false,
    })
    .unwrap_or(false)
}

#[cfg(test)]
mod runq_tests {
    use super::*;

    fn tid(n: u64) -> ThreadId {
        ThreadId(n)
    }

    #[test]
    fn fifo_within_a_priority_lane() {
        let mut q = RunQueue::default();
        for n in 0..16 {
            q.push(tid(n), 0);
        }
        for n in 0..16 {
            assert_eq!(q.pop(), Some(tid(n)), "lane must preserve arrival order");
        }
        assert_eq!(q.pop(), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn lanes_order_by_priority_and_interleave_fifo() {
        let mut q = RunQueue::default();
        q.push(tid(1), 5);
        q.push(tid(2), -3);
        q.push(tid(3), 5);
        q.push(tid(4), -3);
        q.push(tid(5), 0);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![tid(2), tid(4), tid(5), tid(1), tid(3)]);
    }

    #[test]
    fn overflow_priorities_interleave_with_lanes() {
        let mut q = RunQueue::default();
        q.push(tid(1), 100); // overflow, least urgent
        q.push(tid(2), 0); // lane
        q.push(tid(3), -100); // overflow, most urgent
        q.push(tid(4), -32); // most urgent lane
        q.push(tid(5), 31); // least urgent lane
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(order, vec![tid(3), tid(4), tid(2), tid(5), tid(1)]);
        // FIFO among equal overflow priorities too.
        q.push(tid(6), 200);
        q.push(tid(7), 200);
        assert_eq!(q.pop(), Some(tid(6)));
        assert_eq!(q.pop(), Some(tid(7)));
    }

    #[test]
    fn remove_clears_every_queued_entry() {
        let mut q = RunQueue::default();
        q.push(tid(1), 0);
        q.push(tid(2), 0);
        q.push(tid(1), 7);
        q.push(tid(1), 99); // overflow copy
        q.remove(tid(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some(tid(2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn steal_tail_takes_back_half_preserving_victim_fifo() {
        let mut q = RunQueue::default();
        for n in 0..10 {
            q.push(tid(n), 0);
        }
        let stolen = q.steal_tail(64, |_| true);
        // Never more than half the lane, from the back, in arrival order.
        assert_eq!(stolen, (5..10).map(tid).collect::<Vec<_>>());
        assert_eq!(q.len(), 5);
        for n in 0..5 {
            assert_eq!(q.pop(), Some(tid(n)), "victim keeps its FIFO head");
        }
    }

    #[test]
    fn steal_tail_skips_unstealable_entries() {
        let mut q = RunQueue::default();
        for n in 0..8 {
            q.push(tid(n), 0);
        }
        // Only even tids may travel; odd ones stay, order intact.
        let stolen = q.steal_tail(3, |t| t.0 % 2 == 0);
        assert_eq!(stolen, vec![tid(2), tid(4), tid(6)]);
        let left: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(left, vec![tid(0), tid(1), tid(3), tid(5), tid(7)]);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The victim-side ordering invariant: whatever the queue holds
        /// and whatever the steal quota and stealability filter, a tail
        /// steal must leave every lane's remaining entries in their
        /// original relative order, take only filter-approved entries
        /// from one lane, and keep the bookkeeping (`len`, popability)
        /// exact.
        #[test]
        fn steal_tail_never_reorders_the_victims_remainder(
            pushes in proptest::collection::vec((0u64..64, -3i32..4), 0..48),
            max in 0usize..40,
            keep_mask in proptest::prelude::any::<u64>(),
        ) {
            use proptest::prelude::prop_assert;
            use proptest::prelude::prop_assert_eq;
            let mut q = RunQueue::default();
            // Distinct tids: index * 64 + tid-seed keeps them unique while
            // the seed still controls stealability below.
            let entries: Vec<(ThreadId, i32)> = pushes
                .iter()
                .enumerate()
                .map(|(i, &(t, p))| (ThreadId((i as u64) << 6 | t), p))
                .collect();
            for &(t, p) in &entries {
                q.push(t, p);
            }
            let stealable = |t: ThreadId| keep_mask & (1 << (t.0 & 63)) != 0;
            let stolen = q.steal_tail(max, stealable);
            // Steals come from exactly one lane, filter-approved only.
            prop_assert!(stolen.iter().all(|&t| stealable(t)));
            let lanes_of: std::collections::HashSet<i32> = stolen
                .iter()
                .map(|s| entries.iter().find(|(t, _)| t == s).unwrap().1)
                .collect();
            prop_assert!(lanes_of.len() <= 1, "one donation, one lane");
            prop_assert_eq!(q.len(), entries.len() - stolen.len());
            // Remaining entries pop in priority order, and *within every
            // lane* in their original arrival order.
            let popped: Vec<ThreadId> = std::iter::from_fn(|| q.pop()).collect();
            prop_assert_eq!(popped.len(), entries.len() - stolen.len());
            for lane in -3i32..4 {
                let original: Vec<ThreadId> = entries
                    .iter()
                    .filter(|&&(_, p)| p == lane)
                    .map(|&(t, _)| t)
                    .collect();
                let remaining: Vec<ThreadId> = popped
                    .iter()
                    .copied()
                    .filter(|t| original.contains(t))
                    .collect();
                let expect: Vec<ThreadId> = original
                    .iter()
                    .copied()
                    .filter(|t| !stolen.contains(t))
                    .collect();
                prop_assert_eq!(
                    remaining, expect,
                    "lane {} must keep arrival order", lane
                );
            }
            // Stolen entries preserve arrival order too (the thief's lane
            // receives them oldest-first).
            if let Some(&lane) = lanes_of.iter().next() {
                let original: Vec<ThreadId> = entries
                    .iter()
                    .filter(|&&(_, p)| p == lane)
                    .map(|&(t, _)| t)
                    .collect();
                let expect: Vec<ThreadId> = original
                    .iter()
                    .copied()
                    .filter(|t| stolen.contains(t))
                    .collect();
                prop_assert_eq!(stolen, expect);
            }
        }
    }

    #[test]
    fn steal_tail_targets_longest_lane_and_spares_overflow() {
        let mut q = RunQueue::default();
        q.push(tid(1), -5); // urgent lane, length 1: quota 0
        for n in 10..16 {
            q.push(tid(n), 3); // longest lane
        }
        q.push(tid(99), 500); // overflow heap is never stealable
        let stolen = q.steal_tail(64, |_| true);
        assert_eq!(stolen, vec![tid(13), tid(14), tid(15)]);
        assert_eq!(q.len(), 5);
        // A single-entry lane yields nothing (quota = len/2 = 0).
        let mut solo = RunQueue::default();
        solo.push(tid(7), 0);
        assert!(solo.steal_tail(64, |_| true).is_empty());
        assert_eq!(solo.pop(), Some(tid(7)));
    }
}
