//! Thread control blocks and stack flavors.

use flows_arch::Context;
use flows_mem::{AliasBinding, CopyStack, ThreadSlab};

/// Machine-wide unique identifier of a user-level thread. Survives
/// migration (allocated from one process-wide counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl flows_pup::Pup for ThreadId {
    fn pup(&mut self, p: &mut flows_pup::Puper) {
        self.0.pup(p);
    }
}

/// Lifecycle state of a thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThreadState {
    /// In the run queue, waiting for the CPU.
    Ready,
    /// On the CPU right now.
    Running,
    /// Off the run queue, waiting for an [`crate::awaken`].
    Suspended,
    /// Entry function returned (or panicked); resources reclaimed.
    Done,
}

/// Which stack management scheme a thread uses (paper §3.4; see crate
/// docs for the trade-offs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StackFlavor {
    /// Heap-allocated private stack; fastest switch; **not** migratable.
    Standard,
    /// One common stack address; data copied in/out each switch (§3.4.1).
    StackCopy,
    /// Globally unique slot with stack + heap; migration = byte copy
    /// (§3.4.2).
    Isomalloc,
    /// Per-thread physical frames aliased into per-PE private windows,
    /// mapped once per tenancy rather than per switch (§3.4.3).
    Alias,
}

impl StackFlavor {
    /// All flavors, for sweeps.
    pub const ALL: [StackFlavor; 4] = [
        StackFlavor::Standard,
        StackFlavor::StackCopy,
        StackFlavor::Isomalloc,
        StackFlavor::Alias,
    ];

    /// Short stable name for benchmark tables.
    pub fn name(self) -> &'static str {
        match self {
            StackFlavor::Standard => "standard",
            StackFlavor::StackCopy => "stack-copy",
            StackFlavor::Isomalloc => "isomalloc",
            StackFlavor::Alias => "memory-alias",
        }
    }

    /// Can threads of this flavor migrate between PEs?
    pub fn migratable(self) -> bool {
        !matches!(self, StackFlavor::Standard)
    }
}

/// Per-flavor owned memory resources. The isomalloc slab is boxed: its
/// heap bookkeeping is ~112 inline bytes, which every Tcb of every flavor
/// would otherwise pay through the enum's largest-variant size.
#[derive(Debug)]
pub(crate) enum FlavorData {
    Standard { stack: Vec<u8> },
    Iso { slab: Box<ThreadSlab> },
    /// An isomalloc thread that has not run yet and owns no slot
    /// ([`crate::SchedConfig::lazy_iso`]): the slab is materialized at
    /// first resume. This is what lets one node *hold* a million live
    /// threads — an unstarted thread costs its Tcb and nothing from the
    /// region, so neither committed stacks nor `vm.max_map_count` scale
    /// with spawned threads, only with started ones.
    IsoLazy { want: usize },
    Alias { binding: AliasBinding },
    Copy { image: CopyStack },
}

impl FlavorData {
    pub(crate) fn flavor(&self) -> StackFlavor {
        match self {
            FlavorData::Standard { .. } => StackFlavor::Standard,
            FlavorData::Iso { .. } | FlavorData::IsoLazy { .. } => StackFlavor::Isomalloc,
            FlavorData::Alias { .. } => StackFlavor::Alias,
            FlavorData::Copy { .. } => StackFlavor::StackCopy,
        }
    }
}

/// Spawn-time entry cell handed to a new thread at first resume: a
/// monomorphized shim plus the boxed environment it consumes. The shim
/// moves the environment out of `env` onto the thread's own stack and
/// frees the box immediately — so once a thread is running, none of its
/// entry state lives on the spawning process's heap and a packed image
/// carries all of it.
/// Both shims trust `env` to be the matching `Box::into_raw`, consumed
/// exactly once; the scheduler's spawn/first-resume/drop paths are the
/// only constructors and consumers.
pub(crate) struct Entry {
    /// Moves the env onto the calling stack, frees its box, runs it.
    pub call: fn(*mut ()),
    /// Drops the env in place (never-started thread reclaim).
    pub drop_env: fn(*mut ()),
    /// `Box::into_raw` of the spawn closure.
    pub env: *mut (),
}

/// The control block: everything the scheduler knows about one thread.
///
/// One `Box<Tcb>` exists per live thread, so its size is a direct term in
/// the machine's bytes-per-thread floor at million-thread scale — a size
/// regression test below keeps it honest. The two big-ticket shrinks:
/// `Context` boxes its signal mask (128 inline bytes otherwise), and the
/// entry closure pointer rides in a niche-packed `Option<NonZeroUsize>`.
pub(crate) struct Tcb {
    pub id: ThreadId,
    pub ctx: Context,
    pub state: ThreadState,
    pub flavor: FlavorData,
    /// Raw `Box<Entry>` passed to the entry trampoline at first resume;
    /// consumed there. Present exactly until the thread starts, so it is
    /// also the "started" flag. (`Box::into_raw` never returns null, so
    /// the niche costs nothing.)
    pub entry_raw: Option<std::num::NonZeroUsize>,
    /// Private globals block (swap-global privatization), if the scheduler
    /// has a `GlobalsLayout`.
    pub globals: Option<Vec<u8>>,
    pub panicked: bool,
    /// Scheduling priority: lower runs first (Charm++ convention).
    pub priority: i32,
    /// Accumulated on-CPU nanoseconds — the load balancer's input, one add
    /// per switch-out. Travels with the thread in `PackedThread::load_ns`.
    pub load_ns: u64,
}

impl std::fmt::Debug for Tcb {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tcb")
            .field("id", &self.id)
            .field("state", &self.state)
            .field("flavor", &self.flavor.flavor())
            .field("started", &self.entry_raw.is_none())
            .finish()
    }
}

impl Tcb {
    /// The one packability rule, for `pack_thread`, `Scheduler::checkpoint`
    /// and the steal filter: the thread has started (an entry closure is
    /// not serializable), its flavor can migrate, and it is parked (ready
    /// or suspended). `Err` says why not.
    pub(crate) fn packable(&self) -> Result<(), &'static str> {
        if self.entry_raw.is_some() {
            Err("has not started: its entry closure is not serializable")
        } else if !self.flavor.flavor().migratable() {
            Err("uses a non-migratable standard stack")
        } else if !matches!(self.state, ThreadState::Ready | ThreadState::Suspended) {
            Err("is not parked: it is running or done")
        } else {
            Ok(())
        }
    }

    /// Move the flavor's resources out of a control block that is being
    /// retired, packed or discarded (`Tcb` is `Drop`, so fields cannot be
    /// moved out directly). Leaves a resource-free placeholder behind.
    pub(crate) fn take_flavor(&mut self) -> FlavorData {
        std::mem::replace(&mut self.flavor, FlavorData::IsoLazy { want: 0 })
    }
}

impl Drop for Tcb {
    fn drop(&mut self) {
        // Reclaim a never-started entry closure.
        if let Some(raw) = self.entry_raw.take() {
            // SAFETY: `raw` came from Box::into_raw in spawn and was not
            // consumed (the thread never started); drop_env matches env's
            // real type.
            let e = unsafe { Box::from_raw(raw.get() as *mut Entry) };
            (e.drop_env)(e.env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flavor_names_and_migratability() {
        assert!(!StackFlavor::Standard.migratable());
        for f in [StackFlavor::StackCopy, StackFlavor::Isomalloc, StackFlavor::Alias] {
            assert!(f.migratable());
        }
        let names: std::collections::HashSet<_> =
            StackFlavor::ALL.iter().map(|f| f.name()).collect();
        assert_eq!(names.len(), 4);
    }

    #[test]
    fn tcb_stays_small() {
        // One Box<Tcb> per live thread: its size is a direct term in the
        // bytes-per-thread floor of the million-thread probe. The biggest
        // historical regression risk is Context growing an inline
        // sigset_t (128 bytes) back.
        assert!(
            std::mem::size_of::<Context>() <= 32,
            "Context grew to {} bytes — did the signal mask move inline?",
            std::mem::size_of::<Context>()
        );
        assert!(
            std::mem::size_of::<Tcb>() <= 128,
            "Tcb grew to {} bytes; million-thread RSS pays this per thread",
            std::mem::size_of::<Tcb>()
        );
    }

    #[test]
    fn thread_id_pups() {
        let mut id = ThreadId(42);
        let bytes = flows_pup::to_bytes(&mut id);
        let back: ThreadId = flows_pup::from_bytes(&bytes).unwrap();
        assert_eq!(back, id);
    }
}
