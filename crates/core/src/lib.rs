//! # flows-core — migratable user-level threads
//!
//! The paper's primary contribution: a user-level thread package in the
//! style of Converse threads ("Cth", §2.3) whose threads can *migrate*
//! between processors (§3.4), in any of four stack flavors:
//!
//! * [`StackFlavor::Standard`] — ordinary heap-allocated stacks; fastest,
//!   not migratable (the paper's plain Cth threads);
//! * [`StackFlavor::StackCopy`] — one common stack address, data memcpy'd
//!   in/out per switch (§3.4.1);
//! * [`StackFlavor::Isomalloc`] — globally unique stack+heap addresses per
//!   thread, migration is a raw byte copy (§3.4.2);
//! * [`StackFlavor::Alias`] — per-thread physical frames remapped over one
//!   common address per switch (§3.4.3).
//!
//! A [`Scheduler`] owns the threads of one PE (processing element). Code
//! running *inside* a thread interacts with the package through the free
//! functions [`yield_now`], [`suspend`], [`current`], [`awaken`] and the
//! isomalloc heap hooks [`iso_malloc`]/[`iso_free`] — never through
//! references captured before a suspension, which would dangle after a
//! migration.
//!
//! Global-variable privatization (the paper's ELF-GOT "swap-global"
//! scheme, §3.1.1) is in [`privatize`]: each thread carries its own copy
//! of the registered globals, and the scheduler swaps one base pointer per
//! context switch.
//!
//! ```
//! use flows_core::{Scheduler, SchedConfig, SharedPools, StackFlavor, yield_now};
//! let shared = SharedPools::new_for_tests();
//! let sched = Scheduler::new(0, shared, SchedConfig::default());
//! let n = std::rc::Rc::new(std::cell::Cell::new(0));
//! for _ in 0..3 {
//!     let n = n.clone();
//!     sched.spawn(StackFlavor::Standard, move || {
//!         for _ in 0..5 { n.set(n.get() + 1); yield_now(); }
//!     }).unwrap();
//! }
//! sched.run();
//! assert_eq!(n.get(), 15);
//! ```

#![warn(missing_docs)]

pub mod checkpoint;
pub mod idhash;
pub mod migrate;
pub mod payload;
pub mod privatize;
pub mod scheduler;
pub mod shared;
pub mod steal;
pub mod tcb;

pub use checkpoint::{
    evacuate, frame_in_place, frame_payload, unframe_payload, Checkpoint, FRAME_HEADER_LEN,
};
/// The context-switch kind a [`SchedConfig`] names; a packed thread
/// unpacks only under its own ([`PackedThread::packed_as`]).
pub use flows_arch::SwapKind;
pub use idhash::{IdHasher, IdMap, IdSet};
pub use migrate::PackedThread;
pub use payload::{ExternRegion, Payload, PayloadBuf, PayloadPool, PoolStats};
pub use privatize::{GlobalVar, GlobalsLayout, GlobalsLayoutBuilder, PrivatizeMode};
pub use scheduler::{
    awaken, current, current_load_ns, iso_free, iso_malloc, seed_tid_namespace, set_priority,
    suspend, yield_now, SchedConfig, SchedStats, Scheduler,
};
pub use shared::SharedPools;
pub use steal::{StealMesh, MAX_STEAL_CHUNK, STEAL_KEEP_MIN};
pub use tcb::{StackFlavor, ThreadId, ThreadState};
