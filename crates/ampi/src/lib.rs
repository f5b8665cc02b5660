//! # flows-ampi — Adaptive MPI
//!
//! The paper's AMPI (§4.1, §4.5, refs [15][16]): an MPI-like programming
//! interface whose "processes" are migratable user-level threads. Because
//! each rank is an isomalloc thread (§3.4.2), the runtime can move ranks
//! between PEs at `migrate()` points for measurement-based load balancing
//! — with many more ranks than PEs, overloaded PEs shed work to idle ones,
//! which is exactly the Figure 12 experiment.
//!
//! ```
//! use flows_ampi::{run_world, AmpiOptions};
//!
//! let report = run_world(AmpiOptions::new(4, 2), |ampi| {
//!     // Classic ring: rank r sends to r+1, receives from r-1.
//!     let next = (ampi.rank() + 1) % ampi.size();
//!     ampi.send(next, 7, vec![ampi.rank() as u8]);
//!     let (src, tag, data) = ampi.recv(None, Some(7));
//!     assert_eq!(tag, 7);
//!     assert_eq!(data[0] as usize, src);
//!     ampi.barrier();
//! });
//! assert_eq!(report.stranded_threads.iter().sum::<usize>(), 0);
//! ```
//!
//! Blocking calls (`recv`, `barrier`, `allreduce_*`, `migrate`) suspend
//! the calling user-level thread and let the PE run other ranks — the
//! §2.3 answer to the blocking problem that kernel threads solve with far
//! heavier machinery.

#![warn(missing_docs)]

pub mod ft;
pub mod nonblocking;
pub mod proto;
pub(crate) mod recover;
pub mod world;

pub use ft::{run_world_ft, FtReport};
pub use nonblocking::{Request, RESERVED_TAG_BASE};
pub use world::{lb_batch_messages, pe_of_rank, run_world, AmpiOptions};

use crate::proto::{route_rank_wire, LoadReport, RankWire, RANK_WIRE_LEN};
use crate::world::{
    contribute_now, obj_of, with_rank_box, AmpiState, Wait, TAG_CKPT, TAG_COLL, TAG_LB,
};
use flows_comm::ReduceOp;
use flows_core::suspend;

/// Per-rank handle passed to the world's main function. Lives on the
/// rank's own (migratable) stack, so its sequence counters travel with
/// the rank.
#[derive(Debug)]
pub struct Ampi {
    rank: usize,
    size: usize,
    /// The last round of each reduction, indexed by its tag (`TAG_COLL`,
    /// `TAG_LB`, `TAG_CKPT`).
    seq: [u64; 3],
    /// Counter for the reserved tags of the pt2pt-based collectives.
    pub(crate) p2p_coll_seq: u64,
}

// KEEP THIS STRUCT HEAP-FREE. `Ampi` lives on the rank's migratable stack,
// so plain scalar fields are captured by checkpoint/migration images — but
// anything that spills to the process heap (Vec, HashMap, Box) is NOT: a
// rollback would restore a checkpoint-cut stack whose pointers alias live,
// post-cut (or freed) allocations. Per-destination send sequences used to
// live here as a HashMap and wedged every post-rollback replay one
// sequence ahead of its receivers; they now live in the rank's `RankBox`
// (explicitly pup'd with the image). Mutable cross-checkpoint state
// belongs either inline here or in the RankBox.
//
// The same holds for the rank's entry closure (`world::spawn_rank`): it
// owns no refcount or heap value. A rank that returned after a checkpoint
// and is rolled back returns a second time, and anything its stack owned
// would be dropped twice; it reaches `main` through a non-owning pointer.

impl Ampi {
    pub(crate) fn new(rank: usize, size: usize) -> Ampi {
        Ampi {
            rank,
            size,
            seq: [0; 3],
            p2p_coll_seq: 0,
        }
    }

    /// This rank's index (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// The PE this rank is currently executing on (changes across
    /// [`Ampi::migrate`]).
    pub fn current_pe(&self) -> usize {
        flows_converse::my_pe()
    }

    /// Asynchronous-eager send (`MPI_Send` with buffering semantics):
    /// never blocks. A message to a rank on this PE is admitted into its
    /// mailbox here and now, as the caller's own `Vec`; any other is routed
    /// to wherever `dest` lives.
    pub fn send(&mut self, dest: usize, tag: u64, data: Vec<u8>) {
        assert!(dest < self.size, "send to rank {dest} of {}", self.size);
        debug_assert!(
            tag <= crate::nonblocking::RESERVED_TAG_BASE + (1 << 32),
            "tag out of range"
        );
        let (src, dest) = (self.rank as u64, dest as u64);
        let len = data.len();
        flows_converse::with_pe(|pe| {
            // One borrow: the per-destination sequence lives in the rank's
            // box (pup'd with the checkpoint image, so a rollback rewinds it
            // — see the note on the `Ampi` struct), and a receiver on this
            // PE is posted to in the same breath. Its delivery runs no user
            // code, so it needs no hop through the PE's queue (DESIGN.md
            // §6.7); sequence, stash and duplicate drop are the routed
            // path's own, so per-sender order holds across a path switch.
            let local = pe.ext::<AmpiState, _>(|st| {
                let b = st.ranks.get_mut(&src).expect("rank box on current PE");
                let seq = b.send_seq.entry(dest).or_insert(0);
                let this_seq = *seq;
                *seq += 1;
                match st.ranks.get_mut(&dest) {
                    Some(to) => Ok(to.post(src, this_seq, tag, data)),
                    None => Err((this_seq, data)),
                }
            });
            match local {
                Ok(wake) => {
                    flows_comm::book_local_delivery(pe, RANK_WIRE_LEN + len);
                    if let Some(tid) = wake {
                        flows_core::awaken(tid).expect("awaken recv");
                    }
                }
                Err((seq, data)) => {
                    let mut w = RankWire {
                        kind: 0,
                        a: src,
                        b: tag,
                        seq,
                    };
                    route_rank_wire(pe, obj_of(dest), &mut w, &data);
                }
            }
        });
    }

    /// Blocking receive (`MPI_Recv`): `None` matches any source / any user
    /// tag. Returns `(source, tag, payload)`. Suspends the rank's thread
    /// while waiting, letting other ranks on this PE run; the delivery that
    /// wakes it hands the message over.
    pub fn recv(&self, src: Option<usize>, tag: Option<u64>) -> (usize, u64, Vec<u8>) {
        let (rank, src) = (self.rank as u64, src.map(|s| s as u64));
        let hit = with_rank_box(rank, |b| {
            b.take(src, tag).ok_or_else(|| b.wait = Wait::Recv { src, tag })
        });
        hit.unwrap_or_else(|()| {
            suspend();
            let m = with_rank_box(rank, |b| b.done.take()).expect("recv woken without its mail");
            (m.src as usize, m.tag, m.data)
        })
    }

    /// Send then receive (`MPI_Sendrecv`).
    pub fn sendrecv(
        &mut self,
        dest: usize,
        send_tag: u64,
        data: Vec<u8>,
        src: Option<usize>,
        recv_tag: Option<u64>,
    ) -> (usize, u64, Vec<u8>) {
        self.send(dest, send_tag, data);
        self.recv(src, recv_tag)
    }

    /// The one blocking body of `collective`, `migrate` and `checkpoint`:
    /// contribute `data` to this rank's next round of reduction `tag`, and
    /// suspend until [`world::RankBox::complete`] wakes it. Returns the
    /// completion slot's result: `None` when the rank resumes in a box
    /// rebuilt from its image (a migration's arrival, a recovery respawn).
    ///
    /// Inlined, and the wait built inside a `move` closure, so that the
    /// frames of `migrate` and `checkpoint` — which every rank image packed
    /// there carries — stay the size of a hand-written body.
    #[inline(always)]
    fn reduce(&mut self, tag: u64, op: ReduceOp, data: Vec<u8>) -> Option<Vec<u8>> {
        let (rank, seq) = (self.rank as u64, &mut self.seq[tag as usize]);
        *seq += 1;
        let seq = *seq;
        with_rank_box(rank, move |b| b.wait = Wait::Reduction { tag, seq });
        contribute_now(tag, seq, rank, op, self.size, data);
        suspend();
        with_rank_box(rank, |b| b.done.take().map(|m| m.data))
    }

    fn collective(&mut self, op: ReduceOp, data: Vec<u8>) -> Vec<u8> {
        self.reduce(TAG_COLL, op, data).expect("collective completed without a result")
    }

    /// Barrier across all ranks (`MPI_Barrier`).
    pub fn barrier(&mut self) {
        let _ = self.collective(ReduceOp::SumU64, Vec::new());
    }

    /// Elementwise allreduce over `f64` vectors (`MPI_Allreduce`). `op`
    /// must be one of the f64 reduce ops.
    pub fn allreduce_f64(&mut self, vals: &[f64], op: ReduceOp) -> Vec<f64> {
        assert!(matches!(
            op,
            ReduceOp::SumF64 | ReduceOp::MaxF64 | ReduceOp::MinF64
        ));
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            bytes.extend(v.to_le_bytes());
        }
        let out = self.collective(op, bytes);
        out.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Elementwise sum-allreduce over `u64` vectors.
    pub fn allreduce_u64_sum(&mut self, vals: &[u64]) -> Vec<u64> {
        let mut bytes = Vec::with_capacity(vals.len() * 8);
        for v in vals {
            bytes.extend(v.to_le_bytes());
        }
        let out = self.collective(ReduceOp::SumU64, bytes);
        out.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Allgather of one `f64` per rank, in rank order (`MPI_Allgather`).
    pub fn allgather_f64(&mut self, v: f64) -> Vec<f64> {
        let out = self.collective(ReduceOp::Concat, v.to_le_bytes().to_vec());
        out.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect()
    }

    /// Allgather of raw byte blocks (caller frames them; blocks are
    /// concatenated in rank order).
    pub fn allgather_bytes(&mut self, data: Vec<u8>) -> Vec<u8> {
        self.collective(ReduceOp::Concat, data)
    }

    /// The load-balancing point (`AMPI_Migrate`): a collective at which
    /// every rank reports its measured load; the configured strategy
    /// decides; ranks ordered to move are packed (isomalloc byte copy,
    /// §3.4.2), shipped, and resume transparently on their new PE.
    pub fn migrate(&mut self) {
        // Returns resumed — possibly on a different PE; nothing else to do,
        // which is the whole point.
        self.reduce(TAG_LB, ReduceOp::Concat, load_report(self.rank));
    }

    /// Coordinated checkpoint (`AMPI_Checkpoint`): a collective at which
    /// every rank is packed exactly as a migration would pack it, with the
    /// images held on the PEs' in-memory checkpoint shelves. Under a plan
    /// with [`flows_converse::FaultPlan::online_recovery`] the images are
    /// also replicated to buddy PEs, and a PE crash rolls the survivors
    /// back to the newest complete generation in place — or, when none
    /// survives, restarts every rank from scratch on the surviving PEs.
    ///
    /// Call this only at a matched communication boundary — a point where
    /// every message sent has been received (an iteration boundary after
    /// all ghost exchanges, for example). Messages still in flight are not
    /// part of any rank's image and would be lost by a rollback.
    pub fn checkpoint(&mut self) {
        // Returns resumed — either right after the snapshot was taken, or
        // (after a crash) from the restored image, possibly on another PE.
        self.reduce(TAG_CKPT, ReduceOp::SumU64, Vec::new());
    }

    /// Virtual wall-clock seconds of the current PE (`MPI_Wtime` on the
    /// modeled machine; see flows-converse on virtual time).
    pub fn wtime(&self) -> f64 {
        flows_converse::vtime_ns() as f64 * 1e-9
    }

    /// Charge modeled work to the PE's virtual clock (for workloads that
    /// model rather than burn CPU).
    pub fn charge_ns(&self, ns: u64) {
        flows_converse::charge_ns(ns);
    }

    /// Allocate from this rank's migratable heap (the paper's
    /// thread-context `malloc` override).
    pub fn malloc(&self, size: usize) -> Option<*mut u8> {
        flows_core::iso_malloc(size)
    }

    /// Free a pointer from [`Ampi::malloc`].
    pub fn free(&self, ptr: *mut u8) -> bool {
        flows_core::iso_free(ptr)
    }

    pub(crate) fn finish(&self) {
        crate::world::note_finished(self.rank as u64);
    }
}

/// This rank's measured load, packed for the LB reduction. Out of line,
/// so that no packing temporaries sit in `Ampi::migrate`'s frame: that
/// frame is on the rank's stack, and so in its migration image, while the
/// rank is suspended.
#[inline(never)]
fn load_report(rank: usize) -> Vec<u8> {
    flows_pup::to_bytes(&mut LoadReport {
        rank: rank as u64,
        pe: flows_converse::my_pe() as u64,
        load_ns: flows_core::current_load_ns().unwrap_or(0),
    })
}
