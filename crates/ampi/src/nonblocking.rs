//! Nonblocking point-to-point (`MPI_Isend`/`MPI_Irecv`) and the richer
//! collectives (`bcast`, `scatter`, `alltoall`) built over the sequenced
//! point-to-point layer.
//!
//! Sends are eager in AMPI (the payload leaves immediately and is
//! buffered at the receiver), so an isend's request is born complete —
//! the interesting half is `irecv`, which posts a match and lets the rank
//! keep computing until `wait`.

use crate::world::with_rank_box;
use crate::Ampi;

/// Tag space reserved for the collectives in this module; user tags must
/// stay below it.
pub const RESERVED_TAG_BASE: u64 = 1 << 62;

/// A pending nonblocking operation.
#[derive(Debug)]
pub struct Request {
    kind: ReqKind,
}

#[derive(Debug)]
enum ReqKind {
    /// Eager send: complete at creation.
    Send,
    /// Posted receive, possibly already satisfied by `test`.
    Recv {
        src: Option<usize>,
        tag: Option<u64>,
        got: Option<(usize, u64, Vec<u8>)>,
    },
}

impl Request {
    /// Is the operation complete? (`MPI_Test` without retrieving data —
    /// use [`Ampi::test`] to also claim a matched message.)
    pub fn is_complete(&self) -> bool {
        match &self.kind {
            ReqKind::Send => true,
            ReqKind::Recv { got, .. } => got.is_some(),
        }
    }
}

impl Ampi {
    /// Nonblocking send (`MPI_Isend`). Eager: the returned request is
    /// already complete; it exists so code can be written in the
    /// post-then-waitall style.
    pub fn isend(&mut self, dest: usize, tag: u64, data: Vec<u8>) -> Request {
        assert!(tag < RESERVED_TAG_BASE, "tag {tag} is in the reserved range");
        self.send(dest, tag, data);
        Request {
            kind: ReqKind::Send,
        }
    }

    /// Nonblocking receive (`MPI_Irecv`): posts a match; complete it with
    /// [`Ampi::test`] or [`Ampi::wait`].
    pub fn irecv(&self, src: Option<usize>, tag: Option<u64>) -> Request {
        Request {
            kind: ReqKind::Recv { src, tag, got: None },
        }
    }

    /// Try to complete a request without blocking (`MPI_Test`). Returns
    /// whether it is complete afterwards.
    pub fn test(&self, req: &mut Request) -> bool {
        match &mut req.kind {
            ReqKind::Send => true,
            ReqKind::Recv { got: Some(_), .. } => true,
            ReqKind::Recv { src, tag, got } => {
                let src = src.map(|s| s as u64);
                *got = with_rank_box(self.rank() as u64, |b| b.take(src, *tag));
                got.is_some()
            }
        }
    }

    /// Block until the request completes (`MPI_Wait`). For receives,
    /// returns `(source, tag, payload)`; for sends, `None`.
    pub fn wait(&self, req: Request) -> Option<(usize, u64, Vec<u8>)> {
        match req.kind {
            ReqKind::Send => None,
            ReqKind::Recv { got: Some(got), .. } => Some(got),
            // Not yet matched: block exactly as a `recv` with its match.
            ReqKind::Recv { src, tag, got: None } => Some(self.recv(src, tag)),
        }
    }

    /// Wait for every request (`MPI_Waitall`), returning receive payloads
    /// in order.
    pub fn waitall(&self, reqs: Vec<Request>) -> Vec<Option<(usize, u64, Vec<u8>)>> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    fn next_reserved_tag(&mut self) -> u64 {
        // Collectives are called in the same order by every rank (MPI
        // requirement), so a per-rank counter lines up machine-wide.
        self.p2p_coll_seq += 1;
        RESERVED_TAG_BASE + self.p2p_coll_seq
    }

    /// Broadcast from `root` (`MPI_Bcast`): every rank returns the root's
    /// payload.
    pub fn bcast(&mut self, root: usize, data: Vec<u8>) -> Vec<u8> {
        // Root contributes its payload to a gather; everyone picks the
        // root's (and only) block. Cost is O(P) messages through the
        // reduction root — fine at AMPI's rank counts here.
        let mine = if self.rank() == root { data } else { Vec::new() };
        self.allgather_bytes(mine)
    }

    /// Scatter from `root` (`MPI_Scatter`): rank `i` receives
    /// `chunks[i]`. Non-roots pass `None`.
    pub fn scatter(&mut self, root: usize, chunks: Option<Vec<Vec<u8>>>) -> Vec<u8> {
        let tag = self.next_reserved_tag();
        if self.rank() == root {
            let chunks = chunks.expect("root must provide the chunks");
            assert_eq!(chunks.len(), self.size(), "one chunk per rank");
            let mut mine = Vec::new();
            for (dest, chunk) in chunks.into_iter().enumerate() {
                if dest == self.rank() {
                    mine = chunk;
                } else {
                    self.send(dest, tag, chunk);
                }
            }
            mine
        } else {
            assert!(chunks.is_none(), "only the root provides chunks");
            let (_, _, data) = self.recv(Some(root), Some(tag));
            data
        }
    }

    /// All-to-all personalized exchange (`MPI_Alltoall`): sends
    /// `parts[j]` to rank `j`, returns the blocks received, indexed by
    /// source rank.
    pub fn alltoall(&mut self, parts: Vec<Vec<u8>>) -> Vec<Vec<u8>> {
        assert_eq!(parts.len(), self.size(), "one part per rank");
        let tag = self.next_reserved_tag();
        let me = self.rank();
        let mut out: Vec<Option<Vec<u8>>> = (0..self.size()).map(|_| None).collect();
        for (dest, part) in parts.into_iter().enumerate() {
            if dest == me {
                out[me] = Some(part);
            } else {
                self.send(dest, tag, part);
            }
        }
        for _ in 0..self.size() - 1 {
            let (src, _, data) = self.recv(None, Some(tag));
            assert!(out[src].is_none(), "duplicate alltoall block from {src}");
            out[src] = Some(data);
        }
        out.into_iter().map(|b| b.expect("all blocks arrived")).collect()
    }
}
