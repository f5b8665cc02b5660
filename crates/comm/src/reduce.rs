//! Migration-tolerant reductions.
//!
//! Every participant contributes a value tagged `(tag, seq, rank)`; the
//! reduction root (a fixed PE derived from the tag) folds contributions
//! and hands the finished result to the PE's *reduction sink*. Because
//! contributions are addressed to a fixed PE and identified by rank, a
//! participant may migrate at any moment — even between contributing and
//! the reduction finishing — without the protocol noticing (§3.1.2).

use flows_converse::{IdMap, Message, Pe};
use flows_pup::pup_fields;
use std::cell::OnceCell;
use std::rc::Rc;

/// Combining operation applied elementwise to the byte payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum of little-endian `f64` vectors.
    SumF64,
    /// Elementwise sum of little-endian `u64` vectors.
    SumU64,
    /// Elementwise max of little-endian `f64` vectors.
    MaxF64,
    /// Elementwise min of little-endian `f64` vectors.
    MinF64,
    /// Concatenate payloads in rank order (gather).
    Concat,
}

impl ReduceOp {
    fn tag(self) -> u8 {
        match self {
            ReduceOp::SumF64 => 0,
            ReduceOp::SumU64 => 1,
            ReduceOp::MaxF64 => 2,
            ReduceOp::MinF64 => 3,
            ReduceOp::Concat => 4,
        }
    }

    fn from_tag(t: u8) -> ReduceOp {
        match t {
            0 => ReduceOp::SumF64,
            1 => ReduceOp::SumU64,
            2 => ReduceOp::MaxF64,
            3 => ReduceOp::MinF64,
            _ => ReduceOp::Concat,
        }
    }
}

/// A completed reduction, as handed to the sink.
#[derive(Debug, Clone, PartialEq)]
pub struct Reduction {
    /// The reduction stream (e.g. one per AMPI communicator).
    pub tag: u64,
    /// Sequence number within the stream.
    pub seq: u64,
    /// Folded payload.
    pub data: Vec<u8>,
}

#[derive(Debug, Default, Clone, PartialEq)]
pub(crate) struct ContribMsg {
    pub(crate) tag: u64,
    pub(crate) seq: u64,
    pub(crate) rank: u64,
    pub(crate) op: u8,
    pub(crate) expected: u64,
    /// Contributor's rollback epoch at send time. A contribution that was
    /// in flight when a recovery rolled the world back will be re-issued
    /// by the replayed execution (with fresh placement data); the stale
    /// copy is dropped at the root rather than folded.
    pub(crate) epoch: u64,
    pub(crate) data: Vec<u8>,
}
pup_fields!(ContribMsg {
    tag,
    seq,
    rank,
    op,
    expected,
    epoch,
    data
});

type SinkFn = Rc<dyn Fn(&Pe, Reduction)>;

#[derive(Default)]
struct ReduceState {
    pending: IdMap<(u64, u64), Pending>,
    sink: OnceCell<SinkFn>,
    /// Re-contributions ignored (same `(tag, seq, rank)` seen twice) —
    /// only possible when a send is replayed across a recovery rollback.
    duplicates: u64,
    /// Contributions dropped because they carried a pre-rollback epoch.
    stale: u64,
}

struct Pending {
    got: u64,
    expected: u64,
    op: ReduceOp,
    gather: Vec<(u64, Vec<u8>)>,
}

/// The PE acting as root for reduction stream `tag`.
pub fn root_of(tag: u64, num_pes: usize) -> usize {
    (tag % num_pes as u64) as usize
}

/// The *live* root for reduction stream `tag`: as [`root_of`], but a
/// stream rooted on a confirmed-dead PE is deterministically re-rooted
/// onto a survivor (identity with no failures).
pub fn live_root_of(pe: &Pe, tag: u64) -> usize {
    crate::layer::live_map(pe, tag)
}

/// Re-contributions ignored on this PE so far (duplicate `(tag, seq,
/// rank)` triples — the recovery-replay guard; see `on_contrib`).
pub fn duplicate_contributions(pe: &Pe) -> u64 {
    pe.ext::<ReduceState, _>(|st| st.duplicates)
}

/// Contributions dropped on this PE because their epoch stamp predated
/// the last rollback.
pub fn stale_contributions(pe: &Pe) -> u64 {
    pe.ext::<ReduceState, _>(|st| st.stale)
}

/// Discard every pending (incomplete) reduction on this PE. The recovery
/// driver calls this at rollback: partially gathered streams may contain
/// pre-rollback contributions whose data (e.g. load reports naming a dead
/// PE) must not survive into the replayed execution — every participant
/// re-contributes after the rollback, rebuilding the streams from scratch.
/// Returns how many pending streams were dropped.
pub fn purge_pending(pe: &Pe) -> usize {
    pe.ext::<ReduceState, _>(|st| {
        let n = st.pending.len();
        st.pending.clear();
        n
    })
}

/// Install this PE's completion sink (invoked at the root when a
/// reduction finishes).
pub fn set_reduction_sink(pe: &Pe, f: impl Fn(&Pe, Reduction) + 'static) {
    pe.ext::<ReduceState, _>(|st| {
        st.sink
            .set(Rc::new(f))
            .map_err(|_| ())
            .expect("reduction sink already set on this PE")
    });
}

/// Contribute `data` to reduction `(tag, seq)` on behalf of `rank`; the
/// reduction completes at the root once `expected` distinct contributions
/// arrive. Safe to call from a thread that migrates immediately after.
pub fn contribute(pe: &Pe, tag: u64, seq: u64, rank: u64, op: ReduceOp, expected: u64, data: Vec<u8>) {
    let mut m = ContribMsg {
        tag,
        seq,
        rank,
        op: op.tag(),
        expected,
        epoch: crate::layer::comm_epoch(pe),
        data,
    };
    let root = live_root_of(pe, tag);
    pe.send(root, pe.handler_of(on_contrib), flows_pup::to_bytes(&mut m));
}

pub(crate) fn on_contrib(pe: &Pe, msg: Message) {
    // Contributions cross process boundaries in multi-process machines: a
    // malformed wire is a counted drop (`route_drops`), never a panic.
    let Ok(m) = flows_pup::from_bytes::<ContribMsg>(&msg.data) else {
        crate::layer::drop_malformed(pe);
        return;
    };
    let op = ReduceOp::from_tag(m.op);
    // Read the epoch *before* borrowing ReduceState: ext() is one shared
    // RefCell per PE, so nested ext calls would panic.
    let cur_epoch = crate::layer::comm_epoch(pe);
    let finished = pe.ext::<ReduceState, _>(|st| {
        if m.epoch < cur_epoch {
            // In flight across a rollback: the replayed execution will
            // re-contribute with current placement data.
            st.stale += 1;
            return None;
        }
        if st
            .pending
            .get(&(m.tag, m.seq))
            .is_some_and(|p| p.gather.iter().any(|(r, _)| *r == m.rank))
        {
            // The same rank contributing twice to one (tag, seq) can only
            // be a send replayed across a recovery rollback boundary (the
            // link layer already suppresses in-protocol retransmit dups).
            // Folding it twice would silently corrupt the reduction.
            st.duplicates += 1;
            return None;
        }
        let p = st
            .pending
            .entry((m.tag, m.seq))
            .or_insert_with(|| Pending {
                got: 0,
                expected: m.expected,
                op,
                gather: Vec::new(),
            });
        assert_eq!(p.expected, m.expected, "inconsistent reduction size");
        assert_eq!(p.op, op, "inconsistent reduction op");
        p.got += 1;
        // Buffer every contribution; fold at completion in *rank order* so
        // floating-point reductions are deterministic no matter how
        // migration reshuffles arrival order.
        p.gather.push((m.rank, m.data.clone()));
        if p.got == p.expected {
            let mut p = st.pending.remove(&(m.tag, m.seq)).expect("just inserted");
            p.gather.sort_by_key(|(r, _)| *r);
            let data = if op == ReduceOp::Concat {
                p.gather.into_iter().flat_map(|(_, d)| d).collect()
            } else {
                let mut acc = None;
                for (_, d) in &p.gather {
                    combine(op, &mut acc, d);
                }
                acc.unwrap_or_default()
            };
            Some(Reduction {
                tag: m.tag,
                seq: m.seq,
                data,
            })
        } else {
            None
        }
    });
    if let Some(red) = finished {
        let sink = pe.ext::<ReduceState, _>(|st| st.sink.get().cloned());
        let sink = sink.expect("reduction finished but no sink installed on root PE");
        sink(pe, red);
    }
}

fn combine(op: ReduceOp, acc: &mut Option<Vec<u8>>, data: &[u8]) {
    match acc {
        None => *acc = Some(data.to_vec()),
        Some(a) => {
            assert_eq!(a.len(), data.len(), "reduction payloads must agree in length");
            match op {
                ReduceOp::SumF64 | ReduceOp::MaxF64 | ReduceOp::MinF64 => {
                    for i in (0..a.len()).step_by(8) {
                        let x = f64::from_le_bytes(a[i..i + 8].try_into().unwrap());
                        let y = f64::from_le_bytes(data[i..i + 8].try_into().unwrap());
                        let r = match op {
                            ReduceOp::SumF64 => x + y,
                            ReduceOp::MaxF64 => x.max(y),
                            ReduceOp::MinF64 => x.min(y),
                            _ => unreachable!(),
                        };
                        a[i..i + 8].copy_from_slice(&r.to_le_bytes());
                    }
                }
                ReduceOp::SumU64 => {
                    for i in (0..a.len()).step_by(8) {
                        let x = u64::from_le_bytes(a[i..i + 8].try_into().unwrap());
                        let y = u64::from_le_bytes(data[i..i + 8].try_into().unwrap());
                        a[i..i + 8].copy_from_slice(&(x.wrapping_add(y)).to_le_bytes());
                    }
                }
                ReduceOp::Concat => unreachable!("gathered separately"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_tags_round_trip() {
        for op in [
            ReduceOp::SumF64,
            ReduceOp::SumU64,
            ReduceOp::MaxF64,
            ReduceOp::MinF64,
            ReduceOp::Concat,
        ] {
            assert_eq!(ReduceOp::from_tag(op.tag()), op);
        }
    }

    #[test]
    fn combine_folds_elementwise() {
        let mut acc = None;
        combine(ReduceOp::SumF64, &mut acc, &1.5f64.to_le_bytes());
        combine(ReduceOp::SumF64, &mut acc, &2.25f64.to_le_bytes());
        let r = f64::from_le_bytes(acc.unwrap()[..8].try_into().unwrap());
        assert_eq!(r, 3.75);

        let mut acc = None;
        combine(ReduceOp::MaxF64, &mut acc, &1.0f64.to_le_bytes());
        combine(ReduceOp::MaxF64, &mut acc, &(-5.0f64).to_le_bytes());
        let r = f64::from_le_bytes(acc.unwrap()[..8].try_into().unwrap());
        assert_eq!(r, 1.0);

        let mut acc = None;
        combine(ReduceOp::SumU64, &mut acc, &7u64.to_le_bytes());
        combine(ReduceOp::SumU64, &mut acc, &8u64.to_le_bytes());
        let r = u64::from_le_bytes(acc.unwrap()[..8].try_into().unwrap());
        assert_eq!(r, 15);
    }

    #[test]
    #[should_panic(expected = "length")]
    fn mismatched_lengths_panic() {
        let mut acc = Some(vec![0u8; 8]);
        combine(ReduceOp::SumF64, &mut acc, &[0u8; 16]);
    }

    /// A rank whose contribution is replayed (as happens when a send
    /// crosses a recovery rollback boundary) must not be folded twice:
    /// the duplicate is dropped, the reduction completes exactly once
    /// with the single-count result.
    #[test]
    fn duplicate_rank_contribution_is_dropped_not_double_counted() {
        use flows_converse::MachineBuilder;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let result = Arc::new(AtomicU64::new(0));
        let completions = Arc::new(AtomicU64::new(0));
        let dups = Arc::new(AtomicU64::new(0));
        let mut mb = MachineBuilder::new(2);
        let _comm = crate::layer::CommLayer::register(&mut mb);
        let (r2, c2, d2) = (result.clone(), completions.clone(), dups.clone());
        mb.run_deterministic(move |pe| {
            if pe.id() == root_of(3, 2) {
                let (r, c, d) = (r2.clone(), c2.clone(), d2.clone());
                set_reduction_sink(pe, move |pe, red| {
                    r.store(
                        u64::from_le_bytes(red.data[..8].try_into().unwrap()),
                        Ordering::Relaxed,
                    );
                    c.fetch_add(1, Ordering::Relaxed);
                    d.store(duplicate_contributions(pe), Ordering::Relaxed);
                });
            }
            if pe.id() == 0 {
                contribute(pe, 3, 1, 0, ReduceOp::SumU64, 2, 5u64.to_le_bytes().to_vec());
                // Replay of rank 0's contribution — must be ignored.
                contribute(pe, 3, 1, 0, ReduceOp::SumU64, 2, 5u64.to_le_bytes().to_vec());
                contribute(pe, 3, 1, 1, ReduceOp::SumU64, 2, 7u64.to_le_bytes().to_vec());
            }
        });
        assert_eq!(completions.load(Ordering::Relaxed), 1, "completed exactly once");
        assert_eq!(result.load(Ordering::Relaxed), 12, "5 + 7, the dup not folded");
        assert_eq!(dups.load(Ordering::Relaxed), 1, "the replay was counted as a dup");
    }
}
