//! Reliable cross-PE links: per-link sequence numbers, cumulative acks,
//! timeout retransmission with exponential backoff, duplicate suppression
//! and in-order reassembly.
//!
//! Packets are `flows_net::Frame`s on every path, in-process or not. The
//! protocol is active only when a [`crate::FaultPlan`] is attached;
//! otherwise data frames carry `seq == 0` and pass straight through (the
//! inboxes themselves are lossless). Self-sends never enter the link
//! layer.
//!
//! Accounting invariant: the machine-wide quiescence counters (`Hub::sent`
//! / `Hub::recv`) count *logical* messages — one increment per `send`,
//! one per handler invocation. Retransmissions, duplicates and acks are
//! protocol-internal and tracked in [`crate::FaultStats`] instead, so
//! quiescence detection is oblivious to the fault layer. While a sender
//! holds unacked packets it reports "has work", which keeps both drive
//! modes alive until every loss has been repaired.

use crate::msg::Message;
use std::collections::BTreeMap;

/// A packet awaiting acknowledgement on a sender.
#[derive(Debug)]
pub(crate) struct Unacked {
    pub msg: Message,
    /// Virtual time at which a retransmission is due.
    pub deadline: u64,
    /// Transmission attempts so far (0 = initial send).
    pub attempt: u32,
}

/// Sender-side state for one outgoing link.
#[derive(Debug, Default)]
pub(crate) struct TxLink {
    /// Next sequence number to assign (first is 1).
    next_seq: u64,
    /// In-flight packets by sequence number.
    pub unacked: BTreeMap<u64, Unacked>,
    /// One packet held back to reorder behind the next send.
    pub pocket: Option<(u64, Message)>,
    /// Peer is confirmed dead and this link reaped: further sends are
    /// written off at the source instead of entering the protocol.
    pub dead: bool,
}

impl TxLink {
    pub fn assign_seq(&mut self) -> u64 {
        self.next_seq += 1;
        self.next_seq
    }

    /// Highest sequence number assigned so far (0 = none). Published in a
    /// crashing PE's morgue record so survivors can write off exactly the
    /// messages that died in flight.
    pub fn last_assigned(&self) -> u64 {
        self.next_seq
    }

    /// Drop everything acknowledged by a cumulative ack.
    pub fn ack_through(&mut self, cum: u64) {
        self.unacked = self.unacked.split_off(&(cum + 1));
        if let Some((seq, _)) = &self.pocket {
            if *seq <= cum {
                // Can't happen in a sane peer (it never saw the pocketed
                // packet), but be safe: treat as acked.
                self.pocket = None;
            }
        }
    }
}

/// Receiver-side state for one incoming link.
#[derive(Debug)]
pub(crate) struct RxLink {
    /// Next in-order sequence number we are waiting for.
    next_expected: u64,
    /// Out-of-order packets parked until the gap fills.
    ooo: BTreeMap<u64, Message>,
    /// Peer is confirmed dead and this link reaped: stragglers still in
    /// the channel were already written off and must not be delivered.
    pub dead: bool,
}

impl Default for RxLink {
    fn default() -> Self {
        RxLink {
            next_expected: 1,
            ooo: BTreeMap::new(),
            dead: false,
        }
    }
}

/// Outcome of offering a received data packet to an [`RxLink`].
pub(crate) enum RxOutcome {
    /// Deliver these messages (the packet plus any unblocked stragglers),
    /// in order.
    Deliver(Vec<Message>),
    /// Duplicate — already delivered or already parked; drop it.
    Duplicate,
    /// Out of order — parked until the gap fills.
    Parked,
    /// The sender is confirmed dead and the link reaped: the straggler was
    /// written off and is dropped without delivery or ack.
    Dead,
}

impl RxLink {
    /// Cumulative ack value: highest in-order seq received.
    pub fn cum_ack(&self) -> u64 {
        self.next_expected - 1
    }

    /// Write the link off after its peer's death: parked stragglers are
    /// dropped (they are inside the written-off window) and every later
    /// packet is refused.
    pub fn reap(&mut self) {
        self.dead = true;
        self.ooo.clear();
    }

    pub fn offer(&mut self, seq: u64, msg: Message) -> RxOutcome {
        if self.dead {
            return RxOutcome::Dead;
        }
        if seq < self.next_expected {
            return RxOutcome::Duplicate;
        }
        if seq > self.next_expected {
            return if self.ooo.insert(seq, msg).is_some() {
                RxOutcome::Duplicate
            } else {
                RxOutcome::Parked
            };
        }
        let mut ready = vec![msg];
        self.next_expected += 1;
        while let Some(m) = self.ooo.remove(&self.next_expected) {
            ready.push(m);
            self.next_expected += 1;
        }
        RxOutcome::Deliver(ready)
    }
}

/// Per-PE link table: one tx and one rx endpoint per peer.
#[derive(Debug, Default)]
pub(crate) struct LinkTable {
    pub tx: Vec<TxLink>,
    pub rx: Vec<RxLink>,
}

impl LinkTable {
    pub fn new(num_pes: usize) -> LinkTable {
        LinkTable {
            tx: (0..num_pes).map(|_| TxLink::default()).collect(),
            rx: (0..num_pes).map(|_| RxLink::default()).collect(),
        }
    }

    /// Any packet awaiting ack or pocketed anywhere?
    pub fn in_flight(&self) -> bool {
        self.tx
            .iter()
            .any(|t| !t.unacked.is_empty() || t.pocket.is_some())
    }

    /// Earliest retransmission deadline across all links, if any.
    pub fn min_deadline(&self) -> Option<u64> {
        self.tx
            .iter()
            .flat_map(|t| t.unacked.values().map(|u| u.deadline))
            .min()
    }
}

/// Attempts after which the exponential backoff stops doubling. A capped
/// RTO keeps probing a stalled-then-recovered peer at a bounded cadence
/// (instead of backing off into minutes of virtual silence) and bounds
/// idle virtual-time jumps; retransmissions scheduled at the cap are
/// counted in [`crate::FaultSummary::retransmits_capped`].
pub(crate) const RTO_ATTEMPT_CAP: u32 = 6;

/// Fraction of the backed-off RTO added as deterministic jitter.
const RTO_JITTER_FRAC: f64 = 0.25;

/// Retransmission timeout for a given attempt: a few network latencies
/// plus any injected delay, doubling per attempt up to
/// [`RTO_ATTEMPT_CAP`], plus up to 25% seeded jitter. `jitter` is a
/// deterministic uniform draw in [0,1) from the fault plan
/// (`FaultPlan::jitter_roll`), so senders whose timers expired together —
/// e.g. everyone blocked on one stalled PE — come back de-synchronized
/// instead of as a retransmit storm.
pub(crate) fn rto_ns(base_latency_ns: u64, delay_ns: u64, attempt: u32, jitter: f64) -> u64 {
    let base = 4 * base_latency_ns.max(1_000) + 2 * delay_ns + 50_000;
    let backed = base.saturating_mul(1u64 << attempt.min(RTO_ATTEMPT_CAP));
    backed.saturating_add((backed as f64 * RTO_JITTER_FRAC * jitter) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::HandlerId;

    fn msg(tag: u8) -> Message {
        Message {
            handler: HandlerId(0),
            data: vec![tag].into(),
            src_pe: 0,
            sent_vtime: 0,
        }
    }

    #[test]
    fn rx_orders_and_dedupes() {
        let mut rx = RxLink::default();
        // 2 arrives first: parked.
        assert!(matches!(rx.offer(2, msg(2)), RxOutcome::Parked));
        assert_eq!(rx.cum_ack(), 0);
        // duplicate of 2: dropped.
        assert!(matches!(rx.offer(2, msg(2)), RxOutcome::Duplicate));
        // 1 arrives: both released in order.
        match rx.offer(1, msg(1)) {
            RxOutcome::Deliver(v) => {
                assert_eq!(v.iter().map(|m| m.data[0]).collect::<Vec<_>>(), vec![1, 2])
            }
            _ => panic!("expected delivery"),
        }
        assert_eq!(rx.cum_ack(), 2);
        // stale retransmit of 1: dropped.
        assert!(matches!(rx.offer(1, msg(1)), RxOutcome::Duplicate));
    }

    #[test]
    fn tx_acks_cumulatively() {
        let mut tx = TxLink::default();
        for _ in 0..3 {
            let s = tx.assign_seq();
            tx.unacked.insert(
                s,
                Unacked {
                    msg: msg(s as u8),
                    deadline: 100,
                    attempt: 0,
                },
            );
        }
        assert_eq!(tx.unacked.len(), 3);
        tx.ack_through(2);
        assert_eq!(tx.unacked.len(), 1);
        assert!(tx.unacked.contains_key(&3));
        tx.ack_through(3);
        assert!(tx.unacked.is_empty());
    }

    #[test]
    fn rto_backs_off_and_caps() {
        let r0 = rto_ns(10_000, 0, 0, 0.0);
        let r1 = rto_ns(10_000, 0, 1, 0.0);
        assert_eq!(r1, 2 * r0);
        assert_eq!(
            rto_ns(10_000, 0, RTO_ATTEMPT_CAP, 0.0),
            rto_ns(10_000, 0, 63, 0.0),
            "backoff stops doubling at the cap"
        );
        assert!(rto_ns(10_000, 0, RTO_ATTEMPT_CAP, 0.0) < rto_ns(10_000, 0, 10, 0.0) * 2);
    }

    #[test]
    fn rto_jitter_is_bounded_and_monotone() {
        let base = rto_ns(10_000, 0, 3, 0.0);
        for j in [0.0, 0.25, 0.5, 0.999] {
            let r = rto_ns(10_000, 0, 3, j);
            assert!(r >= base, "jitter never shortens the timeout");
            assert!(
                r <= base + base / 4 + 1,
                "jitter bounded by 25%: {r} vs {base}"
            );
        }
    }

    #[test]
    fn link_table_tracks_flight() {
        let mut lt = LinkTable::new(2);
        assert!(!lt.in_flight());
        assert_eq!(lt.min_deadline(), None);
        let s = lt.tx[1].assign_seq();
        lt.tx[1].unacked.insert(
            s,
            Unacked {
                msg: msg(0),
                deadline: 77,
                attempt: 0,
            },
        );
        assert!(lt.in_flight());
        assert_eq!(lt.min_deadline(), Some(77));
    }
}
