//! The comm thread: bridges the PEs' inboxes and the `flows-net`
//! transport so one machine can span `N processes × M PEs`.
//!
//! Each process runs exactly one comm thread (spawned by
//! `MachineBuilder::run` when a [`flows_net::World`] is attached). The
//! thread owns two jobs:
//!
//! * **The frame pump.** A PE's inbox carries the same [`Frame`] the
//!   wire does, so a PE hands a frame for a remote destination to the
//!   transport as it is, and the comm thread injects each inbound data,
//!   ack or heartbeat frame into its destination PE's inbox unchanged
//!   (the link protocol — sequence numbers, cumulative acks,
//!   heartbeats — runs end-to-end between global PEs and never notices
//!   the boundary).
//!
//! * **The machine protocols.** Quiescence detection becomes a
//!   leader-driven double gather (children report `STATS`, the leader
//!   probes a stable fixpoint twice before declaring `DONE`); failure
//!   masks are synchronized with `MASKS` broadcasts; a process whose
//!   PEs all hit scripted crashes broadcasts its `MORGUE` records and a
//!   `PROC_DEAD` notice, then exits cleanly so the leader can reap it.
//!
//! Scope: recovery *decisions* (confirm, epoch allocation, dead-pair
//! write-off) run on the process hosting the recovery-leader PE; mask
//! sync makes the outcome visible everywhere. The scripted-crash plans
//! supported across processes are whole-process crashes with the
//! survivors' recovery leader on the lead process.

use crate::machine::{Hub, Ledger, Morgue};
use flows_net::inbox::Sender;
use flows_net::{ctrl, Frame, FrameKind, World};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long the comm thread parks between drain rounds when the wire is
/// silent. Arrivals cut it short on backends with doorbells.
const PUMP_PARK: Duration = Duration::from_micros(500);

/// How long the leader waits for children's `GOODBYE`s after `DONE`.
const GOODBYE_TIMEOUT: Duration = Duration::from_secs(10);

/// How often the leader's comm loop reaps exited children (one `waitpid`
/// per child each time).
const CHILD_POLL: Duration = Duration::from_millis(20);

/// Serialize a morgue record (all vectors are global-length):
/// `[rx_cum × n][tx_last × n][reaped_mask]`, little-endian u64s.
fn encode_morgue(m: &Morgue) -> Vec<u8> {
    let mut out = Vec::with_capacity((m.rx_cum.len() + m.tx_last.len() + 1) * 8);
    for v in m.rx_cum.iter().chain(m.tx_last.iter()) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&m.reaped_mask.to_le_bytes());
    out
}

fn decode_morgue(body: &[u8], num_pes: usize) -> Option<Morgue> {
    if body.len() != (2 * num_pes + 1) * 8 {
        return None;
    }
    let u64_at = |i: usize| u64::from_le_bytes(body[i * 8..i * 8 + 8].try_into().unwrap());
    Some(Morgue {
        rx_cum: (0..num_pes).map(u64_at).collect(),
        tx_last: (0..num_pes).map(|i| u64_at(num_pes + i)).collect(),
        reaped_mask: u64_at(2 * num_pes),
    })
}

/// A bodiless control frame from process `src` carrying one scalar.
fn signal(kind: u8, src: usize, a: u64) -> Frame {
    Frame::control(kind, src as u32, a, 0, 0, flows_core::Payload::empty())
}

/// Everything the comm thread needs; built by `MachineBuilder::run`.
pub(crate) struct NetPump {
    pub world: Arc<World>,
    pub hub: Arc<Hub>,
    /// Local PEs' inboxes, indexed by `global_pe - base`.
    pub txs: Vec<Sender<Frame>>,
    pub online: bool,
}

/// One process's quiescence-gather row on the leader.
#[derive(Clone, Copy, Default)]
struct ProcRow {
    ledger: Ledger,
    /// Probe round this row last echoed (0 = never probed).
    round: u64,
    /// Process announced PROC_DEAD; its counters are frozen.
    dead: bool,
    /// Process sent GOODBYE (or PROC_DEAD, or exited).
    departed: bool,
}

/// The comm thread's protocol state. The leader keeps one gather row per
/// process; a child keeps none and tracks only the probes it answered.
#[derive(Default)]
struct Gather {
    rows: Vec<ProcRow>,
    /// Highest probe round this process has answered (child side). Every
    /// STATS frame carries it — "I have seen probe N" is monotone state,
    /// not a one-shot reply. If a state-change report could carry round 0
    /// it would overwrite the leader's record of our reply, and a wave
    /// whose counters then stopped moving would wait forever for a
    /// re-reply nothing will ever trigger.
    seen_round: u64,
}

impl NetPump {
    fn base(&self) -> usize {
        self.world.first_pe()
    }

    fn local(&self) -> usize {
        self.world.pes_per_proc()
    }

    /// Bitmask of this process's global PE ids (online mode caps the
    /// machine at 64 PEs, so the mask math is exact).
    fn local_mask(&self) -> u64 {
        (((1u128 << self.local()) - 1) << self.base()) as u64
    }

    /// Forward one received link frame to its destination PE's inbox.
    fn inject(&self, f: Frame) {
        let dst = f.dst_pe as usize;
        let Some(tx) = self.txs.get(dst.wrapping_sub(self.base())) else {
            return; // misrouted frame; drop rather than poison an inbox
        };
        tx.send(f);
        self.hub.wake(dst);
    }

    fn stats_frame(&self, round: u64) -> Frame {
        let row = self.hub.ledger();
        let (dead, fenced, confirmed, resolved) = self.hub.masks();
        let mut body = Vec::with_capacity(1 + 5 * 8);
        body.push(u8::from(row.idle) | (u8::from(row.unresolved) << 1));
        for v in [row.written_off, dead, fenced, confirmed, resolved] {
            body.extend_from_slice(&v.to_le_bytes());
        }
        Frame::control(
            ctrl::STATS,
            self.world.rank() as u32,
            row.sent,
            row.recv,
            round,
            body.into(),
        )
    }

    /// Absorb a STATS frame into the sender's row (leader side).
    fn absorb_stats(&self, rows: &mut [ProcRow], f: &Frame) {
        let proc = f.src_pe as usize;
        if proc >= rows.len() || rows[proc].dead {
            return;
        }
        let b = f.body.as_slice();
        if b.len() != 1 + 5 * 8 {
            return;
        }
        let u64_at =
            |o: usize| u64::from_le_bytes(b[1 + o * 8..1 + o * 8 + 8].try_into().unwrap());
        rows[proc].ledger = Ledger {
            sent: f.a,
            recv: f.b,
            written_off: u64_at(0),
            idle: b[0] & 1 != 0,
            unresolved: b[0] & 2 != 0,
            stolen: 0,
        };
        rows[proc].round = f.c;
        self.hub.absorb_masks(u64_at(1), u64_at(2), u64_at(3), u64_at(4));
    }

    /// A PROC_DEAD notice (leader side): freeze the process's final
    /// counters. A dead process's failures are the survivors' to resolve,
    /// so it gathers as idle and resolved.
    fn absorb_proc_dead(&self, rows: &mut [ProcRow], f: &Frame) {
        let proc = f.a as usize;
        if proc >= rows.len() || rows[proc].dead {
            return;
        }
        let woff = f
            .body
            .as_slice()
            .get(..8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
        rows[proc] = ProcRow {
            ledger: Ledger {
                sent: f.b,
                recv: f.c,
                written_off: woff,
                idle: true,
                ..Ledger::default()
            },
            round: u64::MAX,
            dead: true,
            departed: true,
        };
        self.world.mark_proc_dead(proc);
    }

    /// A morgue notice from a dying remote PE: record the crash exactly
    /// as the local `die()` path would, so detection/write-off/upcall
    /// machinery runs unchanged on survivors.
    fn absorb_morgue(&self, f: &Frame) {
        let pe = f.a as usize;
        let num_pes = self.world.num_pes();
        if pe >= num_pes || self.hub.morgue_ready(pe) {
            return;
        }
        if let Some(m) = decode_morgue(f.body.as_slice(), num_pes) {
            self.hub.record_death(pe, m);
        }
    }

    fn absorb_masks_frame(&self, f: &Frame) {
        let fenced = f
            .body
            .as_slice()
            .get(..8)
            .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
        self.hub.absorb_masks(f.a, fenced, f.b, f.c);
    }

    /// Drain every pending frame: inject link frames, dispatch control
    /// frames.
    /// Each role ignores the kinds it is never sent — a child has no
    /// gather rows, and only a child answers PROBE and DONE. Returns true
    /// at DONE, leaving the rest unread.
    // flows-wire: handles net-ctrl
    fn drain(&self, g: &mut Gather) -> bool {
        let child = !self.world.is_leader();
        while let Some((_, f)) = self.world.try_recv() {
            if f.kind != FrameKind::Ctrl {
                self.inject(f);
                continue;
            }
            match f.ctrl {
                ctrl::MORGUE => self.absorb_morgue(&f),
                ctrl::MASKS => self.absorb_masks_frame(&f),
                ctrl::STATS => self.absorb_stats(&mut g.rows, &f),
                ctrl::PROC_DEAD => self.absorb_proc_dead(&mut g.rows, &f),
                ctrl::GOODBYE => {
                    if let Some(row) = g.rows.get_mut(f.a as usize) {
                        row.departed = true;
                    }
                }
                ctrl::PROBE if child => {
                    g.seen_round = g.seen_round.max(f.a);
                    self.world.send(0, &self.stats_frame(g.seen_round));
                }
                ctrl::DONE if child => {
                    self.hub.net_global_sent.store(f.a, Ordering::SeqCst);
                    self.hub.set_done_and_wake();
                    return true;
                }
                _ => {}
            }
        }
        false
    }

    /// All of this process's PEs have hit their scripted crashes: publish
    /// every local morgue to the survivors, report the frozen counters to
    /// the leader, and take the whole process down cleanly (exit code 0 —
    /// the *machine-level* failure was scripted, the process did its job).
    fn announce_proc_death(&self) {
        let me = self.world.rank();
        for pe in self.base()..self.base() + self.local() {
            let Some(m) = self.hub.morgue_get(pe) else { continue };
            let f = Frame::control(
                ctrl::MORGUE,
                me as u32,
                pe as u64,
                0,
                0,
                encode_morgue(&m).into(),
            );
            for p in 0..self.world.procs() {
                if p != me {
                    self.world.send(p, &f);
                }
            }
        }
        let row = self.hub.ledger();
        self.world.send(
            0,
            &Frame::control(
                ctrl::PROC_DEAD,
                me as u32,
                me as u64,
                row.sent,
                row.recv,
                row.written_off.to_le_bytes().to_vec().into(),
            ),
        );
        self.hub.set_done_and_wake();
    }

    /// The child-process comm loop: pump frames, answer probes, report
    /// state changes, exit on DONE (or on whole-process death).
    fn run_child(self) {
        let mut g = Gather::default();
        let mut last_sent: Option<Ledger> = None;
        loop {
            if self.drain(&mut g) {
                let me = self.world.rank();
                self.world.send(0, &signal(ctrl::GOODBYE, me, me as u64));
                return;
            }
            if self.online {
                let (dead, _, _, _) = self.hub.masks();
                if dead & self.local_mask() == self.local_mask() {
                    self.announce_proc_death();
                    return;
                }
            }
            let row = self.hub.ledger();
            if last_sent != Some(row) {
                last_sent = Some(row);
                self.world.send(0, &self.stats_frame(g.seen_round));
            }
            self.world.park(PUMP_PARK);
        }
    }

    /// The leader comm loop: gather rows, double-probe the fixpoint,
    /// declare quiescence, then collect goodbyes. A child that exits
    /// without saying so ends the run with a diagnosis instead.
    fn run_leader(self) {
        let mut g = Gather {
            rows: vec![ProcRow::default(); self.world.procs()],
            ..Gather::default()
        };
        let mut round: u64 = 0;
        let mut snapshot: Option<Ledger> = None;
        let mut last_masks = (0u64, 0u64, 0u64, 0u64);
        let mut next_reap = Instant::now();
        loop {
            self.drain(&mut g);
            if Instant::now() >= next_reap {
                next_reap = Instant::now() + CHILD_POLL;
                if let Some(why) = self.reap_children(&mut g) {
                    self.hub.fail_lost_proc(why);
                    self.finish(&mut g, self.hub.sent.load(Ordering::SeqCst));
                    return;
                }
            }
            g.rows[0].ledger = self.hub.ledger();
            let masks = self.hub.masks();
            if masks != last_masks {
                last_masks = masks;
                let (dead, fenced, confirmed, resolved) = masks;
                let f = Frame::control(
                    ctrl::MASKS,
                    0,
                    dead,
                    confirmed,
                    resolved,
                    fenced.to_le_bytes().to_vec().into(),
                );
                self.broadcast_live(&g.rows, &f);
            }
            // The in-process quiescence rule over the sum of every row.
            let sums = Ledger::total(g.rows.iter().map(|r| r.ledger));
            if !sums.quiescent() {
                snapshot = None;
            } else {
                let replied = g
                    .rows
                    .iter()
                    .skip(1)
                    .all(|r| r.dead || r.round >= round.max(1));
                match snapshot {
                    Some(prev) if replied && prev == sums => {
                        // Second wave saw the identical balanced fixpoint:
                        // quiescent machine-wide.
                        self.hub.net_global_sent.store(sums.sent, Ordering::SeqCst);
                        self.hub.set_done_and_wake();
                        self.finish(&mut g, sums.sent);
                        return;
                    }
                    // Moved under the probe: start a fresh wave. Or the
                    // ledger moved while replies were still outstanding —
                    // this wave's snapshot is moot, and an unanswered stale
                    // wave must not be waited out (the traffic that moved
                    // the sums may have been the machine's last).
                    Some(prev) if replied || prev != sums => snapshot = None,
                    Some(_) => {} // waiting for probe replies
                    None => {
                        round += 1;
                        snapshot = Some(sums);
                        self.broadcast_live(&g.rows, &signal(ctrl::PROBE, 0, round));
                    }
                }
            }
            self.world.park(PUMP_PARK);
        }
    }

    /// Send `f` to every child whose process is still alive.
    fn broadcast_live(&self, rows: &[ProcRow], f: &Frame) {
        for (p, row) in rows.iter().enumerate().skip(1) {
            if !row.dead {
                self.world.send(p, f);
            }
        }
    }

    /// Reap children that have exited. One that sent neither `PROC_DEAD`
    /// nor `GOODBYE` left the machine without a word: its PEs will never
    /// answer a probe, so no wave could ever settle. Frames it wrote just
    /// before exiting may still be queued, so drain once more before
    /// judging. Returns a diagnosis naming every such child.
    fn reap_children(&self, g: &mut Gather) -> Option<String> {
        let exited = self.world.poll_children();
        if exited.is_empty() {
            return None;
        }
        self.drain(g);
        let mut lost = Vec::new();
        for (rank, code) in exited {
            let Some(row) = g.rows.get_mut(rank) else { continue };
            if row.dead || row.departed {
                continue;
            }
            row.departed = true;
            self.world.mark_proc_dead(rank);
            lost.push(format!("rank {rank} exited with code {code}"));
        }
        (!lost.is_empty()).then(|| {
            format!(
                "flows-net: child process {} without PROC_DEAD or GOODBYE; \
                 the machine cannot reach quiescence",
                lost.join(", ")
            )
        })
    }

    /// Broadcast DONE and wait for every live child's GOODBYE so no child
    /// is still mid-drain when the leader tears the session down.
    fn finish(&self, g: &mut Gather, global_sent: u64) {
        let done = signal(ctrl::DONE, 0, global_sent);
        for (p, row) in g.rows.iter().enumerate().skip(1) {
            if !row.departed {
                self.world.send(p, &done);
            }
        }
        let deadline = Instant::now() + GOODBYE_TIMEOUT;
        while g.rows.iter().skip(1).any(|r| !r.departed) && Instant::now() < deadline {
            self.drain(g);
            self.world.park(PUMP_PARK);
        }
    }

    /// The comm-thread entry point.
    pub(crate) fn run(self) {
        if self.world.is_leader() {
            self.run_leader();
        } else {
            self.run_child();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn morgue_codec_round_trips() {
        let m = Morgue {
            rx_cum: vec![1, 2, 3, 4],
            tx_last: vec![9, 8, 7, 6],
            reaped_mask: 0b1010,
        };
        let wire = encode_morgue(&m);
        let back = decode_morgue(&wire, 4).expect("well-formed");
        assert_eq!(back.rx_cum, m.rx_cum);
        assert_eq!(back.tx_last, m.tx_last);
        assert_eq!(back.reaped_mask, m.reaped_mask);
        assert!(decode_morgue(&wire, 5).is_none(), "length is validated");
    }
}
