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
//! A control frame is a [`ctrl`] tag and one pup record as its body,
//! written by [`control`] and read by [`record`] (`flows_pup::from_bytes`,
//! which refuses a short or overlong body); the sender's proc rank rides
//! in the frame's `src_pe`. flows-net carries both uninterpreted, and the
//! records' decoders share one fuzz table (the tests below).
//!
//! Scope: recovery *decisions* (confirm, epoch allocation, dead-pair
//! write-off) run on the process hosting the recovery-leader PE; mask
//! sync makes the outcome visible everywhere. The scripted-crash plans
//! supported across processes are whole-process crashes with the
//! survivors' recovery leader on the lead process.

use crate::machine::{Hub, Ledger, Masks, Morgue};
use flows_net::inbox::Sender;
use flows_net::{Frame, FrameKind, World};
use flows_pup::{pup_fields, Pup};
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

/// Control-frame tags: the `ctrl` byte of a [`FrameKind::Ctrl`] frame.
/// Each names the record its body is.
// flows-wire: defines net-ctrl
mod ctrl {
    /// Child → leader: [`Stats`](super::Stats).
    pub const STATS: u8 = 1;
    /// Dying child → every other process: [`Obituary`](super::Obituary).
    pub const MORGUE: u8 = 2;
    /// Dying child → leader: its final [`Ledger`](super::Ledger).
    pub const PROC_DEAD: u8 = 3;
    /// Leader → children: [`Probe`](super::Probe).
    pub const PROBE: u8 = 4;
    /// Leader → children: [`Done`](super::Done).
    pub const DONE: u8 = 5;
    /// Child → leader: [`Goodbye`](super::Goodbye).
    pub const GOODBYE: u8 = 6;
    /// Leader → children: the union of the machine-wide failure
    /// [`Masks`](super::Masks).
    pub const MASKS: u8 = 7;
}

/// A child's quiescence row, stamped with the highest probe round it has
/// answered (0 = none yet), and its failure masks.
#[derive(Default)]
struct Stats {
    ledger: Ledger,
    round: u64,
    masks: Masks,
}
pup_fields!(Stats { ledger, round, masks });

/// A local PE died: its id and the link ledger it left.
#[derive(Default)]
struct Obituary {
    pe: u64,
    morgue: Morgue,
}
pup_fields!(Obituary { pe, morgue });

/// Re-report `STATS` stamped with `round`.
#[derive(Default)]
struct Probe {
    round: u64,
}
pup_fields!(Probe { round });

/// Quiescence reached; `sent` is the machine-wide sent count.
#[derive(Default)]
struct Done {
    sent: u64,
}
pup_fields!(Done { sent });

/// The child drained and is exiting cleanly.
#[derive(Default)]
struct Goodbye {}
pup_fields!(Goodbye {});

/// A control frame from process `src` whose body is `rec`.
fn control(tag: u8, src: usize, mut rec: impl Pup) -> Frame {
    Frame::control(tag, src as u32, flows_pup::to_bytes(&mut rec).into())
}

/// The record a control frame's body holds; `None` unless the body is
/// exactly one `T`.
fn record<T: Pup + Default>(body: &[u8]) -> Option<T> {
    flows_pup::from_bytes(body).ok()
}

/// A `MORGUE` body a survivor can act on: a PE of this machine, and a
/// morgue whose cursors a survivor can index by every PE.
fn obituary(body: &[u8], num_pes: usize) -> Option<Obituary> {
    let o: Obituary = record(body)?;
    let m = &o.morgue;
    (o.pe < num_pes as u64 && m.rx_cum.len() == num_pes && m.tx_last.len() == num_pes).then_some(o)
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
        let stats = Stats {
            ledger: self.hub.ledger(),
            round,
            masks: self.hub.masks(),
        };
        control(ctrl::STATS, self.world.rank(), stats)
    }

    /// Absorb a STATS frame into the sender's row (leader side).
    fn absorb_stats(&self, rows: &mut [ProcRow], f: &Frame) {
        let Some(row) = rows.get_mut(f.src_pe as usize).filter(|r| !r.dead) else {
            return;
        };
        let Some(s) = record::<Stats>(&f.body) else { return };
        row.ledger = s.ledger;
        row.round = s.round;
        self.hub.absorb_masks(s.masks);
    }

    /// A PROC_DEAD notice (leader side): freeze the process's final
    /// counters. A dead process's failures are the survivors' to resolve,
    /// so it gathers as idle and resolved.
    fn absorb_proc_dead(&self, rows: &mut [ProcRow], f: &Frame) {
        let proc = f.src_pe as usize;
        let Some(row) = rows.get_mut(proc).filter(|r| !r.dead) else {
            return;
        };
        let Some(last) = record::<Ledger>(&f.body) else { return };
        *row = ProcRow {
            ledger: Ledger {
                idle: true,
                unresolved: false,
                ..last
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
        let Some(o) = obituary(&f.body, self.world.num_pes()) else { return };
        if !self.hub.morgue_ready(o.pe as usize) {
            self.hub.record_death(o.pe as usize, o.morgue);
        }
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
                ctrl::MASKS => {
                    if let Some(m) = record::<Masks>(&f.body) {
                        self.hub.absorb_masks(m);
                    }
                }
                ctrl::STATS => self.absorb_stats(&mut g.rows, &f),
                ctrl::PROC_DEAD => self.absorb_proc_dead(&mut g.rows, &f),
                ctrl::GOODBYE => {
                    let row = g.rows.get_mut(f.src_pe as usize);
                    if let (Some(row), Some(Goodbye {})) = (row, record(&f.body)) {
                        row.departed = true;
                    }
                }
                ctrl::PROBE if child => {
                    let Some(Probe { round }) = record(&f.body) else { continue };
                    g.seen_round = g.seen_round.max(round);
                    self.world.send(0, &self.stats_frame(g.seen_round));
                }
                ctrl::DONE if child => {
                    let Some(Done { sent }) = record(&f.body) else { continue };
                    self.hub.net_global_sent.store(sent, Ordering::SeqCst);
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
            let Some(morgue) = self.hub.morgue_get(pe) else { continue };
            let f = control(ctrl::MORGUE, me, Obituary { pe: pe as u64, morgue });
            for p in 0..self.world.procs() {
                if p != me {
                    self.world.send(p, &f);
                }
            }
        }
        self.world.send(0, &control(ctrl::PROC_DEAD, me, self.hub.ledger()));
        self.hub.set_done_and_wake();
    }

    /// The child-process comm loop: pump frames, answer probes, report
    /// state changes, exit on DONE (or on whole-process death).
    fn run_child(self) {
        let mut g = Gather::default();
        let mut last_sent: Option<Ledger> = None;
        loop {
            if self.drain(&mut g) {
                self.world.send(0, &control(ctrl::GOODBYE, self.world.rank(), Goodbye {}));
                return;
            }
            if self.online && self.hub.masks().dead & self.local_mask() == self.local_mask() {
                self.announce_proc_death();
                return;
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
        let mut last_masks = Masks::default();
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
                self.broadcast_live(&g.rows, &control(ctrl::MASKS, 0, masks));
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
                        self.broadcast_live(&g.rows, &control(ctrl::PROBE, 0, Probe { round }));
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
        let done = control(ctrl::DONE, 0, Done { sent: global_sent });
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

    const PES: usize = 3;

    /// rx_cum's last cursor is `PES + 1`, so smashing rx_cum's length from
    /// 3 to 2 leaves a record that pups whole — rx_cum one short, tx_last
    /// one long — and that only the `num_pes` check refuses.
    fn morgue() -> Morgue {
        Morgue {
            rx_cum: vec![1, 2, PES as u64 + 1],
            tx_last: vec![9, 8, 7],
            reaped_mask: 0b100,
        }
    }

    fn ledger() -> Ledger {
        Ledger { sent: 7, recv: 5, written_off: 2, idle: true, unresolved: false }
    }

    fn masks() -> Masks {
        Masks { dead: 0b100, fenced: 0b100, confirmed: 0b100, resolved: 0 }
    }

    /// A table line's decoder: `record`, then the re-encoding.
    fn line<T: Pup + Default>(b: &[u8]) -> Option<(Vec<u8>, usize)> {
        Some((flows_pup::to_bytes(&mut record::<T>(b)?), b.len()))
    }

    /// (name, a valid body, its decoder).
    type Entry = (&'static str, fn() -> Vec<u8>, fn(&[u8]) -> Option<(Vec<u8>, usize)>);

    /// Every control record's decoder, and the morgue check against
    /// `num_pes`: a new record is fuzzed by adding its line.
    const DECODERS: [Entry; 8] = [
        ("STATS", || {
            flows_pup::to_bytes(&mut Stats { ledger: ledger(), round: 4, masks: masks() })
        }, line::<Stats>),
        ("MORGUE", || flows_pup::to_bytes(&mut Obituary { pe: 2, morgue: morgue() }), line::<Obituary>),
        ("PROC_DEAD", || flows_pup::to_bytes(&mut ledger()), line::<Ledger>),
        ("PROBE", || flows_pup::to_bytes(&mut Probe { round: 3 }), line::<Probe>),
        ("DONE", || flows_pup::to_bytes(&mut Done { sent: 1 << 40 }), line::<Done>),
        ("GOODBYE", || flows_pup::to_bytes(&mut Goodbye {}), line::<Goodbye>),
        ("MASKS", || flows_pup::to_bytes(&mut masks()), line::<Masks>),
        ("morgue of every PE", || {
            flows_pup::to_bytes(&mut Obituary { pe: 2, morgue: morgue() })
        }, |b| {
            let o = obituary(b, PES)?;
            // Re-encoded as a survivor reads it, by PE: a short vector
            // panics here, and a long one re-encodes short.
            let by_pe = |v: &[u64]| (0..PES).map(|i| v[i]).collect();
            let morgue = Morgue {
                rx_cum: by_pe(&o.morgue.rx_cum),
                tx_last: by_pe(&o.morgue.tx_last),
                reaped_mask: o.morgue.reaped_mask,
            };
            Some((flows_pup::to_bytes(&mut Obituary { pe: o.pe, morgue }), b.len()))
        }),
    ];

    #[test]
    fn every_control_record_is_refused_or_round_trips() {
        for (name, wire, decode) in DECODERS {
            flows_pup::check_decoder(name, &wire(), decode);
        }
    }

    #[test]
    fn a_morgue_of_a_pe_outside_the_machine_is_refused() {
        let outside = flows_pup::to_bytes(&mut Obituary { pe: PES as u64, morgue: morgue() });
        assert!(obituary(&outside, PES).is_none());
    }
}
