//! `msgmix` — the in-process message path; no application compute.
//!
//! `flows_ampi::run_world`, 32 ranks on 2 threaded PEs, `NetModel::zero()`.
//! Three phases, one after the other:
//!
//! * **stream** — every rank keeps 16 messages of 256 B outstanding to its
//!   right neighbour, with an `allreduce` every 1 000 rounds (which also
//!   carries rank 0's decision to stop) → messages per second;
//! * **ping-pong** — rank 0 ↔ rank 31 (different PEs), one outstanding,
//!   the other 30 ranks blocked in `recv` → round-trip time;
//! * **bulk** — rank r ↔ rank r+16 exchange 64 KiB bodies → MiB per second.
//!
//! Ledgers: every body carries a per-link sequence number and a checksum;
//! the machine's own `pe_delivered` must sum to `messages`.

use crate::gen::{check_body, make_body, rehash_body, restamp_body, Rng};
use crate::span;
use crate::stats;
use crate::workload::{rates_from_marks, Leg, Outcome};
use flows_ampi::{run_world, Ampi, AmpiOptions};
use flows_converse::NetModel;
use flows_sys::time::monotonic_ns;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub const RANKS: usize = 32;
pub const PES: usize = 2;
const DEPTH: u64 = 16;
const SMALL: usize = 256;
const BULK: usize = 64 * 1024;
const STREAM_SYNC: u64 = 1000;
const BULK_SYNC: u64 = 32;
const WINDOWS: usize = 40;
/// Worlds an untraced run brings up and measures in.
pub const WORLDS: usize = 20;

const TAG_STREAM: u64 = 1;
const TAG_PING: u64 = 2;
const TAG_STOP: u64 = 3;
const TAG_BULK: u64 = 4;

/// Phase shares of a leg's seconds.
const STREAM_SHARE: f64 = 0.4;
const PING_SHARE: f64 = 0.35;

/// Warm-up before the first timed window (part of `setup_s`).
const WARM_STREAM_ROUNDS: u64 = 2000;
const WARM_BULK_ROUNDS: u64 = 32;
/// Back-to-back allreduces timed for `ampi.allreduce_us`.
const ALLREDUCES: usize = 400;

/// Written by rank 0 unless noted; read by the harness after the world ends.
#[derive(Default)]
struct Shared {
    seconds: f64,
    seed: u64,
    warm_done_ns: AtomicU64,
    /// `(time, rounds so far)` at each stream / bulk synchronisation.
    stream_marks: Mutex<Vec<(u64, u64)>>,
    bulk_marks: Mutex<Vec<(u64, u64)>>,
    rtt_ns: Mutex<Vec<u32>>,
    /// One-way latencies, both directions (ranks 0 and 31 share a clock).
    oneway_ns: Mutex<Vec<u32>>,
    allreduce_ns: Mutex<Vec<u32>>,
    stream_cpu_s: Mutex<f64>,
    pins: crate::host::PePins,
    /// Any rank: messages received and verified, messages that failed.
    received: AtomicU64,
    bad: AtomicU64,
}

/// Receive one body on `tag` from `src`, check its checksum and that it is
/// the `want`-th on its link.
fn recv_checked(ampi: &Ampi, sh: &Shared, src: usize, tag: u64, want: u64, full: bool) -> Vec<u8> {
    let (_, _, data) = ampi.recv(Some(src), Some(tag));
    let seq = if full {
        check_body(&data)
    } else {
        // Bulk bodies are fully hashed one time in sixteen; the sequence
        // number and length are checked every time.
        (data.len() >= 16).then(|| u64::from_le_bytes(data[..8].try_into().expect("8 bytes")))
    };
    if seq == Some(want) {
        sh.received.fetch_add(1, Ordering::Relaxed);
    } else {
        sh.bad.fetch_add(1, Ordering::Relaxed);
    }
    data
}

/// When rank 0 ends a phase: at a wall-clock time (timed phases, which also
/// leave window marks) or after a number of rounds (warm-up).
#[derive(Clone, Copy)]
enum Stop {
    At(u64),
    Rounds(u64),
}

impl Stop {
    fn reached(self, round: u64) -> bool {
        match self {
            Stop::At(t) => monotonic_ns() >= t,
            Stop::Rounds(n) => round >= n,
        }
    }
}

/// Rounds of the neighbour stream until rank 0 says stop. Returns rounds
/// done.
fn stream(ampi: &mut Ampi, sh: &Shared, body: &mut [u8], stop: Stop, base: u64) -> u64 {
    let me = ampi.rank();
    let n = ampi.size();
    let (next, prev) = ((me + 1) % n, (me + n - 1) % n);
    let mut sent = base;
    let mut got = base;
    for _ in 0..DEPTH {
        restamp_body(body, sent);
        ampi.send(next, TAG_STREAM, body.to_vec());
        sent += 1;
    }
    let mut round = 0u64;
    loop {
        recv_checked(ampi, sh, prev, TAG_STREAM, got, true);
        got += 1;
        round += 1;
        if round.is_multiple_of(STREAM_SYNC) {
            let done = me == 0 && stop.reached(round);
            let total = ampi.allreduce_u64_sum(&[done as u64])[0];
            if let (0, Stop::At(_)) = (me, stop) {
                sh.stream_marks
                    .lock()
                    .expect("marks")
                    .push((monotonic_ns(), round));
            }
            if total > 0 {
                break;
            }
        }
        restamp_body(body, sent);
        let traced = span::enabled() && sent.is_multiple_of(64);
        let s = if traced {
            span::begin("ampi.send", sent as u32)
        } else {
            span::Open::NONE
        };
        ampi.send(next, TAG_STREAM, body.to_vec());
        span::end(s);
        sent += 1;
    }
    // Everyone broke at the same round: DEPTH-1 bodies are still on the way.
    for _ in 0..DEPTH - 1 {
        recv_checked(ampi, sh, prev, TAG_STREAM, got, true);
        got += 1;
    }
    round
}

/// Pairwise 64 KiB exchange with the rank half a world away. The body
/// received in one round is the body sent in the next, so no round copies
/// a buffer in the benchmark's own code.
fn bulk(ampi: &mut Ampi, sh: &Shared, first: Vec<u8>, stop: Stop) -> Vec<u8> {
    let me = ampi.rank();
    let peer = (me + ampi.size() / 2) % ampi.size();
    let mut body = first;
    let mut round = 0u64;
    loop {
        restamp_body(&mut body, round);
        let s = if span::enabled() && me == 0 {
            span::begin("ampi.send_bulk", round as u32)
        } else {
            span::Open::NONE
        };
        ampi.send(peer, TAG_BULK, body);
        span::end(s);
        body = recv_checked(ampi, sh, peer, TAG_BULK, round, round.is_multiple_of(16));
        round += 1;
        if round.is_multiple_of(BULK_SYNC) {
            let done = me == 0 && stop.reached(round);
            let total = ampi.allreduce_u64_sum(&[done as u64])[0];
            if let (0, Stop::At(_)) = (me, stop) {
                sh.bulk_marks
                    .lock()
                    .expect("marks")
                    .push((monotonic_ns(), round));
            }
            if total > 0 {
                return body;
            }
        }
    }
}

/// Write the send time into a ping body and re-hash it (256 B: cheap).
fn stamp_ping(body: &mut [u8], seq: u64, t: u64) {
    body[16..24].copy_from_slice(&t.to_le_bytes());
    rehash_body(body, seq);
}

fn sent_at(body: &[u8]) -> u64 {
    u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"))
}

const PING_STOP: u64 = u64::MAX;

fn pingpong(ampi: &mut Ampi, sh: &Shared, body: &mut [u8], span_ns: u64) {
    let me = ampi.rank();
    let last = ampi.size() - 1;
    if me == 0 {
        let mut rtt = Vec::with_capacity(1 << 20);
        let mut oneway = Vec::with_capacity(1 << 21);
        let end = monotonic_ns() + span_ns;
        let mut seq = 0u64;
        loop {
            let t0 = monotonic_ns();
            if t0 >= end {
                break;
            }
            stamp_ping(body, seq, t0);
            let s = span::begin("ampi.send", seq as u32);
            ampi.send(last, TAG_PING, body.to_vec());
            span::end(s);
            let w0 = monotonic_ns();
            let back = recv_checked(ampi, sh, last, TAG_PING, seq, true);
            let t1 = monotonic_ns();
            span::complete("ampi.recv_wait", w0, t1, seq as u32);
            rtt.push((t1 - t0).min(u32::MAX as u64) as u32);
            oneway.push(t1.saturating_sub(sent_at(&back)).min(u32::MAX as u64) as u32);
            seq += 1;
        }
        rehash_body(body, PING_STOP);
        ampi.send(last, TAG_PING, body.to_vec());
        for r in 1..last {
            ampi.send(r, TAG_STOP, Vec::new());
        }
        sh.rtt_ns.lock().expect("rtt").extend(rtt);
        sh.oneway_ns.lock().expect("oneway").extend(oneway);
    } else if me == last {
        let mut oneway = Vec::with_capacity(1 << 20);
        let mut want = 0u64;
        loop {
            let (_, _, mut data) = ampi.recv(Some(0), Some(TAG_PING));
            let now = monotonic_ns();
            match check_body(&data) {
                Some(PING_STOP) => break,
                Some(seq) if seq == want => {
                    sh.received.fetch_add(1, Ordering::Relaxed);
                }
                _ => {
                    sh.bad.fetch_add(1, Ordering::Relaxed);
                }
            }
            oneway.push(now.saturating_sub(sent_at(&data)).min(u32::MAX as u64) as u32);
            stamp_ping(&mut data, want, monotonic_ns());
            ampi.send(0, TAG_PING, data);
            want += 1;
        }
        sh.oneway_ns.lock().expect("oneway").extend(oneway);
    } else {
        ampi.recv(Some(0), Some(TAG_STOP));
    }
}

fn rank_main(ampi: &mut Ampi, sh: &Shared) {
    sh.pins.pin(ampi.current_pe());
    let me = ampi.rank();
    let mut rng = Rng::fork(sh.seed, 100 + me as u64);
    let mut small = make_body(SMALL, 0, &mut rng);
    let big = make_body(BULK, 0, &mut rng);

    // Warm-up: pools fill, every rank has blocked and been woken.
    let warm = stream(ampi, sh, &mut small, Stop::Rounds(WARM_STREAM_ROUNDS), 0);
    let big = bulk(ampi, sh, big, Stop::Rounds(WARM_BULK_ROUNDS));
    ampi.barrier();
    if me == 0 {
        sh.warm_done_ns.store(monotonic_ns(), Ordering::Relaxed);
    }

    let secs = |share: f64| (sh.seconds * share * 1e9) as u64;
    // Stream.
    let cpu0 = if me == 0 {
        crate::host::cpu_seconds()
    } else {
        0.0
    };
    if me == 0 {
        sh.stream_marks
            .lock()
            .expect("marks")
            .push((monotonic_ns(), 0));
    }
    let until = monotonic_ns() + secs(STREAM_SHARE);
    stream(ampi, sh, &mut small, Stop::At(until), warm + DEPTH - 1);
    if me == 0 {
        *sh.stream_cpu_s.lock().expect("cpu") = crate::host::cpu_seconds() - cpu0;
    }

    // Collectives, back to back.
    let mut samples = Vec::with_capacity(ALLREDUCES);
    for _ in 0..ALLREDUCES {
        let t0 = monotonic_ns();
        ampi.allreduce_u64_sum(&[1]);
        samples.push((monotonic_ns() - t0).min(u32::MAX as u64) as u32);
    }
    if me == 0 {
        sh.allreduce_ns.lock().expect("allreduce").extend(samples);
    }

    // Ping-pong.
    pingpong(ampi, sh, &mut small, secs(PING_SHARE));
    ampi.barrier();

    // Bulk.
    if me == 0 {
        sh.bulk_marks
            .lock()
            .expect("marks")
            .push((monotonic_ns(), 0));
    }
    let until = monotonic_ns() + secs(1.0 - STREAM_SHARE - PING_SHARE);
    bulk(ampi, sh, big, Stop::At(until));
    span::flush();
}

fn launch(sh: Arc<Shared>) -> flows_converse::MachineReport {
    let opts = AmpiOptions::new(RANKS, PES)
        .with_net(NetModel::zero())
        .threaded(true);
    run_world(opts, move |ampi| rank_main(ampi, &sh))
}

pub fn run(leg: Leg) -> Outcome {
    let mut out = Outcome::default();
    // Every world is measured, each for its share of the seconds. A world's
    // stream settles into a regime of its own for as long as it lives (full
    // rate or about a quarter below it, the round trip and the bulk
    // exchange unaffected), so a run that measured a single world would
    // report whichever it drew; each world is a set-up of its own, and the
    // run reports the mean over them.
    let reps = leg.setups.max(1);
    let windows = WINDOWS.div_ceil(reps);
    let mut worlds = Vec::with_capacity(reps);
    for _ in 0..reps {
        let sh = Arc::new(Shared {
            seconds: leg.seconds / reps as f64,
            seed: leg.seed,
            ..Shared::default()
        });
        let t0 = monotonic_ns();
        let report = launch(sh.clone());
        out.setup_s
            .push(sh.warm_done_ns.load(Ordering::Relaxed).saturating_sub(t0) as f64 / 1e9);
        worlds.push((sh, report));
    }

    let mut rtt_us = Vec::new();
    for (sh, _) in &worlds {
        let stream_marks = sh.stream_marks.lock().expect("marks");
        out.ops_per_s
            .push_setup(rates_from_marks(&stream_marks, windows, RANKS as f64));
        out.mb_per_s.push_setup(rates_from_marks(
            &sh.bulk_marks.lock().expect("marks"),
            windows,
            (RANKS * BULK) as f64 / (1 << 20) as f64,
        ));
        let world_rtt: Vec<f64> = sh
            .rtt_ns
            .lock()
            .expect("rtt")
            .iter()
            .map(|&v| v as f64 / 1e3)
            .collect();
        out.lat_p50_us
            .push_setup(stats::windowed(&world_rtt, windows, stats::median));
        rtt_us.extend(world_rtt);
        out.ops += stream_marks.last().map_or(0, |m| m.1) * RANKS as u64;
        out.cpu_s += *sh.stream_cpu_s.lock().expect("cpu");
    }

    // Ledgers, over all worlds.
    let count = |f: fn(&Shared) -> &AtomicU64| -> u64 {
        worlds
            .iter()
            .map(|(sh, _)| f(sh).load(Ordering::Relaxed))
            .sum()
    };
    let bad = count(|sh| &sh.bad);
    out.attempted = count(|sh| &sh.received) + bad;
    if bad > 0 {
        out.fail(
            bad,
            format!("{bad} bodies out of order or with a wrong checksum"),
        );
    }
    let (mut messages, mut switches, mut syscalls) = (0u64, 0u64, 0u64);
    for (_, report) in &worlds {
        let delivered: u64 = report.pe_delivered.iter().sum();
        if delivered != report.messages {
            out.fail(
                delivered.abs_diff(report.messages),
                format!(
                    "exactly-once ledger: {delivered} delivered, {} sent",
                    report.messages
                ),
            );
        }
        let stranded: usize = report.stranded_threads.iter().sum();
        if stranded > 0 {
            out.fail(
                stranded as u64,
                format!("{stranded} ranks stranded at quiescence"),
            );
        }
        messages += report.messages;
        switches += report.sched_stats.iter().map(|s| s.switches).sum::<u64>();
        syscalls += report.syscalls.iter().map(|s| s.total()).sum::<u64>();
    }

    out.extra("msg_per_s", "1/s", out.ops_per_s.summary());
    out.extra("rtt_p50_us", "us", out.lat_p50_us.summary());
    out.extra1(
        "core.switches_per_op",
        "count",
        switches as f64 / messages.max(1) as f64,
    );
    out.extra1(
        "sys.syscalls_per_op",
        "count",
        syscalls as f64 / messages.max(1) as f64,
    );
    if !rtt_us.is_empty() {
        let s = stats::sorted(rtt_us);
        out.extra1("ampi.rtt_p99_us", "us", stats::tail(&s).unwrap_or(0.0));
    }
    let pooled_us = |f: fn(&Shared) -> &Mutex<Vec<u32>>| -> Vec<f64> {
        worlds
            .iter()
            .flat_map(|(sh, _)| {
                let v = f(sh).lock().expect("samples");
                v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>()
            })
            .collect()
    };
    let oneway = pooled_us(|sh| &sh.oneway_ns);
    if !oneway.is_empty() {
        let s = stats::sorted(oneway);
        out.extra1("ampi.oneway_p50_us", "us", stats::percentile(&s, 50.0));
        out.extra1("ampi.oneway_p99_us", "us", stats::tail(&s).unwrap_or(0.0));
    }
    let allreduce = pooled_us(|sh| &sh.allreduce_ns);
    if !allreduce.is_empty() {
        out.extra1("ampi.allreduce_us", "us", stats::median(&allreduce));
    }
    out
}
