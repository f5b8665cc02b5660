//! `xproc` — the same three message shapes as `msgmix`, across a process
//! boundary.
//!
//! 2 processes × 1 PE over `Backend::Shm` (`TopologySpec::new(2, 1)`; the
//! child is a re-exec of `flowsbench`), converse-level handlers so AMPI's
//! cost is absent:
//!
//! * **ping-pong** — 256 B, one outstanding → round trip;
//! * **stream** — 256 B, 32 in flight, acknowledged every 8 → messages/s;
//! * **bulk** — 64 KiB, 4 in flight, acknowledged one by one. A body is
//!   16× the 4 KiB ring slot, so it takes the `FLAG_MORE` spill path → MiB/s.
//!
//! Latency and throughput sit side by side on purpose: an optimisation of
//! one may cost the other. The receiver verifies a checksum over every
//! body, and `flows_net::body_copies()` must not move during the two
//! small-message phases. Both processes stamp with `monotonic_ns`, which
//! they share, so one-way times are real.

use crate::gen::{check_body, make_body, rehash_body, Rng};
use crate::span;
use crate::stats;
use crate::workload::{rates_from_marks, Leg, Outcome};
use flows_converse::{HandlerId, MachineBuilder, Message, NetModel, Payload, Pe};
use flows_net::{Backend, TopologySpec, World};
use flows_sys::time::monotonic_ns;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

const SMALL: usize = 256;
const BULK: usize = 64 * 1024;
const STREAM_DEPTH: u64 = 32;
const STREAM_ACK: u64 = 8;
const BULK_DEPTH: u64 = 4;
/// Distinct pre-built bodies per size; the receiver expects them in
/// rotation, which orders the stream without restamping shared buffers.
const ROTATION: u64 = 64;
const WINDOWS: usize = 20;
const WARM_PINGS: u64 = 2000;
const PING_SHARE: f64 = 0.35;
const STREAM_SHARE: f64 = 0.4;

/// The name the converse machine gives its comm thread.
const COMM_THREAD: &str = "flows-netpump";

/// The argument that makes a `flowsbench` process a child rank.
pub const CHILD_ARG: &str = "xproc-child";

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Warm,
    Ping,
    Stream,
    Bulk,
    Done,
}

/// Handler ids, identical in both processes (same registration order).
#[derive(Clone, Copy)]
struct Handlers {
    ping: HandlerId,
    pong: HandlerId,
    data: HandlerId,
    ack: HandlerId,
    fin: HandlerId,
    report: HandlerId,
}

/// What the child tells the leader when it is told to finish.
#[derive(Debug, Default, Clone, Copy)]
struct ChildReport {
    received_small: u64,
    received_bulk: u64,
    bad: u64,
    /// `body_copies()` taken before the first bulk body arrived.
    small_phase_copies: u64,
    peak_rss_kib: u64,
    cpu_ms: u64,
}

impl ChildReport {
    fn to_bytes(self) -> Vec<u8> {
        [
            self.received_small,
            self.received_bulk,
            self.bad,
            self.small_phase_copies,
            self.peak_rss_kib,
            self.cpu_ms,
        ]
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect()
    }

    fn from_bytes(b: &[u8]) -> Option<ChildReport> {
        let mut w = b
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")));
        Some(ChildReport {
            received_small: w.next()?,
            received_bulk: w.next()?,
            bad: w.next()?,
            small_phase_copies: w.next()?,
            peak_rss_kib: w.next()?,
            cpu_ms: w.next()?,
        })
    }
}

/// Receiver-side state (PE 1, the child process).
#[derive(Default)]
struct Receiver {
    pings: u64,
    stream: u64,
    bulk: u64,
    bad: u64,
    copies_at_start: u64,
    small_phase_copies: u64,
    cpu0: Option<f64>,
}

/// Sender-side state (PE 0, the leader process).
struct Sender {
    phase: Phase,
    seconds: f64,
    phase_end: u64,
    /// Pings sent since the world came up; doubles as their sequence.
    pings: u64,
    /// Stream or bulk bodies sent / acknowledged in the current phase.
    sent: u64,
    acked: u64,
    ping_body: Vec<u8>,
    small: Vec<Payload>,
    bulk: Vec<Payload>,
    warm_done_ns: u64,
    rtt_ns: Vec<u32>,
    oneway_ns: Vec<u32>,
    bad_pongs: u64,
    stream_marks: Vec<(u64, u64)>,
    bulk_marks: Vec<(u64, u64)>,
    sent_small: u64,
    sent_bulk: u64,
    cpu0: f64,
    cpu_s: f64,
    copies_at_start: u64,
    copies_before_bulk: u64,
    report: Option<ChildReport>,
}

fn send_ping(pe: &Pe, h: Handlers, s: &mut Sender) {
    let now = monotonic_ns();
    s.ping_body[16..24].copy_from_slice(&now.to_le_bytes());
    rehash_body(&mut s.ping_body, s.pings);
    let o = span::begin("converse.send", s.pings as u32);
    pe.send(1, h.ping, s.ping_body.clone());
    span::end(o);
    s.pings += 1;
}

fn send_data(pe: &Pe, h: Handlers, s: &mut Sender, bulk: bool) {
    let (bodies, count) = if bulk {
        (&s.bulk, &mut s.sent_bulk)
    } else {
        (&s.small, &mut s.sent_small)
    };
    let body = bodies[(*count % ROTATION) as usize].clone();
    let o = if span::enabled() && *count % 16 == 0 {
        span::begin(
            if bulk {
                "converse.send_bulk"
            } else {
                "converse.send"
            },
            *count as u32,
        )
    } else {
        span::Open::NONE
    };
    pe.send(1, h.data, body);
    span::end(o);
    *count += 1;
    s.sent += 1;
}

fn start_phase(pe: &Pe, h: Handlers, s: &mut Sender, phase: Phase) {
    let now = monotonic_ns();
    let secs = |share: f64| (s.seconds * share * 1e9) as u64;
    s.phase = phase;
    s.sent = 0;
    s.acked = 0;
    match phase {
        Phase::Warm | Phase::Ping => {
            s.phase_end = now + secs(PING_SHARE);
            send_ping(pe, h, s);
        }
        Phase::Stream => {
            s.cpu0 = crate::host::cpu_seconds();
            s.phase_end = now + secs(STREAM_SHARE);
            s.stream_marks.push((now, 0));
            for _ in 0..STREAM_DEPTH {
                send_data(pe, h, s, false);
            }
        }
        Phase::Bulk => {
            s.cpu_s = crate::host::cpu_seconds() - s.cpu0;
            s.copies_before_bulk = flows_net::body_copies();
            s.phase_end = now + secs(1.0 - PING_SHARE - STREAM_SHARE);
            s.bulk_marks.push((now, 0));
            for _ in 0..BULK_DEPTH {
                send_data(pe, h, s, true);
            }
        }
        Phase::Done => pe.send(1, h.fin, Vec::new()),
    }
}

fn on_pong(pe: &Pe, h: Handlers, s: &mut Sender, msg: &Message) {
    let now = monotonic_ns();
    let data = msg.data.as_slice();
    let word = |i: usize| u64::from_le_bytes(data[i..i + 8].try_into().expect("8 bytes"));
    if check_body(data) != Some(s.pings - 1) {
        s.bad_pongs += 1;
    }
    if s.phase == Phase::Ping {
        // [24..32] holds the ping's send time, [32..40] the one-way time
        // the child measured for it, [16..24] when the child sent this.
        s.rtt_ns
            .push(now.saturating_sub(word(24)).min(u32::MAX as u64) as u32);
        s.oneway_ns.push(word(32).min(u32::MAX as u64) as u32);
        s.oneway_ns
            .push(now.saturating_sub(word(16)).min(u32::MAX as u64) as u32);
    }
    match s.phase {
        Phase::Warm if s.pings >= WARM_PINGS => {
            s.warm_done_ns = now;
            start_phase(pe, h, s, Phase::Ping);
        }
        Phase::Ping if now >= s.phase_end => start_phase(pe, h, s, Phase::Stream),
        _ => send_ping(pe, h, s),
    }
}

fn on_ack(pe: &Pe, h: Handlers, s: &mut Sender, msg: &Message) {
    let now = monotonic_ns();
    let n = u64::from_le_bytes(msg.data.as_slice()[..8].try_into().expect("ack count"));
    s.acked += n;
    let bulk = s.phase == Phase::Bulk;
    if bulk {
        s.bulk_marks.push((now, s.acked));
    } else {
        s.stream_marks.push((now, s.acked));
    }
    if now < s.phase_end {
        for _ in 0..n {
            send_data(pe, h, s, bulk);
        }
    } else if s.acked == s.sent {
        start_phase(pe, h, s, if bulk { Phase::Done } else { Phase::Bulk });
    }
}

/// Child side of a ping: measure the one-way time, answer at once.
fn on_ping(pe: &Pe, h: Handlers, r: &mut Receiver, msg: &Message) {
    let now = monotonic_ns();
    r.cpu0.get_or_insert_with(crate::host::cpu_seconds);
    let mut body = msg.data.as_slice().to_vec();
    let seq = check_body(&body);
    if seq != Some(r.pings) || body.len() != SMALL {
        r.bad += 1;
    }
    r.pings += 1;
    let sent = u64::from_le_bytes(body[16..24].try_into().expect("8 bytes"));
    body[24..32].copy_from_slice(&sent.to_le_bytes());
    body[32..40].copy_from_slice(&now.saturating_sub(sent).to_le_bytes());
    body[16..24].copy_from_slice(&monotonic_ns().to_le_bytes());
    rehash_body(&mut body, r.pings - 1);
    pe.send(0, h.pong, body);
}

/// Child side of the two streams: verify, count, acknowledge.
fn on_data(pe: &Pe, h: Handlers, r: &mut Receiver, msg: &Message) {
    let data = msg.data.as_slice();
    let bulk = data.len() == BULK;
    if !bulk {
        // Sampled at every small body: the comm thread stages a bulk
        // frame before this PE's handler sees it, so "at the first bulk
        // body" would already be too late.
        r.small_phase_copies = flows_net::body_copies() - r.copies_at_start;
    }
    let (count, every) = if bulk {
        (&mut r.bulk, 1)
    } else {
        (&mut r.stream, STREAM_ACK)
    };
    if check_body(data) != Some(*count % ROTATION) {
        r.bad += 1;
    }
    *count += 1;
    if *count % every == 0 {
        pe.send(0, h.ack, every.to_le_bytes().to_vec());
    }
}

fn on_fin(pe: &Pe, h: Handlers, r: &mut Receiver) {
    let report = ChildReport {
        received_small: r.pings + r.stream,
        received_bulk: r.bulk,
        bad: r.bad,
        small_phase_copies: r.small_phase_copies,
        peak_rss_kib: (crate::host::peak_rss_mb() * 1024.0) as u64,
        cpu_ms: r
            .cpu0
            .map_or(0, |c| ((crate::host::cpu_seconds() - c) * 1e3) as u64),
    };
    pe.send(0, h.report, report.to_bytes());
}

/// Build the machine — identically in both processes — and run it to
/// quiescence. The leader's PE 0 drives; the child's PE 1 answers.
fn run_machine(world: &Arc<World>, sender: Arc<Mutex<Sender>>) -> flows_converse::MachineReport {
    let receiver = Arc::new(Mutex::new(Receiver {
        copies_at_start: flows_net::body_copies(),
        ..Receiver::default()
    }));
    let ids: Arc<OnceLock<Handlers>> = Arc::new(OnceLock::new());
    let mut mb = MachineBuilder::new(world.num_pes())
        .net_model(NetModel::zero())
        .multiproc(world.clone());
    // Each handler looks its peers' ids up when it runs; all six exist by
    // then. Registration order is the wire contract between the processes.
    macro_rules! handler {
        ($state:ident, $f:expr) => {{
            let ids = ids.clone();
            let state = $state.clone();
            mb.handler(move |pe, msg| {
                let h = *ids.get().expect("handlers registered before run");
                let mut st = state.lock().expect("handler state");
                #[allow(clippy::redundant_closure_call)]
                $f(pe, h, &mut *st, &msg)
            })
        }};
    }
    let h = Handlers {
        ping: handler!(receiver, on_ping),
        pong: handler!(sender, on_pong),
        data: handler!(receiver, on_data),
        ack: handler!(sender, on_ack),
        fin: handler!(receiver, |pe, h, r: &mut Receiver, _m: &Message| on_fin(
            pe, h, r
        )),
        report: handler!(sender, |_pe, _h, s: &mut Sender, m: &Message| {
            s.report = ChildReport::from_bytes(m.data.as_slice());
        }),
    };
    ids.set(h).ok().expect("handlers set once");
    mb.run(move |pe| {
        // PE threads (both processes) on CPU 0, comm threads on CPU 1:
        // with four busy threads on two CPUs the unpinned machine flips
        // between a streaming and a park-per-message regime at random,
        // and no window length makes that steady (see README.md).
        crate::host::pin_tasks_once_named(COMM_THREAD, |name| usize::from(name == COMM_THREAD));
        if pe.id() == 0 {
            let mut s = sender.lock().expect("sender state");
            start_phase(pe, h, &mut s, Phase::Warm);
        }
    })
}

/// Entry of the re-executed child process: join the leader's world, serve
/// until it goes quiet, exit.
pub fn child_main() {
    let world = flows_net::attach_from_env().expect("child attach");
    run_machine(&world, Arc::new(Mutex::new(Sender::new(0.0, 0))));
}

impl Sender {
    /// A sender that will drive for `seconds`; 0 for the child, which only
    /// answers and so builds no bodies.
    fn new(seconds: f64, seed: u64) -> Sender {
        let mut rng = Rng::fork(seed, 200);
        let mut bodies = |len: usize| -> Vec<Payload> {
            (0..ROTATION)
                .map(|seq| Payload::from_vec(make_body(len, seq, &mut rng)))
                .collect()
        };
        let (small, bulk) = if seconds > 0.0 {
            (bodies(SMALL), bodies(BULK))
        } else {
            (Vec::new(), Vec::new())
        };
        Sender {
            phase: Phase::Warm,
            seconds,
            phase_end: 0,
            pings: 0,
            sent: 0,
            acked: 0,
            ping_body: make_body(SMALL, 0, &mut rng),
            small,
            bulk,
            warm_done_ns: 0,
            rtt_ns: Vec::with_capacity(1 << 20),
            oneway_ns: Vec::with_capacity(1 << 21),
            bad_pongs: 0,
            stream_marks: Vec::with_capacity(1 << 20),
            bulk_marks: Vec::with_capacity(1 << 18),
            sent_small: 0,
            sent_bulk: 0,
            cpu0: 0.0,
            cpu_s: 0.0,
            copies_at_start: flows_net::body_copies(),
            copies_before_bulk: 0,
            report: None,
        }
    }
}

static SESSION: AtomicU64 = AtomicU64::new(0);

/// A session directory inside the checkout (relative, so Unix-socket
/// paths stay short), removed by [`launch_and_run`] when the world ends.
pub fn session_dir() -> PathBuf {
    PathBuf::from(format!(
        "benchmark/out/session-{}-{}",
        std::process::id(),
        SESSION.fetch_add(1, Ordering::Relaxed)
    ))
}

/// Bring a 2×1 world up, run one sender through its phases, tear it down.
/// Returns the finished sender, the bring-up start and shutdown times.
fn launch_and_run(sender: Sender) -> (Sender, u64, f64, f64, u64) {
    let dir = session_dir();
    let t0 = monotonic_ns();
    let world = TopologySpec::new(2, 1)
        .backend(Backend::Shm)
        .child_args([CHILD_ARG])
        .session_dir(dir.clone())
        .launch()
        .unwrap_or_else(|e| panic!("launch shm world: {e}"));
    let up_ms = (monotonic_ns() - t0) as f64 / 1e6;
    let sender = Arc::new(Mutex::new(sender));
    let report = run_machine(&world, sender.clone());
    let syscalls = report.syscalls.iter().map(|c| c.total()).sum();
    crate::host::unpin_tasks();
    let t1 = monotonic_ns();
    let clean = world.shutdown();
    let down_ms = (monotonic_ns() - t1) as f64 / 1e6;
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = clean {
        panic!("xproc child did not exit cleanly: {e}");
    }
    drop(world);
    let sender = Arc::try_unwrap(sender)
        .ok()
        .expect("machine gone, state unshared")
        .into_inner()
        .expect("sender state");
    (sender, t0, up_ms, down_ms, syscalls)
}

pub fn run(leg: Leg) -> Outcome {
    let mut out = Outcome::default();
    // Every world is measured, each for its share of the seconds, so that
    // each phase is sampled all along the run and not in one stretch of it.
    let reps = leg.setups.max(1);
    let windows = WINDOWS.div_ceil(reps);
    let (mut ups, mut downs, mut syscalls) = (Vec::new(), Vec::new(), 0u64);
    let (mut rtt_us, mut oneway_us) = (Vec::new(), Vec::new());
    let mut copies = 0u64;
    for _ in 0..reps {
        let (s, t0, up_ms, down_ms, sc) =
            launch_and_run(Sender::new(leg.seconds / reps as f64, leg.seed));
        syscalls += sc;
        out.setup_s
            .push(s.warm_done_ns.saturating_sub(t0) as f64 / 1e9);
        ups.push(up_ms);
        downs.push(down_ms);

        out.ops_per_s
            .push_setup(rates_from_marks(&s.stream_marks, windows, 1.0));
        out.mb_per_s.push_setup(rates_from_marks(
            &s.bulk_marks,
            windows,
            BULK as f64 / (1 << 20) as f64,
        ));
        let world_rtt: Vec<f64> = s.rtt_ns.iter().map(|&v| v as f64 / 1e3).collect();
        out.lat_p50_us
            .push_setup(stats::windowed(&world_rtt, windows, stats::median));
        rtt_us.extend(world_rtt);
        oneway_us.extend(s.oneway_ns.iter().map(|&v| v as f64 / 1e3));
        out.ops += s.sent_small;

        // Verification: the child saw every body, in order, intact; the
        // small phases staged no copies on either side.
        let sent = s.pings + s.sent_small + s.sent_bulk;
        out.attempted += sent;
        let Some(r) = s.report else {
            out.fail(sent, "the child never reported".into());
            continue;
        };
        out.cpu_s += s.cpu_s + r.cpu_ms as f64 / 1e3 * STREAM_SHARE;
        out.child_rss_mb = out.child_rss_mb.max(r.peak_rss_kib as f64 / 1024.0);
        if r.bad + s.bad_pongs > 0 {
            out.fail(
                r.bad + s.bad_pongs,
                format!(
                    "{} bodies failed their checksum or order",
                    r.bad + s.bad_pongs
                ),
            );
        }
        let (want_small, want_bulk) = (s.pings + s.sent_small, s.sent_bulk);
        if r.received_small != want_small || r.received_bulk != want_bulk {
            out.fail(
                r.received_small.abs_diff(want_small) + r.received_bulk.abs_diff(want_bulk),
                format!(
                    "delivery ledger: child got {}+{} bodies, leader sent {want_small}+{want_bulk}",
                    r.received_small, r.received_bulk
                ),
            );
        }
        copies += r.small_phase_copies + s.copies_before_bulk - s.copies_at_start;
    }
    if copies > 0 {
        out.fail(
            copies,
            format!("{copies} body copies staged on the <=4 KiB phases"),
        );
    }
    out.extra1("net.body_copies", "count", copies as f64);

    out.extra("msg_per_s", "1/s", out.ops_per_s.summary());
    out.extra("rtt_p50_us", "us", out.lat_p50_us.summary());
    // The leader PE's own syscalls (doorbell wakes, parks) per body sent;
    // the comm threads' are not visible from here.
    out.extra1(
        "sys.syscalls_per_op",
        "count",
        syscalls as f64 / out.attempted.max(1) as f64,
    );
    out.extra1("core.switches_per_op", "count", 0.0);
    out.extra1("net.world_up_ms", "ms", stats::median(&ups));
    out.extra1("net.world_down_ms", "ms", stats::median(&downs));
    if !rtt_us.is_empty() {
        let sorted = stats::sorted(rtt_us);
        out.extra1(
            "converse.xproc_hop_ns",
            "ns",
            stats::percentile(&sorted, 50.0) * 1e3 / 2.0,
        );
        out.extra1(
            "converse.rtt_p99_us",
            "us",
            stats::tail(&sorted).unwrap_or(0.0),
        );
        let oneway = stats::sorted(oneway_us);
        out.extra1(
            "converse.oneway_p50_us",
            "us",
            stats::percentile(&oneway, 50.0),
        );
        out.extra1(
            "converse.oneway_p99_us",
            "us",
            stats::tail(&oneway).unwrap_or(0.0),
        );
    }
    out
}
