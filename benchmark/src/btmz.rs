//! `btmz` — the paper's application (Figure 12) in wall-clock on real cores.
//!
//! BT-MZ class B (64 zones over a 192² mesh, ≈20× zone-area spread), 32
//! ranks on 2 threaded PEs, `GreedyLb` at iteration 3 and every 10th
//! iteration after. The rank main is the benchmark's own, assembled from
//! `flows_npb::{zone_layout, rank_of_zone, ZoneGrid}` so that it can stamp
//! phases. A run is a train of identical *solves*, each a fresh world of
//! `ITERATIONS` iterations whose global checksum is compared with the
//! committed golden (made by a deterministic run without LB).
//!
//! The mesh is fixed by the class; the seed permutes the order in which
//! each rank visits its zones and their four sides, which reorders the
//! messages but cannot change the answer — so one golden serves all seeds.

use crate::gen::Rng;
use crate::span;
use crate::stats::{self, Summary};
use crate::workload::{Leg, Outcome};
use flows_ampi::{run_world, Ampi, AmpiOptions};
use flows_comm::ReduceOp;
use flows_converse::{MachineReport, NetModel};
use flows_lb::{GreedyLb, LbStats, LbStrategy, Migration};
use flows_npb::{rank_of_zone, zone_layout, MzBench, MzClass, Zone, ZoneGrid};
use flows_sys::time::monotonic_ns;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub const RANKS: usize = 32;
pub const PES: usize = 2;
pub const ITERATIONS: usize = 113;
/// Jacobi sweeps per zone per iteration: sized so that compute is 60–85 %
/// of a PE's time (`npb.solve_share`) and the runtime the rest.
pub const SWEEPS: usize = 24;
const LB_FIRST: usize = 3;
const LB_EVERY: usize = 10;
/// LB epochs in one solve.
pub const EPOCHS: usize = (ITERATIONS - LB_FIRST) / LB_EVERY + 1;

const GOLDEN: &str = include_str!("../golden/btmz.txt");

fn is_lb_iteration(iter: usize) -> bool {
    iter + 1 >= LB_FIRST && (iter + 1 - LB_FIRST).is_multiple_of(LB_EVERY)
}

/// The committed answer: the global checksum, and how many messages a
/// solve takes when nothing ever migrates.
#[derive(Debug, Clone, Copy)]
pub struct Golden {
    pub checksum: f64,
    pub messages: u64,
}

impl Golden {
    pub fn parse(text: &str) -> Option<Golden> {
        let field = |key: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .map(|v| v.trim().to_string())
        };
        Some(Golden {
            checksum: f64::from_bits(
                u64::from_str_radix(field("checksum_bits ")?.trim_start_matches("0x"), 16).ok()?,
            ),
            messages: field("messages ")?.parse().ok()?,
        })
    }

    pub fn render(&self) -> String {
        format!(
            "# BT-MZ class B, {RANKS} ranks, {ITERATIONS} iterations x {SWEEPS} sweeps, no LB, deterministic drive.\n\
             # Regenerate with `flowsbench golden btmz`.\n\
             checksum_bits {:#018x}\nchecksum {:e}\nmessages {}\n",
            self.checksum.to_bits(),
            self.checksum,
            self.messages
        )
    }
}

#[derive(Clone, Copy)]
enum Side {
    West,
    East,
    South,
    North,
}

const SIDES: [Side; 4] = [Side::West, Side::East, Side::South, Side::North];

/// Neighbour zone ids of every zone, per side (`usize::MAX` = mesh edge).
fn neighbours(zones: &[Zone]) -> Vec<[usize; 4]> {
    let at = |gx: usize, gy: usize| zones.iter().position(|q| q.gx == gx && q.gy == gy);
    zones
        .iter()
        .map(|z| {
            let n = |side| match side {
                Side::West if z.gx > 0 => at(z.gx - 1, z.gy),
                Side::East => at(z.gx + 1, z.gy),
                Side::South if z.gy > 0 => at(z.gx, z.gy - 1),
                Side::North => at(z.gx, z.gy + 1),
                _ => None,
            };
            SIDES.map(|s| n(s).unwrap_or(usize::MAX))
        })
        .collect()
}

fn pack_f64(vals: &[f64]) -> Vec<u8> {
    vals.iter().flat_map(|v| v.to_le_bytes()).collect()
}

fn unpack_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

/// `GreedyLb`, observed from outside: how long a plan takes and what it
/// does to the imbalance.
#[derive(Default)]
struct ProbedGreedy {
    plans: Mutex<Vec<Plan>>,
}

#[derive(Debug, Clone, Copy)]
struct Plan {
    plan_us: f64,
    before: f64,
    after: f64,
    moves: usize,
}

impl LbStrategy for ProbedGreedy {
    fn name(&self) -> &'static str {
        "greedy(probed)"
    }

    fn decide(&self, stats: &LbStats) -> Vec<Migration> {
        let t0 = monotonic_ns();
        let migs = GreedyLb.decide(stats);
        let plan_us = (monotonic_ns() - t0) as f64 / 1e3;
        let after = stats.loads_after(&migs);
        let avg = after.iter().sum::<f64>() / after.len().max(1) as f64;
        let peak = after.iter().cloned().fold(0.0, f64::max);
        self.plans.lock().expect("plans").push(Plan {
            plan_us,
            before: stats.imbalance(),
            after: if avg > 0.0 { peak / avg } else { 1.0 },
            moves: migs.len(),
        });
        migs
    }
}

/// Shared by the ranks of one solve.
struct Solve {
    zones: Vec<Zone>,
    neighbours: Vec<[usize; 4]>,
    seed: u64,
    lb: bool,
    checksum: Mutex<f64>,
    first_iter_ns: AtomicU64,
    done_ns: AtomicU64,
    /// Per LB epoch: first rank into `migrate()`, last rank out.
    epoch_in: Vec<AtomicU64>,
    epoch_out: Vec<AtomicU64>,
    ghost_bytes: AtomicU64,
    /// Time ranks spent inside `migrate()`, summed, and how many calls.
    migrate_ns: AtomicU64,
    migrate_calls: AtomicU64,
    pins: crate::host::PePins,
}

fn rank_main(ampi: &mut Ampi, s: &Solve) {
    s.pins.pin(ampi.current_pe());
    let me = ampi.rank();
    let nz = s.zones.len();
    let mut rng = Rng::fork(s.seed, 300 + me as u64);
    // This rank's zones, and the seeded order in which it walks them and
    // their sides.
    let mut mine: Vec<usize> = (0..nz)
        .filter(|&z| rank_of_zone(z, nz, ampi.size()) == me)
        .collect();
    for i in (1..mine.len()).rev() {
        mine.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut sides = [0usize, 1, 2, 3];
    for i in (1..4).rev() {
        sides.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let mut grids: Vec<ZoneGrid> = mine
        .iter()
        .map(|&z| ZoneGrid::new(z, s.zones[z].nx, s.zones[z].ny))
        .collect();
    let tag = |from: usize, to: usize| (from * nz + to) as u64;
    let mut sent_bytes = 0u64;
    let mut epoch = 0usize;

    ampi.barrier();
    s.first_iter_ns.fetch_min(monotonic_ns(), Ordering::Relaxed);
    for iter in 0..ITERATIONS {
        let op = iter as u32;
        // Ship the edges the neighbours need.
        let o = span::begin("npb.exchange", op);
        for (&z, g) in mine.iter().zip(&grids) {
            for &si in &sides {
                let n = s.neighbours[z][si];
                if n == usize::MAX {
                    continue;
                }
                let edge = match SIDES[si] {
                    Side::West => g.edge_column(false),
                    Side::East => g.edge_column(true),
                    Side::South => g.edge_row(false),
                    Side::North => g.edge_row(true),
                };
                let bytes = pack_f64(&edge);
                sent_bytes += bytes.len() as u64;
                ampi.send(rank_of_zone(n, nz, ampi.size()), tag(z, n), bytes);
            }
        }
        span::end(o);
        // Install the ghosts we are owed; `recv` may block, so the wait is
        // a complete span and only the unpacking is scoped.
        for (&z, g) in mine.iter().zip(grids.iter_mut()) {
            for &si in &sides {
                let n = s.neighbours[z][si];
                if n == usize::MAX {
                    continue;
                }
                let w0 = monotonic_ns();
                let (_, _, bytes) = ampi.recv(None, Some(tag(n, z)));
                span::complete("ampi.recv_wait", w0, monotonic_ns(), op);
                let o = span::begin("npb.exchange", op);
                let vals = unpack_f64(&bytes);
                match SIDES[si] {
                    Side::West => g.set_ghost_column(false, &vals),
                    Side::East => g.set_ghost_column(true, &vals),
                    Side::South => g.set_ghost_row(false, &vals),
                    Side::North => g.set_ghost_row(true, &vals),
                }
                span::end(o);
            }
        }
        // Solve: the real, area-proportional work.
        let o = span::begin("npb.sweep", op);
        for g in grids.iter_mut() {
            for _ in 0..SWEEPS {
                std::hint::black_box(g.sweep());
            }
        }
        span::end(o);
        if s.lb && is_lb_iteration(iter) {
            let t_in = monotonic_ns();
            s.epoch_in[epoch].fetch_min(t_in, Ordering::Relaxed);
            ampi.migrate();
            let t_out = monotonic_ns();
            s.epoch_out[epoch].fetch_max(t_out, Ordering::Relaxed);
            span::complete("ampi.migrate", t_in, t_out, op);
            s.migrate_ns.fetch_add(t_out - t_in, Ordering::Relaxed);
            s.migrate_calls.fetch_add(1, Ordering::Relaxed);
            epoch += 1;
        }
    }
    let local: f64 = {
        // Sum zones in id order whatever the walk order was, so the
        // answer's rounding does not depend on the seed.
        let mut by_id: Vec<(usize, f64)> = mine
            .iter()
            .zip(&grids)
            .map(|(&z, g)| (z, g.interior_sum()))
            .collect();
        by_id.sort_by_key(|&(z, _)| z);
        by_id.iter().map(|&(_, v)| v).sum()
    };
    let global = ampi.allreduce_f64(&[local], ReduceOp::SumF64);
    s.done_ns.fetch_max(monotonic_ns(), Ordering::Relaxed);
    s.ghost_bytes.fetch_add(sent_bytes, Ordering::Relaxed);
    if me == 0 {
        *s.checksum.lock().expect("checksum") = global[0];
    }
    span::flush();
}

struct Solved {
    solve: Arc<Solve>,
    report: MachineReport,
    plans: Vec<Plan>,
    /// Wall time of the whole world, bring-up to tear-down.
    wall_s: f64,
}

fn solve_once(seed: u64, lb: bool, threaded: bool, tracing: bool) -> Solved {
    let zones = zone_layout(MzBench::BtMz, MzClass::B);
    let solve = Arc::new(Solve {
        neighbours: neighbours(&zones),
        zones,
        seed,
        lb,
        checksum: Mutex::new(0.0),
        first_iter_ns: AtomicU64::new(u64::MAX),
        done_ns: AtomicU64::new(0),
        epoch_in: (0..EPOCHS).map(|_| AtomicU64::new(u64::MAX)).collect(),
        epoch_out: (0..EPOCHS).map(|_| AtomicU64::new(0)).collect(),
        ghost_bytes: AtomicU64::new(0),
        migrate_ns: AtomicU64::new(0),
        migrate_calls: AtomicU64::new(0),
        pins: Default::default(),
    });
    let probe = Arc::new(ProbedGreedy::default());
    let mut opts = AmpiOptions::new(RANKS, PES)
        .with_net(NetModel::zero())
        .threaded(threaded)
        .tracing(tracing);
    if lb {
        opts = opts.with_strategy(probe.clone());
    }
    let s = solve.clone();
    let t0 = monotonic_ns();
    let report = run_world(opts, move |ampi| rank_main(ampi, &s));
    let wall_s = (monotonic_ns() - t0) as f64 / 1e9;
    let plans = probe.plans.lock().expect("plans").clone();
    Solved {
        solve,
        report,
        plans,
        wall_s,
    }
}

/// The golden run: no LB, deterministic drive.
pub fn make_golden() -> Golden {
    let s = solve_once(0, false, false, false);
    let checksum = *s.solve.checksum.lock().expect("checksum");
    Golden {
        checksum,
        messages: s.report.messages,
    }
}

pub fn run(leg: Leg) -> Outcome {
    let golden = Golden::parse(GOLDEN).expect("golden/btmz.txt is malformed");
    let mut out = Outcome::default();
    // Set-up is one whole warm solve — world up, every rank's zones
    // allocated and faulted in, LB protocol exercised, world down — timed
    // `setups` times. (Bring-up alone is under a millisecond, too short to
    // carry a relative bound.)
    for rep in 0..leg.setups.max(1) {
        out.setup_s
            .push(solve_once(leg.seed ^ rep as u64, true, true, false).wall_s);
    }

    let traced = span::enabled();
    let start = monotonic_ns();
    let cpu0 = crate::host::cpu_seconds();
    let mut solve_s = Vec::new();
    let mut epoch_ms = Vec::new();
    let mut plans = Vec::new();
    let (mut migrations, mut messages) = (0u64, 0u64);
    let (mut migrate_ns, mut migrate_calls, mut switches, mut syscalls) = (0u64, 0u64, 0u64, 0u64);
    let mut image_bytes = Vec::new();
    let batches0 = flows_ampi::lb_batch_messages();
    let mut n = 0u64;
    while (monotonic_ns() - start) as f64 / 1e9 < leg.seconds || n == 0 {
        let s = solve_once(leg.seed.wrapping_add(n), true, true, traced);
        n += 1;
        let v = &s.solve;
        let wall = v
            .done_ns
            .load(Ordering::Relaxed)
            .saturating_sub(v.first_iter_ns.load(Ordering::Relaxed));
        solve_s.push(wall as f64 / 1e9);
        // Every solve is a world of its own, hence a set-up of one window
        // (its LB epochs are the latency windows).
        out.ops_per_s
            .push_setup(vec![ITERATIONS as f64 / (wall as f64 / 1e9)]);
        let bytes = v.ghost_bytes.load(Ordering::Relaxed);
        out.mb_per_s
            .push_setup(vec![bytes as f64 / (1 << 20) as f64 / (wall as f64 / 1e9)]);
        let epochs: Vec<f64> = v
            .epoch_in
            .iter()
            .zip(&v.epoch_out)
            .map(|(i, o)| (i.load(Ordering::Relaxed), o.load(Ordering::Relaxed)))
            .filter(|(i, o)| o > i)
            .map(|(i, o)| (o - i) as f64 / 1e6)
            .collect();
        out.lat_p50_us
            .push_setup(epochs.iter().map(|ms| ms * 1e3).collect());
        epoch_ms.extend(epochs);
        // Verification: the golden checksum, to rounding in the reduction.
        out.attempted += 1;
        let got = *v.checksum.lock().expect("checksum");
        let off = (got - golden.checksum).abs();
        // Written so that a NaN checksum fails too.
        if off.is_nan() || off > 1e-12 * golden.checksum.abs() {
            out.fail(
                1,
                format!(
                    "solve {n}: checksum {got:e} != golden {:e}",
                    golden.checksum
                ),
            );
        }
        let stranded: usize = s.report.stranded_threads.iter().sum();
        if stranded > 0 {
            out.fail(1, format!("solve {n}: {stranded} ranks stranded"));
        }
        migrations += s
            .report
            .sched_stats
            .iter()
            .map(|x| x.migrations_in)
            .sum::<u64>();
        switches += s.report.sched_stats.iter().map(|x| x.switches).sum::<u64>();
        syscalls += s.report.syscalls.iter().map(|x| x.total()).sum::<u64>();
        messages += s.report.messages;
        migrate_ns += v.migrate_ns.load(Ordering::Relaxed);
        migrate_calls += v.migrate_calls.load(Ordering::Relaxed);
        if let Some(t) = &s.report.trace {
            image_bytes.extend(
                t.migrations
                    .iter()
                    .filter(|m| m.packed)
                    .map(|m| m.bytes as f64),
            );
        }
        plans.extend(s.plans);
    }
    out.cpu_s = crate::host::cpu_seconds() - cpu0;
    out.ops = n * ITERATIONS as u64;

    out.extra("solve_s", "s", Summary::of(&solve_s));
    out.extra("lb_epoch_ms", "ms", Summary::of(&epoch_ms));
    out.extra1("ampi.migrations", "count", migrations as f64 / n as f64);
    out.extra1(
        "ampi.lb_batch_messages",
        "count",
        (flows_ampi::lb_batch_messages() - batches0) as f64 / n as f64,
    );
    out.extra1(
        "ampi.migrate_call_ms",
        "ms",
        migrate_ns as f64 / 1e6 / migrate_calls.max(1) as f64,
    );
    if !image_bytes.is_empty() {
        out.extra1("ampi.image_bytes", "B", stats::median(&image_bytes));
    }
    let base = golden.messages as f64 * n as f64;
    out.extra1(
        "comm.forwarded_ratio",
        "ratio",
        (messages as f64 - base).max(0.0) / base,
    );
    out.extra1(
        "core.switches_per_op",
        "count",
        switches as f64 / out.ops as f64,
    );
    out.extra1(
        "sys.syscalls_per_op",
        "count",
        syscalls as f64 / out.ops as f64,
    );
    if !plans.is_empty() {
        let col = |f: fn(&Plan) -> f64| stats::median(&plans.iter().map(f).collect::<Vec<_>>());
        out.extra1("lb.btmz_plan_us", "us", col(|p| p.plan_us));
        out.extra1("lb.imbalance_before", "ratio", col(|p| p.before));
        out.extra1("lb.imbalance_after", "ratio", col(|p| p.after));
        out.extra1("lb.moves_per_epoch", "count", col(|p| p.moves as f64));
    }
    out
}
