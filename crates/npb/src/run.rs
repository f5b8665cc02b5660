//! Running a multi-zone benchmark on AMPI, with optional thread-migration
//! load balancing — the Figure 12 experiment.

use crate::solver::ZoneGrid;
use crate::zones::{rank_of_zone, zone_layout, MzBench, MzClass, Zone};
use flows_ampi::{run_world, AmpiOptions, FtReport};
use flows_converse::{FaultPlan, FaultSummary, NetModel};
use flows_lb::LbStrategy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Configuration of one BT-MZ/SP-MZ run.
#[derive(Clone)]
pub struct MzConfig {
    /// Zone-size distribution.
    pub bench: MzBench,
    /// Problem class.
    pub class: MzClass,
    /// Number of AMPI ranks (the benchmark's NPROCS).
    pub nprocs: usize,
    /// Number of PEs.
    pub pes: usize,
    /// Outer iterations.
    pub iterations: usize,
    /// Jacobi sweeps per iteration (work multiplier).
    pub sweeps: usize,
    /// Load balancer (None = the "without LB" arm).
    pub lb: Option<Arc<dyn LbStrategy + Send + Sync>>,
    /// Invoke `migrate()` once, after this iteration (1-based). The NPB-MZ
    /// imbalance is static, so one early LB epoch is the paper's regime;
    /// repeated epochs only exercise churn.
    pub lb_at: usize,
    /// Threaded drive mode.
    pub threaded: bool,
    /// Fault plan: reliable transport, and with
    /// [`FaultPlan::online_recovery`] PE crashes healed in place (the run
    /// then uses the modeled clock).
    pub faults: Option<FaultPlan>,
    /// Coordinated checkpoint every N iterations (0 = never).
    pub checkpoint_every: usize,
}

impl MzConfig {
    /// A configuration in the paper's "A.8,4PE" notation.
    pub fn new(bench: MzBench, class: MzClass, nprocs: usize, pes: usize) -> MzConfig {
        MzConfig {
            bench,
            class,
            nprocs,
            pes,
            iterations: 16,
            sweeps: 40,
            lb: None,
            lb_at: 3,
            threaded: false,
            faults: None,
            checkpoint_every: 0,
        }
    }

    /// Attach a load balancer.
    pub fn with_lb(mut self, lb: Arc<dyn LbStrategy + Send + Sync>) -> Self {
        self.lb = Some(lb);
        self
    }

    /// Attach a fault plan and checkpoint every `every` iterations.
    pub fn with_faults(mut self, plan: FaultPlan, every: usize) -> Self {
        self.faults = Some(plan);
        self.checkpoint_every = every;
        self
    }

    /// The paper's x-axis label, e.g. `A.8,4PE`.
    pub fn label(&self) -> String {
        format!(
            "{:?}.{},{}PE",
            self.class, self.nprocs, self.pes
        )
        .replace("MzClass::", "")
    }
}

/// Results of one run.
#[derive(Debug, Clone)]
pub struct MzReport {
    /// `A.8,4PE`-style label.
    pub label: String,
    /// Modeled parallel execution time, seconds: max over PEs of *busy*
    /// virtual time. BT-MZ's per-iteration work is static, so for this
    /// bulk-synchronous pattern `sum_k max_i work_i(k) = max_i busy_i`;
    /// using busy time keeps the model insensitive to simulation-transport
    /// artifacts (see DESIGN.md §2 and flows-converse on virtual time).
    pub modeled_time_s: f64,
    /// Critical-path virtual time (max PE vtime incl. arrival waits).
    pub critical_path_s: f64,
    /// Host wall time, seconds.
    pub wall_s: f64,
    /// Global checksum (must be identical with and without LB).
    pub checksum: f64,
    /// Rank migrations executed.
    pub migrations: u64,
    /// Per-PE virtual times (seconds) — the balance picture.
    pub pe_vtimes_s: Vec<f64>,
    /// Per-PE busy times (seconds): work only, no waits.
    pub pe_busy_s: Vec<f64>,
    /// Per-PE solver work: zone cells times sweeps, summed over every
    /// iteration the sweeping rank spent on that PE. Unlike the measured
    /// busy times it is exact for a given placement (replayed iterations
    /// after a crash count again).
    pub pe_cells: Vec<u64>,
    /// Recovery rounds that restarted every rank from scratch on the
    /// surviving PEs (0 without crashes).
    pub restarts: usize,
    /// PEs that crashed and were healed around.
    pub dead_pes: Vec<usize>,
    /// Logical messages sent.
    pub messages: u64,
    /// Fault/recovery counters (present iff a plan was attached).
    pub faults: Option<FaultSummary>,
}

/// Run the benchmark.
pub fn run(cfg: &MzConfig) -> MzReport {
    let zones = Arc::new(zone_layout(cfg.bench, cfg.class));
    assert!(
        cfg.nprocs <= zones.len(),
        "{} ranks but only {} zones",
        cfg.nprocs,
        zones.len()
    );
    let checksum = Arc::new(Mutex::new(0.0f64));
    let checksum2 = checksum.clone();
    let pe_cells: Arc<Vec<AtomicU64>> =
        Arc::new((0..cfg.pes).map(|_| AtomicU64::new(0)).collect());
    let pe_cells2 = pe_cells.clone();
    let zones2 = zones.clone();
    let cfg2 = cfg.clone();

    // The mesh (and hence per-iteration compute) is scaled ~1000x down
    // from the real NPB classes, so the interconnect model is scaled the
    // same way; otherwise message latency would dwarf compute and no
    // placement could matter (see DESIGN.md §2).
    let net = NetModel {
        latency_ns: 500,
        ns_per_byte: 0.2,
    };
    let mut opts = AmpiOptions::new(cfg.nprocs, cfg.pes)
        .with_net(net)
        .threaded(cfg.threaded);
    if let Some(lb) = &cfg.lb {
        opts = opts.with_strategy(lb.clone());
    }
    if let Some(plan) = &cfg.faults {
        // Online recovery replays survivors deterministically from the
        // rolled-back cut; that only reproduces the fault-free execution
        // under the modeled clock.
        opts = opts.with_faults(plan.clone()).modeled_time(plan.recovers());
    }

    let ft = FtReport::from(run_world(opts, move |ampi: &mut flows_ampi::Ampi| {
        rank_main(ampi, &cfg2, &zones2, &checksum2, &pe_cells2);
    }));
    let report = &ft.report;
    let checksum = *checksum.lock().unwrap();
    MzReport {
        label: cfg.label(),
        modeled_time_s: report.pe_busy.iter().copied().max().unwrap_or(0) as f64 * 1e-9,
        critical_path_s: report.parallel_time_ns() as f64 * 1e-9,
        wall_s: report.wall_ns as f64 * 1e-9,
        checksum,
        migrations: report.sched_stats.iter().map(|s| s.migrations_in).sum(),
        pe_vtimes_s: report.pe_vtimes.iter().map(|&v| v as f64 * 1e-9).collect(),
        pe_busy_s: report.pe_busy.iter().map(|&v| v as f64 * 1e-9).collect(),
        pe_cells: pe_cells.iter().map(|c| c.load(Ordering::Relaxed)).collect(),
        restarts: ft.restarts,
        dead_pes: ft.crashed_pes.clone(),
        messages: report.messages,
        faults: report.faults,
    }
}

/// Direction of a ghost exchange, from the receiver's point of view.
#[derive(Clone, Copy)]
enum Side {
    West,
    East,
    South,
    North,
}

/// The neighbor zone in a given direction, if any.
fn neighbor(zones: &[Zone], z: &Zone, side: Side) -> Option<usize> {
    let (gx_max, gy_max) = zones.iter().fold((0, 0), |(mx, my), q| {
        (mx.max(q.gx), my.max(q.gy))
    });
    let (ni, nj) = match side {
        Side::West if z.gx > 0 => (z.gx - 1, z.gy),
        Side::East if z.gx < gx_max => (z.gx + 1, z.gy),
        Side::South if z.gy > 0 => (z.gx, z.gy - 1),
        Side::North if z.gy < gy_max => (z.gx, z.gy + 1),
        _ => return None,
    };
    zones.iter().position(|q| q.gx == ni && q.gy == nj)
}

fn pack_f64(vals: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(vals.len() * 8);
    for v in vals {
        out.extend(v.to_le_bytes());
    }
    out
}

fn unpack_f64(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("8-byte chunk")))
        .collect()
}

fn rank_main(
    ampi: &mut flows_ampi::Ampi,
    cfg: &MzConfig,
    zones: &Arc<Vec<Zone>>,
    checksum: &Arc<Mutex<f64>>,
    pe_cells: &[AtomicU64],
) {
    let nz = zones.len();
    let me = ampi.rank();
    let my_zones: Vec<Zone> = zones
        .iter()
        .filter(|z| rank_of_zone(z.id, nz, ampi.size()) == me)
        .cloned()
        .collect();
    let mut grids: Vec<ZoneGrid> = my_zones
        .iter()
        .map(|z| ZoneGrid::new(z.id, z.nx, z.ny))
        .collect();

    let tag = |from: usize, to: usize| (from * nz + to) as u64;

    for iter in 0..cfg.iterations {
        // Phase 1: everyone ships the edge data its neighbours need.
        for (z, g) in my_zones.iter().zip(grids.iter()) {
            for side in [Side::West, Side::East, Side::South, Side::North] {
                if let Some(n) = neighbor(zones, z, side) {
                    // Our edge nearest that neighbour:
                    let edge = match side {
                        Side::West => g.edge_column(false),
                        Side::East => g.edge_column(true),
                        Side::South => g.edge_row(false),
                        Side::North => g.edge_row(true),
                    };
                    let owner = rank_of_zone(n, nz, ampi.size());
                    ampi.send(owner, tag(z.id, n), pack_f64(&edge));
                }
            }
        }
        // Phase 2: install the ghosts we expect.
        for (z, g) in my_zones.iter().zip(grids.iter_mut()) {
            for side in [Side::West, Side::East, Side::South, Side::North] {
                if let Some(n) = neighbor(zones, z, side) {
                    let (_src, _t, bytes) = ampi.recv(None, Some(tag(n, z.id)));
                    let vals = unpack_f64(&bytes);
                    match side {
                        Side::West => g.set_ghost_column(false, &vals),
                        Side::East => g.set_ghost_column(true, &vals),
                        Side::South => g.set_ghost_row(false, &vals),
                        Side::North => g.set_ghost_row(true, &vals),
                    }
                }
            }
        }
        // Phase 3: solve — the real, area-proportional work.
        for g in grids.iter_mut() {
            for _ in 0..cfg.sweeps {
                std::hint::black_box(g.sweep());
            }
            pe_cells[ampi.current_pe()]
                .fetch_add((g.nx * g.ny * cfg.sweeps) as u64, Ordering::Relaxed);
        }
        // Phase 4: the load-balancing point.
        if cfg.lb.is_some() && iter + 1 == cfg.lb_at {
            ampi.migrate();
        }
        // Phase 5: coordinated checkpoint. The iteration boundary is a
        // matched communication boundary — every ghost sent this iteration
        // was consumed by a recv above before any rank can pass the
        // checkpoint collective.
        if cfg.checkpoint_every > 0 && (iter + 1) % cfg.checkpoint_every == 0 {
            ampi.checkpoint();
        }
    }

    // Validation: global checksum over all zones.
    let local: f64 = grids.iter().map(ZoneGrid::interior_sum).sum();
    let global = ampi.allreduce_f64(&[local], flows_comm::ReduceOp::SumF64);
    if me == 0 {
        *checksum.lock().unwrap() = global[0];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flows_lb::{GreedyLb, RotateLb};

    fn base(nprocs: usize, pes: usize) -> MzConfig {
        let mut c = MzConfig::new(MzBench::BtMz, MzClass::S, nprocs, pes);
        c.iterations = 4;
        c
    }

    #[test]
    fn runs_and_labels() {
        let r = run(&base(4, 2));
        assert_eq!(r.label, "S.4,2PE");
        assert!(r.checksum.is_finite() && r.checksum != 0.0);
        assert_eq!(r.migrations, 0);
        assert!(r.modeled_time_s > 0.0);
    }

    #[test]
    fn checksum_is_invariant_under_migration() {
        // The strongest correctness statement in the repo: migrating rank
        // threads mid-run must not change the numerical answer.
        let plain = run(&base(4, 2));
        let rotated = run(&base(4, 2).with_lb(Arc::new(RotateLb)));
        let greedy = run(&base(4, 2).with_lb(Arc::new(GreedyLb)));
        assert_eq!(plain.checksum, rotated.checksum);
        assert_eq!(plain.checksum, greedy.checksum);
        assert!(rotated.migrations > 0, "RotateLB must actually migrate");
    }

    #[test]
    fn faulty_run_recovers_and_matches_fault_free_checksum() {
        // Lossy links plus a PE death must yield the exact fault-free
        // answer, finished on the one surviving PE. The crash lands on the
        // modeled clock (500 ns per hop here, compute uncharged) inside
        // the first ghost exchange, before any
        // generation commits: BT-MZ keeps its grids on the process heap,
        // outside the rank image, so a rollback to a committed generation
        // would resume with grids already advanced. Before the first
        // commit, recovery restarts every rank from scratch instead.
        let clean = run(&base(4, 2));
        let plan = FaultPlan::new(0xBDF)
            .online_recovery(1)
            .drop_prob(0.02)
            .dup_prob(0.02)
            .crash_pe(1, 1_000);
        let faulty = run(&base(4, 2).with_faults(plan, 1));
        assert_eq!(
            clean.checksum, faulty.checksum,
            "recovery must not change the numerical answer"
        );
        assert_eq!(faulty.restarts, 1, "no generation survived: restart from scratch");
        assert_eq!(faulty.dead_pes, vec![1]);
        let f = faulty.faults.expect("fault counters present");
        assert!(f.retransmits >= f.dropped, "every drop was repaired");
    }

    #[test]
    fn single_rank_per_zone_works() {
        // nprocs == zones: every rank owns exactly one zone.
        let mut c = MzConfig::new(MzBench::SpMz, MzClass::S, 4, 2);
        c.iterations = 2;
        let r = run(&c);
        assert!(r.checksum.is_finite());
    }

    #[test]
    #[should_panic(expected = "only")]
    fn more_ranks_than_zones_is_refused() {
        let _ = run(&base(64, 2));
    }
}
