//! # flows-bigsim — simulating a huge machine with user-level threads
//!
//! A reproduction of the BigSim experiment (paper §4.4, refs \[43\]\[44\]):
//! predicting the per-timestep behaviour of a molecular-dynamics run on a
//! machine with hundreds of thousands of processors, using only a handful
//! of real ("simulating") PEs. Each *target processor* is one user-level
//! thread — the paper simulates 200 000 target processors as 200 000
//! Converse threads, far beyond what processes or kernel threads allow
//! (Table 2) — and that is the entire point of the experiment.
//!
//! The MD-like workload: every target processor owns a patch of particles
//! and, per timestep, runs a short-range force kernel over them (real
//! floating-point work), publishes a summary that its ring neighbours
//! read (cross-thread data flow), and joins a step barrier implemented
//! with cooperative yields.
//!
//! Figure 11 plots simulation time per step against the number of
//! simulating processors. On this 1-core host the *modeled* per-step time
//! (max over PEs of per-step busy time) carries the scaling shape; wall
//! time is also reported.

#![warn(missing_docs)]

use flows_converse::{FaultPlan, FaultSummary, MachineBuilder, NetModel};
use flows_core::{yield_now, StackFlavor};
use flows_sys::time::monotonic_ns;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Model of the *target* machine being predicted (BigSim's raison
/// d'être: forecasting a petascale machine from a small one, §4.4).
#[derive(Debug, Clone, Copy)]
pub struct TargetModel {
    /// Target processor speed relative to the simulating host (e.g. 0.25 =
    /// each target CPU runs the kernel 4x slower than this host).
    pub cpu_ratio: f64,
    /// Per-message latency of the target interconnect, nanoseconds.
    pub net_latency_ns: u64,
}

impl Default for TargetModel {
    fn default() -> Self {
        // A Blue-Gene-like target: slow simple cores, fast torus.
        TargetModel {
            cpu_ratio: 0.25,
            net_latency_ns: 3_000,
        }
    }
}

/// Configuration of one BigSim run.
#[derive(Debug, Clone)]
pub struct BigSimConfig {
    /// Number of simulated target processors (= user-level threads).
    pub target_procs: usize,
    /// Number of simulating PEs.
    pub sim_pes: usize,
    /// Timesteps to simulate.
    pub steps: usize,
    /// Particles per target processor (work scale of the MD kernel).
    pub particles_per_proc: usize,
    /// Thread stack bytes (the paper's Cth threads are small).
    pub stack_bytes: usize,
    /// Drive PEs on OS threads (`false` = deterministic).
    pub threaded: bool,
    /// The target machine being predicted.
    pub target: TargetModel,
    /// Transport fault plan (drop/duplicate/delay/reorder). BigSim's
    /// target threads use `StackFlavor::Standard` stacks, which cannot be
    /// packed, so PE crashes are *not* recoverable here — the plan must
    /// not script any (`run` asserts this). Lossy links are survived by
    /// the reliable transport.
    pub faults: Option<FaultPlan>,
    /// Record a Projections-style event trace (including per-step
    /// virtual-time marks) into per-PE rings; the summary rides in
    /// [`BigSimReport::trace`].
    pub tracing: bool,
}

impl BigSimConfig {
    /// A laptop-scale default: 2 000 target processors on 2 PEs.
    pub fn small() -> BigSimConfig {
        BigSimConfig {
            target_procs: 2_000,
            sim_pes: 2,
            steps: 3,
            particles_per_proc: 16,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel::default(),
            faults: None,
            tracing: false,
        }
    }
}

/// Results of a BigSim run.
#[derive(Debug, Clone)]
pub struct BigSimReport {
    /// Echo of the configuration.
    pub target_procs: usize,
    /// Echo of the configuration.
    pub sim_pes: usize,
    /// Steps simulated.
    pub steps: usize,
    /// Wall-clock nanoseconds for the whole run (host time).
    pub wall_ns: u64,
    /// Wall-clock nanoseconds per step as observed by target processor 0.
    pub per_step_wall_ns: Vec<u64>,
    /// Modeled parallel time per step: `max_pe(vtime) / steps`.
    pub modeled_step_ns: u64,
    /// Total context switches performed by the simulators.
    pub switches: u64,
    /// A deterministic checksum of the final particle state (validates
    /// that different PE counts compute the same simulation).
    pub checksum: u64,
    /// BigSim's actual product: the predicted per-step execution time of
    /// the *target* machine (max over target processors of kernel time /
    /// cpu_ratio, plus one ghost-exchange latency), nanoseconds.
    pub predicted_target_step_ns: u64,
    /// Per-step progress tokens received machine-wide. Target processor 0
    /// sends a burst to every PE each step; with a lossy plan the reliable
    /// transport must still deliver each exactly once, so this equals
    /// `steps * sim_pes * TOKENS_PER_STEP` whatever the fault rate.
    pub step_tokens: u64,
    /// Fault/recovery counters (present iff a plan was attached).
    pub faults: Option<FaultSummary>,
    /// Trace summary (present iff `cfg.tracing`).
    pub trace: Option<flows_converse::TraceSummary>,
}

/// Cross-PE progress tokens sent per (step, destination PE) — enough
/// traffic that even low-probability transport faults get exercised.
pub const TOKENS_PER_STEP: u64 = 4;

/// A cooperative step barrier for user-level threads: arrivals count up;
/// the last arrival advances the generation; waiters spin through
/// `yield_now`, letting every other thread on their PE run.
struct StepBarrier {
    arrived: AtomicUsize,
    generation: AtomicU64,
    parties: usize,
}

impl StepBarrier {
    fn new(parties: usize) -> StepBarrier {
        StepBarrier {
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            parties,
        }
    }

    fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
        } else {
            while self.generation.load(Ordering::Acquire) == gen {
                yield_now();
            }
        }
    }
}

/// The per-particle MD kernel: a cheap but real pairwise interaction over
/// the local patch plus the two ring-neighbour summaries.
fn md_kernel(positions: &mut [f64], left: f64, right: f64) -> f64 {
    let n = positions.len();
    let mut energy = 0.0;
    for i in 0..n {
        let mut force = 0.0;
        for j in 0..n {
            if i != j {
                let dx = positions[i] - positions[j] + 1e-3;
                force += 1.0 / (dx * dx + 1.0);
            }
        }
        force += 0.1 * (left - positions[i]) + 0.1 * (right - positions[i]);
        positions[i] += 1e-4 * force;
        energy += force * force;
    }
    energy
}

/// Run the simulation.
pub fn run(cfg: &BigSimConfig) -> BigSimReport {
    assert!(cfg.target_procs >= cfg.sim_pes && cfg.sim_pes > 0 && cfg.steps > 0);
    let barrier = Arc::new(StepBarrier::new(cfg.target_procs));
    // Each target processor publishes a per-step summary its ring
    // neighbours read. Double-buffered by step parity so every thread
    // reads exactly the *previous* step's values regardless of
    // within-step scheduling order — the simulation result must not
    // depend on how many PEs simulate it.
    let published: Arc<[Vec<AtomicU64>; 2]> = Arc::new([
        (0..cfg.target_procs).map(|_| AtomicU64::new(0)).collect(),
        (0..cfg.target_procs).map(|_| AtomicU64::new(0)).collect(),
    ]);
    let step_times: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
    let checksum = Arc::new(AtomicU64::new(0));
    // Aggregate per-(target processor, step) kernel CPU time (ns).
    let kernel_total_ns = Arc::new(AtomicU64::new(0));
    let kernel_count = Arc::new(AtomicU64::new(0));

    let cfg2 = cfg.clone();
    let barrier2 = barrier.clone();
    let published2 = published.clone();
    let step_times2 = step_times.clone();
    let checksum2 = checksum.clone();
    let kernel_total2 = kernel_total_ns.clone();
    let kernel_count2 = kernel_count.clone();

    let mut mb = MachineBuilder::new(cfg.sim_pes)
        .net_model(NetModel::zero())
        .tracing(cfg.tracing);
    if let Some(plan) = &cfg.faults {
        assert!(
            plan.crashes.is_empty(),
            "BigSim target threads use Standard stacks and cannot be \
             checkpointed — transport faults only, no PE crashes"
        );
        mb = mb.fault_plan(plan.clone());
    }
    let step_tokens = Arc::new(AtomicU64::new(0));
    let tokens_rx = step_tokens.clone();
    let token_handler = mb.handler(move |_, _| {
        tokens_rx.fetch_add(1, Ordering::Relaxed);
    });

    let t0 = monotonic_ns();
    let init = move |pe: &flows_converse::Pe| {
        let me = pe.id();
        let pes = pe.num_pes();
        for tp in 0..cfg2.target_procs {
            if tp * pes / cfg2.target_procs != me {
                continue;
            }
            let cfg = cfg2.clone();
            let barrier = barrier2.clone();
            let published = published2.clone();
            let step_times = step_times2.clone();
            let checksum = checksum2.clone();
            let kernel_total = kernel_total2.clone();
            let kernel_samples = kernel_count2.clone();
            pe.sched()
                .spawn_with(StackFlavor::Standard, cfg.stack_bytes, move || {
                    let n = cfg.target_procs;
                    let mut positions: Vec<f64> = (0..cfg.particles_per_proc)
                        .map(|i| (tp * 31 + i * 7 % 97) as f64 * 0.01)
                        .collect();
                    let mut t_last = monotonic_ns();
                    for step in 0..cfg.steps {
                        let read_buf = &published[step % 2];
                        let write_buf = &published[(step + 1) % 2];
                        let left =
                            f64::from_bits(read_buf[(tp + n - 1) % n].load(Ordering::Relaxed));
                        let right =
                            f64::from_bits(read_buf[(tp + 1) % n].load(Ordering::Relaxed));
                        let k0 = flows_sys::time::thread_cpu_ns();
                        let e = md_kernel(&mut positions, left, right);
                        let kernel_ns = flows_sys::time::thread_cpu_ns().saturating_sub(k0);
                        kernel_total.fetch_add(kernel_ns, Ordering::Relaxed);
                        kernel_samples.fetch_add(1, Ordering::Relaxed);
                        write_buf[tp].store(
                            (positions.iter().sum::<f64>() / positions.len().max(1) as f64)
                                .to_bits(),
                            Ordering::Relaxed,
                        );
                        std::hint::black_box(e);
                        // Cross-PE progress tokens: real message traffic
                        // for the (possibly lossy) transport to chew on.
                        if tp == 0 {
                            flows_converse::with_pe(|pe| {
                                for dest in 0..pe.num_pes() {
                                    for _ in 0..TOKENS_PER_STEP {
                                        pe.send(dest, token_handler, vec![step as u8]);
                                    }
                                }
                            });
                            flows_trace::emit(
                                flows_trace::EventKind::VtStep,
                                flows_converse::vtime_ns(),
                                step as u64,
                                0,
                            );
                        }
                        barrier.wait();
                        if tp == 0 {
                            let now = monotonic_ns();
                            step_times.lock().unwrap().push(now - t_last);
                            t_last = now;
                        }
                    }
                    // Deterministic digest of the final state.
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for p in &positions {
                        h = (h ^ p.to_bits()).wrapping_mul(0x100_0000_01b3);
                    }
                    checksum.fetch_add(h, Ordering::Relaxed);
                })
                .expect("spawn target processor");
        }
    };
    let report = if cfg.threaded {
        mb.run(init)
    } else {
        mb.run_deterministic(init)
    };
    let wall_ns = monotonic_ns() - t0;
    let per_step_wall_ns = step_times.lock().unwrap().clone();

    // Predict the target machine: the mean per-processor kernel time
    // (homogeneous workload; mean is robust to host timer noise), scaled
    // by the target CPU speed, plus one ghost exchange per step.
    let mean_kernel = kernel_total_ns.load(Ordering::Relaxed) as f64
        / kernel_count.load(Ordering::Relaxed).max(1) as f64;
    let predicted = mean_kernel / cfg.target.cpu_ratio + cfg.target.net_latency_ns as f64;
    BigSimReport {
        target_procs: cfg.target_procs,
        sim_pes: cfg.sim_pes,
        steps: cfg.steps,
        wall_ns,
        per_step_wall_ns,
        modeled_step_ns: report.parallel_time_ns() / cfg.steps as u64,
        switches: report.sched_stats.iter().map(|s| s.switches).sum(),
        checksum: checksum.load(Ordering::Relaxed),
        predicted_target_step_ns: predicted as u64,
        step_tokens: step_tokens.load(Ordering::Relaxed),
        faults: report.faults,
        trace: report.trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_simulation_completes() {
        let cfg = BigSimConfig {
            target_procs: 64,
            sim_pes: 2,
            steps: 3,
            particles_per_proc: 8,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel::default(),
            faults: None,
            tracing: false,
        };
        let r = run(&cfg);
        assert_eq!(r.per_step_wall_ns.len(), 3);
        assert!(r.switches >= 64 * 3, "every thread must run every step");
        assert!(r.modeled_step_ns > 0);
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn checksum_is_independent_of_pe_count() {
        // The simulation's answer must not depend on how many simulating
        // PEs host the threads (deterministic drive mode; the published
        // ghost values are step-synchronized by the barrier).
        let base = BigSimConfig {
            target_procs: 32,
            sim_pes: 1,
            steps: 2,
            particles_per_proc: 6,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel::default(),
            faults: None,
            tracing: false,
        };
        let a = run(&base);
        let b = run(&BigSimConfig {
            sim_pes: 4,
            ..base.clone()
        });
        assert_eq!(a.checksum, b.checksum);
    }

    #[test]
    fn modeled_time_scales_down_with_more_pes() {
        let base = BigSimConfig {
            target_procs: 256,
            sim_pes: 1,
            steps: 2,
            particles_per_proc: 12,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel::default(),
            faults: None,
            tracing: false,
        };
        let t1 = run(&base).modeled_step_ns as f64;
        let t4 = run(&BigSimConfig {
            sim_pes: 4,
            ..base.clone()
        })
        .modeled_step_ns as f64;
        assert!(
            t4 < t1 * 0.6,
            "4 simulating PEs should model ≥1.67x faster: {t1} vs {t4}"
        );
    }

    #[test]
    fn thousands_of_threads_on_one_pe() {
        // The headline capability: far more flows than any kernel
        // mechanism would allow per Table 2, on one PE.
        let cfg = BigSimConfig {
            target_procs: 5_000,
            sim_pes: 1,
            steps: 1,
            particles_per_proc: 2,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel::default(),
            faults: None,
            tracing: false,
        };
        let r = run(&cfg);
        assert!(r.switches >= 5_000);
    }

    #[test]
    fn lossy_transport_leaves_the_simulation_exact() {
        let clean = BigSimConfig {
            target_procs: 32,
            sim_pes: 2,
            steps: 3,
            particles_per_proc: 6,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel::default(),
            faults: None,
            tracing: false,
        };
        let a = run(&clean);
        let faulty = BigSimConfig {
            faults: Some(
                FaultPlan::new(0xB165)
                    .drop_prob(0.2)
                    .dup_prob(0.2)
                    .reorder_prob(0.1),
            ),
            ..clean.clone()
        };
        let b = run(&faulty);
        assert_eq!(a.checksum, b.checksum, "faults must not change the answer");
        let expected_tokens = (clean.steps * clean.sim_pes) as u64 * TOKENS_PER_STEP;
        assert_eq!(a.step_tokens, expected_tokens);
        assert_eq!(b.step_tokens, expected_tokens, "exactly-once under loss");
        let f = b.faults.expect("fault counters present");
        assert!(f.dropped > 0, "the plan actually dropped packets");
        assert!(f.retransmits >= f.dropped, "every drop was repaired");
    }

    #[test]
    #[should_panic(expected = "transport faults only")]
    fn scripted_crashes_are_refused() {
        let cfg = BigSimConfig {
            faults: Some(FaultPlan::new(1).crash_pe(0, 1)),
            ..BigSimConfig::small()
        };
        let _ = run(&cfg);
    }

    #[test]
    fn barrier_synchronizes_generations() {
        let b = StepBarrier::new(1);
        b.wait(); // single party never blocks
        b.wait();
        assert_eq!(b.generation.load(Ordering::Relaxed), 2);
    }
}

#[cfg(test)]
mod prediction_tests {
    use super::*;

    #[test]
    fn target_prediction_scales_with_cpu_ratio() {
        let mut cfg = BigSimConfig {
            target_procs: 64,
            sim_pes: 1,
            steps: 2,
            particles_per_proc: 24,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel {
                cpu_ratio: 1.0,
                net_latency_ns: 0,
            },
            faults: None,
            tracing: false,
        };
        let fast = run(&cfg).predicted_target_step_ns;
        cfg.target.cpu_ratio = 0.25;
        let slow = run(&cfg).predicted_target_step_ns;
        assert!(
            slow as f64 > fast as f64 * 2.0,
            "a 4x slower target must predict much slower steps: {fast} vs {slow}"
        );
        // The prediction is independent of how many PEs simulate it.
        cfg.sim_pes = 4;
        let slow4 = run(&cfg).predicted_target_step_ns;
        let ratio = slow as f64 / slow4 as f64;
        assert!(
            (0.2..5.0).contains(&ratio),
            "prediction should not depend strongly on simulator size: {slow} vs {slow4}"
        );
    }

    #[test]
    fn network_latency_floors_the_prediction() {
        let cfg = BigSimConfig {
            target_procs: 16,
            sim_pes: 1,
            steps: 1,
            particles_per_proc: 1,
            stack_bytes: 16 * 1024,
            threaded: false,
            target: TargetModel {
                cpu_ratio: 1.0,
                net_latency_ns: 5_000_000,
            },
            faults: None,
            tracing: false,
        };
        let r = run(&cfg);
        assert!(r.predicted_target_step_ns >= 5_000_000);
    }
}
