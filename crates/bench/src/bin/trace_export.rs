//! trace-export: run a traced AMPI job and emit a Chrome-trace JSON file
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>.
//!
//! The default job is a 4-PE, 8-rank ring exchange with RotateLB
//! migrations, one coordinated checkpoint, and a lossy transport plan —
//! so the exported timeline contains thread-lifecycle, context-switch,
//! message, migration, checkpoint, LB-epoch, and fault events all at
//! once.
//!
//! Flags: `--ranks N` / `--pes N` / `--iters N` size the job, `--out
//! PATH` sets the output file (default `trace_chrome.json`), `--seed N`
//! reseeds the fault plan, `--sweep` instead measures trace-derived
//! scheduler utilization for each of the four stack flavors (the
//! EXPERIMENTS.md table).

use flows_bench::{arg_flag, arg_val, bench_pools, Table};
use flows_converse::FaultPlan;
use flows_core::{yield_now, SchedConfig, Scheduler, StackFlavor};
use flows_lb::RotateLb;
use std::sync::Arc;

fn main() {
    if arg_flag("sweep") {
        sweep();
        return;
    }
    let ranks: usize = arg_val("ranks").and_then(|v| v.parse().ok()).unwrap_or(8);
    let pes: usize = arg_val("pes").and_then(|v| v.parse().ok()).unwrap_or(4);
    let iters: usize = arg_val("iters").and_then(|v| v.parse().ok()).unwrap_or(4);
    let seed: u64 = arg_val("seed").and_then(|v| v.parse().ok()).unwrap_or(0x7ace);
    let out = arg_val("out").unwrap_or_else(|| "trace_chrome.json".into());

    let opts = flows_ampi::AmpiOptions::new(ranks, pes)
        .with_strategy(Arc::new(RotateLb))
        .with_faults(FaultPlan::new(seed).drop_prob(0.2))
        .modeled_time(true)
        .tracing(true);
    let report = flows_ampi::run_world(opts, move |a| {
        let next = (a.rank() + 1) % a.size();
        let prev = (a.rank() + a.size() - 1) % a.size();
        for it in 0..iters {
            // Real CPU so context-switch slices have visible width.
            let mut acc = 0u64;
            for i in 0..20_000u64 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
            }
            std::hint::black_box(acc);
            let (_, _, data) =
                a.sendrecv(next, it as u64, vec![a.rank() as u8; 64], Some(prev), None);
            assert_eq!(data.len(), 64);
            if it == iters / 2 {
                a.checkpoint();
            }
            a.migrate(); // RotateLB moves every rank each epoch
        }
    });

    let json = flows_trace::chrome::chrome_trace_json(&report.trace_rings);
    flows_trace::chrome::validate_json(&json).expect("exporter must emit valid JSON");
    std::fs::write(&out, &json).expect("write chrome trace");

    let sum = report.trace.as_ref().expect("tracing was on");
    let mut t = Table::new(&[
        "PE", "events", "dropped", "switches", "util", "msgs tx/rx", "migs out/in", "ckpts",
        "faults", "syscalls",
    ]);
    for p in &sum.pes {
        t.row(vec![
            p.pe.to_string(),
            p.events.to_string(),
            p.dropped.to_string(),
            p.switches.to_string(),
            format!("{:.3}", p.utilization),
            format!("{}/{}", p.msgs_sent, p.msgs_recv),
            format!("{}/{}", p.migrations_out, p.migrations_in),
            p.checkpoints.to_string(),
            p.faults.to_string(),
            p.syscalls_total.to_string(),
        ]);
    }
    t.print("trace-export: per-PE trace summary");
    println!(
        "\n{} migration records, mean utilization {:.3}",
        sum.migrations.len(),
        sum.mean_utilization()
    );
    println!("wrote {out} — open it at https://ui.perfetto.dev or chrome://tracing");
}

/// Trace-derived scheduler utilization per stack flavor: N threads
/// alternating a fixed spin with a yield, measured entirely from the
/// event ring (SwitchOut bursts / span).
fn sweep() {
    let flows: usize = arg_val("flows").and_then(|v| v.parse().ok()).unwrap_or(64);
    let rounds: usize = arg_val("rounds").and_then(|v| v.parse().ok()).unwrap_or(200);
    flows_trace::set_enabled(true);
    let mut t = Table::new(&["flavor", "switches", "events", "ns/switch", "utilization"]);
    let body = move || {
        for _ in 0..rounds {
            let mut acc = 1u64;
            for i in 0..500u64 {
                acc = acc.wrapping_mul(0x9e3779b97f4a7c15) ^ i;
            }
            std::hint::black_box(acc);
            yield_now();
        }
    };
    for flavor in StackFlavor::ALL {
        let sched = Scheduler::new(0, bench_pools(1, 1 << 20, 1 << 20, flows + 8), {
            SchedConfig::default()
        });
        // Untraced warmup batch: primes stacks, pools and branch history so
        // the first measured flavor isn't charged the process cold start.
        for _ in 0..flows {
            sched.spawn_with(flavor, 32 * 1024, body).expect("spawn warmup thread");
        }
        sched.run();
        let ring = Arc::new(flows_trace::TraceRing::new(0, 1 << 20));
        let _guard = flows_trace::install_ring(&ring);
        for _ in 0..flows {
            sched.spawn_with(flavor, 32 * 1024, body).expect("spawn sweep thread");
        }
        sched.run();
        let sum = flows_trace::summarize_pe(&ring, &mut Vec::new());
        let span = sum.last_ts.saturating_sub(sum.first_ts);
        t.row(vec![
            flavor.name().into(),
            sum.switches.to_string(),
            sum.events.to_string(),
            format!("{:.0}", span as f64 / sum.switches.max(1) as f64),
            format!("{:.3}", sum.utilization),
        ]);
    }
    t.print("trace-export --sweep: trace-derived utilization per stack flavor");
    println!(
        "\nutilization = sum(SwitchOut bursts) / trace span; the remainder \
         is scheduler overhead, so faster-switching flavors sit closer to 1."
    );
}
