//! # flows-bench — harnesses that regenerate every table and figure
//!
//! One binary per table/figure of the paper (see DESIGN.md §4 for the
//! index). Each prints a self-describing plain-text table comparable to
//! the paper's, plus machine-readable CSV when `--csv` is passed:
//!
//! ```text
//! cargo run --release -p flows-bench --bin table1_portability
//! cargo run --release -p flows-bench --bin table2_limits
//! cargo run --release -p flows-bench --bin fig4_ctxswitch_flows
//! cargo run --release -p flows-bench --bin fig9_stacksize
//! cargo run --release -p flows-bench --bin fig10_minswap
//! cargo run --release -p flows-bench --bin fig11_bigsim      [--full]
//! cargo run --release -p flows-bench --bin fig12_btmz
//! cargo run --release -p flows-bench --bin trace_export      [--sweep]
//! ```
//!
//! These are the reproduction, not the performance instrument: a number
//! that carries a claim comes from `bash benchmark/run.sh` (flowsbench).

#![warn(missing_docs)]

use flows_core::{yield_now, SchedConfig, Scheduler, SharedPools, StackFlavor};
use std::cell::Cell;
use std::rc::Rc;

/// Get `--name value` from argv.
pub fn arg_val(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        }
    }
    None
}

/// Is `--name` present in argv?
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// A plain-text results table with optional CSV output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Print aligned plain text; CSV instead when `--csv` was passed.
    pub fn print(&self, title: &str) {
        println!("\n== {title} ==");
        if arg_flag("csv") {
            println!("{}", self.headers.join(","));
            for r in &self.rows {
                println!("{}", r.join(","));
            }
            return;
        }
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let line = |cells: &[String]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", line(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        for r in &self.rows {
            println!("{}", line(r));
        }
    }
}

/// Measure user-level-thread context-switch time: `flows` threads of
/// `flavor` yield in a circle for roughly `window_ms`; returns
/// (ns per switch, switches observed).
///
/// This is the §4.1 methodology with the scheduler's own switch counter
/// as ground truth.
pub fn uthread_switch_bench(
    flavor: StackFlavor,
    flows: usize,
    stack_len: usize,
    window_ms: u64,
    shared: std::sync::Arc<SharedPools>,
) -> (f64, u64) {
    let sched = Scheduler::new(0, shared, SchedConfig::default());
    let stop = Rc::new(Cell::new(false));
    for _ in 0..flows {
        let stop = stop.clone();
        sched
            .spawn_with(flavor, stack_len, move || {
                while !stop.get() {
                    yield_now();
                }
            })
            .expect("spawn bench thread");
    }
    // Warmup: give every thread a few turns.
    for _ in 0..flows * 3 {
        sched.step();
    }
    let s0 = sched.stats().switches;
    let t0 = std::time::Instant::now();
    let window = std::time::Duration::from_millis(window_ms);
    while t0.elapsed() < window {
        for _ in 0..64 {
            sched.step();
        }
    }
    let elapsed = t0.elapsed().as_nanos() as u64;
    let switches = sched.stats().switches - s0;
    stop.set(true);
    sched.run(); // drain: every thread exits
    (
        elapsed as f64 / switches.max(1) as f64,
        switches,
    )
}

/// Shared pools sized for benchmark use (large common regions so big
/// stacks fit the copy/alias flavors).
pub fn bench_pools(num_pes: usize, common_len: usize, slot_len: usize, slots: usize) -> std::sync::Arc<SharedPools> {
    let mut iso = flows_mem::IsoConfig::for_pes(num_pes);
    iso.base = 0;
    iso.slot_len = slot_len;
    iso.slots_per_pe = slots;
    SharedPools::new(iso, common_len).expect("bench pools")
}

/// Recursively pin `bytes` of stack, then run `f` at depth — the
/// harness's `alloca()` analog for Figure 9.
pub fn with_stack_bytes<R>(bytes: usize, f: impl FnOnce() -> R) -> R {
    if bytes <= 4096 {
        f()
    } else {
        let mut pad = [0u8; 4096];
        std::hint::black_box(&mut pad[..]);
        let r = with_stack_bytes(bytes - 4096, f);
        std::hint::black_box(&mut pad[..]);
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uthread_bench_reports_sane_numbers() {
        let pools = bench_pools(1, 1 << 20, 1 << 20, 64);
        let (ns, switches) = uthread_switch_bench(StackFlavor::Standard, 8, 32 * 1024, 30, pools);
        assert!(switches > 100, "must have switched: {switches}");
        assert!(ns > 1.0 && ns < 1_000_000.0, "ns/switch = {ns}");
    }

    #[test]
    fn stack_pinning_reaches_depth() {
        let x = with_stack_bytes(64 * 1024, || 42);
        assert_eq!(x, 42);
    }

    #[test]
    fn table_formats() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        t.print("test"); // must not panic
    }
}
