//! `flowsbench` — one process per workload run.
//!
//! ```text
//! flowsbench run --workload W --seed N --seconds S --trace 0|1 [--setups K]
//! flowsbench golden btmz|heal      regenerate a committed golden
//! flowsbench compare A.txt B.txt   two result sets side by side (aa.sh)
//! ```
//!
//! The last line of `run`'s standard output is the result object the
//! harness contract asks for; everything above it is for people.

use flowsbench::report::{self, END_TO_END, PER_LAYER, WORKLOADS};
use flowsbench::stats::Summary;
use flowsbench::workload::{Leg, Outcome};
use flowsbench::{btmz, heal, host, ladder, msgmix, sessions, span, xproc};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// The default seed; README.md names a second, hold-out seed.
const DEFAULT_SEED: u64 = 0xF10E5;
/// Bring-ups per untraced run; `setup_s` is their median. `msgmix` and
/// `sessions` bring up in a twentieth of a second and a tenth, and take as
/// many as fit (README.md, *Steadiness*).
fn default_setups(workload: &str) -> usize {
    match workload {
        "msgmix" => msgmix::WORLDS,
        "sessions" => sessions::MAX_SETUPS,
        _ => 5,
    }
}
/// Seconds each of the other four workloads gets in a traced run.
const SIDE_LEG_SECONDS: f64 = 1.5;

fn arg<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn run_leg(workload: &str, leg: Leg) -> Outcome {
    match workload {
        "sessions" => sessions::run(leg, false),
        "msgmix" => msgmix::run(leg),
        "xproc" => xproc::run(leg),
        "btmz" => btmz::run(leg),
        "heal" => heal::run(leg),
        other => unreachable!("workload {other} was validated"),
    }
}

fn print_outcome(out: &Outcome) {
    for note in &out.notes {
        println!("FAILED CHECK: {note}");
    }
    for e in &out.extras {
        println!("{}", report::line(e.name, e.unit, &e.value));
    }
}

/// An untraced run: the end-to-end metrics.
fn run_untraced(workload: &str, leg: Leg) -> ExitCode {
    let out = run_leg(workload, leg);
    let e2e = report::end_to_end(&out, host::peak_rss_mb());
    for (name, unit, _) in END_TO_END {
        println!("{}", report::line(name, unit, &e2e[name]));
    }
    print_outcome(&out);
    // A metric with no timed window at all is a failed measurement, not a
    // zero.
    let unmeasured: Vec<&str> = END_TO_END
        .iter()
        .filter(|(name, _, _)| e2e[name].n == 0 || e2e[name].reported <= 0.0)
        .map(|&(name, _, _)| name)
        .collect();
    if !unmeasured.is_empty() {
        println!("FAILED CHECK: no measurement for {unmeasured:?}");
    }
    let correct = out.failed == 0 && unmeasured.is_empty();
    println!(
        "fail_ratio ratio {} [{} of {}]",
        report::num(out.failed as f64 / out.attempted.max(1) as f64),
        out.failed,
        out.attempted
    );
    let metrics: Vec<(&str, &str, f64)> = END_TO_END
        .iter()
        .map(|&(n, u, _)| (n, u, e2e[n].reported))
        .collect();
    println!(
        "{}",
        report::result_json(correct, out.attempted, out.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Per-layer numbers that come out of a leg's spans.
fn from_spans(
    workload: &str,
    out: &Outcome,
    threads: &[span::ThreadSpans],
    into: &mut BTreeMap<&'static str, f64>,
) {
    let totals = span::totals_by_name(threads);
    let mean_self = |name: &str| {
        totals
            .get(name)
            .map(|t| t.self_ns as f64 / t.count.max(1) as f64)
    };
    let mean_wait = |name: &str| {
        totals
            .get(name)
            .map(|t| t.wait_ns as f64 / t.count.max(1) as f64)
    };
    match workload {
        "msgmix" => {
            into.extend(mean_self("ampi.send").map(|v| ("ampi.send_call_ns", v)));
            into.extend(mean_wait("ampi.recv_wait").map(|v| ("ampi.recv_wait_ns", v)));
        }
        "xproc" => {
            into.extend(mean_self("converse.send").map(|v| ("converse.send_call_ns", v)));
        }
        "btmz" => {
            // Share of the PEs' time inside the solves.
            let pe_ns: f64 = out
                .get("solve_s")
                .map_or(0.0, |s| s.median * s.n as f64 * 1e9 * btmz::PES as f64);
            let share = |name: &str| {
                totals
                    .get(name)
                    .map_or(0.0, |t| t.self_ns as f64 / pe_ns.max(1.0))
            };
            into.insert("npb.solve_share", share("npb.sweep"));
            into.insert("npb.exchange_share", share("npb.exchange"));
        }
        _ => {}
    }
}

/// Extras of a leg that are per-layer metrics under another name.
const RENAMED: [(&str, &str); 3] = [
    ("req_p99_us", "sessions.req_p99_us"),
    ("thread_bytes", "sessions.thread_bytes"),
    ("mttr_ms", "heal.mttr_ms"),
];

/// Per-layer metrics that describe the workload the run was asked for,
/// not a layer in isolation: taken from that workload's leg only.
const OF_THE_WORKLOAD: [&str; 2] = ["sys.syscalls_per_op", "core.switches_per_op"];

fn absorb(out: &Outcome, own: bool, into: &mut BTreeMap<&'static str, f64>) {
    for e in &out.extras {
        let name = RENAMED
            .iter()
            .find(|(from, _)| *from == e.name)
            .map_or(e.name, |(_, to)| to);
        if let Some(&(known, _, _)) = PER_LAYER.iter().find(|(n, _, _)| *n == name) {
            if own || !OF_THE_WORKLOAD.contains(&known) {
                into.insert(known, e.value.reported);
            }
        }
    }
}

/// A traced run: the workload without and with the span recorder, a short
/// traced leg of each other workload, then the ladder.
fn run_traced(workload: &str, leg: Leg) -> ExitCode {
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Three twentieths of the seconds for each of the two own legs: the
    // side legs and the ladder take about 20 s between them, and a traced
    // run should not take much longer than an untraced one.
    let own_leg = Leg {
        seconds: (leg.seconds * 0.15).max(1.0),
        setups: 1,
        ..leg
    };

    println!("# {workload}, untraced");
    let plain = run_leg(workload, own_leg);
    for order in WORKLOADS
        .iter()
        .filter(|w| **w == workload)
        .chain(WORKLOADS.iter().filter(|w| **w != workload))
    {
        let own = *order == workload;
        println!("# {order}, traced");
        span::set_enabled(true);
        let out = run_leg(
            order,
            if own {
                own_leg
            } else {
                Leg {
                    seconds: SIDE_LEG_SECONDS,
                    setups: 1,
                    ..leg
                }
            },
        );
        span::set_enabled(false);
        let threads = span::drain();
        print_outcome(&out);
        attempted += out.attempted;
        failed += out.failed;
        absorb(&out, own, &mut layer);
        from_spans(order, &out, &threads, &mut layer);
        if own {
            let (a, b) = (
                plain.ops_per_s.summary().reported,
                out.ops_per_s.summary().reported,
            );
            layer.insert(
                "bench.trace_overhead_pct",
                if a > 0.0 { (a - b) / a * 100.0 } else { 0.0 },
            );
            let path = format!("benchmark/out/{workload}.trace.json");
            let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
            match std::fs::create_dir_all("benchmark/out")
                .and_then(|()| std::fs::write(&path, span::chrome_json(&threads, 200_000)))
            {
                Ok(()) => println!(
                    "# wrote {path} ({} spans, {dropped} dropped)",
                    threads.iter().map(|t| t.spans.len()).sum::<usize>()
                ),
                Err(e) => println!("# could not write {path}: {e}"),
            }
        }
    }
    attempted += plain.attempted;
    failed += plain.failed;

    println!("# ladder");
    for r in ladder::run_all() {
        println!("{}", report::rung_line(&r));
        layer.insert(r.name, r.best);
    }
    // The hand-off nobody measures directly: what is left of a
    // cross-process hop after the ring's parked hop and the in-process
    // dispatch are taken out.
    let get = |m: &BTreeMap<&'static str, f64>, k: &str| m.get(k).copied().unwrap_or(0.0);
    let residual = get(&layer, "converse.xproc_hop_ns")
        - get(&layer, "net.shm_park_hop_ns")
        - get(&layer, "converse.det_msg_ns");
    layer.insert("converse.xproc_residual_ns", residual);

    let missing: Vec<&str> = PER_LAYER
        .iter()
        .filter(|(n, _, _)| !layer.contains_key(n))
        .map(|&(n, _, _)| n)
        .collect();
    if !missing.is_empty() {
        println!("FAILED CHECK: no measurement for {missing:?}");
    }
    let metrics: Vec<(&str, &str, f64)> = PER_LAYER
        .iter()
        .map(|&(n, u, _)| (n, u, get(&layer, n)))
        .collect();
    for (n, u, v) in &metrics {
        println!("{n} {u} {}", report::num(*v));
    }
    let correct = failed == 0 && missing.is_empty();
    println!(
        "{}",
        report::result_json(correct, attempted, failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Set across the re-exec below, so that a host which forbids the
/// personality change runs with ASLR rather than looping.
const ENV_FIXED_LAYOUT: &str = "FLOWSBENCH_FIXED_LAYOUT";

/// Run with address-space randomization off, re-executing once if needed.
/// Where the heap and the isomalloc region land decides how a rank's
/// 256 KiB block aliases in the cache against the buffers it is copied to;
/// with ASLR on, `heal`'s throughput came out anywhere within ±12 % from
/// one process to the next, and within ±1.3 % with it off.
fn fix_layout() {
    if flows_sys::os::aslr_disabled() || std::env::var_os(ENV_FIXED_LAYOUT).is_some() {
        return;
    }
    if !flows_sys::os::disable_aslr() {
        println!(
            "# ASLR stays on (personality change not permitted): expect more run-to-run spread"
        );
        return;
    }
    use std::os::unix::process::CommandExt;
    let Ok(exe) = std::env::current_exe() else {
        return;
    };
    // Only returns on failure; the process then carries on as it is.
    let err = std::process::Command::new(exe)
        .args(std::env::args().skip(1))
        .env(ENV_FIXED_LAYOUT, "1")
        .exec();
    println!("# re-exec without ASLR failed: {err}");
}

fn run(args: &[String]) -> ExitCode {
    fix_layout();
    let Some(workload) = arg(args, "--workload").filter(|w| WORKLOADS.contains(w)) else {
        eprintln!("--workload must be one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    let seed = arg(args, "--seed").map_or(Some(DEFAULT_SEED), parse_seed);
    let seconds = arg(args, "--seconds").map_or(Some(20.0), |s| s.parse::<f64>().ok());
    let (Some(seed), Some(seconds)) = (seed, seconds.filter(|s| *s > 0.0 && *s <= 600.0)) else {
        eprintln!("--seed takes an integer, --seconds a number in (0, 600]");
        return ExitCode::from(2);
    };
    let traced = match arg(args, "--trace") {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => {
            eprintln!("--trace takes 0 or 1, not {other}");
            return ExitCode::from(2);
        }
    };
    let facts = host::HostFacts::read();
    // Refusing outright is for the suite (`run.sh` asks for it once, before
    // the first workload): back to back, the workloads themselves keep the
    // one-minute average above nproc.
    if args.iter().any(|a| a == "--refuse-if-loaded") && facts.load1 > facts.nproc as f64 {
        eprintln!(
            "load average {:.2} exceeds nproc {}: not reporting",
            facts.load1, facts.nproc
        );
        return ExitCode::from(2);
    }
    println!(
        "# host {} aslr={}",
        facts.line(),
        if flows_sys::os::aslr_disabled() {
            "off"
        } else {
            "on"
        }
    );
    println!(
        "# run workload={workload} seed={seed:#x} seconds={seconds} trace={}",
        traced as u8
    );
    let setups = arg(args, "--setups")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| default_setups(workload));
    let leg = Leg {
        seconds,
        seed,
        setups,
    };
    if traced {
        run_traced(workload, leg)
    } else {
        run_untraced(workload, leg)
    }
}

fn golden(args: &[String]) -> ExitCode {
    match args.first().map(String::as_str) {
        Some("btmz") => print!("{}", btmz::make_golden().render()),
        Some("heal") => print!("{}", heal::render_golden(DEFAULT_SEED)),
        _ => {
            eprintln!("golden btmz|heal");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}

/// `name unit value ...` lines of one result file, end-to-end names only:
/// per workload and metric, the median over the runs the file holds.
fn read_set(path: &str) -> std::io::Result<BTreeMap<(String, String), f64>> {
    let mut runs: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut workload = String::new();
    for l in std::fs::read_to_string(path)?.lines() {
        if let Some(rest) = l.strip_prefix("# run workload=") {
            workload = rest.split_whitespace().next().unwrap_or("").to_string();
        }
        let mut f = l.split_whitespace();
        if let (Some(name), Some(_unit), Some(v)) = (f.next(), f.next(), f.next()) {
            if END_TO_END.iter().any(|(n, _, _)| *n == name) {
                if let Ok(v) = v.parse() {
                    runs.entry((workload.clone(), name.to_string()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(runs
        .into_iter()
        .map(|(k, v)| (k, Summary::of(&v).median))
        .collect())
}

/// Two sets of runs of the same code, side by side, each pair against the
/// bound `BENCHMARK.json` fixes. Exit 1 if any pair disagrees by more.
fn compare(args: &[String]) -> ExitCode {
    let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
        eprintln!("compare A.txt B.txt");
        return ExitCode::from(2);
    };
    let (a, b) = match (read_set(a), read_set(b)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let bounds = std::fs::read_to_string("BENCHMARK.json").unwrap_or_default();
    let bound_of = |name: &str| -> f64 {
        // `{"name": "<name>", ... "bound": <x>}` on one line, as committed.
        bounds
            .lines()
            .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .and_then(|l| l.split("\"bound\":").nth(1))
            .and_then(|v| v.trim().trim_end_matches(['}', ',', ' ']).parse().ok())
            .unwrap_or(0.25)
    };
    println!("| workload | metric | first | second | worse by | bound | |");
    println!("|---|---|---|---|---|---|---|");
    let mut bad = 0;
    for ((workload, name), va) in &a {
        let Some(vb) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let higher = END_TO_END.iter().any(|(n, _, h)| n == name && *h);
        // How much worse the second set is than the first, as a share.
        let worse = if higher {
            (va - vb) / va
        } else {
            (vb - va) / va
        };
        let bound = bound_of(name);
        let ok = worse.abs() <= bound;
        bad += !ok as u32;
        println!(
            "| {workload} | {name} | {} | {} | {:+.1}% | {:.0}% | {} |",
            report::num(*va),
            report::num(*vb),
            worse * 100.0,
            bound * 100.0,
            if ok { "ok" } else { "DISAGREE" }
        );
    }
    if bad > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(xproc::CHILD_ARG) => {
            xproc::child_main();
            ExitCode::SUCCESS
        }
        Some("run") => run(&args[1..]),
        Some("golden") => golden(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => {
            eprintln!("usage: flowsbench run --workload W [--seed N] [--seconds S] [--trace 0|1]\n       flowsbench golden btmz|heal\n       flowsbench compare A.txt B.txt");
            ExitCode::from(2)
        }
    }
}
