//! Tests of the harness itself: the statistics, the span arithmetic, the
//! generators, the open-loop clock, and that the checks can fail.

use flowsbench::gen::{check_body, make_body, restamp_body, OpenLoop, Rng, Zipf};
use flowsbench::span::{self_times, Span, NO_PARENT};
use flowsbench::stats::{percentile, sorted, tail, tail_percentile, Summary};
use flowsbench::workload::Leg;
use std::collections::VecDeque;

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), 50.0);
    assert_eq!(percentile(&v, 99.0), 99.0);
    assert_eq!(percentile(&v, 100.0), 100.0);
    assert_eq!(percentile(&v, 0.0), 1.0);
    // Nearest rank never interpolates: 5 samples, p50 is the 3rd.
    assert_eq!(percentile(&[1.0, 2.0, 30.0, 40.0, 50.0], 50.0), 30.0);
    assert_eq!(percentile(&[7.0], 99.9), 7.0);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(tail_percentile(0), None);
    assert_eq!(tail_percentile(19), None, "p50 of 19 leaves only 9 beyond");
    assert_eq!(tail_percentile(20), Some(50.0));
    assert_eq!(tail_percentile(99), Some(50.0), "p90 of 99 leaves 9 beyond");
    assert_eq!(tail_percentile(100), Some(90.0));
    assert_eq!(tail_percentile(999), Some(90.0));
    assert_eq!(tail_percentile(1000), Some(99.0));
    assert_eq!(tail_percentile(10_000), Some(99.9));
    // The reported tail is p99 when the samples carry it, less otherwise.
    let v: Vec<f64> = (1..=5000).map(f64::from).collect();
    assert_eq!(tail(&v), Some(4950.0));
    assert_eq!(
        tail(&v[..200]),
        Some(180.0),
        "200 samples carry p90, not p99"
    );
    assert_eq!(tail(&v[..19]), None);
}

#[test]
fn quartiles_match_the_exclusive_method() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    let s = Summary::of(&v);
    assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
    assert_eq!(s.reported, s.median, "one set-up reports its median");
    assert_eq!(Summary::of(&[]).n, 0);
}

#[test]
fn several_setups_report_the_mean_of_their_medians() {
    // Two set-ups in a slow regime, one in a fast one, and a stalled window
    // in each: the stalls do not count, the regimes count by their share.
    let setups = vec![
        vec![100.0, 101.0, 99.0, 10.0, 100.0],
        vec![100.0, 1.0, 100.0],
        vec![130.0, 131.0, 129.0, 130.0, 5.0],
    ];
    let s = Summary::of_setups(&setups);
    assert_eq!(s.reported, 110.0);
    // Median, quartiles and count are of all thirteen windows together.
    assert_eq!((s.median, s.n), (100.0, 13));
    // The median of all windows would have said 100 whatever the third
    // set-up did; one more fast set-up moves the value by its share.
    let mut more = setups.clone();
    more.push(vec![130.0]);
    assert_eq!(Summary::of_setups(&more).reported, 115.0);
    // An empty set-up is no set-up.
    more.push(Vec::new());
    assert_eq!(Summary::of_setups(&more).reported, 115.0);
    assert_eq!(Summary::of_setups(&[]).n, 0);
}

fn scoped(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
    Span {
        name,
        start,
        end,
        parent,
        op: 0,
        scoped: true,
    }
}

#[test]
fn self_time_is_duration_minus_children() {
    // root [0,100) ── a [10,40) ── a1 [15,25)
    //              └─ b [50,90)
    // plus a wait span that overlaps everything and must not count.
    let spans = [
        scoped("app.root", 0, 100, NO_PARENT),
        scoped("core.a", 10, 40, 0),
        scoped("mem.a1", 15, 25, 1),
        scoped("core.b", 50, 90, 0),
        Span {
            name: "ampi.recv_wait",
            start: 5,
            end: 95,
            parent: NO_PARENT,
            op: 0,
            scoped: false,
        },
    ];
    assert_eq!(self_times(&spans), vec![30, 20, 10, 40, 0]);
    // Self times of the tree add up to the root's duration.
    assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
}

#[test]
fn a_child_outliving_its_parent_is_clipped() {
    let spans = [scoped("p", 0, 50, NO_PARENT), scoped("c", 40, 80, 0)];
    assert_eq!(self_times(&spans), vec![40, 40]);
}

#[test]
fn generators_repeat_bit_for_bit_per_seed() {
    let draw = |seed: u64| {
        let mut rng = Rng::fork(seed, 1);
        let zipf = Zipf::new(10_000, 1.1);
        let keys: Vec<usize> = (0..1000).map(|_| zipf.sample(&mut rng)).collect();
        let mut arrivals = OpenLoop::new(seed, 700_000.0, 0);
        let dues: Vec<u64> = (0..1000)
            .map(|_| arrivals.pop_due(u64::MAX).expect("always due"))
            .collect();
        (keys, dues)
    };
    assert_eq!(draw(0xF10E5), draw(0xF10E5));
    assert_ne!(draw(0xF10E5), draw(0xF10E6));
}

#[test]
fn zipf_is_skewed_and_poisson_keeps_its_rate() {
    let mut rng = Rng::new(9);
    let zipf = Zipf::new(10_000, 1.1);
    let n = 200_000;
    let hot = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count() as f64 / n as f64;
    assert!(
        (0.10..0.25).contains(&hot),
        "rank 0 should draw ~15% of requests, drew {hot}"
    );
    let mut arrivals = OpenLoop::new(3, 1_000_000.0, 0);
    let last = (0..n)
        .map(|_| arrivals.pop_due(u64::MAX).expect("due"))
        .last()
        .expect("n > 0");
    let rate = n as f64 / (last as f64 / 1e9);
    assert!((rate / 1e6 - 1.0).abs() < 0.01, "offered {rate} req/s");
}

/// A single-server queue on a fake clock, fed open-loop; the server
/// freezes once for `stall_ns`. Returns (latency from due time, latency
/// from the moment the generator got to inject) per request.
fn stalled_server(stall_ns: u64) -> (Vec<f64>, Vec<f64>) {
    const SERVICE_NS: u64 = 1000;
    let mut arrivals = OpenLoop::new(5, 500_000.0, 0); // 50 % load
    let mut queue = VecDeque::new();
    let (mut from_due, mut from_inject) = (Vec::new(), Vec::new());
    let mut now = 0u64;
    while from_due.len() < 50_000 {
        while let Some(due) = arrivals.pop_due(now) {
            queue.push_back((due, now));
        }
        let Some((due, injected)) = queue.pop_front() else {
            now = arrivals.peek();
            continue;
        };
        now += SERVICE_NS;
        if from_due.len() == 10_000 {
            now += stall_ns;
        }
        from_due.push((now - due) as f64);
        from_inject.push((now - injected) as f64);
    }
    (from_due, from_inject)
}

#[test]
fn open_loop_latency_counts_the_wait_a_stall_imposes() {
    let (due, _) = stalled_server(0);
    let calm_p99 = percentile(&sorted(due), 99.0);
    let (due, inject) = stalled_server(2_000_000);
    let p99_due = percentile(&sorted(due), 99.0);
    let p99_inject = percentile(&sorted(inject), 99.0);
    // 2 ms of stall at 0.5 req/µs queues ~1000 requests and takes as long
    // again to drain: ~4 % of the run waits, so p99 must show it...
    assert!(
        p99_due > 20.0 * calm_p99,
        "stall invisible: p99 {p99_due} vs calm {calm_p99}"
    );
    assert!(p99_due > 500_000.0);
    // ...while a clock started when the generator finally got to inject
    // would have hidden the part of the wait spent behind the stall.
    assert!(p99_inject < p99_due);
}

#[test]
fn a_corrupted_body_fails_its_check() {
    let mut rng = Rng::new(1);
    let mut body = make_body(256, 41, &mut rng);
    assert_eq!(check_body(&body), Some(41));
    restamp_body(&mut body, 42);
    assert_eq!(
        check_body(&body),
        Some(42),
        "restamping keeps the checksum true"
    );
    body[200] ^= 0x10;
    assert_eq!(check_body(&body), None);
    assert_eq!(check_body(&body[..8]), None);
}

#[test]
fn planted_corruption_flips_the_fail_ratio() {
    let leg = Leg {
        seconds: 0.5,
        seed: 0xF10E5,
        setups: 1,
    };
    let clean = flowsbench::sessions::run(leg, false);
    assert_eq!(clean.failed, 0, "{:?}", clean.notes);
    assert!(clean.attempted > 10_000);
    // Sessions corrupt the stack buffer of every 64th key: the driver's
    // digest check must count them.
    let bad = flowsbench::sessions::run(leg, true);
    assert!(bad.failed > 0, "corruption went unnoticed");
    let ratio = bad.failed as f64 / bad.attempted as f64;
    assert!(
        (0.005..0.05).contains(&ratio),
        "expected ~1/64 failures, got {ratio}"
    );
}

#[test]
fn benchmark_json_names_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names = |section: &str| -> Vec<String> {
        let from = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[from..from + text[from..].find(']').expect("section closes")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|s| s[..s.find('"').expect("name closes")].to_string())
            .collect()
    };
    let registry = |list: &[(&str, &str, bool)]| {
        list.iter()
            .map(|(n, _, _)| n.to_string())
            .collect::<Vec<_>>()
    };
    assert_eq!(names("workloads"), flowsbench::report::WORKLOADS);
    assert_eq!(
        names("end_to_end"),
        registry(&flowsbench::report::END_TO_END)
    );
    assert_eq!(names("per_layer"), registry(flowsbench::report::PER_LAYER));
    for (name, unit, higher) in flowsbench::report::END_TO_END
        .iter()
        .chain(flowsbench::report::PER_LAYER)
    {
        let want = format!(
            "\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            if *higher { "higher" } else { "lower" }
        );
        assert!(
            text.contains(&want),
            "BENCHMARK.json disagrees on {name}: want {want}"
        );
    }
}
