// AMPI semantics: point-to-point ordering/matching, collectives, and —
// the paper's centerpiece — transparent rank migration under load
// balancing. Plain `//` comments: the root package's
// `tests/ampi_semantics_smoke.rs` `include!`s this file.

use flows_ampi::{run_world, AmpiOptions};
use flows_comm::ReduceOp;
use flows_converse::NetModel;
use flows_lb::{GreedyLb, RotateLb};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

fn opts(ranks: usize, pes: usize) -> AmpiOptions {
    AmpiOptions::new(ranks, pes).with_net(NetModel::zero())
}

#[test]
fn ring_passes_payloads() {
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    let report = run_world(opts(6, 3), move |ampi| {
        let next = (ampi.rank() + 1) % ampi.size();
        ampi.send(next, 1, vec![ampi.rank() as u8; 3]);
        let (src, tag, data) = ampi.recv(None, Some(1));
        assert_eq!(tag, 1);
        assert_eq!(src, (ampi.rank() + ampi.size() - 1) % ampi.size());
        assert_eq!(data, vec![src as u8; 3]);
        s2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 6);
    assert_eq!(report.stranded_threads.iter().sum::<usize>(), 0);
}

#[test]
fn tag_and_source_matching_is_selective() {
    run_world(opts(2, 2), |ampi| {
        if ampi.rank() == 0 {
            // Send in a deliberately confusing order.
            ampi.send(1, 30, vec![30]);
            ampi.send(1, 10, vec![10]);
            ampi.send(1, 20, vec![20]);
        } else {
            // Receive by specific tags, out of arrival order.
            let (_, t, d) = ampi.recv(Some(0), Some(10));
            assert_eq!((t, d[0]), (10, 10));
            let (_, t, d) = ampi.recv(Some(0), Some(20));
            assert_eq!((t, d[0]), (20, 20));
            let (_, t, d) = ampi.recv(None, None); // wildcard gets the rest
            assert_eq!((t, d[0]), (30, 30));
        }
    });
}

#[test]
fn same_tag_messages_arrive_in_send_order() {
    run_world(opts(2, 1), |ampi| {
        if ampi.rank() == 0 {
            for i in 0..10u8 {
                ampi.send(1, 5, vec![i]);
            }
        } else {
            for i in 0..10u8 {
                let (_, _, d) = ampi.recv(Some(0), Some(5));
                assert_eq!(d[0], i, "FIFO per (src, tag)");
            }
        }
    });
}

#[test]
fn collectives_compute_correct_results() {
    run_world(opts(5, 2), |ampi| {
        let r = ampi.rank() as f64;
        // sum over ranks of [r, 2r]
        let s = ampi.allreduce_f64(&[r, 2.0 * r], ReduceOp::SumF64);
        assert_eq!(s, vec![10.0, 20.0]);
        let mx = ampi.allreduce_f64(&[r], ReduceOp::MaxF64);
        assert_eq!(mx, vec![4.0]);
        let mn = ampi.allreduce_f64(&[-r], ReduceOp::MinF64);
        assert_eq!(mn, vec![-4.0]);
        let g = ampi.allgather_f64(r * r);
        assert_eq!(g, vec![0.0, 1.0, 4.0, 9.0, 16.0]);
        let u = ampi.allreduce_u64_sum(&[ampi.rank() as u64, 1]);
        assert_eq!(u, vec![10, 5]);
    });
}

#[test]
fn barriers_order_phases() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let l2 = log.clone();
    run_world(opts(4, 2), move |ampi| {
        l2.lock().unwrap().push((1, ampi.rank()));
        ampi.barrier();
        l2.lock().unwrap().push((2, ampi.rank()));
        ampi.barrier();
        l2.lock().unwrap().push((3, ampi.rank()));
    });
    let log = log.lock().unwrap();
    // Every phase-1 entry precedes every phase-2 entry, etc.
    let phase_positions: Vec<(usize, usize)> =
        log.iter().enumerate().map(|(i, &(p, _))| (p, i)).collect();
    for &(p, i) in &phase_positions {
        for &(q, j) in &phase_positions {
            if p < q {
                assert!(i < j, "phase {p} at {i} must precede phase {q} at {j}: {log:?}");
            }
        }
    }
}

#[test]
fn rotate_lb_migrates_every_rank_and_execution_continues() {
    // RotateLB moves every rank to the next PE at the migrate() point —
    // maximal stress on pack/ship/unpack.
    let seen_pes = Arc::new(Mutex::new(Vec::new()));
    let s2 = seen_pes.clone();
    let report = run_world(
        opts(4, 2).with_strategy(Arc::new(RotateLb)),
        move |ampi| {
            let before = ampi.current_pe();
            // Local state that must survive migration byte-for-byte.
            let mut acc: Vec<u64> = (0..100).map(|i| i * ampi.rank() as u64).collect();
            let heap = ampi.malloc(256).expect("iso heap");
            // SAFETY: fresh allocation, 256 bytes.
            unsafe { std::ptr::write_bytes(heap, ampi.rank() as u8, 256) };

            ampi.migrate();

            let after = ampi.current_pe();
            acc.push(before as u64);
            acc.push(after as u64);
            // SAFETY: heap migrated with us (same address).
            unsafe {
                assert_eq!(*heap, ampi.rank() as u8);
                assert_eq!(*heap.add(255), ampi.rank() as u8);
            }
            assert!(ampi.free(heap));
            let check: u64 = acc.iter().sum();
            let expect: u64 =
                (0..100u64).map(|i| i * ampi.rank() as u64).sum::<u64>() + before as u64 + after as u64;
            assert_eq!(check, expect);
            s2.lock().unwrap().push((ampi.rank(), before, after));
        },
    );
    let seen = seen_pes.lock().unwrap();
    assert_eq!(seen.len(), 4);
    for &(_rank, before, after) in seen.iter() {
        assert_eq!(after, (before + 1) % 2, "every rank rotated one PE over");
    }
    assert_eq!(report.stranded_threads.iter().sum::<usize>(), 0);
}

#[test]
fn messages_chase_migrated_ranks() {
    // Rank 0 stays (on PE0 side of block map), sends to rank 3 *after*
    // rank 3 has rotated away; delivery must follow it.
    let got = Arc::new(AtomicUsize::new(0));
    let g2 = got.clone();
    run_world(
        opts(4, 2).with_strategy(Arc::new(RotateLb)),
        move |ampi| {
            if ampi.rank() == 0 {
                ampi.migrate();
                // After the collective migrate, rank 3 lives on a new PE.
                ampi.send(3, 9, vec![99]);
            } else if ampi.rank() == 3 {
                ampi.migrate();
                let (src, tag, data) = ampi.recv(None, None);
                assert_eq!((src, tag, data[0]), (0, 9, 99));
                g2.fetch_add(1, Ordering::Relaxed);
            } else {
                ampi.migrate();
            }
        },
    );
    assert_eq!(got.load(Ordering::Relaxed), 1);
}

#[test]
fn greedy_lb_drains_overloaded_pe() {
    // 8 ranks block-mapped onto 2 PEs: ranks 0..4 on PE0, 4..8 on PE1.
    // Ranks 0..4 do heavy work before migrate(); greedy should spread
    // them afterwards. We verify some rank actually moved and everything
    // completes.
    let moves = Arc::new(Mutex::new(Vec::new()));
    let m2 = moves.clone();
    run_world(
        opts(8, 2).with_strategy(Arc::new(GreedyLb)),
        move |ampi| {
            // Unbalanced work: low ranks burn CPU.
            let mut sink = 0u64;
            let reps = if ampi.rank() < 4 { 200_000 } else { 1_000 };
            for i in 0..reps {
                sink = sink.wrapping_mul(31).wrapping_add(i);
            }
            std::hint::black_box(sink);
            let before = ampi.current_pe();
            ampi.migrate();
            let after = ampi.current_pe();
            m2.lock().unwrap().push((ampi.rank(), before, after));
            ampi.barrier(); // post-migration collectives still work
        },
    );
    let moves = moves.lock().unwrap();
    assert_eq!(moves.len(), 8);
    assert!(
        moves.iter().any(|&(_, b, a)| b != a),
        "greedy must move someone: {moves:?}"
    );
}

#[test]
fn threaded_mode_runs_the_ring_too() {
    let sum = Arc::new(AtomicU64::new(0));
    let s2 = sum.clone();
    run_world(opts(4, 2).threaded(true), move |ampi| {
        let next = (ampi.rank() + 1) % ampi.size();
        ampi.send(next, 1, vec![1]);
        let _ = ampi.recv(None, Some(1));
        s2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(sum.load(Ordering::Relaxed), 4);
}

#[test]
#[should_panic(expected = "at least one rank per PE")]
fn too_few_ranks_is_refused() {
    run_world(opts(1, 2), |_ampi| {});
}

/// An `assert!` that fails inside a rank body fails the run: the rank's
/// panic ends only its own thread, and `run_world` counts it afterwards.
#[test]
#[should_panic(expected = "1 AMPI rank(s) panicked")]
fn a_rank_panic_fails_the_run() {
    run_world(opts(2, 2), |ampi| {
        assert!(ampi.rank() != 1, "rank 1 fails its check");
    });
}

#[test]
fn nonblocking_irecv_overlaps_compute() {
    run_world(opts(2, 2), |ampi| {
        if ampi.rank() == 0 {
            // Post the receive before the data exists, compute meanwhile.
            let req = ampi.irecv(Some(1), Some(3));
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(i * i);
            }
            std::hint::black_box(acc);
            ampi.send(1, 1, vec![1]); // release the partner
            let (src, tag, data) = ampi.wait(req).expect("recv payload");
            assert_eq!((src, tag, data[0]), (1, 3, 77));
        } else {
            let _ = ampi.recv(Some(0), Some(1)); // wait for go-ahead
            ampi.send(0, 3, vec![77]);
        }
    });
}

#[test]
fn test_polls_without_blocking() {
    run_world(opts(2, 1), |ampi| {
        if ampi.rank() == 0 {
            let mut req = ampi.irecv(Some(1), Some(9));
            assert!(!ampi.test(&mut req), "nothing sent yet");
            assert!(!req.is_complete());
            ampi.send(1, 8, vec![0]); // tell rank 1 to go
            // Spin-test with yields until the payload lands.
            while !ampi.test(&mut req) {
                flows_core::yield_now();
            }
            assert!(req.is_complete());
            let (_, _, d) = ampi.wait(req).unwrap();
            assert_eq!(d, vec![5]);
            // isend requests are born complete.
            let s = ampi.isend(1, 10, vec![1]);
            assert!(s.is_complete());
        } else {
            let _ = ampi.recv(Some(0), Some(8));
            ampi.send(0, 9, vec![5]);
            let _ = ampi.recv(Some(0), Some(10));
        }
    });
}

/// A wildcard tag matches user tags only: a `scatter` chunk that arrives
/// ahead of user mail is left for the `scatter` it belongs to, whether the
/// ranks share a PE or not. What rank 1 got is checked outside the world,
/// since a rank's panic ends only that rank.
#[test]
fn a_wildcard_recv_leaves_collective_traffic_alone() {
    for pes in [1, 2] {
        let got = Arc::new(Mutex::new(Vec::new()));
        let g2 = got.clone();
        run_world(opts(2, pes), move |ampi| {
            if ampi.rank() == 0 {
                ampi.scatter(0, Some(vec![vec![0], vec![1]]));
                ampi.send(1, 7, vec![7]);
            } else {
                let (src, tag, data) = ampi.recv(Some(0), None);
                g2.lock().unwrap().push((src, tag, data));
                let chunk = ampi.scatter(0, None);
                g2.lock().unwrap().push((0, 0, chunk));
            }
        });
        let got = got.lock().unwrap().clone();
        assert_eq!(got, [(0, 7, vec![7]), (0, 0, vec![1])], "on {pes} PE(s)");
    }
}

#[test]
fn bcast_scatter_alltoall() {
    run_world(opts(4, 2), |ampi| {
        let n = ampi.size();
        let me = ampi.rank();
        // Bcast from rank 2.
        let got = ampi.bcast(2, if me == 2 { vec![42, 43] } else { vec![] });
        assert_eq!(got, vec![42, 43]);
        // Scatter from rank 1: chunk j = [j; j+1].
        let chunks = (me == 1).then(|| (0..n).map(|j| vec![j as u8; j + 1]).collect());
        let mine = ampi.scatter(1, chunks);
        assert_eq!(mine, vec![me as u8; me + 1]);
        // Alltoall: part for j = [me*10 + j]. Received[src] = [src*10 + me].
        let parts = (0..n).map(|j| vec![(me * 10 + j) as u8]).collect();
        let blocks = ampi.alltoall(parts);
        for (src, b) in blocks.iter().enumerate() {
            assert_eq!(b, &vec![(src * 10 + me) as u8]);
        }
        // Twice in a row: reserved tags must not collide.
        let parts = (0..n).map(|j| vec![(me + j) as u8]).collect();
        let blocks = ampi.alltoall(parts);
        for (src, b) in blocks.iter().enumerate() {
            assert_eq!(b, &vec![(src + me) as u8]);
        }
    });
}

mod faulty_transport_props {
    //! AMPI guarantees are *semantics*, not best-effort: per-(src, tag)
    //! FIFO ordering and exact reduction results must hold under any mix
    //! of injected duplication, reordering, delay and loss — and across a
    //! mid-run migration of every rank. The checksum is position-weighted,
    //! so any reorder, drop or double-delivery changes the answer.

    use super::*;
    use flows_converse::FaultPlan;
    use flows_lb::RotateLb;
    use proptest::prelude::*;

    const MSGS: usize = 6;

    fn ring_under_faults(ranks: usize, pes: usize, plan: FaultPlan) {
        let n = ranks;
        // Each rank's order-sensitive checksum of what it receives from
        // its ring predecessor, then the analytic all-ranks total.
        let expected_total: u64 = (0..n as u64)
            .map(|src| {
                (0..MSGS as u64)
                    .map(|i| (src * MSGS as u64 + i) * (i + 1))
                    .sum::<u64>()
            })
            .sum();
        run_world(
            AmpiOptions::new(ranks, pes)
                .with_net(NetModel::default())
                .with_strategy(Arc::new(RotateLb))
                .with_faults(plan),
            move |ampi| {
                let me = ampi.rank();
                let next = (me + 1) % n;
                let src = (me + n - 1) % n;
                for i in 0..MSGS / 2 {
                    ampi.send(next, 5, ((me * MSGS + i) as u64).to_le_bytes().to_vec());
                }
                // Every rank moves to another PE mid-stream; in-flight and
                // stashed messages must chase it.
                ampi.migrate();
                for i in MSGS / 2..MSGS {
                    ampi.send(next, 5, ((me * MSGS + i) as u64).to_le_bytes().to_vec());
                }
                let mut check = 0u64;
                for i in 0..MSGS {
                    let (from, _, data) = ampi.recv(Some(src), Some(5));
                    assert_eq!(from, src);
                    let v = u64::from_le_bytes(data[..8].try_into().unwrap());
                    assert_eq!(
                        v,
                        (src * MSGS + i) as u64,
                        "rank {me}: message {i} out of send order"
                    );
                    check = check.wrapping_add(v * (i as u64 + 1));
                }
                let total = ampi.allreduce_u64_sum(&[check]);
                assert_eq!(total[0], expected_total, "rank {me}: reduction corrupted");
            },
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        #[test]
        fn ordering_and_reductions_survive_any_fault_mix(
            seed in any::<u64>(),
            ranks in 4usize..7,
            pes in 2usize..4,
            dup in 0u32..4,
            reorder in 0u32..4,
            delay in 0u32..3,
            drop in 0u32..3,
        ) {
            prop_assume!(ranks >= pes * 2);
            let plan = FaultPlan::new(seed)
                .dup_prob(dup as f64 * 0.1)
                .reorder_prob(reorder as f64 * 0.1)
                .delay(delay as f64 * 0.1, 40_000)
                .drop_prob(drop as f64 * 0.05);
            ring_under_faults(ranks, pes, plan);
        }
    }
}

#[test]
fn waitall_gathers_many() {
    run_world(opts(3, 1), |ampi| {
        if ampi.rank() == 0 {
            let reqs: Vec<_> = (1..3).map(|s| ampi.irecv(Some(s), Some(4))).collect();
            ampi.send(1, 1, vec![]);
            ampi.send(2, 1, vec![]);
            let got = ampi.waitall(reqs);
            assert_eq!(got.len(), 2);
            let mut vals: Vec<u8> = got.into_iter().map(|g| g.unwrap().2[0]).collect();
            vals.sort();
            assert_eq!(vals, vec![10, 20]);
        } else {
            let _ = ampi.recv(Some(0), Some(1));
            ampi.send(0, 4, vec![ampi.rank() as u8 * 10]);
        }
    });
}

/// Pooled buffers drawn on every PE (`PoolStats::allocs + reuses`).
fn pool_draws() -> u64 {
    flows_converse::with_pe(|pe| {
        let s = pe.payload_pool().stats();
        s.allocs + s.reuses
    })
}

/// A point-to-point message costs one pooled buffer end to end: the send
/// packs bytes, rank header and route header into one buffer, and every
/// routing hop forwards that buffer in place. A 2-PE ping of N 4 KiB
/// messages draws N buffers plus the two barriers' constant share
/// (three per message before the one-copy path).
#[test]
fn a_routed_message_draws_one_pooled_buffer() {
    const N: u64 = 64;
    let draws = Arc::new(Mutex::new(Vec::new()));
    let d2 = draws.clone();
    run_world(opts(2, 2), move |ampi| {
        ampi.barrier();
        let before = pool_draws();
        for i in 0..N {
            if ampi.rank() == 0 {
                ampi.send(1, 5, vec![i as u8; 4096]);
            } else {
                let (_, _, data) = ampi.recv(Some(0), Some(5));
                assert_eq!(data, vec![i as u8; 4096]);
            }
        }
        ampi.barrier();
        d2.lock().unwrap().push(pool_draws() - before);
    });
    let draws = draws.lock().unwrap();
    assert_eq!(draws.len(), 2);
    let total: u64 = draws.iter().sum();
    assert!(
        (N..N + 16).contains(&total),
        "{total} draws for {N} messages ({draws:?})"
    );
}

/// `recv` hands the user the arrived buffer itself: the headers trail the
/// body, so the delivered message is a prefix of its pooled wire buffer,
/// which leaves the sender's pool (`PoolStats::detached`) instead of being
/// copied into a fresh `Vec`. A 2-PE stream of N 64 KiB messages arrives
/// intact and in order; each was drawn as one pooled buffer at send (the
/// message's one copy), and each returned `Vec` is that buffer, trailer
/// truncated — a fresh copy would have exactly its length as capacity.
#[test]
fn recv_hands_over_the_arrived_buffer() {
    const N: u64 = 48;
    const BODY: usize = 64 * 1024;
    const TRAILER: usize = 25 + 14; // rank header + routing header
    let draws = Arc::new(Mutex::new(Vec::new()));
    let d2 = draws.clone();
    let report = run_world(opts(2, 2), move |ampi| {
        ampi.barrier();
        let before = pool_draws();
        for i in 0..N {
            let body: Vec<u8> = (0..BODY).map(|j| (i as usize * 31 + j) as u8).collect();
            if ampi.rank() == 0 {
                ampi.send(1, 6, body);
            } else {
                let (src, tag, data) = ampi.recv(Some(0), Some(6));
                assert_eq!((src, tag), (0, 6));
                assert!(data == body, "message {i} arrived intact and in order");
                assert!(
                    data.capacity() >= BODY + TRAILER,
                    "message {i}: recv returned a copy (capacity {})",
                    data.capacity()
                );
            }
        }
        ampi.barrier();
        d2.lock().unwrap().push(pool_draws() - before);
    });
    let detached: u64 = report.pools.iter().map(|p| p.detached).sum();
    assert_eq!(detached, N, "one pooled buffer handed to recv per message");
    let total: u64 = draws.lock().unwrap().iter().sum();
    assert!((N..N + 16).contains(&total), "{total} draws for {N} messages");
}

/// Malformed rank wires — too short for the header, or of an unknown
/// kind — are counted drops beside the routing layer's, never a panic.
#[test]
fn malformed_rank_wires_are_counted_drops() {
    let drops = Arc::new(AtomicU64::new(u64::MAX));
    let d2 = drops.clone();
    run_world(opts(2, 2), move |ampi| {
        if ampi.rank() == 0 {
            let me = flows_comm::ObjId(0);
            flows_converse::with_pe(|pe| {
                flows_comm::route(pe, me, flows_ampi::proto::PORT_AMPI, vec![0u8; 24]);
                // The rank header trails the body: its kind byte is the
                // first of the last 25.
                let mut kind2 = vec![0u8; 40];
                kind2[40 - 25] = 2;
                flows_comm::route(pe, me, flows_ampi::proto::PORT_AMPI, kind2);
            });
        }
        // Both were queued on rank 0's PE ahead of its contribution.
        ampi.barrier();
        if ampi.rank() == 0 {
            d2.store(
                flows_converse::with_pe(flows_comm::route_drops),
                Ordering::Relaxed,
            );
        }
    });
    assert_eq!(drops.load(Ordering::Relaxed), 2);
}

/// `len` bytes of `fill` in a `Vec` whose capacity, `len * 3 / 2 + 1`,
/// marks it: a copy has capacity `len` and a pooled wire buffer the pool's
/// size, so a `recv` result of this capacity at the address the sender
/// recorded is the sent allocation itself, not a reuse of its memory.
fn marked(fill: u8, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len * 3 / 2 + 1);
    v.resize(len, fill);
    v
}

/// The address and capacity that identify a [`marked`] buffer.
fn identity(v: &Vec<u8>) -> (usize, usize) {
    (v.as_ptr() as usize, v.capacity())
}

/// Mail to a rank on the sender's own PE is admitted where it is sent:
/// the sender's `Vec` is the mailbox entry, and `recv` hands that very
/// allocation back. Two ranks on one PE pass N 4 KiB messages; each
/// arrives as the buffer its sender built, and the N messages draw no
/// pooled buffer beyond the barriers' constant share.
#[test]
fn same_pe_mail_is_the_senders_own_allocation() {
    const N: usize = 64;
    let sent = Arc::new(Mutex::new(Vec::new()));
    let (draws, verified) = (
        Arc::new(AtomicU64::new(u64::MAX)),
        Arc::new(AtomicUsize::new(0)),
    );
    let (s2, d2, v2) = (sent.clone(), draws.clone(), verified.clone());
    let report = run_world(opts(2, 1), move |ampi| {
        ampi.barrier();
        let before = pool_draws();
        for i in 0..N {
            if ampi.rank() == 0 {
                let body = marked(i as u8, 4096);
                s2.lock().unwrap().push(identity(&body));
                ampi.send(1, 5, body);
            } else {
                let (_, _, data) = ampi.recv(Some(0), Some(5));
                assert_eq!(data, vec![i as u8; 4096]);
                assert_eq!(
                    identity(&data),
                    s2.lock().unwrap()[i],
                    "message {i}: recv returned a copy, not the sender's buffer"
                );
                v2.fetch_add(1, Ordering::Relaxed);
            }
        }
        ampi.barrier();
        if ampi.rank() == 0 {
            d2.store(pool_draws() - before, Ordering::Relaxed);
        }
    });
    assert_eq!(
        verified.load(Ordering::Relaxed),
        N,
        "every message was the sent buffer"
    );
    let draws = draws.load(Ordering::Relaxed);
    assert!(draws < 16, "{draws} pooled draws for {N} same-PE messages");
    assert_eq!(
        report.pe_delivered_in_place,
        [N as u64],
        "every message took the local path"
    );
}

/// Moves rank 1 alone, one PE up per load-balancing epoch.
struct TourLb;

impl flows_lb::LbStrategy for TourLb {
    fn name(&self) -> &'static str {
        "TourLB"
    }

    fn decide(&self, stats: &flows_lb::LbStats) -> Vec<flows_lb::Migration> {
        stats
            .objs
            .iter()
            .filter(|o| o.id == 1)
            .map(|o| flows_lb::Migration {
                obj: o.id,
                from: o.pe,
                to: (o.pe + 1) % stats.num_pes,
            })
            .collect()
    }
}

/// One sender's stream keeps MPI order while its path switches under it.
/// Rank 1 tours PE 1 → 2 → 0 → 1 across three epochs while rank 0 (on
/// PE 0) keeps sending: routed or forwarded mail at first, posted on
/// PE 0 itself while rank 1 lives there, routed again once it leaves.
/// Mail still being forwarded when rank 1 lands on PE 0 is overtaken by
/// the locally posted sequel, which `admit` stashes until its predecessors
/// arrive. Every message arrives once, in send order.
#[test]
fn mail_keeps_its_order_while_its_path_switches() {
    const PER_PHASE: u64 = 40;
    let tour = Arc::new(Mutex::new(Vec::new()));
    let t2 = tour.clone();
    let report = run_world(
        opts(3, 3).with_strategy(Arc::new(TourLb)),
        move |ampi| match ampi.rank() {
            0 => {
                for i in 0..4 * PER_PHASE {
                    ampi.send(1, 3, i.to_le_bytes().to_vec());
                    if i % PER_PHASE == PER_PHASE - 1 && i < 3 * PER_PHASE {
                        ampi.migrate();
                    }
                }
            }
            1 => {
                let mut pes = vec![ampi.current_pe()];
                for _ in 0..3 {
                    ampi.migrate();
                    pes.push(ampi.current_pe());
                }
                for i in 0..4 * PER_PHASE {
                    let (src, tag, data) = ampi.recv(None, None);
                    assert_eq!((src, tag), (0, 3));
                    let got = u64::from_le_bytes(data[..8].try_into().unwrap());
                    assert_eq!(got, i, "message {i} out of order");
                }
                let mut more = ampi.irecv(None, None);
                assert!(!ampi.test(&mut more), "a message arrived twice");
                *t2.lock().unwrap() = pes;
            }
            _ => (0..3).for_each(|_| ampi.migrate()),
        },
    );
    assert_eq!(*tour.lock().unwrap(), [1, 2, 0, 1], "rank 1's tour");
    assert!(
        report.pe_delivered_in_place[0] >= PER_PHASE,
        "the phase on PE 0 took the local path: {:?}",
        report.pe_delivered_in_place
    );
    assert_eq!(report.stranded_threads.iter().sum::<usize>(), 0);
}

/// Mail over links that duplicate and reorder is admitted from a shared
/// view: the link's retransmit table holds the wire until its ack, so
/// admission copies the body instead of taking the buffer over. Rank 1
/// tours the PEs as above while rank 0 streams bodies of 65 to 319 bytes
/// (each over `INLINE_CAP`, so each is an `Arc`-backed view) under a
/// seeded plan in modeled time, while forwarded mail races the direct
/// path. Every body arrives once, with its bytes, in send order.
#[test]
fn shared_views_are_copied_at_admission_under_duplicating_links() {
    const PER_PHASE: u64 = 30;
    let body = |i: u64| -> Vec<u8> {
        (0..65 + (i * 37) % 255)
            .map(|j| (i * 7 + j) as u8)
            .collect()
    };
    let plan = flows_converse::FaultPlan::new(0xD0D0)
        .dup_prob(0.3)
        .reorder_prob(0.3);
    let report = run_world(
        opts(3, 3)
            .with_strategy(Arc::new(TourLb))
            .modeled_time(true)
            .with_faults(plan),
        move |ampi| match ampi.rank() {
            0 => {
                for i in 0..4 * PER_PHASE {
                    ampi.send(1, 3, body(i));
                    if i % PER_PHASE == PER_PHASE - 1 && i < 3 * PER_PHASE {
                        ampi.migrate();
                    }
                }
            }
            1 => {
                for _ in 0..3 {
                    ampi.migrate();
                }
                for i in 0..4 * PER_PHASE {
                    let (src, tag, data) = ampi.recv(None, None);
                    assert_eq!((src, tag), (0, 3));
                    assert!(data == body(i), "message {i} out of order or damaged");
                }
                let mut more = ampi.irecv(None, None);
                assert!(!ampi.test(&mut more), "a message arrived twice");
            }
            _ => (0..3).for_each(|_| ampi.migrate()),
        },
    );
    let faults = report.faults.expect("fault summary");
    assert!(
        faults.duplicated > 0 && faults.reordered > 0,
        "the plan must bite: {faults:?}"
    );
    assert_eq!(report.stranded_threads.iter().sum::<usize>(), 0);
}

/// Send-to-self takes the same-PE path: the messages come back in order
/// within each tag, as the very buffers that were sent.
#[test]
fn send_to_self_returns_the_sent_buffers_in_order() {
    let done = Arc::new(AtomicUsize::new(0));
    let d2 = done.clone();
    run_world(opts(2, 2), move |ampi| {
        let me = ampi.rank();
        let mut sent = Vec::new();
        for i in 0..8u8 {
            let body = marked(i, 100);
            sent.push(identity(&body));
            ampi.send(me, u64::from(i % 2), body);
        }
        // Odd tags first, then the even ones: matching is by tag, order
        // within a tag is send order.
        for tag in [1u64, 0] {
            for i in (tag as u8..8).step_by(2) {
                let (src, t, data) = ampi.recv(Some(me), Some(tag));
                assert_eq!((src, t), (me, tag));
                assert_eq!(data, vec![i; 100]);
                let got = identity(&data);
                assert_eq!(got, sent[i as usize], "message {i} copied");
            }
        }
        let (_, _, echo) = ampi.sendrecv(me, 9, vec![7; 3], Some(me), Some(9));
        assert_eq!(echo, [7; 3]);
        d2.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(
        done.load(Ordering::Relaxed),
        2,
        "both ranks got their own mail back"
    );
}

/// `(report.messages, report.pe_delivered)` of the rings below, measured
/// when every message still took the routed self-hop.
const RING_1PE: (u64, [u64; 1]) = (28, [28]);
const RING_2PE: (u64, [u64; 2]) = (42, [24, 18]);

/// The same-PE path books every message exactly as the routed self-hop
/// it replaced: deterministic rings on one PE and on two keep the
/// machine's message total and per-PE dispatch counts measured when every
/// message still took the hop.
#[test]
fn ring_message_counts_are_unchanged_by_the_local_path() {
    fn ring(pes: usize) -> flows_converse::MachineReport {
        run_world(opts(4, pes), |ampi| {
            let (me, n) = (ampi.rank(), ampi.size());
            for round in 0..5u8 {
                ampi.send((me + 1) % n, 2, vec![round; 300]);
                let (src, _, data) = ampi.recv(Some((me + n - 1) % n), Some(2));
                assert_eq!((src, data[0]), ((me + n - 1) % n, round));
            }
            ampi.barrier();
        })
    }
    let one = ring(1);
    assert_eq!(
        (one.messages, one.pe_delivered.clone()),
        (RING_1PE.0, RING_1PE.1.to_vec())
    );
    assert_eq!(
        one.pe_delivered_in_place,
        [20],
        "all 20 ring messages stay on the PE"
    );
    let two = ring(2);
    assert_eq!(
        (two.messages, two.pe_delivered.clone()),
        (RING_2PE.0, RING_2PE.1.to_vec())
    );
    assert_eq!(
        two.pe_delivered_in_place,
        [5, 5],
        "one of each PE's two ring links is local"
    );
}
