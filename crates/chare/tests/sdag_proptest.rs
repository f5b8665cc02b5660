//! Property tests: the SDAG FSM is insensitive to event arrival order
//! within an `overlap` and never loses or duplicates messages.

use flows_chare::{atomic, for_n, overlap, seq, when, Node, SdagRun};
use proptest::prelude::*;
use proptest::test_runner::TestRng;

#[derive(Default, Debug, Clone, PartialEq)]
struct St {
    per_event: [u64; 4],
    works: u64,
}

fn figure1_prog(iters: u64, events: usize) -> Node<St> {
    for_n(
        move |_| iters,
        seq(vec![
            overlap(
                (0..events as u32)
                    .map(|e| {
                        when(e, move |s: &mut St, m: Vec<u8>| {
                            s.per_event[e as usize] += m[0] as u64
                        })
                    })
                    .collect(),
            ),
            atomic(|s: &mut St| s.works += 1),
        ]),
    )
}

proptest! {
    #[test]
    fn any_interleaving_reaches_same_state(
        iters in 1u64..5,
        events in 1usize..4,
        seed in any::<u64>(),
    ) {
        // Build the full schedule: each iteration needs one message per
        // event. Shuffle *within* each iteration (SDAG requires iteration
        // k's messages before k+1's only in the sense that `when`s consume
        // FIFO per event — same-event messages keep their order).
        let mut rng = TestRng::from_seed(seed);
        let mut run = SdagRun::new(&figure1_prog(iters, events), St::default());
        for it in 0..iters {
            let mut batch: Vec<u32> = (0..events as u32).collect();
            // Fisher-Yates.
            for i in (1..batch.len()).rev() {
                batch.swap(i, rng.below(i as u64 + 1) as usize);
            }
            for e in batch {
                run.deliver(e, vec![(it + 1) as u8]);
            }
        }
        prop_assert!(run.is_done());
        prop_assert_eq!(run.state().works, iters);
        let expect: u64 = (1..=iters).sum();
        for e in 0..events {
            prop_assert_eq!(run.state().per_event[e], expect);
        }
        prop_assert_eq!(run.buffered(), 0, "no lost/duplicated messages");
    }

    #[test]
    fn early_flood_then_drain(extra in 0usize..10) {
        // Deliver everything up front, including for future iterations —
        // the FSM must buffer and consume in program order.
        let iters = 3u64;
        let mut run = SdagRun::new(&figure1_prog(iters, 2), St::default());
        for _ in 0..iters {
            run.deliver(0, vec![1]);
        }
        for _ in 0..iters {
            run.deliver(1, vec![1]);
        }
        prop_assert!(run.is_done());
        prop_assert_eq!(run.state().works, iters);
        // Excess messages just sit in the buffer harmlessly.
        let mut run2 = SdagRun::new(&figure1_prog(1, 1), St::default());
        for _ in 0..1 + extra {
            run2.deliver(0, vec![1]);
        }
        prop_assert!(run2.is_done());
        prop_assert_eq!(run2.buffered(), extra);
    }
}
