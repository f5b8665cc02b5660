//! Property tests on the migration wire format: batched head++payload
//! records must frame and parse exactly, and a hostile buffer — truncated
//! anywhere, or with any byte flipped — must come back as an `Err`, never
//! a panic or a bogus thread.

use flows_core::{
    suspend, PackedThread, Payload, SchedConfig, Scheduler, SharedPools, StackFlavor,
};
use proptest::prelude::*;

/// Pack `n` real threads (alternating migratable flavors) into wire
/// records. Built per test case so each case owns fresh schedulers.
fn packed_threads(n: usize) -> Vec<PackedThread> {
    let s = Scheduler::new(0, SharedPools::new_for_tests(), SchedConfig::default());
    let mut tids = Vec::new();
    for i in 0..n {
        let flavor = if i % 2 == 0 {
            StackFlavor::Isomalloc
        } else {
            StackFlavor::StackCopy
        };
        let tid = s
            .spawn(flavor, move || {
                // Give each image a distinct live-stack footprint.
                let pad = vec![i as u8; 64 + 64 * i];
                suspend();
                drop(pad);
            })
            .unwrap();
        tids.push(tid);
    }
    s.run(); // every thread suspends
    tids.iter().map(|&t| s.pack_thread(t).unwrap()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concatenating records and walking them back with `from_payload`
    /// recovers every thread at the right offset, consuming exactly the
    /// bytes each record wrote.
    #[test]
    fn batched_records_frame_and_parse_exactly(n in 1usize..5) {
        let packed = packed_threads(n);
        let mut wire = Vec::new();
        let mut lens = Vec::new();
        for p in &packed {
            lens.push(p.pack_into(&mut wire));
        }
        let wire = Payload::from_vec(wire);
        let mut off = 0;
        for (p, &len) in packed.iter().zip(&lens) {
            let (back, used) = PackedThread::from_payload(&wire, off).unwrap();
            prop_assert_eq!(used, len, "record must consume the bytes it wrote");
            prop_assert_eq!(back.id(), p.id());
            prop_assert_eq!(back.payload_len(), p.payload_len());
            prop_assert_eq!(back.payload().as_slice(), p.payload().as_slice());
            off += used;
        }
        prop_assert_eq!(off, wire.len(), "no trailing bytes");
    }

    /// Truncating a valid image anywhere must produce an error, not a
    /// panic — and never a silently short thread.
    #[test]
    fn truncated_images_error_never_panic(cut_frac in 0.0f64..1.0) {
        let packed = packed_threads(1).pop().unwrap();
        let bytes = packed.to_bytes();
        let cut = ((bytes.len() as f64) * cut_frac) as usize;
        if cut < bytes.len() {
            prop_assert!(PackedThread::from_bytes(&bytes[..cut]).is_err());
            let short = Payload::from_vec(bytes[..cut].to_vec());
            prop_assert!(PackedThread::from_payload(&short, 0).is_err());
        }
    }

    /// Flipping any byte of a valid image must never panic; if it still
    /// parses, the framing invariants must still hold.
    #[test]
    fn corrupted_images_never_panic(idx_frac in 0.0f64..1.0, flip in 1u32..256) {
        let packed = packed_threads(1).pop().unwrap();
        let mut bytes = packed.to_bytes();
        let idx = ((bytes.len() as f64) * idx_frac) as usize % bytes.len();
        bytes[idx] ^= flip as u8;
        match PackedThread::from_bytes(&bytes) {
            Err(_) => {}
            Ok(p) => {
                // A flip in the raw payload tail parses fine; the head's
                // framing fields must still be self-consistent.
                prop_assert_eq!(p.to_bytes().len(), bytes.len());
            }
        }
    }
}

/// A head whose swap-kind tag (byte 8, after the id) or flavor tag (byte
/// 9) names no value a packed thread can carry is refused by both
/// decoders; the known tags parse. Flavor 3 is the non-migratable
/// `Standard`, which no packed thread has.
#[test]
fn unknown_swap_kind_and_flavor_tags_are_refused() {
    let bytes = packed_threads(1).pop().unwrap().to_bytes();
    for (at, known) in [(8, 0..=2u8), (9, 0..=2u8)] {
        for tag in 0..=u8::MAX {
            let mut b = bytes.clone();
            b[at] = tag;
            let wire = Payload::from_vec(b.clone());
            let parsed = (PackedThread::from_bytes(&b).is_ok(), PackedThread::from_payload(&wire, 0).is_ok());
            let ok = known.contains(&tag);
            assert_eq!(parsed, (ok, ok), "tag {tag} at byte {at}");
        }
    }
}
