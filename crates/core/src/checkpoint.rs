//! Checkpoint/restart and PE evacuation — two applications the paper
//! derives directly from migration (§3): *"checkpointing is simply
//! migration to disk or the local memory of a remote processor"*
//! (refs [12], [42]), and moving all work off a processor to vacate a
//! node expected to fail or be shut down (refs [17], [34]).
//!
//! A [`Checkpoint`] is the packed images of every migratable thread of a
//! scheduler. It serializes with PUP, so it can be written to disk and
//! read back. Restoring requires the same process/isomalloc region (the
//! slots' virtual addresses must still be reserved) — on a real machine
//! this is the "restart on the same cluster layout" requirement the
//! Charm++ checkpoint papers describe.

use crate::migrate::PackedThread;
use crate::scheduler::Scheduler;
use crate::tcb::ThreadId;
use flows_pup::pup_fields;
use flows_sys::error::{SysError, SysResult};

/// Frame constants for serialized checkpoints: `b"FCKP"`, a format
/// version, the payload byte length and a word-lane checksum
/// ([`frame_sum`]). Version 3 is the word-lane sum around an AMPI rank
/// image that is exactly its LB batch record. Version 2 frames (the same
/// sum around the older image with a world id, an epoch and a
/// length-prefixed thread) and version 1 frames (byte-wise FNV-1a) are
/// refused as an unsupported version.
const CKPT_MAGIC: [u8; 4] = *b"FCKP";
const CKPT_VERSION: u32 = 3;

/// Byte length of the self-describing frame header written by
/// [`frame_in_place`].
pub const FRAME_HEADER_LEN: usize = 4 + 4 + 8 + 8;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01B3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
    h
}

/// The frame checksum: FNV-1a over little-endian `u64` words in four
/// interleaved lanes (32-byte stripes), so the four multiply chains run
/// side by side instead of one dependent multiply per byte. The tail that
/// does not fill a stripe goes through byte-wise FNV-1a and the lanes are
/// folded into that tail hash. Every step is `(state ^ input) * odd`, a
/// bijection in the input, so any change confined to one word — in
/// particular any single-byte corruption — always changes the sum.
fn frame_sum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET; 4];
    let mut stripes = bytes.chunks_exact(32);
    for s in &mut stripes {
        for (l, w) in lanes.iter_mut().zip(s.chunks_exact(8)) {
            *l = (*l ^ u64::from_le_bytes(w.try_into().expect("8-byte word")))
                .wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = fnv1a(stripes.remainder());
    for l in lanes {
        h = (h ^ l).wrapping_mul(FNV_PRIME);
    }
    h
}

/// Build a checkpoint frame at the end of `out` without copying its
/// payload: reserve the header, let `pack` append the payload right
/// behind it, then write magic, format version, payload length and the
/// word-lane checksum into the reservation. The one header writer — the
/// fault-tolerance layers pack a rank image straight into the buffer that
/// is then shelved and shipped to buddy PEs, and a replica is validated
/// with exactly the same frame logic as an on-disk image.
pub fn frame_in_place(out: &mut Vec<u8>, pack: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.resize(start + FRAME_HEADER_LEN, 0);
    pack(out);
    let (head, payload) = out[start..].split_at_mut(FRAME_HEADER_LEN);
    head[..4].copy_from_slice(&CKPT_MAGIC);
    head[4..8].copy_from_slice(&CKPT_VERSION.to_le_bytes());
    head[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    head[16..].copy_from_slice(&frame_sum(payload).to_le_bytes());
}

/// Wrap an already-packed payload in the checkpoint frame (see
/// [`frame_in_place`]); used by [`Checkpoint`] serialization.
pub fn frame_payload(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame_in_place(&mut out, |o| o.extend_from_slice(payload));
    out
}

/// Validate a frame written by [`frame_in_place`] and return the payload.
/// Rejects truncation, foreign bytes, version skew, length mismatch and
/// bit flips with a precise error — a corrupt replica must be *detected*,
/// never misparsed.
pub fn unframe_payload(bytes: &[u8]) -> SysResult<&[u8]> {
    let err = |what: String| SysError::logic("checkpoint", what);
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(err(format!(
            "truncated header: {} bytes, need {FRAME_HEADER_LEN}",
            bytes.len()
        )));
    }
    if bytes[..4] != CKPT_MAGIC {
        return Err(err(format!(
            "bad magic {:02x?} (not a checkpoint image)",
            &bytes[..4]
        )));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != CKPT_VERSION {
        return Err(err(format!(
            "unsupported checkpoint version {version} (this build reads {CKPT_VERSION})"
        )));
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let sum = u64::from_le_bytes(bytes[16..24].try_into().expect("8 bytes"));
    let payload = &bytes[FRAME_HEADER_LEN..];
    if payload.len() != len {
        return Err(err(format!(
            "payload length mismatch: header says {len}, got {}",
            payload.len()
        )));
    }
    if frame_sum(payload) != sum {
        return Err(err("checksum mismatch: image is corrupt".into()));
    }
    Ok(payload)
}

/// A scheduler's worth of suspended work, as bytes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Checkpoint {
    /// Source PE (informational).
    pub pe: u64,
    threads: Vec<PackedThread>,
}
pup_fields!(Checkpoint { pe, threads });

impl Checkpoint {
    /// Number of packed threads.
    pub fn len(&self) -> usize {
        self.threads.len()
    }

    /// Whether the checkpoint holds no threads.
    pub fn is_empty(&self) -> bool {
        self.threads.is_empty()
    }

    /// Serialize with a self-describing frame (the "to disk" half of
    /// migration-to-disk): magic, format version, payload length and a
    /// checksum, so a truncated or bit-flipped image is rejected with a
    /// precise error instead of being misparsed into garbage threads.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut me = self.clone();
        frame_payload(&flows_pup::to_bytes(&mut me))
    }

    /// Deserialize, verifying the frame written by [`Checkpoint::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> SysResult<Checkpoint> {
        let payload = unframe_payload(bytes)?;
        flows_pup::from_bytes(payload)
            .map_err(|e| SysError::logic("checkpoint", format!("corrupt payload: {e}")))
    }

    /// Write to a file.
    pub fn save(&self, path: &std::path::Path) -> SysResult<()> {
        std::fs::write(path, self.to_bytes())
            .map_err(|e| SysError::logic("checkpoint_save", e.to_string()))
    }

    /// Read from a file.
    pub fn load(path: &std::path::Path) -> SysResult<Checkpoint> {
        let bytes = std::fs::read(path)
            .map_err(|e| SysError::logic("checkpoint_load", e.to_string()))?;
        Self::from_bytes(&bytes)
    }
}

impl Scheduler {
    /// Pack **every** thread of this scheduler into a checkpoint, leaving
    /// the scheduler empty (the threads now live in the image — exactly a
    /// migration whose destination is a byte buffer).
    ///
    /// Fails without side effects if any live thread cannot be packed
    /// (running, unstarted, or of the non-migratable Standard flavor);
    /// checkpointing half a computation would be worse than failing.
    pub fn checkpoint(&self) -> SysResult<Checkpoint> {
        // SAFETY: single-OS-thread access between context switches.
        let ids: Vec<ThreadId> = unsafe {
            let inner = &*self.inner_ptr();
            // Pre-validate so failure leaves everything in place.
            for t in inner.threads.values() {
                t.packable()
                    .map_err(|why| SysError::logic("checkpoint", format!("{} {why}", t.id)))?;
            }
            inner.threads.keys().copied().collect()
        };
        let mut threads = Vec::with_capacity(ids.len());
        for tid in ids {
            threads.push(self.pack_thread(tid)?);
        }
        Ok(Checkpoint {
            pe: self.pe() as u64,
            threads,
        })
    }

    /// Reinstate every thread of a checkpoint on this scheduler (the
    /// restart half, or the arrival half of evacuation). Ready threads
    /// rejoin the run queue; suspended ones await their wake-ups.
    pub fn restore(&self, ckpt: Checkpoint) -> SysResult<Vec<ThreadId>> {
        let mut ids = Vec::with_capacity(ckpt.threads.len());
        for packed in ckpt.threads {
            ids.push(self.unpack_thread(packed)?);
        }
        Ok(ids)
    }
}

/// Vacate `from`: move every thread it holds onto `to` (paper §3 —
/// "migration can allow all the work to be moved off a processor ... to
/// vacate a node that is expected to fail").
pub fn evacuate(from: &Scheduler, to: &Scheduler) -> SysResult<Vec<ThreadId>> {
    let ckpt = from.checkpoint()?;
    to.restore(ckpt)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suspend, SchedConfig, SharedPools, StackFlavor};
    use std::cell::Cell;
    use std::rc::Rc;

    fn two_phase(result: Rc<Cell<u64>>, x: u64) -> impl FnOnce() + 'static {
        move || {
            let partial: u64 = (0..x).map(|i| i * i).sum();
            suspend(); // ---- checkpoint happens here ----
            result.set(result.get() + partial + x);
        }
    }

    #[test]
    fn checkpoint_to_disk_and_restart() {
        let pools = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, pools.clone(), SchedConfig::default());
        let result = Rc::new(Cell::new(0u64));
        let mut tids = Vec::new();
        for x in [10u64, 20, 30] {
            tids.push(
                pe0.spawn(StackFlavor::Isomalloc, two_phase(result.clone(), x))
                    .unwrap(),
            );
        }
        pe0.run(); // phase 1 everywhere, all suspended
        let ckpt = pe0.checkpoint().unwrap();
        assert_eq!(ckpt.len(), 3);
        assert_eq!(pe0.thread_count(), 0, "threads now live in the image");

        // Round-trip through a real file: migration to disk.
        let path = std::env::temp_dir().join(format!("flows-ckpt-{}.bin", std::process::id()));
        ckpt.save(&path).unwrap();
        let loaded = Checkpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.len(), 3);

        // "Restart": a fresh scheduler adopts the threads and finishes.
        let pe1 = Scheduler::new(1, pools, SchedConfig::default());
        let ids = pe1.restore(loaded).unwrap();
        assert_eq!(ids.len(), 3);
        for tid in tids {
            pe1.awaken_tid(tid).unwrap();
        }
        pe1.run();
        let expect: u64 = [10u64, 20, 30]
            .iter()
            .map(|&x| (0..x).map(|i| i * i).sum::<u64>() + x)
            .sum();
        assert_eq!(result.get(), expect);
    }

    #[test]
    fn checkpoint_is_atomic_on_failure() {
        let pools = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, pools, SchedConfig::default());
        let r = Rc::new(Cell::new(0u64));
        pe0.spawn(StackFlavor::Isomalloc, two_phase(r.clone(), 5))
            .unwrap();
        // A Standard thread poisons the checkpoint...
        let t_std = pe0
            .spawn(StackFlavor::Standard, two_phase(r.clone(), 7))
            .unwrap();
        pe0.run();
        let err = pe0.checkpoint().unwrap_err();
        assert!(err.to_string().contains("non-migratable"));
        // ...but nothing was lost: both threads still here and resumable.
        assert_eq!(pe0.thread_count(), 2);
        pe0.awaken_tid(t_std).unwrap();
        pe0.run();
        assert_eq!(r.get(), (0..7u64).map(|i| i * i).sum::<u64>() + 7);
    }

    #[test]
    fn evacuation_moves_everything() {
        let pools = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, pools.clone(), SchedConfig::default());
        let pe1 = Scheduler::new(1, pools, SchedConfig::default());
        let result = Rc::new(Cell::new(0u64));
        let mut tids = Vec::new();
        for x in 1..=5u64 {
            for flavor in [StackFlavor::Isomalloc, StackFlavor::StackCopy, StackFlavor::Alias] {
                tids.push(
                    pe0.spawn(flavor, two_phase(result.clone(), x)).unwrap(),
                );
            }
        }
        pe0.run();
        let moved = evacuate(&pe0, &pe1).unwrap();
        assert_eq!(moved.len(), 15);
        assert_eq!(pe0.thread_count(), 0, "PE0 is vacated");
        for tid in tids {
            pe1.awaken_tid(tid).unwrap();
        }
        pe1.run();
        let expect: u64 = (1..=5u64)
            .map(|x| 3 * ((0..x).map(|i| i * i).sum::<u64>() + x))
            .sum();
        assert_eq!(result.get(), expect);
    }

    #[test]
    fn corrupt_checkpoint_files_are_rejected() {
        let pools = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, pools, SchedConfig::default());
        let r = Rc::new(Cell::new(0u64));
        pe0.spawn(StackFlavor::Isomalloc, two_phase(r, 3)).unwrap();
        pe0.run();
        let bytes = pe0.checkpoint().unwrap().to_bytes();
        assert!(Checkpoint::from_bytes(&bytes[..bytes.len() / 2]).is_err());
        assert!(!Checkpoint::from_bytes(&[]).is_ok_and(|c| c.is_empty()));
        let ok = Checkpoint::from_bytes(&bytes).unwrap();
        assert_eq!(ok.len(), 1);
        // A well-framed image whose thread head names an unknown swap kind
        // or flavor is refused at load, not later at restore. The payload
        // is pe, the thread count, then the head: id, swap kind, flavor.
        let payload = unframe_payload(&bytes).unwrap();
        for at in [24, 25] {
            let mut bad = payload.to_vec();
            bad[at] = 7;
            assert!(Checkpoint::from_bytes(&frame_payload(&bad)).is_err(), "tag 7 at byte {at}");
        }
    }

    /// Rollback primitive: threads of every flavor — started or not — can
    /// be discarded in place, and their stack resources come back to the
    /// pools (re-spawning after a mass discard succeeds).
    #[test]
    fn discard_thread_reclaims_every_flavor() {
        let pools = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, pools, SchedConfig::default());
        let r = Rc::new(Cell::new(0u64));
        let flavors = [
            StackFlavor::Standard,
            StackFlavor::Isomalloc,
            StackFlavor::StackCopy,
            StackFlavor::Alias,
        ];
        let mut tids = Vec::new();
        for f in flavors {
            tids.push(pe0.spawn(f, two_phase(r.clone(), 9)).unwrap());
        }
        pe0.run(); // all reach the suspend point (started, stacks live)
        for f in flavors {
            // Unstarted spawns are discardable too (their entry closure
            // must be reclaimed without ever running).
            tids.push(pe0.spawn(f, two_phase(r.clone(), 1)).unwrap());
        }
        assert_eq!(pe0.thread_count(), 8);
        let before = r.get();
        for tid in tids {
            pe0.discard_thread(tid).unwrap();
        }
        assert_eq!(pe0.thread_count(), 0, "every thread discarded");
        pe0.run();
        assert_eq!(r.get(), before, "discarded work never completed");
        // Resources were returned: a full complement spawns again
        // (the alias window would run out of frames if leaked).
        for _ in 0..4 {
            for f in flavors {
                pe0.spawn(f, two_phase(r.clone(), 2)).unwrap();
            }
        }
        let err = pe0.discard_thread(crate::tcb::ThreadId(u64::MAX)).unwrap_err();
        assert!(err.to_string().contains("not here"));
    }

    mod frame_props {
        use super::super::{frame_in_place, frame_payload, unframe_payload, FRAME_HEADER_LEN};
        use proptest::prelude::*;

        proptest! {
            /// Replicated checkpoint frames round-trip exactly: what the
            /// buddy stores is bit-identical to what the owner framed.
            #[test]
            fn frame_roundtrips_exactly(payload in proptest::collection::vec(any::<u8>(), 0..4097)) {
                let framed = frame_payload(&payload);
                prop_assert_eq!(framed.len(), FRAME_HEADER_LEN + payload.len());
                prop_assert_eq!(unframe_payload(&framed).unwrap(), &payload[..]);
            }

            /// A frame built in place behind bytes already in the buffer
            /// leaves them alone and is byte-identical to `frame_payload`,
            /// however the payload is appended.
            #[test]
            fn in_place_frame_matches_frame_payload(
                prefix in proptest::collection::vec(any::<u8>(), 0..40),
                payload in proptest::collection::vec(any::<u8>(), 0..4097),
            ) {
                let mut out = prefix.clone();
                frame_in_place(&mut out, |o| {
                    for chunk in payload.chunks(7) {
                        o.extend_from_slice(chunk);
                    }
                });
                prop_assert_eq!(&out[..prefix.len()], &prefix[..]);
                prop_assert_eq!(&out[prefix.len()..], &frame_payload(&payload)[..]);
            }

            /// Any single-byte corruption of a framed image — header or
            /// payload — is detected, never misparsed into a "valid"
            /// different payload, and never panics.
            #[test]
            fn frame_detects_any_single_byte_corruption(
                payload in proptest::collection::vec(any::<u8>(), 0..4097),
                at in any::<usize>(),
                xor in 1u32..256,
            ) {
                let mut framed = frame_payload(&payload);
                let i = at % framed.len();
                framed[i] ^= xor as u8;
                prop_assert!(unframe_payload(&framed).is_err(), "flip at byte {} undetected", i);
            }

            /// Any truncation of a framed image is detected (the fallback
            /// to an older replica generation relies on this).
            #[test]
            fn frame_detects_any_truncation(
                payload in proptest::collection::vec(any::<u8>(), 1..4097),
                keep in any::<usize>(),
            ) {
                let framed = frame_payload(&payload);
                let n = keep % framed.len(); // 0..len-1: strictly shorter
                prop_assert!(unframe_payload(&framed[..n]).is_err(), "truncation to {} undetected", n);
            }
        }
    }

    /// `len` bytes from a splitmix64 stream: a fixed, platform-independent
    /// filler for known-answer vectors.
    fn seeded(len: usize, mut s: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(len);
        while v.len() < len {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let n = (len - v.len()).min(8);
            v.extend_from_slice(&z.to_le_bytes()[..n]);
        }
        v
    }

    /// Known answers pin the checksum itself: every process of a
    /// multi-process machine verifies frames another one wrote, so the
    /// format must not drift between builds.
    #[test]
    fn frame_sum_known_answers() {
        assert_eq!(frame_sum(&[]), 0xf797_3b6e_20c9_7451);
        let ramp: Vec<u8> = (0..=255u8).collect();
        assert_eq!(frame_sum(&ramp), 0x2fad_0fe5_f7ea_0e11);
        let buf = seeded(64 * 1024 + 7, 0xF10E5);
        assert_eq!(&buf[..4], &[0x45, 0xd8, 0x28, 0x60]);
        assert_eq!(frame_sum(&buf), 0x9fe5_fdf3_a8e7_9962);
        // The frame header carries exactly that sum, little-endian.
        let framed = frame_payload(&ramp);
        assert_eq!(framed[16..24], 0x2fad_0fe5_f7ea_0e11u64.to_le_bytes());
    }

    /// Every single-byte corruption of a 100-byte payload — all four
    /// lanes, three full stripes and a 4-byte tail, every xor pattern —
    /// and of its header is caught; every tail length round-trips.
    #[test]
    fn frame_detects_every_single_byte_flip_exhaustively() {
        let payload = seeded(100, 7);
        let mut bad = frame_payload(&payload);
        for i in 0..bad.len() {
            for xor in 1..=255u8 {
                bad[i] ^= xor;
                assert!(
                    unframe_payload(&bad).is_err(),
                    "flip {xor:#04x} at byte {i} undetected"
                );
                bad[i] ^= xor;
            }
        }
        for len in 0..=payload.len() {
            assert_eq!(
                unframe_payload(&frame_payload(&payload[..len])).unwrap(),
                &payload[..len]
            );
        }
    }

    /// Single-bit flips across a checkpoint-sized payload (256 KiB + 13):
    /// first and last byte, both sides of stripe and word boundaries, the
    /// tail, and a seeded sample in between.
    #[test]
    fn frame_sum_detects_sampled_bit_flips_in_a_large_payload() {
        let mut payload = seeded(256 * 1024 + 13, 0x5EED2);
        let n = payload.len();
        let sum = frame_sum(&payload);
        let tail = n / 32 * 32;
        let mut at = vec![0, 1, 7, 8, 31, 32, 33, 63, 64, 4095, 4096];
        at.extend([tail - 33, tail - 32, tail - 1, tail, tail + 1, n - 2, n - 1]);
        let mut rng = 0x9E37_79B9u64;
        for _ in 0..48 {
            rng = rng
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            at.push((rng >> 33) as usize % n);
        }
        for (k, &i) in at.iter().enumerate() {
            let bit = 1u8 << (k % 8);
            payload[i] ^= bit;
            assert_ne!(
                frame_sum(&payload),
                sum,
                "bit {bit:#04x} at byte {i} undetected"
            );
            payload[i] ^= bit;
        }
        assert_eq!(frame_sum(&payload), sum);
    }

    /// A version-1 frame (byte-wise FNV-1a) is refused for its version —
    /// never misreported as corrupt, never read.
    #[test]
    fn version_1_frames_are_refused_by_version() {
        let payload = b"a version-1 checkpoint image";
        let mut v1 = Vec::new();
        v1.extend_from_slice(&CKPT_MAGIC);
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        v1.extend_from_slice(&fnv1a(payload).to_le_bytes());
        v1.extend_from_slice(payload);
        let err = unframe_payload(&v1).unwrap_err().to_string();
        assert!(err.contains("unsupported checkpoint version 1"), "{err}");
    }

    /// A version-2 frame — the word-lane sum around the older rank image —
    /// is refused for its version although its checksum holds: this build
    /// has no reader for that image.
    #[test]
    fn version_2_frames_are_refused_by_version() {
        let mut v2 = frame_payload(b"a version-2 checkpoint image");
        v2[4..8].copy_from_slice(&2u32.to_le_bytes());
        let err = unframe_payload(&v2).unwrap_err().to_string();
        assert!(err.contains("unsupported checkpoint version 2"), "{err}");
    }

    /// The frame catches every corruption class with a precise error:
    /// truncation, wrong magic, wrong version, short payload, bit flips.
    #[test]
    fn checkpoint_frame_rejects_each_corruption_mode() {
        let pools = SharedPools::new_for_tests();
        let pe0 = Scheduler::new(0, pools.clone(), SchedConfig::default());
        let r = Rc::new(Cell::new(0u64));
        let tid = pe0.spawn(StackFlavor::Isomalloc, two_phase(r.clone(), 4)).unwrap();
        pe0.run();
        let bytes = pe0.checkpoint().unwrap().to_bytes();

        let msg = |b: &[u8]| Checkpoint::from_bytes(b).unwrap_err().to_string();
        assert!(msg(&bytes[..10]).contains("truncated header"));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(msg(&bad).contains("bad magic"));
        let mut bad = bytes.clone();
        bad[4] = 0xFF; // version field
        assert!(msg(&bad).contains("unsupported checkpoint version"));
        assert!(msg(&bytes[..bytes.len() - 1]).contains("length mismatch"));
        let mut bad = bytes.clone();
        *bad.last_mut().unwrap() ^= 0x01; // flip one payload bit
        assert!(msg(&bad).contains("checksum mismatch"));

        // The pristine image still restores and the thread completes.
        let ckpt = Checkpoint::from_bytes(&bytes).unwrap();
        let pe1 = Scheduler::new(1, pools, SchedConfig::default());
        pe1.restore(ckpt).unwrap();
        pe1.awaken_tid(tid).unwrap();
        pe1.run();
        assert_eq!(r.get(), (0..4u64).map(|i| i * i).sum::<u64>() + 4);
    }
}
