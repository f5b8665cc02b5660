//! The one hasher for keys the machine mints itself.
//!
//! Thread ids, ranks, `ObjId`s, ports, generations, SDAG events and
//! `(tag, seq)` pairs are small counters or constants handed out by the
//! runtime. The maps keyed by them are probed on the per-message and
//! per-switch paths, where SipHash (~20 ns on a `u64`) costs more than the
//! work around it. The identity hash is free but clusters, because ids are
//! sequential counters and — in a multi-process machine — `rank << 48 | n`,
//! which hashbrown would split into a handful of control tags (top 7 bits)
//! and one bucket run (low bits).
//!
//! [`IdHasher`] multiplies each word into a 128-bit product and folds it:
//! the multiply spreads the low-entropy id over the whole product; the fold
//! brings the well-mixed high half down onto the low bits hashbrown indexes
//! with. Ids are minted by the machine itself, never chosen by outside
//! input, so no collision resistance is needed — and a map keyed by
//! anything a peer or a user can choose must keep std's `RandomState`.
//! With no random seed, iteration order is the same in every process.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-and-fold hasher for machine-minted ids (see the module docs).
#[derive(Default, Clone, Copy)]
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn fold(&mut self, n: u64) {
        // 2^64 / φ, odd: consecutive ids land maximally far apart.
        let m = u128::from(self.0 ^ n) * 0x9E37_79B9_7F4A_7C15_u128;
        self.0 = m as u64 ^ (m >> 64) as u64;
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Every id type hashes through the fixed-width methods below; this
        // is the trait's required method, not a path the maps take.
        for &b in bytes {
            self.fold(u64::from(b));
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.fold(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.fold(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.fold(n as u64);
    }
}

/// A map keyed by a machine-minted id.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// A set of machine-minted ids.
pub type IdSet<K> = HashSet<K, BuildHasherDefault<IdHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadId;
    use std::hash::{BuildHasher, Hash};

    /// Stand-in for `flows_comm::ObjId`: a derived `Hash` on a one-field
    /// tuple struct hashes exactly as its field.
    #[derive(Hash)]
    struct ObjId(u64);

    /// hashbrown indexes with the low bits and keeps the top 7 as the
    /// control tag: with a table holding four keys per bucket on average,
    /// no bucket may hold more than four times that, and the keys must
    /// spread over at least half the 128 tags.
    fn assert_spreads<K: Hash>(shape: &str, keys: &[K]) {
        let build = BuildHasherDefault::<IdHasher>::default();
        let nbuckets = (keys.len() / 4).next_power_of_two();
        let mut buckets = vec![0usize; nbuckets];
        let mut tags = std::collections::HashSet::new();
        for k in keys {
            let h = build.hash_one(k);
            buckets[(h as usize) & (nbuckets - 1)] += 1;
            tags.insert(h >> 57);
        }
        let mean = keys.len() / nbuckets;
        let worst = *buckets.iter().max().unwrap();
        assert!(
            worst <= 4 * mean,
            "{shape}: a bucket holds {worst} keys (mean {mean})"
        );
        assert!(
            tags.len() >= 64,
            "{shape}: only {} distinct control tags",
            tags.len()
        );
    }

    #[test]
    fn tid_hasher_spreads_sequential_and_namespaced_ids() {
        let sequential: Vec<ThreadId> = (1..=4096).map(ThreadId).collect();
        let namespaced: Vec<ThreadId> = (0..4u64)
            .flat_map(|r| (0..1024u64).map(move |n| ThreadId(r << 48 | n)))
            .collect();
        assert_spreads("sequential thread ids", &sequential);
        assert_spreads("namespaced thread ids", &namespaced);
        let ranks: Vec<ObjId> = (0..4096).map(ObjId).collect();
        assert_spreads("ranks as ObjId", &ranks);
        let tag_seq: Vec<(u64, u64)> = (0..64u64)
            .flat_map(|tag| (0..64u64).map(move |seq| (tag, seq)))
            .collect();
        assert_spreads("(tag, seq) pairs", &tag_seq);
        let ports: Vec<u8> = (0..=u8::MAX).collect();
        assert_spreads("u8 ports", &ports);
        let events: Vec<u32> = (0..4096).collect();
        assert_spreads("u32 SDAG events", &events);
    }

    #[test]
    fn iteration_order_follows_the_keys_not_the_process() {
        // No random seed: two maps built from the same keys in the same
        // order iterate identically, here and in every other process.
        let a: IdMap<u64, u64> = (0..100).map(|k| (k * 7, k)).collect();
        let b: IdMap<u64, u64> = (0..100).map(|k| (k * 7, k)).collect();
        assert!(a.iter().eq(b.iter()));
    }
}
