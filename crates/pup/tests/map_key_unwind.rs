//! Packing a map reads each key through a bitwise copy. If a key's `pup`
//! unwinds, that copy must not be dropped: the map still owns the key,
//! and dropping both would free it twice.

use flows_pup::{pack_into, Pup, Puper};
use std::collections::{BTreeMap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Drops counted per map kind, so the two tests can run side by side.
static DROPS: [AtomicUsize; 2] = [AtomicUsize::new(0), AtomicUsize::new(0)];

#[derive(Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key<const M: usize>(u32);

impl<const M: usize> Drop for Key<M> {
    fn drop(&mut self) {
        DROPS[M].fetch_add(1, Ordering::SeqCst);
    }
}

impl<const M: usize> Pup for Key<M> {
    fn pup(&mut self, p: &mut Puper) {
        if p.is_packing() {
            panic!("this key refuses to pack");
        }
        self.0.pup(p);
    }
}

fn packing_unwinds<T: Pup>(map: &mut T) -> bool {
    let mut out = Vec::new();
    catch_unwind(AssertUnwindSafe(|| pack_into(map, &mut out))).is_err()
}

#[test]
fn btree_map_key_that_unwinds_is_dropped_once() {
    let mut map = BTreeMap::new();
    map.insert(Key::<0>(7), 1u8);
    assert!(packing_unwinds(&mut map));
    assert_eq!(
        DROPS[0].load(Ordering::SeqCst),
        0,
        "the map still owns its key"
    );
    drop(map);
    assert_eq!(DROPS[0].load(Ordering::SeqCst), 1);
}

#[test]
fn hash_map_key_that_unwinds_is_dropped_once() {
    let mut map = HashMap::new();
    map.insert(Key::<1>(7), 1u8);
    assert!(packing_unwinds(&mut map));
    assert_eq!(
        DROPS[1].load(Ordering::SeqCst),
        0,
        "the map still owns its key"
    );
    drop(map);
    assert_eq!(DROPS[1].load(Ordering::SeqCst), 1);
}
