//! A torn-down scheduler gives its isomalloc region back. Slots retired
//! through the slab cache's batched flush must release their region
//! reference, or every dropped machine leaves its reservation — and the
//! per-slot mappings carved into it — mapped for the life of the process.
//!
//! Its own test binary: it counts this process's mappings, so nothing may
//! map or unmap beside it.

use flows_core::{SchedConfig, Scheduler, SharedPools, StackFlavor};

const SCHEDULERS: usize = 5;
const THREADS: usize = 1_000;

fn mappings() -> usize {
    flows_mem::maps::read_self_maps()
        .expect("read /proc/self/maps")
        .len()
}

#[test]
fn dropped_schedulers_unmap_their_regions() {
    let before = mappings();
    for _ in 0..SCHEDULERS {
        let mut iso = flows_mem::IsoConfig::for_pes(1);
        iso.base = 0;
        iso.slots_per_pe = THREADS + 24;
        iso.slot_len = 128 * 1024;
        let s = Scheduler::new(
            0,
            SharedPools::new(iso, 256 * 1024).unwrap(),
            SchedConfig::default(),
        );
        for _ in 0..THREADS {
            s.spawn_with(StackFlavor::Isomalloc, 16 * 1024, || {})
                .unwrap();
        }
        s.run();
        assert_eq!(s.thread_count(), 0);
        // Idle: the cached slabs go back in one coalesced batch.
        s.flush_reclaim();
    }
    let after = mappings();
    assert!(
        after <= before + 50,
        "{before} mappings before {SCHEDULERS} schedulers of {THREADS} threads came and went, {after} after"
    );
}
