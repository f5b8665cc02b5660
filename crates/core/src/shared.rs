//! Process-wide memory pools shared by every PE's scheduler.
//!
//! Isomalloc slots are carved per-PE from one region. The stack-copy
//! scheme shares one *common address*, so (as the paper notes, §3.4.1)
//! only one such thread may be running per address space — enforced with
//! a process-wide lock the scheduler holds exactly while such a thread is
//! on the CPU. Memory-alias threads used to share that restriction
//! (§3.4.3's single common window); they now get private windows from a
//! per-PE range, so any number run concurrently and the alias pool's lock
//! is taken only on bind/retire/migrate — never on a context switch.
//!
//! Exited isomalloc slabs and alias windows park in machine-wide reclaim
//! caches ([`flows_mem::SlabCache`], the alias pool's warm lists) rather
//! than being torn down inline; `Scheduler::flush_reclaim` drains them at
//! idle.

use crate::payload::PayloadPool;
use crate::steal::StealMesh;
use flows_mem::{AliasStackPool, CopyStackPool, IsoConfig, IsoRegion, SlabCache};
use flows_sys::SysResult;
use parking_lot::Mutex;
use std::sync::Arc;

/// Default committed stack bytes for migratable threads (64 KiB).
pub const DEFAULT_STACK_LEN: usize = 64 * 1024;

/// Default common-region / frame length for copy and alias stacks.
pub const DEFAULT_COMMON_LEN: usize = 1 << 20;

/// The process-wide ("machine-wide" in the simulated machine) memory
/// substrate: the isomalloc region plus the single copy-stack region and
/// alias-stack window.
pub struct SharedPools {
    region: Arc<IsoRegion>,
    alias: Mutex<AliasStackPool>,
    copy: Mutex<CopyStackPool>,
    slab_cache: Mutex<SlabCache>,
    payload: Vec<Arc<PayloadPool>>,
    steal: StealMesh,
}

impl std::fmt::Debug for SharedPools {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedPools")
            .field("region", &self.region)
            .finish()
    }
}

impl SharedPools {
    /// Build pools for a machine of `num_pes` PEs with the given isomalloc
    /// layout and common-region length.
    pub fn new(iso: IsoConfig, common_len: usize) -> SysResult<Arc<SharedPools>> {
        let num_pes = iso.num_pes.max(1);
        // Alias windows mirror the isomalloc layout: each PE gets as many
        // private windows as it has slots, so the two migratable flavors
        // hit capacity limits together.
        let windows_per_pe = iso.slots_per_pe.max(1);
        Ok(Arc::new(SharedPools {
            region: IsoRegion::new(iso)?,
            alias: Mutex::new(AliasStackPool::new_windowed(
                common_len,
                num_pes,
                windows_per_pe,
                4,
            )?),
            copy: Mutex::new(CopyStackPool::new(common_len)?),
            slab_cache: Mutex::new(SlabCache::new(num_pes)),
            payload: (0..num_pes).map(|_| PayloadPool::with_defaults()).collect(),
            steal: StealMesh::new(num_pes),
        }))
    }

    /// Pools for a small test machine (2 PEs, kernel-chosen region base so
    /// parallel test binaries never collide).
    pub fn new_for_tests() -> Arc<SharedPools> {
        let mut cfg = IsoConfig::for_pes(2);
        cfg.base = 0; // anywhere
        cfg.slots_per_pe = 64;
        Self::new(cfg, 256 * 1024).expect("test pools")
    }

    /// The machine-wide isomalloc region.
    pub fn region(&self) -> &Arc<IsoRegion> {
        &self.region
    }

    /// The memory-alias pool. The lock guards bind/retire/migrate
    /// bookkeeping only; running alias threads never take it.
    pub fn alias(&self) -> &Mutex<AliasStackPool> {
        &self.alias
    }

    /// The machine-wide cache of exited isomalloc slabs awaiting reuse or
    /// batched reclaim.
    pub fn slab_cache(&self) -> &Mutex<SlabCache> {
        &self.slab_cache
    }

    /// The stack-copy pool (process-wide lock).
    pub fn copy(&self) -> &Mutex<CopyStackPool> {
        &self.copy
    }

    /// The work-stealing coordination mesh (published loads, request
    /// words, donation inboxes).
    pub fn steal(&self) -> &StealMesh {
        &self.steal
    }

    /// The message-payload recycling pool of PE `pe` (clamped, so a
    /// machine built for fewer PEs than callers assume still works).
    pub fn payload_pool(&self, pe: usize) -> &Arc<PayloadPool> {
        &self.payload[pe.min(self.payload.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_construct_and_expose_parts() {
        let p = SharedPools::new_for_tests();
        assert_eq!(p.region().cfg().num_pes, 2);
        assert!(p.alias().lock().frame_len() > 0);
        assert!(!p.copy().lock().is_empty());
        assert_eq!(p.payload_pool(0).stats().allocs, 0);
        // Out-of-range PEs clamp rather than panic.
        let _ = p.payload_pool(99);
    }
}
