//! Unified Virtual Memory (UVM) substrate.
//!
//! Models the CUDA UVM behaviour the paper profiles in §2.2 and competes
//! against in §5.1:
//!
//! * A single virtual address space backed by host memory; data becomes
//!   resident on a GPU only by **page migration** triggered by a GPU-side
//!   **page fault**.
//! * Pages are large (64 KiB migration granularity on modern drivers)
//!   while a node embedding is small (≤ 2.4 KiB for dim-602 floats), so
//!   fault-driven migration wastes most of each page — one of the two UVM
//!   pathologies the paper measures.
//! * Fault servicing has a long fixed latency and limited concurrency, and
//!   the migration itself crosses the *shared* host PCIe path, so fault
//!   pressure grows with GPU count (Figure 3).
//! * Per-GPU residency is capacity-limited with LRU eviction; re-fetching
//!   an evicted page is counted as **thrash**.
//!
//! The model implements [`mgg_sim::PageHandler`], so any kernel trace
//! containing [`mgg_sim::WarpOp::PageAccess`] operations runs against it.

#![deny(missing_docs)]

use std::collections::HashMap;

use mgg_sim::{Interconnect, MultiServerQueue, PageAccessOutcome, PageHandler, SimTime};
use serde::Serialize;

/// Where a faulted page migrates from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationSource {
    /// Pages are staged in host memory; every migration crosses the
    /// shared PCIe path (the §2.2 CPU-to-GPU regime, Figure 3).
    Host,
    /// Pages are GPU-resident, interleaved round-robin across devices;
    /// migrations (read-duplications) cross the GPU fabric, with the
    /// page's home GPU always holding it. This is the steady-state regime
    /// for data that fits in aggregate device memory.
    PeerInterleaved,
}

/// Configuration of the UVM model.
#[derive(Debug, Clone, Copy)]
pub struct UvmConfig {
    /// Migration granularity in bytes (CUDA migrates 64 KiB blocks).
    pub page_bytes: u64,
    /// Resident-page capacity per GPU.
    pub capacity_pages: usize,
    /// Fixed driver latency per fault, in nanoseconds.
    pub fault_latency_ns: u64,
    /// Faults a GPU can service concurrently (the driver batches fault
    /// groups, so this can exceed a handful).
    pub fault_concurrency: u32,
    /// Consecutive pages fetched per fault (batch prefetching, the
    /// ASPLOS'20-style optimization the paper cites; 1 disables it).
    pub prefetch_batch: u32,
    /// Migration path.
    pub source: MigrationSource,
}

impl UvmConfig {
    /// Defaults matching the DGX-A100 model in `mgg-sim`, host staging.
    pub fn a100(capacity_pages: usize) -> Self {
        UvmConfig {
            page_bytes: 64 * 1024,
            capacity_pages,
            fault_latency_ns: 25_000,
            fault_concurrency: 8,
            prefetch_batch: 1,
            source: MigrationSource::Host,
        }
    }

    /// GPU-resident configuration for data that fits in aggregate device
    /// memory: peer-to-peer migration and deeper fault batching. The page
    /// size is scaled to 16 KiB so that the page-to-embedding-table ratio
    /// of the full-size datasets is preserved at the benchmark scale, and
    /// the driver's tree prefetcher pulls 4-page (64 KiB) regions per
    /// fault, as CUDA's heuristic does.
    pub fn a100_resident(capacity_pages: usize) -> Self {
        UvmConfig {
            page_bytes: 16 * 1024,
            capacity_pages,
            fault_latency_ns: 25_000,
            fault_concurrency: 16,
            prefetch_batch: 4,
            source: MigrationSource::PeerInterleaved,
        }
    }
}

/// Counters reported per GPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UvmGpuStats {
    /// Page faults taken.
    pub faults: u64,
    /// Page accesses that hit a resident page.
    pub hits: u64,
    /// Total nanoseconds spent inside fault handling (service + wait).
    pub fault_duration_ns: u64,
    /// Bytes migrated from host to this GPU.
    pub migrated_bytes: u64,
    /// Pages evicted.
    pub evictions: u64,
    /// Faults on pages previously evicted from this GPU (thrash).
    pub thrash_refetches: u64,
}

/// Aggregate UVM statistics.
#[derive(Debug, Clone, Default, Serialize)]
pub struct UvmStats {
    /// Per-GPU fault/migration counters, indexed by PE.
    pub per_gpu: Vec<UvmGpuStats>,
}

impl UvmStats {
    /// Total faults across GPUs.
    pub fn total_faults(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.faults).sum()
    }

    /// Total time spent in fault handling across GPUs.
    pub fn total_fault_duration_ns(&self) -> u64 {
        self.per_gpu.iter().map(|g| g.fault_duration_ns).sum()
    }
}

#[derive(Debug)]
struct PageCache {
    /// page -> (ready time, LRU tick).
    resident: HashMap<u64, (SimTime, u64)>,
    /// Pages ever evicted, for thrash accounting.
    evicted_once: HashMap<u64, u32>,
    tick: u64,
}

impl PageCache {
    fn new() -> Self {
        PageCache {
            resident: HashMap::new(),
            evicted_once: HashMap::new(),
            tick: 0,
        }
    }
}

/// The unified address space with per-GPU residency tracking.
///
/// # Examples
///
/// ```
/// use mgg_sim::{Cluster, ClusterSpec, PageHandler};
/// use mgg_uvm::{UvmConfig, UvmSpace};
///
/// let mut cluster = Cluster::new(ClusterSpec::dgx_a100(2));
/// let mut uvm = UvmSpace::new(2, UvmConfig::a100(64));
///
/// // First touch faults (driver latency + migration)...
/// let miss = uvm.access(0, 0, 7, &mut cluster.ic);
/// assert!(!miss.hit);
/// // ...after which the page is resident.
/// let hit = uvm.access(miss.ready_at, 0, 7, &mut cluster.ic);
/// assert!(hit.hit);
/// ```
#[derive(Debug)]
pub struct UvmSpace {
    cfg: UvmConfig,
    caches: Vec<PageCache>,
    fault_queues: Vec<MultiServerQueue>,
    stats: UvmStats,
}

impl UvmSpace {
    /// Creates the space for `num_gpus` GPUs.
    pub fn new(num_gpus: usize, cfg: UvmConfig) -> Self {
        assert!(cfg.page_bytes > 0, "page size must be positive");
        assert!(cfg.capacity_pages > 0, "capacity must be positive");
        UvmSpace {
            cfg,
            caches: (0..num_gpus).map(|_| PageCache::new()).collect(),
            fault_queues: (0..num_gpus)
                .map(|_| MultiServerQueue::new(cfg.fault_concurrency))
                .collect(),
            stats: UvmStats { per_gpu: vec![UvmGpuStats::default(); num_gpus] },
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.cfg.page_bytes
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &UvmStats {
        &self.stats
    }

    /// Clears residency and counters (fresh kernel, same configuration).
    pub fn reset(&mut self) {
        for c in &mut self.caches {
            c.resident.clear();
            c.evicted_once.clear();
            c.tick = 0;
        }
        for q in &mut self.fault_queues {
            q.reset();
        }
        for s in &mut self.stats.per_gpu {
            *s = UvmGpuStats::default();
        }
    }

    fn evict_if_needed(&mut self, gpu: usize) {
        let cache = &mut self.caches[gpu];
        while cache.resident.len() > self.cfg.capacity_pages {
            // Evict the least recently used page.
            let (&victim, _) = cache
                .resident
                .iter()
                .min_by_key(|(_, &(_, tick))| tick)
                .expect("non-empty cache");
            cache.resident.remove(&victim);
            *cache.evicted_once.entry(victim).or_insert(0) += 1;
            self.stats.per_gpu[gpu].evictions += 1;
        }
    }
}

impl PageHandler for UvmSpace {
    fn access(
        &mut self,
        now: SimTime,
        gpu: usize,
        page: u64,
        ic: &mut Interconnect,
    ) -> PageAccessOutcome {
        let tick = {
            let cache = &mut self.caches[gpu];
            cache.tick += 1;
            cache.tick
        };
        // With interleaved residency, a page's home GPU always holds it.
        let home = match self.cfg.source {
            MigrationSource::Host => None,
            MigrationSource::PeerInterleaved => Some((page % self.caches.len() as u64) as usize),
        };
        if home == Some(gpu) {
            self.stats.per_gpu[gpu].hits += 1;
            return PageAccessOutcome { ready_at: now, hit: true };
        }
        if let Some(&(ready, _)) = self.caches[gpu].resident.get(&page) {
            self.caches[gpu].resident.insert(page, (ready, tick));
            self.stats.per_gpu[gpu].hits += 1;
            return PageAccessOutcome { ready_at: ready.max(now), hit: true };
        }
        // Fault: driver servicing with bounded concurrency, then migration
        // of `prefetch_batch` consecutive pages from the source.
        let service_done = self.fault_queues[gpu].submit(now, self.cfg.fault_latency_ns);
        let batch = self.cfg.prefetch_batch.max(1) as u64;
        let bytes = self.cfg.page_bytes * batch;
        let ready = match home {
            None => ic.host_transfer(service_done, bytes),
            Some(h) => ic.remote_transfer(service_done, h, gpu, bytes),
        };
        {
            let s = &mut self.stats.per_gpu[gpu];
            s.faults += 1;
            s.fault_duration_ns += ready.saturating_sub(now);
            s.migrated_bytes += bytes;
            if self.caches[gpu].evicted_once.contains_key(&page) {
                s.thrash_refetches += 1;
            }
        }
        for p in page..page + batch {
            self.caches[gpu].resident.insert(p, (ready, tick));
        }
        self.evict_if_needed(gpu);
        PageAccessOutcome { ready_at: ready, hit: false }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_sim::{Cluster, ClusterSpec};

    fn setup(gpus: usize, capacity: usize) -> (Cluster, UvmSpace) {
        let cluster = Cluster::new(ClusterSpec::dgx_a100(gpus));
        let uvm = UvmSpace::new(gpus, UvmConfig::a100(capacity));
        (cluster, uvm)
    }

    #[test]
    fn first_touch_faults_then_hits() {
        let (mut c, mut uvm) = setup(2, 16);
        let miss = uvm.access(0, 0, 7, &mut c.ic);
        assert!(!miss.hit);
        assert!(miss.ready_at >= 25_000, "fault must pay driver latency");
        let hit = uvm.access(miss.ready_at, 0, 7, &mut c.ic);
        assert!(hit.hit);
        assert_eq!(hit.ready_at, miss.ready_at);
        assert_eq!(uvm.stats().per_gpu[0].faults, 1);
        assert_eq!(uvm.stats().per_gpu[0].hits, 1);
    }

    #[test]
    fn residency_is_per_gpu() {
        let (mut c, mut uvm) = setup(2, 16);
        let _ = uvm.access(0, 0, 7, &mut c.ic);
        let other = uvm.access(0, 1, 7, &mut c.ic);
        assert!(!other.hit, "GPU 1 must fault independently");
        assert_eq!(uvm.total_faults_for_test(), 2);
    }

    #[test]
    fn capacity_eviction_and_thrash() {
        let (mut c, mut uvm) = setup(1, 2);
        let mut t = 0;
        for p in 0..3u64 {
            t = uvm.access(t, 0, p, &mut c.ic).ready_at;
        }
        assert_eq!(uvm.stats().per_gpu[0].evictions, 1);
        // Page 0 was evicted; touching it again is thrash.
        let out = uvm.access(t, 0, 0, &mut c.ic);
        assert!(!out.hit);
        assert_eq!(uvm.stats().per_gpu[0].thrash_refetches, 1);
    }

    #[test]
    fn lru_keeps_recent_pages() {
        let (mut c, mut uvm) = setup(1, 2);
        let t1 = uvm.access(0, 0, 0, &mut c.ic).ready_at;
        let t2 = uvm.access(t1, 0, 1, &mut c.ic).ready_at;
        // Touch page 0 so page 1 becomes the LRU victim.
        let t3 = uvm.access(t2, 0, 0, &mut c.ic).ready_at;
        let t4 = uvm.access(t3, 0, 2, &mut c.ic).ready_at; // evicts 1
        let again = uvm.access(t4, 0, 0, &mut c.ic);
        assert!(again.hit, "page 0 must have survived LRU");
    }

    #[test]
    fn host_path_is_shared_across_gpus() {
        // Concurrent faults from many GPUs must queue on the host channel:
        // the last completion with 8 GPUs exceeds the one with 2.
        let last_ready = |gpus: usize| {
            let (mut c, mut uvm) = setup(gpus, 1024);
            (0..gpus as u64 * 4)
                .map(|i| uvm.access(0, (i % gpus as u64) as usize, i, &mut c.ic).ready_at)
                .max()
                .unwrap()
        };
        assert!(last_ready(8) > last_ready(2));
    }

    #[test]
    fn prefetch_batch_cuts_faults() {
        let faults = |batch| {
            let cluster = Cluster::new(ClusterSpec::dgx_a100(1));
            let mut c = cluster;
            let mut uvm =
                UvmSpace::new(1, UvmConfig { prefetch_batch: batch, ..UvmConfig::a100(1024) });
            let mut t = 0;
            for p in 0..64u64 {
                t = uvm.access(t, 0, p, &mut c.ic).ready_at;
            }
            uvm.stats().per_gpu[0].faults
        };
        assert_eq!(faults(1), 64);
        assert_eq!(faults(8), 8);
    }

    #[test]
    fn reset_clears_state() {
        let (mut c, mut uvm) = setup(1, 8);
        let _ = uvm.access(0, 0, 3, &mut c.ic);
        uvm.reset();
        assert_eq!(uvm.stats().total_faults(), 0);
        let out = uvm.access(0, 0, 3, &mut c.ic);
        assert!(!out.hit, "residency must be cleared by reset");
    }

    impl UvmSpace {
        fn total_faults_for_test(&self) -> u64 {
            self.stats.total_faults()
        }
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;
    use mgg_sim::{Cluster, ClusterSpec};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn access_accounting_is_consistent(
            accesses in proptest::collection::vec((0usize..4, 0u64..64), 1..120),
            capacity in 1usize..64,
        ) {
            let mut cluster = Cluster::new(ClusterSpec::dgx_a100(4));
            let mut uvm = UvmSpace::new(4, UvmConfig::a100(capacity));
            let mut now = 0;
            for &(gpu, page) in &accesses {
                let out = uvm.access(now, gpu, page, &mut cluster.ic);
                // Ready time never precedes the access.
                prop_assert!(out.ready_at >= now);
                now = out.ready_at;
            }
            let stats = uvm.stats();
            let total: u64 = stats
                .per_gpu
                .iter()
                .map(|g| g.hits + g.faults)
                .sum();
            prop_assert_eq!(total, accesses.len() as u64);
            // Thrash refetches never exceed faults; evictions only happen
            // when capacity was exceeded.
            for g in &stats.per_gpu {
                prop_assert!(g.thrash_refetches <= g.faults);
            }
        }

        #[test]
        fn unbounded_capacity_faults_once_per_page(
            pages in proptest::collection::vec(0u64..32, 1..80),
        ) {
            let mut cluster = Cluster::new(ClusterSpec::dgx_a100(2));
            let mut uvm = UvmSpace::new(2, UvmConfig::a100(1 << 20));
            let mut now = 0;
            for &p in &pages {
                now = uvm.access(now, 0, p, &mut cluster.ic).ready_at;
            }
            let distinct: std::collections::HashSet<_> = pages.iter().collect();
            prop_assert_eq!(uvm.stats().per_gpu[0].faults, distinct.len() as u64);
            prop_assert_eq!(uvm.stats().per_gpu[0].evictions, 0);
        }
    }
}
