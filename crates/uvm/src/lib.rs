//! Unified Virtual Memory (UVM) substrate.
//!
//! Models the CUDA UVM behaviour the paper competes against in §5.1, in
//! the regime of data that fits in aggregate device memory:
//!
//! * One virtual address space whose pages are interleaved round-robin
//!   across the GPUs. A page's home GPU always holds it; another GPU gets
//!   a read-duplicated copy only by **page migration** over the GPU
//!   fabric, triggered by a GPU-side **page fault**.
//! * Pages are large (16 KiB, scaled so that the page-to-embedding-table
//!   ratio of the full-size datasets holds at the benchmark scale) while a
//!   node embedding is small (≤ 2.4 KiB for dim-602 floats), so
//!   fault-driven migration wastes most of each page.
//! * Fault servicing has a long fixed driver latency (25 µs) and bounded
//!   concurrency (16 faults in flight per GPU), and each fault migrates a
//!   4-page (64 KiB) region, as CUDA's tree prefetcher does. With more
//!   GPUs, more of each GPU's pages are remote, so fault pressure grows
//!   with GPU count (Figure 3).
//! * Per-GPU residency is capacity-limited with LRU eviction; re-fetching
//!   an evicted page is counted as **thrash**.
//!
//! These costs apply unchanged on every `mgg_sim::ClusterSpec` preset;
//! the preset's links price only the migration transfer itself.
//!
//! The model implements [`mgg_sim::PageHandler`], so any kernel trace
//! containing [`mgg_sim::WarpOp::PageAccess`] operations runs against it.

#![deny(missing_docs)]

use std::collections::HashMap;

use mgg_sim::{Interconnect, MultiServerQueue, PageAccessOutcome, PageHandler, SimTime};
use serde::Serialize;

/// Migration granularity in bytes.
const PAGE_BYTES: u64 = 16 * 1024;
/// Fixed driver latency per fault, in nanoseconds.
const FAULT_LATENCY_NS: u64 = 25_000;
/// Faults a GPU services concurrently (the driver batches fault groups).
const FAULT_CONCURRENCY: u32 = 16;
/// Consecutive pages migrated per fault.
const PREFETCH_PAGES: u64 = 4;

/// Counters reported per GPU.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct UvmGpuStats {
    /// Page faults taken.
    pub faults: u64,
    /// Page accesses that hit a resident page.
    pub hits: u64,
    /// Total nanoseconds spent inside fault handling (service + wait).
    pub fault_duration_ns: u64,
    /// Bytes migrated to this GPU from the pages' home GPUs.
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
/// use mgg_uvm::UvmSpace;
///
/// let mut cluster = Cluster::new(ClusterSpec::dgx_a100(2));
/// let mut uvm = UvmSpace::new(2, 64);
///
/// // Page 7 lives on GPU 1, so GPU 0's first touch faults (driver
/// // latency + migration)...
/// let miss = uvm.access(0, 0, 7, &mut cluster.ic);
/// assert!(!miss.hit);
/// // ...after which the page is resident.
/// let hit = uvm.access(miss.ready_at, 0, 7, &mut cluster.ic);
/// assert!(hit.hit);
/// ```
#[derive(Debug)]
pub struct UvmSpace {
    capacity_pages: usize,
    caches: Vec<PageCache>,
    fault_queues: Vec<MultiServerQueue>,
    stats: UvmStats,
}

impl UvmSpace {
    /// Creates the space for `num_gpus` GPUs, each holding at most
    /// `capacity_pages` migrated pages.
    pub fn new(num_gpus: usize, capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "capacity must be positive");
        UvmSpace {
            capacity_pages,
            caches: (0..num_gpus).map(|_| PageCache::new()).collect(),
            fault_queues: (0..num_gpus).map(|_| MultiServerQueue::new(FAULT_CONCURRENCY)).collect(),
            stats: UvmStats { per_gpu: vec![UvmGpuStats::default(); num_gpus] },
        }
    }

    /// Page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        PAGE_BYTES
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
        while cache.resident.len() > self.capacity_pages {
            // Evict the least recently used page; pages migrated by the
            // same fault share a tick, so the lower page goes first.
            let (&victim, _) = cache
                .resident
                .iter()
                .min_by_key(|(&page, &(_, tick))| (tick, page))
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
        // A page's home GPU always holds it.
        let home = (page % self.caches.len() as u64) as usize;
        if home == gpu {
            self.stats.per_gpu[gpu].hits += 1;
            return PageAccessOutcome { ready_at: now, hit: true };
        }
        if let Some(&(ready, _)) = self.caches[gpu].resident.get(&page) {
            self.caches[gpu].resident.insert(page, (ready, tick));
            self.stats.per_gpu[gpu].hits += 1;
            return PageAccessOutcome { ready_at: ready.max(now), hit: true };
        }
        // Fault: driver servicing with bounded concurrency, then migration
        // of `PREFETCH_PAGES` consecutive pages from the home GPU.
        let service_done = self.fault_queues[gpu].submit(now, FAULT_LATENCY_NS);
        let bytes = PAGE_BYTES * PREFETCH_PAGES;
        let ready = ic.remote_transfer(service_done, home, gpu, bytes);
        {
            let s = &mut self.stats.per_gpu[gpu];
            s.faults += 1;
            s.fault_duration_ns += ready.saturating_sub(now);
            s.migrated_bytes += bytes;
            if self.caches[gpu].evicted_once.contains_key(&page) {
                s.thrash_refetches += 1;
            }
        }
        for p in page..page + PREFETCH_PAGES {
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
        let uvm = UvmSpace::new(gpus, capacity);
        (cluster, uvm)
    }

    #[test]
    fn first_touch_faults_then_hits() {
        // Page 7 is homed on GPU 1.
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
    fn home_gpu_always_hits() {
        let (mut c, mut uvm) = setup(4, 16);
        for page in 0..16u64 {
            let home = (page % 4) as usize;
            let out = uvm.access(100, home, page, &mut c.ic);
            assert!(out.hit);
            assert_eq!(out.ready_at, 100, "a home page costs no migration");
        }
        assert_eq!(uvm.stats().total_faults(), 0);
    }

    #[test]
    fn residency_is_per_gpu() {
        // Page 7 is homed on GPU 1; GPUs 0 and 2 each migrate their own copy.
        let (mut c, mut uvm) = setup(3, 16);
        let _ = uvm.access(0, 0, 7, &mut c.ic);
        let other = uvm.access(0, 2, 7, &mut c.ic);
        assert!(!other.hit, "GPU 2 must fault independently");
        assert_eq!(uvm.total_faults_for_test(), 2);
    }

    #[test]
    fn capacity_eviction_and_thrash() {
        // Room for one fault's four pages: the fault on page 5 evicts
        // pages 1-4, migrated by the fault on page 1.
        let (mut c, mut uvm) = setup(2, 4);
        let t = uvm.access(0, 0, 1, &mut c.ic).ready_at;
        let t = uvm.access(t, 0, 5, &mut c.ic).ready_at;
        assert_eq!(uvm.stats().per_gpu[0].evictions, 4);
        // Page 1 was evicted; touching it again is thrash.
        let out = uvm.access(t, 0, 1, &mut c.ic);
        assert!(!out.hit);
        assert_eq!(uvm.stats().per_gpu[0].thrash_refetches, 1);
    }

    #[test]
    fn lru_keeps_recent_pages() {
        // The faults on pages 1 and 5 fill the cache with pages 1-8;
        // touching page 1 again leaves pages 2-4 as the LRU victims of
        // the fault on page 9 (with page 5, the oldest of its fault).
        let (mut c, mut uvm) = setup(2, 8);
        let t1 = uvm.access(0, 0, 1, &mut c.ic).ready_at;
        let t2 = uvm.access(t1, 0, 5, &mut c.ic).ready_at;
        let t3 = uvm.access(t2, 0, 1, &mut c.ic).ready_at;
        let t4 = uvm.access(t3, 0, 9, &mut c.ic).ready_at;
        assert!(uvm.access(t4, 0, 1, &mut c.ic).hit, "page 1 must have survived LRU");
        assert!(!uvm.access(t4, 0, 3, &mut c.ic).hit, "page 3 must have been evicted");
    }

    #[test]
    fn eviction_is_deterministic() {
        // Every fault migrates four pages at one tick, so eviction breaks
        // ties; two spaces replaying the same accesses must agree.
        let replay = || {
            let (mut c, mut uvm) = setup(2, 6);
            let mut t = 0;
            for i in 0..200u64 {
                t = uvm.access(t, 0, (i * 7919) % 97, &mut c.ic).ready_at;
            }
            (t, uvm.stats().per_gpu[0])
        };
        assert_eq!(replay(), replay());
    }

    #[test]
    fn each_fault_migrates_four_pages() {
        // GPU 0 walks pages 0..64; its odd pages live on GPU 1, and each
        // fault brings in the next four pages.
        let (mut c, mut uvm) = setup(2, 1024);
        let mut t = 0;
        for p in 0..64u64 {
            t = uvm.access(t, 0, p, &mut c.ic).ready_at;
        }
        let s = uvm.stats().per_gpu[0];
        assert_eq!(s.faults, 16);
        assert_eq!(s.migrated_bytes, 16 * 4 * 16 * 1024);
    }

    #[test]
    fn reset_clears_state() {
        let (mut c, mut uvm) = setup(2, 8);
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
            let mut uvm = UvmSpace::new(4, capacity);
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
        fn unbounded_capacity_faults_once_per_region(
            pages in proptest::collection::vec(0u64..32, 1..80),
        ) {
            // GPU 0 of 2: odd pages live on GPU 1. Without eviction, a
            // remote page faults only if no earlier fault's four-page
            // region covered it.
            let mut cluster = Cluster::new(ClusterSpec::dgx_a100(2));
            let mut uvm = UvmSpace::new(2, 1 << 20);
            let mut now = 0;
            let mut resident = std::collections::HashSet::new();
            let mut faults = 0u64;
            for &p in &pages {
                if p % 2 == 1 && !resident.contains(&p) {
                    faults += 1;
                    resident.extend(p..p + 4);
                }
                now = uvm.access(now, 0, p, &mut cluster.ic).ready_at;
            }
            prop_assert_eq!(uvm.stats().per_gpu[0].faults, faults);
            prop_assert_eq!(uvm.stats().per_gpu[0].evictions, 0);
        }
    }
}
