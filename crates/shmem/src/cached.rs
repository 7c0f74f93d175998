//! The caching read path: an [`EmbedCache`] per issuing PE in front of the
//! resilience plane.
//!
//! [`CachedRegion`] is what the engine threads between aggregation and the
//! symmetric heap. A remote row that was fetched recently is served from
//! the issuing GPU's local cache (no fabric transaction, no retry
//! exposure); duplicate requests inside one non-blocking batch window
//! coalesce onto the first request's landing buffer, the way a warp-scope
//! coalescer merges duplicate in-flight GETs.
//!
//! Correctness invariant: the cache stores exact copies of rows read from
//! the region, and the region's rows do not change while a `CachedRegion`
//! borrows it — so every `get`/`get_nbi` writes bit-identical data into
//! `dst` whether it hit, missed or coalesced. Caching changes *which*
//! requests touch the fabric, never the values.

use std::collections::HashMap;

use mgg_cache::{CacheConfig, CacheKey, CacheStats, EmbedCache, WarpCoalescer};
use mgg_fault::FaultSchedule;

use crate::region::SymmetricRegion;
use crate::resilience::{ResilienceStats, ResilientRegion, ShmemError};

/// Per-issuing-PE cache state: the replacement cache plus the current
/// non-blocking batch window.
#[derive(Debug)]
struct PeCache {
    cache: EmbedCache,
    /// Row payloads, parallel to the cache's slots.
    rows: Vec<Vec<f32>>,
    /// The warp-scope batch window: keys already requested since the last
    /// `begin_batch`/`quiet`.
    coalescer: WarpCoalescer,
    /// Landing buffers of the current window, so coalesced duplicates can
    /// read their payload even if the backing slot was since evicted (a
    /// real coalescer holds the landing buffer for the window's lifetime).
    inflight: HashMap<u64, Vec<f32>>,
}

impl PeCache {
    fn new(capacity_rows: usize, cfg: &CacheConfig) -> Self {
        PeCache {
            // Guarded: an undersized per-PE cache degrades to pass-through
            // instead of thrashing (see `EmbedCache::with_thrash_guard`).
            cache: EmbedCache::with_thrash_guard(capacity_rows, cfg.policy),
            rows: Vec::new(),
            coalescer: WarpCoalescer::new(),
            inflight: HashMap::new(),
        }
    }

    fn store(&mut self, slot: Option<usize>, data: &[f32]) {
        if let Some(slot) = slot {
            if self.rows.len() <= slot {
                self.rows.resize(slot + 1, Vec::new());
            }
            self.rows[slot].clear();
            self.rows[slot].extend_from_slice(data);
        }
    }
}

/// A caching view of a [`SymmetricRegion`]: remote GETs consult a per-PE
/// [`EmbedCache`] first and fall through to a [`ResilientRegion`] on miss.
///
/// Each issuing PE gets an independent cache (GPUs do not share HBM), built
/// lazily on first use so a view serving one partition pays for one cache.
#[derive(Debug)]
pub struct CachedRegion<'a> {
    inner: ResilientRegion<'a>,
    cfg: CacheConfig,
    capacity_rows: usize,
    pes: Vec<Option<PeCache>>,
}

impl<'a> CachedRegion<'a> {
    /// Wraps `region` with per-PE caches sized for `dim`-wide f32 rows
    /// under `cfg`'s byte budget, fetching misses through a resilient view
    /// that consults `faults`.
    pub fn new(
        region: &'a SymmetricRegion,
        faults: Option<&'a FaultSchedule>,
        cfg: CacheConfig,
        dim: usize,
    ) -> Self {
        CachedRegion {
            inner: ResilientRegion::new(region, faults),
            cfg,
            capacity_rows: cfg.capacity_rows((dim * 4) as u32),
            pes: (0..region.num_pes()).map(|_| None).collect(),
        }
    }

    /// Opens a new non-blocking batch window for `issuing_pe`: duplicate
    /// keys requested after this point coalesce onto one fabric
    /// transaction until [`CachedRegion::quiet`] closes the window.
    pub fn begin_batch(&mut self, issuing_pe: usize) {
        let pc = self.pe_cache(issuing_pe);
        pc.coalescer.begin();
        pc.inflight.clear();
    }

    /// Blocking cached GET. Returns `true` when served from the cache
    /// without a fabric transaction. Misses fetch through the resilience
    /// plane and are admitted.
    pub fn get(
        &mut self,
        dst: &mut [f32],
        issuing_pe: usize,
        src_pe: usize,
        src_row: u32,
    ) -> Result<bool, ShmemError> {
        let key = CacheKey { pe: src_pe as u16, row: src_row };
        let pc = self.pe_cache(issuing_pe);
        let lookup = pc.cache.access(key);
        if lookup.hit {
            dst.copy_from_slice(&pc.rows[lookup.slot.expect("hit has a slot")]);
            return Ok(true);
        }
        if let Err(e) = self.inner.get(dst, issuing_pe, src_pe, src_row) {
            // The miss admitted the key but its payload never arrived;
            // drop it so a later request refetches instead of hitting on
            // stale slot contents.
            self.pes[issuing_pe].as_mut().expect("cache built above").cache.invalidate(key);
            return Err(e);
        }
        self.pes[issuing_pe].as_mut().expect("cache built above").store(lookup.slot, dst);
        Ok(false)
    }

    /// Non-blocking cached GET, mirroring
    /// [`ResilientRegion::get_nbi`]'s semantics: the copy into `dst` is
    /// immediate (functional data plane), completion of fabric misses is
    /// settled by [`CachedRegion::quiet`]. Within the current batch window
    /// a duplicate `(src_pe, src_row)` coalesces: it reads the first
    /// request's landing buffer and issues nothing.
    pub fn get_nbi(
        &mut self,
        dst: &mut [f32],
        issuing_pe: usize,
        src_pe: usize,
        src_row: u32,
    ) -> Result<(), ShmemError> {
        let key = CacheKey { pe: src_pe as u16, row: src_row };
        let pc = self.pe_cache(issuing_pe);
        if !pc.coalescer.admit(key) {
            pc.cache.note_coalesced(1);
            let landed = pc
                .inflight
                .get(&key.pack())
                .expect("coalesced key has a landing buffer in this window");
            dst.copy_from_slice(landed);
            return Ok(());
        }
        let lookup = pc.cache.access(key);
        if lookup.hit {
            let slot = lookup.slot.expect("hit has a slot");
            let row = pc.rows[slot].clone();
            dst.copy_from_slice(&row);
            pc.inflight.insert(key.pack(), row);
            return Ok(());
        }
        if let Err(e) = self.inner.get_nbi(dst, issuing_pe, src_pe, src_row) {
            // No landing buffer ever arrived: retract the key from the
            // window (so duplicates refetch rather than coalescing onto
            // nothing) and drop the admitted-but-empty cache entry.
            let pc = self.pes[issuing_pe].as_mut().expect("cache built above");
            pc.coalescer.retract(key);
            pc.cache.invalidate(key);
            return Err(e);
        }
        let pc = self.pes[issuing_pe].as_mut().expect("cache built above");
        pc.store(lookup.slot, dst);
        pc.inflight.insert(key.pack(), dst.to_vec());
        Ok(())
    }

    /// Settles outstanding non-blocking operations of `issuing_pe` and
    /// closes its batch window.
    pub fn quiet(&mut self, issuing_pe: usize) -> Result<(), ShmemError> {
        self.inner.quiet(issuing_pe)?;
        if let Some(pc) = self.pes[issuing_pe].as_mut() {
            pc.inflight.clear();
            pc.coalescer.begin();
        }
        Ok(())
    }

    /// Drops all cached rows on every PE (counters survive) — the
    /// invalidation hook for re-planning and recovery.
    pub fn flush(&mut self) {
        for pc in self.pes.iter_mut().flatten() {
            pc.cache.flush();
            pc.inflight.clear();
            pc.coalescer.begin();
        }
    }

    /// Targeted invalidation of one `(src_pe, src_row)` across every
    /// issuing PE's cache *and* its open batch window — the epoch-fence
    /// hook for live-graph deltas: the mutated row is dropped everywhere
    /// (a pending coalesced request is retracted so duplicates refetch
    /// instead of reading the pre-mutation landing buffer) while every
    /// other resident row stays warm. Returns how many caches held it.
    pub fn invalidate_row(&mut self, src_pe: usize, src_row: u32) -> usize {
        let key = CacheKey { pe: src_pe as u16, row: src_row };
        let mut dropped = 0;
        for pc in self.pes.iter_mut().flatten() {
            if pc.cache.invalidate(key) {
                dropped += 1;
            }
            pc.coalescer.retract(key);
            pc.inflight.remove(&key.pack());
        }
        dropped
    }

    /// Cache counters rolled up over all issuing PEs.
    pub fn stats(&self) -> CacheStats {
        let mut acc = CacheStats::default();
        for pc in self.pes.iter().flatten() {
            acc.merge(&pc.cache.stats());
        }
        acc
    }

    /// Stale detections across every PE's cache — accesses that found a
    /// resident row at the wrong version. The churn drills pin this at 0.
    pub fn stale_reads(&self) -> u64 {
        self.pes.iter().flatten().map(|pc| pc.cache.stale_hits()).sum()
    }

    /// What the underlying resilience plane had to do for the misses.
    pub fn resilience(&self) -> ResilienceStats {
        self.inner.stats()
    }

    fn pe_cache(&mut self, issuing_pe: usize) -> &mut PeCache {
        let slot = &mut self.pes[issuing_pe];
        if slot.is_none() {
            *slot = Some(PeCache::new(self.capacity_rows, &self.cfg));
        }
        slot.as_mut().expect("just built")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_cache::CachePolicy;

    fn region(pes: usize, rows: usize, dim: usize) -> SymmetricRegion {
        let mut r = SymmetricRegion::zeros(&vec![rows; pes], dim);
        for pe in 0..pes {
            for row in 0..rows {
                let v: Vec<f32> =
                    (0..dim).map(|d| (pe * 1000 + row * 10 + d) as f32).collect();
                r.put(&v, pe, row as u32);
            }
        }
        r
    }

    fn cfg_mb(mb: u32) -> CacheConfig {
        CacheConfig::from_mb(mb).with_policy(CachePolicy::Lru)
    }

    #[test]
    fn cached_values_match_the_region() {
        let r = region(2, 8, 4);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 4);
        let mut dst = vec![0.0f32; 4];
        for row in 0..8u32 {
            c.begin_batch(0);
            c.get_nbi(&mut dst, 0, 1, row).unwrap();
            assert_eq!(dst, r.row(1, row), "miss must return the region row");
            c.get_nbi(&mut dst, 0, 1, row).unwrap();
            assert_eq!(dst, r.row(1, row), "coalesced dup must return the same row");
            c.quiet(0).unwrap();
            c.get(&mut dst, 0, 1, row).unwrap();
            assert_eq!(dst, r.row(1, row), "hit must return the same row");
        }
        let s = c.stats();
        assert_eq!(s.misses, 8);
        assert_eq!(s.coalesced, 8);
        assert_eq!(s.hits, 8);
    }

    #[test]
    fn second_batch_hits_instead_of_refetching() {
        let r = region(2, 4, 4);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 4);
        let mut dst = vec![0.0f32; 4];
        for _ in 0..2 {
            c.begin_batch(0);
            for row in 0..4u32 {
                c.get_nbi(&mut dst, 0, 1, row).unwrap();
            }
            c.quiet(0).unwrap();
        }
        let s = c.stats();
        assert_eq!(s.misses, 4, "first batch misses");
        assert_eq!(s.hits, 4, "second batch is fully resident");
        assert_eq!(s.coalesced, 0);
        assert_eq!(c.resilience().gets, 4, "only misses touch the fabric");
    }

    #[test]
    fn duplicates_after_quiet_hit_rather_than_coalesce() {
        let r = region(2, 2, 2);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 2);
        let mut dst = vec![0.0f32; 2];
        c.begin_batch(0);
        c.get_nbi(&mut dst, 0, 1, 0).unwrap();
        c.quiet(0).unwrap(); // closes the window
        c.get_nbi(&mut dst, 0, 1, 0).unwrap();
        let s = c.stats();
        assert_eq!((s.misses, s.hits, s.coalesced), (1, 1, 0));
    }

    #[test]
    fn invalidate_row_drops_exactly_the_mutated_row() {
        let mut r = region(2, 4, 2);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 2);
        let mut dst = vec![0.0f32; 2];
        c.begin_batch(0);
        for row in 0..4u32 {
            c.get_nbi(&mut dst, 0, 1, row).unwrap();
        }
        c.quiet(0).unwrap();
        // Row 2 mutates (an epoch-fence feature update); invalidate it.
        assert_eq!(c.invalidate_row(1, 2), 1);
        drop(c);
        r.put(&[777.0, 888.0], 1, 2);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 2);
        c.begin_batch(0);
        c.get_nbi(&mut dst, 0, 1, 2).unwrap();
        assert_eq!(dst, vec![777.0, 888.0], "refetch must see the new payload");
    }

    #[test]
    fn invalidate_row_retracts_an_open_window_entry() {
        let r = region(2, 4, 2);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 2);
        let mut dst = vec![0.0f32; 2];
        c.begin_batch(0);
        c.get_nbi(&mut dst, 0, 1, 0).unwrap();
        // Fence lands mid-window: the pending request is retracted, so a
        // duplicate refetches instead of coalescing onto the stale buffer.
        c.invalidate_row(1, 0);
        c.get_nbi(&mut dst, 0, 1, 0).unwrap();
        assert_eq!(dst, r.row(1, 0));
        let s = c.stats();
        assert_eq!(s.coalesced, 0, "retracted keys must not coalesce");
        assert_eq!(s.misses, 2, "both requests crossed the fabric");
        // Untouched rows elsewhere stay warm.
        c.get_nbi(&mut dst, 0, 1, 1).unwrap();
        c.quiet(0).unwrap();
        c.get(&mut dst, 0, 1, 1).unwrap();
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn zero_capacity_still_returns_correct_values() {
        let r = region(2, 4, 4);
        let cfg = CacheConfig { capacity_bytes: 0, policy: CachePolicy::Lru };
        let mut c = CachedRegion::new(&r, None, cfg, 4);
        let mut dst = vec![0.0f32; 4];
        c.begin_batch(0);
        for row in 0..4u32 {
            c.get_nbi(&mut dst, 0, 1, row).unwrap();
            assert_eq!(dst, r.row(1, row));
            // Duplicate inside the window still coalesces off the landing
            // buffer even though nothing is ever resident.
            c.get_nbi(&mut dst, 0, 1, row).unwrap();
            assert_eq!(dst, r.row(1, row));
        }
        c.quiet(0).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (0, 4, 4));
    }

    #[test]
    fn coalesced_read_survives_eviction_of_its_slot() {
        // Capacity 1 row: A hits nothing, B's miss evicts A, then the
        // duplicate of A must still read A's landing buffer.
        let dim = 2usize;
        let r = region(2, 4, dim);
        let cfg = CacheConfig {
            capacity_bytes: (dim * 4) as u64, // exactly one row
            policy: CachePolicy::Lru,
        };
        let mut c = CachedRegion::new(&r, None, cfg, dim);
        let mut dst = vec![0.0f32; dim];
        c.begin_batch(0);
        c.get_nbi(&mut dst, 0, 1, 0).unwrap(); // A: miss, resident
        c.get_nbi(&mut dst, 0, 1, 1).unwrap(); // B: miss, evicts A
        c.get_nbi(&mut dst, 0, 1, 0).unwrap(); // dup A: coalesced
        assert_eq!(dst, r.row(1, 0));
        c.quiet(0).unwrap();
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.coalesced, s.evictions), (0, 2, 1, 1));
    }

    #[test]
    fn flush_invalidates_residency() {
        let r = region(2, 4, 4);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 4);
        let mut dst = vec![0.0f32; 4];
        c.get(&mut dst, 0, 1, 0).unwrap();
        assert!(c.get(&mut dst, 0, 1, 0).unwrap(), "resident before flush");
        c.flush();
        assert!(!c.get(&mut dst, 0, 1, 0).unwrap(), "cold after flush");
        assert_eq!(dst, r.row(1, 0));
    }

    #[test]
    fn failed_blocking_fetch_leaves_the_key_refetchable() {
        use mgg_fault::FaultSpec;
        // A drop schedule dense enough that blocking misses routinely
        // exhaust the retry budget. A failed miss admitted the key before
        // the fetch; it must be dropped again (payload never arrived), so
        // a retry re-misses and — when the fabric finally delivers —
        // returns exact bytes instead of hitting on stale slot contents.
        let r = region(2, 8, 4);
        let spec = FaultSpec { seed: 1, drop_rate: 0.97, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let mut c = CachedRegion::new(&r, Some(&sched), cfg_mb(1), 4);
        let mut dst = vec![0.0f32; 4];
        let (mut errs, mut oks) = (0u32, 0u32);
        for _ in 0..6 {
            for row in 0..8u32 {
                match c.get(&mut dst, 0, 1, row) {
                    Ok(_) => {
                        assert_eq!(dst, r.row(1, row));
                        oks += 1;
                    }
                    Err(_) => errs += 1,
                }
            }
        }
        assert!(errs > 0, "a 0.97 drop rate must exhaust the retry budget");
        assert!(oks > 0, "some retries must eventually land");
    }

    #[test]
    fn failed_nbi_fetch_does_not_poison_the_window() {
        // An erroring non-blocking GET must retract the key from the
        // batch window: with no landing buffer ever arriving, a duplicate
        // request must take the fetch path again (and fail the same way)
        // rather than panic reading a landing buffer that does not exist.
        let r = region(2, 4, 4);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 4);
        let mut dst = vec![0.0f32; 4];
        c.begin_batch(0);
        assert!(c.get_nbi(&mut dst, 0, 1, 99).is_err());
        assert!(c.get_nbi(&mut dst, 0, 1, 99).is_err());
        // The window itself still works for keys that do land.
        c.get_nbi(&mut dst, 0, 1, 0).unwrap();
        c.get_nbi(&mut dst, 0, 1, 0).unwrap();
        assert_eq!(dst, r.row(1, 0));
        c.quiet(0).unwrap();
    }

    #[test]
    fn issuing_pes_have_independent_caches() {
        let r = region(3, 4, 4);
        let mut c = CachedRegion::new(&r, None, cfg_mb(1), 4);
        let mut dst = vec![0.0f32; 4];
        c.get(&mut dst, 0, 2, 0).unwrap();
        // Same source row from a different issuing PE: its own cold cache.
        assert!(!c.get(&mut dst, 1, 2, 0).unwrap());
        assert_eq!(c.stats().misses, 2);
    }
}
