//! Deterministic per-GPU cache of remote node embeddings, plus a
//! warp-scope request coalescer.
//!
//! MGG hides remote-fetch latency inside the kernel, but multi-layer
//! GCN/GIN sweeps still pull the *same* remote embedding repeatedly —
//! across warps of one layer, across layers, and across epochs. This crate
//! provides the two reuse filters the engine threads in front of the
//! symmetric heap:
//!
//! * [`EmbedCache`] — a capacity-bounded (MB budget carved from the
//!   simulated HBM) map of `(PE, row)` keys with deterministic
//!   [`CachePolicy::Lru`] or [`CachePolicy::Lfu`] replacement, O(1) per
//!   access: resident rows sit in recency lists, one per use count. A hit
//!   is served from local HBM instead of the NVLink/PCIe fabric.
//! * [`WarpCoalescer`] — a warp-scope window that merges duplicate
//!   in-flight GETs to the same `(PE, row)` into one fabric transaction
//!   (the second request piggybacks on the first's landing buffer).
//!
//! Determinism is load-bearing: the engine replays the exact warp-order
//! access stream at kernel-build time, so the same graph + placement +
//! configuration always yields the same hits, misses and evictions — and
//! therefore the same simulated timing. Nothing here consults wall-clock
//! time or ambient randomness, and the hashed key tables are only looked
//! up, never iterated, so their hasher cannot change a decision.
//!
//! The cache is an *address* cache: it decides which fetches touch the
//! fabric. Only the engine's kernel planner consults it; the functional
//! data plane reads the feature matrix in place, so cached and uncached
//! runs produce bit-identical aggregation outputs (pinned by the
//! `cache_consistency` test suite).
//!
//! # Example
//!
//! ```
//! use mgg_cache::{CacheConfig, CachePolicy, EmbedCache, CacheKey};
//!
//! // 1 MB budget, 512-byte rows (dim 128) -> 2048 resident rows.
//! let cfg = CacheConfig::from_mb(1).with_policy(CachePolicy::Lru);
//! let mut cache = EmbedCache::new(cfg.capacity_rows(512), cfg.policy);
//!
//! let key = CacheKey { pe: 1, row: 42 };
//! assert!(!cache.access(key).hit); // cold miss, now resident
//! assert!(cache.access(key).hit);  // warm hit
//! assert_eq!(cache.stats().hits, 1);
//! assert_eq!(cache.stats().misses, 1);
//! ```

#![deny(missing_docs)]

mod cache;
mod coalesce;
mod hash;

pub use cache::{EmbedCache, Lookup};
pub use coalesce::WarpCoalescer;

use serde::Serialize;

/// Replacement policy of an [`EmbedCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CachePolicy {
    /// Evict the least-recently-used key. A stack algorithm: the hit rate
    /// is monotone non-decreasing in capacity (no Belady anomaly), which
    /// the property tests pin.
    Lru,
    /// Evict the least-frequently-used key, ties broken by least-recent
    /// use. Frequency counts only while a key is resident.
    Lfu,
}

impl CachePolicy {
    /// Lower-case name used by CLI flags and JSON reports.
    pub fn name(&self) -> &'static str {
        match self {
            CachePolicy::Lru => "lru",
            CachePolicy::Lfu => "lfu",
        }
    }
}

impl std::fmt::Display for CachePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for CachePolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "lru" => Ok(CachePolicy::Lru),
            "lfu" => Ok(CachePolicy::Lfu),
            other => Err(format!("unknown cache policy '{other}' (expected lru or lfu)")),
        }
    }
}

/// Sizing and policy of the per-GPU embedding cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CacheConfig {
    /// HBM budget carved out for cached remote rows, in bytes.
    pub capacity_bytes: u64,
    /// Replacement policy.
    pub policy: CachePolicy,
}

impl CacheConfig {
    /// A budget of `mb` megabytes under the default LRU policy.
    pub fn from_mb(mb: u32) -> Self {
        CacheConfig { capacity_bytes: mb as u64 * 1024 * 1024, policy: CachePolicy::Lru }
    }

    /// Same budget, different policy.
    pub fn with_policy(mut self, policy: CachePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// How many rows of `row_bytes` bytes fit in the budget.
    pub fn capacity_rows(&self, row_bytes: u32) -> usize {
        if row_bytes == 0 {
            return 0;
        }
        (self.capacity_bytes / row_bytes as u64) as usize
    }
}

/// Identity of one cached remote row: the owning PE and its local row index
/// there (the same `(PE, offset)` pair NVSHMEM addresses the symmetric heap
/// with).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey {
    /// Owning PE.
    pub pe: u16,
    /// Row index local to the owning PE.
    pub row: u32,
}

impl CacheKey {
    /// Packs the key into one `u64` (`pe` in the high half, `row` in the
    /// low), a convenient map key for layers storing payloads beside an
    /// [`EmbedCache`].
    pub fn pack(self) -> u64 {
        ((self.pe as u64) << 32) | self.row as u64
    }

    /// Inverse of [`CacheKey::pack`].
    pub fn unpack(v: u64) -> Self {
        CacheKey { pe: (v >> 32) as u16, row: v as u32 }
    }
}

/// Counters of what the cache and coalescer did. All-zero — the `Default`
/// — when caching is disabled, so embedding this in `KernelStats` does not
/// perturb equality comparisons between uncached runs (the same invariant
/// `RecoveryStats` keeps for healthy runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Remote-row requests served from the local cache (HBM latency).
    pub hits: u64,
    /// Remote-row requests that went to the fabric and filled the cache.
    pub misses: u64,
    /// Duplicate in-flight requests merged into an earlier fabric
    /// transaction by the warp coalescer (neither hit nor miss).
    pub coalesced: u64,
    /// Resident rows displaced to admit a missed row.
    pub evictions: u64,
    /// Misses whose admission was skipped by the eviction-thrash guard
    /// (counted in `misses` too; the row was fetched but not cached, so no
    /// fill write was issued).
    pub bypassed: u64,
}

impl CacheStats {
    /// Fraction of cache-visible requests (hits + misses) that hit.
    /// Coalesced requests never reach the cache and are excluded.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (per-GPU caches roll up to one
    /// kernel-level figure).
    pub fn merge(&mut self, other: &CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
        self.bypassed += other.bypassed;
    }

    /// Counters accumulated since the `earlier` snapshot — the per-run
    /// figure for a cache whose internal counters are cumulative across
    /// kernels. Saturates at zero if `earlier` is not actually earlier.
    pub fn delta_since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            coalesced: self.coalesced.saturating_sub(earlier.coalesced),
            evictions: self.evictions.saturating_sub(earlier.evictions),
            bypassed: self.bypassed.saturating_sub(earlier.bypassed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_round_trips_through_strings() {
        for p in [CachePolicy::Lru, CachePolicy::Lfu] {
            assert_eq!(p.name().parse::<CachePolicy>().unwrap(), p);
            assert_eq!(p.to_string(), p.name());
        }
        assert!("fifo".parse::<CachePolicy>().is_err());
        assert_eq!("LRU".parse::<CachePolicy>().unwrap(), CachePolicy::Lru);
    }

    #[test]
    fn config_sizes_in_rows() {
        let cfg = CacheConfig::from_mb(1);
        assert_eq!(cfg.capacity_bytes, 1024 * 1024);
        assert_eq!(cfg.capacity_rows(512), 2048);
        assert_eq!(cfg.capacity_rows(0), 0, "zero-byte rows must not divide by zero");
        assert_eq!(cfg.policy, CachePolicy::Lru);
        assert_eq!(cfg.with_policy(CachePolicy::Lfu).policy, CachePolicy::Lfu);
    }

    #[test]
    fn key_packing_round_trips() {
        let k = CacheKey { pe: 7, row: 123_456 };
        assert_eq!(CacheKey::unpack(k.pack()), k);
    }

    #[test]
    fn hit_rate_derivation() {
        let mut s = CacheStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        s.hits = 3;
        s.misses = 1;
        s.coalesced = 100; // excluded from the denominator
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let mut t = CacheStats::default();
        t.merge(&s);
        t.merge(&s);
        assert_eq!(t.hits, 6);
        assert_eq!(t.evictions, 0);
    }
}
