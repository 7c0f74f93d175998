//! The capacity-bounded deterministic embedding cache.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::{CacheKey, CachePolicy, CacheStats};

/// Result of one [`EmbedCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookup {
    /// Whether the key was already resident.
    pub hit: bool,
    /// Storage slot of the key after the access (`None` when the cache has
    /// zero capacity and nothing was admitted). Slots are stable while a
    /// key stays resident, so callers can keep row payloads in a parallel
    /// slot-indexed table.
    pub slot: Option<usize>,
    /// Key displaced to admit this one, if the access evicted.
    pub evicted: Option<CacheKey>,
}

/// Windowed eviction-thrash detector (see [`EmbedCache::with_thrash_guard`]).
///
/// Every [`EmbedCache::access`] advances a fixed-size logical window. At
/// each window boundary the guard compares the window's evictions against
/// its hits: when evictions dominate (`evictions > hits`), the working set
/// does not fit and every admission is displacing a row that would itself
/// have been reused — classic thrash. The guard then *freezes* the resident
/// set for [`ThrashGuard::BYPASS_WINDOWS`] windows: misses are still
/// counted and still fetched from the fabric, but nothing is admitted (and
/// therefore no fill write is issued and nothing useful is evicted). After
/// the freeze one full window of normal admission probes whether the access
/// pattern has changed; sustained thrash re-enters bypass.
///
/// All state advances only on `access` calls, so guard decisions replay
/// bit-identically for the same access stream — the same determinism
/// contract the cache itself keeps.
#[derive(Debug, Clone, Copy)]
struct ThrashGuard {
    /// Accesses observed in the current window.
    accesses: u64,
    /// Hits observed in the current window.
    hits: u64,
    /// Evictions performed in the current window.
    evictions: u64,
    /// Remaining bypass windows; `0` = admitting normally.
    bypass_left: u32,
}

impl ThrashGuard {
    /// Accesses per decision window.
    const WINDOW: u64 = 1024;
    /// Windows the resident set stays frozen after thrash is detected,
    /// before one probe window of normal admission.
    const BYPASS_WINDOWS: u32 = 4;

    fn new() -> Self {
        ThrashGuard { accesses: 0, hits: 0, evictions: 0, bypass_left: 0 }
    }

    fn bypassing(&self) -> bool {
        self.bypass_left > 0
    }

    /// Rolls the window if full: decide the next window's mode and reset.
    fn maybe_roll(&mut self) {
        if self.accesses < Self::WINDOW {
            return;
        }
        if self.bypass_left > 0 {
            self.bypass_left -= 1;
        } else if self.evictions > self.hits {
            self.bypass_left = Self::BYPASS_WINDOWS;
        }
        self.accesses = 0;
        self.hits = 0;
        self.evictions = 0;
    }
}

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    /// Primary eviction priority: last-use tick (LRU) or use frequency
    /// (LFU). Smaller evicts first.
    p1: u64,
    /// Tie-breaker: last-use tick under LFU, unused (0) under LRU.
    p2: u64,
    occupied: bool,
    /// Row version the payload was filled at (see
    /// [`EmbedCache::access_versioned`]). Plain [`EmbedCache::access`]
    /// admissions carry version 0.
    version: u64,
}

/// A deterministic, capacity-bounded cache of remote-row keys.
///
/// Replacement uses a lazily-invalidated min-heap over `(priority,
/// tie-break, slot)` triples: every access pushes the key's new priority
/// and eviction pops until the top matches a slot's current priority. The
/// logical clock (`tick`) makes every priority tuple unique, so pop order —
/// and therefore eviction order — is a total order independent of hash-map
/// iteration: the same access stream always evicts the same keys.
///
/// The cache stores *keys only*; a caller that needs payloads keeps them
/// in a table indexed by [`Lookup::slot`].
#[derive(Debug)]
pub struct EmbedCache {
    policy: CachePolicy,
    capacity: usize,
    map: HashMap<u64, usize>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    heap: BinaryHeap<Reverse<(u64, u64, usize)>>,
    tick: u64,
    stats: CacheStats,
    stale: u64,
    guard: Option<ThrashGuard>,
}

impl EmbedCache {
    /// An empty cache holding at most `capacity_rows` keys. Admits every
    /// miss — the classical policy the reference-model property tests pin
    /// (LRU here is a strict stack algorithm).
    pub fn new(capacity_rows: usize, policy: CachePolicy) -> Self {
        EmbedCache {
            policy,
            capacity: capacity_rows,
            map: HashMap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            heap: BinaryHeap::new(),
            tick: 0,
            stats: CacheStats::default(),
            stale: 0,
            guard: None,
        }
    }

    /// Like [`EmbedCache::new`], but with the eviction-thrash guard armed:
    /// when a decision window's evictions exceed its hits, admission is
    /// bypassed (misses still fetch, but fill nothing and evict nothing)
    /// for a few windows before probing again. An undersized cache then
    /// degrades to pass-through instead of paying fill-write bandwidth for
    /// rows it immediately re-evicts. Guard decisions are a pure function
    /// of the access stream, so determinism is preserved.
    pub fn with_thrash_guard(capacity_rows: usize, policy: CachePolicy) -> Self {
        let mut c = Self::new(capacity_rows, policy);
        c.guard = Some(ThrashGuard::new());
        c
    }

    /// True while the thrash guard is refusing admissions (always `false`
    /// for caches built without the guard).
    pub fn thrash_bypassing(&self) -> bool {
        self.guard.is_some_and(|g| g.bypassing())
    }

    /// Maximum resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Currently resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured replacement policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Whether `key` is resident (no side effects, no stats).
    pub fn contains(&self, key: CacheKey) -> bool {
        self.map.contains_key(&key.pack())
    }

    /// Slot of `key` if resident, without touching priorities or counters
    /// (callers that already accounted the access use this to re-find the
    /// payload slot, e.g. coalesced duplicates of an earlier hit).
    pub fn peek(&self, key: CacheKey) -> Option<usize> {
        self.map.get(&key.pack()).copied()
    }

    /// Looks up `key`, admitting it on a miss (evicting if full). Updates
    /// the hit/miss/eviction counters. Equivalent to
    /// [`EmbedCache::access_versioned`] at version 0 — static-graph
    /// callers never see a version mismatch.
    pub fn access(&mut self, key: CacheKey) -> Lookup {
        self.access_versioned(key, 0)
    }

    /// Version-checked lookup: a resident key whose slot was filled at a
    /// *different* version than `version` is a **stale row** — the graph
    /// mutated under the cache without the owning engine invalidating the
    /// row. That is an invalidation bug, never a legitimate state, so in
    /// debug builds it fails loudly (`debug_assert`); in release builds it
    /// self-heals (the stale entry is dropped, the [`EmbedCache::stale_hits`]
    /// counter ticks, and the access proceeds as a miss that refetches at
    /// the current version). Admissions stamp the slot with `version`.
    pub fn access_versioned(&mut self, key: CacheKey, version: u64) -> Lookup {
        let packed = key.pack();
        self.tick += 1;
        if let Some(g) = &mut self.guard {
            g.accesses += 1;
        }
        if let Some(&slot) = self.map.get(&packed) {
            if self.slots[slot].version != version {
                // Stale resident row: drop it and fall through to the miss
                // path so the caller refetches the current payload.
                self.stale += 1;
                debug_assert!(
                    false,
                    "stale cache row: {key:?} resident at version {} but row is at {version} \
                     — a graph delta bypassed invalidation",
                    self.slots[slot].version
                );
                self.map.remove(&packed);
                self.slots[slot].occupied = false;
                self.free.push(slot);
            } else {
                self.stats.hits += 1;
                if let Some(g) = &mut self.guard {
                    g.hits += 1;
                    g.maybe_roll();
                }
                let (p1, p2) = self.bump(slot);
                self.heap.push(Reverse((p1, p2, slot)));
                self.maybe_compact();
                return Lookup { hit: true, slot: Some(slot), evicted: None };
            }
        }
        self.stats.misses += 1;
        if self.capacity == 0 {
            if let Some(g) = &mut self.guard {
                g.maybe_roll();
            }
            return Lookup { hit: false, slot: None, evicted: None };
        }
        if self.guard.is_some_and(|g| g.bypassing()) {
            self.stats.bypassed += 1;
            let g = self.guard.as_mut().expect("guard checked above");
            g.maybe_roll();
            return Lookup { hit: false, slot: None, evicted: None };
        }
        let mut evicted = None;
        let slot = if self.map.len() < self.capacity {
            match self.free.pop() {
                Some(s) => s,
                None => {
                    self.slots.push(Slot { key: 0, p1: 0, p2: 0, occupied: false, version: 0 });
                    self.slots.len() - 1
                }
            }
        } else {
            let victim = self.pop_victim();
            let victim_key = self.slots[victim].key;
            self.map.remove(&victim_key);
            self.stats.evictions += 1;
            if let Some(g) = &mut self.guard {
                g.evictions += 1;
            }
            evicted = Some(CacheKey::unpack(victim_key));
            victim
        };
        let (p1, p2) = match self.policy {
            CachePolicy::Lru => (self.tick, 0),
            CachePolicy::Lfu => (1, self.tick),
        };
        self.slots[slot] = Slot { key: packed, p1, p2, occupied: true, version };
        self.map.insert(packed, slot);
        self.heap.push(Reverse((p1, p2, slot)));
        self.maybe_compact();
        if let Some(g) = &mut self.guard {
            g.maybe_roll();
        }
        Lookup { hit: false, slot: Some(slot), evicted }
    }

    /// Records `n` requests merged by the warp coalescer (kept here so one
    /// struct carries the whole hit/miss/coalesce picture per GPU).
    pub fn note_coalesced(&mut self, n: u64) {
        self.stats.coalesced += n;
    }

    /// Drops `key` if resident, recycling its slot. This is the undo hook
    /// for a fetch that failed *after* admission: the miss was already
    /// counted, but the payload never arrived, so the key must not be
    /// served as a hit. Not counted as an eviction. Returns whether the
    /// key was resident.
    pub fn invalidate(&mut self, key: CacheKey) -> bool {
        match self.map.remove(&key.pack()) {
            Some(slot) => {
                self.slots[slot].occupied = false;
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Drops every resident key. Counters survive — a flush invalidates
    /// contents (e.g. after failover re-planning), it does not rewrite
    /// history.
    pub fn flush(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.heap.clear();
        // The guard's window described a residency epoch that no longer
        // exists; restart it (admitting) so post-flush behaviour depends
        // only on the post-flush access stream.
        if self.guard.is_some() {
            self.guard = Some(ThrashGuard::new());
        }
    }

    /// Counters accumulated since construction.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Stale-row detections: resident keys whose slot version disagreed
    /// with the version [`EmbedCache::access_versioned`] asked for. Any
    /// non-zero value means a graph delta bypassed cache invalidation —
    /// the churn drills and chaos proptests assert this stays 0. Kept out
    /// of [`CacheStats`] (it is an *assertion* counter, not a performance
    /// counter, and `CacheStats` is serialized into committed baselines).
    pub fn stale_hits(&self) -> u64 {
        self.stale
    }

    /// Refreshes `slot`'s eviction priority after a hit.
    fn bump(&mut self, slot: usize) -> (u64, u64) {
        let s = &mut self.slots[slot];
        match self.policy {
            CachePolicy::Lru => {
                s.p1 = self.tick;
                s.p2 = 0;
            }
            CachePolicy::Lfu => {
                s.p1 += 1;
                s.p2 = self.tick;
            }
        }
        (s.p1, s.p2)
    }

    /// Pops heap entries until one matches a slot's *current* priority —
    /// that slot is the deterministic victim.
    fn pop_victim(&mut self) -> usize {
        while let Some(Reverse((p1, p2, slot))) = self.heap.pop() {
            let s = &self.slots[slot];
            if s.occupied && s.p1 == p1 && s.p2 == p2 {
                return slot;
            }
            // Stale entry (priority bumped since the push, or slot
            // recycled) — skip.
        }
        unreachable!("eviction requested on a cache with no live heap entries");
    }

    /// Rebuilds the heap from live slots when stale entries dominate,
    /// bounding memory by the capacity rather than the access count.
    fn maybe_compact(&mut self) {
        if self.heap.len() > 4 * self.capacity + 64 {
            self.heap.clear();
            for (i, s) in self.slots.iter().enumerate() {
                if s.occupied {
                    self.heap.push(Reverse((s.p1, s.p2, i)));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(pe: u16, row: u32) -> CacheKey {
        CacheKey { pe, row }
    }

    #[test]
    fn lru_evicts_the_least_recently_used() {
        let mut c = EmbedCache::new(2, CachePolicy::Lru);
        c.access(k(0, 1));
        c.access(k(0, 2));
        c.access(k(0, 1)); // 1 is now more recent than 2
        let out = c.access(k(0, 3)); // evicts 2
        assert_eq!(out.evicted, Some(k(0, 2)));
        assert!(c.contains(k(0, 1)));
        assert!(!c.contains(k(0, 2)));
        assert!(c.contains(k(0, 3)));
    }

    #[test]
    fn lfu_keeps_the_hot_key() {
        let mut c = EmbedCache::new(2, CachePolicy::Lfu);
        c.access(k(0, 1));
        c.access(k(0, 1));
        c.access(k(0, 1)); // freq 3
        c.access(k(0, 2)); // freq 1
        let out = c.access(k(0, 3)); // evicts 2 (lowest freq)
        assert_eq!(out.evicted, Some(k(0, 2)));
        assert!(c.contains(k(0, 1)));
    }

    #[test]
    fn lfu_ties_break_by_recency() {
        let mut c = EmbedCache::new(2, CachePolicy::Lfu);
        c.access(k(0, 1)); // freq 1, older
        c.access(k(0, 2)); // freq 1, newer
        let out = c.access(k(0, 3));
        assert_eq!(out.evicted, Some(k(0, 1)), "equal-frequency ties evict the older key");
    }

    #[test]
    fn zero_capacity_never_admits() {
        let mut c = EmbedCache::new(0, CachePolicy::Lru);
        for _ in 0..4 {
            let out = c.access(k(1, 9));
            assert!(!out.hit);
            assert_eq!(out.slot, None);
            assert_eq!(out.evicted, None);
        }
        assert_eq!(c.stats().misses, 4);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.len(), 0);
    }

    #[test]
    fn slots_are_stable_while_resident() {
        let mut c = EmbedCache::new(4, CachePolicy::Lru);
        let s1 = c.access(k(0, 1)).slot;
        c.access(k(0, 2));
        c.access(k(0, 3));
        assert_eq!(c.access(k(0, 1)).slot, s1, "hits must return the original slot");
    }

    #[test]
    fn flush_clears_contents_but_keeps_stats() {
        let mut c = EmbedCache::new(4, CachePolicy::Lru);
        c.access(k(0, 1));
        c.access(k(0, 1));
        c.flush();
        assert!(c.is_empty());
        assert_eq!(c.stats().hits, 1);
        assert!(!c.access(k(0, 1)).hit, "flushed keys must re-miss");
    }

    #[test]
    fn thrash_guard_freezes_admission_under_thrash() {
        // Capacity 4 against a cyclic working set of 64 keys: pure thrash
        // (every admission evicts, hits never happen). After the first
        // decision window the guard must stop admitting.
        let mut c = EmbedCache::with_thrash_guard(4, CachePolicy::Lru);
        for i in 0..(ThrashGuard::WINDOW * 2) {
            c.access(k(0, (i % 64) as u32));
        }
        assert!(c.thrash_bypassing(), "sustained thrash must trip the guard");
        let s = c.stats();
        assert!(s.bypassed > 0, "bypassed misses must be counted");
        assert!(
            s.evictions < ThrashGuard::WINDOW + 4,
            "evictions must stop once the guard trips (got {})",
            s.evictions
        );
        assert_eq!(s.hits + s.misses, ThrashGuard::WINDOW * 2);
    }

    #[test]
    fn thrash_guard_leaves_fitting_workloads_alone() {
        // Working set of 8 in a capacity-16 cache: no evictions, so the
        // guard never engages and behaviour matches the unguarded cache.
        let stream: Vec<CacheKey> = (0..4096u32).map(|i| k(0, i % 8)).collect();
        let mut guarded = EmbedCache::with_thrash_guard(16, CachePolicy::Lru);
        let mut plain = EmbedCache::new(16, CachePolicy::Lru);
        for &key in &stream {
            assert_eq!(guarded.access(key), plain.access(key));
        }
        assert!(!guarded.thrash_bypassing());
        assert_eq!(guarded.stats(), plain.stats());
        assert_eq!(guarded.stats().bypassed, 0);
    }

    #[test]
    fn thrash_guard_probes_and_recovers_after_pattern_shift() {
        let mut c = EmbedCache::with_thrash_guard(8, CachePolicy::Lru);
        // Phase 1: thrash until the guard is bypassing.
        for i in 0..(ThrashGuard::WINDOW * 2) {
            c.access(k(0, (i % 100) as u32));
        }
        assert!(c.thrash_bypassing());
        // Phase 2: the workload collapses to a set that fits. Once the
        // freeze expires and a probe window admits it, hits must flow.
        let before = c.stats().hits;
        for i in 0..(ThrashGuard::WINDOW * (ThrashGuard::BYPASS_WINDOWS as u64 + 3)) {
            c.access(k(1, (i % 4) as u32));
        }
        assert!(!c.thrash_bypassing(), "guard must re-admit after thrash subsides");
        let gained = c.stats().hits - before;
        assert!(gained > ThrashGuard::WINDOW, "post-recovery hits must flow (got {gained})");
    }

    #[test]
    fn flush_resets_the_guard() {
        let mut c = EmbedCache::with_thrash_guard(4, CachePolicy::Lru);
        for i in 0..(ThrashGuard::WINDOW * 2) {
            c.access(k(0, (i % 64) as u32));
        }
        assert!(c.thrash_bypassing());
        c.flush();
        assert!(!c.thrash_bypassing(), "flush must restart the guard in admit mode");
        assert!(c.access(k(0, 1)).slot.is_some(), "post-flush misses must admit again");
    }

    #[test]
    fn versioned_access_with_proper_invalidation_never_goes_stale() {
        let mut c = EmbedCache::new(4, CachePolicy::Lru);
        assert!(!c.access_versioned(k(0, 1), 0).hit);
        assert!(c.access_versioned(k(0, 1), 0).hit);
        // The row mutates; the engine invalidates before the next access.
        c.invalidate(k(0, 1));
        let out = c.access_versioned(k(0, 1), 1); // refetch at the new version
        assert!(!out.hit, "invalidated rows must re-miss");
        assert!(c.access_versioned(k(0, 1), 1).hit);
        assert_eq!(c.stale_hits(), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "bypassed invalidation")]
    fn stale_row_fails_loudly_in_debug_builds() {
        let mut c = EmbedCache::new(4, CachePolicy::Lru);
        c.access_versioned(k(0, 1), 0);
        // Version bumped without invalidating: the assertion must fire.
        c.access_versioned(k(0, 1), 1);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn stale_row_self_heals_in_release_builds() {
        let mut c = EmbedCache::new(4, CachePolicy::Lru);
        c.access_versioned(k(0, 1), 0);
        let out = c.access_versioned(k(0, 1), 1);
        assert!(!out.hit, "stale rows must be served as misses");
        assert_eq!(c.stale_hits(), 1);
        assert!(c.access_versioned(k(0, 1), 1).hit, "refetched row is clean");
        assert_eq!(c.stale_hits(), 1);
    }

    #[test]
    fn heap_compaction_is_transparent() {
        // Far more accesses than 4*capacity so compaction triggers; the
        // replacement decisions must match a fresh replay.
        let stream: Vec<CacheKey> = (0..10_000u32).map(|i| k(0, i * 7919 % 37)).collect();
        let run = || {
            let mut c = EmbedCache::new(8, CachePolicy::Lfu);
            let mut evictions = Vec::new();
            for &key in &stream {
                if let Some(e) = c.access(key).evicted {
                    evictions.push(e);
                }
            }
            (c.stats(), evictions)
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// Reference model: naive O(n) scan over a vec of (key, p1, p2).
    fn reference(stream: &[(u16, u32)], capacity: usize, policy: CachePolicy) -> CacheStats {
        let mut resident: Vec<(u64, u64, u64)> = Vec::new(); // (key, p1, p2)
        let mut tick = 0u64;
        let mut stats = CacheStats::default();
        for &(pe, row) in stream {
            let key = CacheKey { pe, row }.pack();
            tick += 1;
            if let Some(e) = resident.iter_mut().find(|e| e.0 == key) {
                stats.hits += 1;
                match policy {
                    CachePolicy::Lru => e.1 = tick,
                    CachePolicy::Lfu => {
                        e.1 += 1;
                        e.2 = tick;
                    }
                }
                continue;
            }
            stats.misses += 1;
            if capacity == 0 {
                continue;
            }
            if resident.len() == capacity {
                let victim = (0..resident.len())
                    .min_by_key(|&i| (resident[i].1, resident[i].2))
                    .unwrap();
                resident.swap_remove(victim);
                stats.evictions += 1;
            }
            match policy {
                CachePolicy::Lru => resident.push((key, tick, 0)),
                CachePolicy::Lfu => resident.push((key, 1, tick)),
            }
        }
        stats
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The lazy-heap implementation must agree with the naive reference
        /// model on every counter, for both policies and any stream.
        #[test]
        fn matches_reference_model(
            stream in proptest::collection::vec((0u16..3, 0u32..24), 0..400),
            capacity in 0usize..12,
            lfu in proptest::bool::ANY,
        ) {
            let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
            let mut c = EmbedCache::new(capacity, policy);
            for &(pe, row) in &stream {
                c.access(CacheKey { pe, row });
            }
            prop_assert_eq!(c.stats(), reference(&stream, capacity, policy));
            prop_assert!(c.len() <= capacity);
        }

        /// Guarded caches keep the counter identity `hits + misses` equal
        /// to the stream length with `bypassed <= misses`, replay
        /// deterministically, and never hold more than `capacity` keys.
        #[test]
        fn thrash_guard_invariants(
            stream in proptest::collection::vec((0u16..3, 0u32..48), 0..3000),
            capacity in 0usize..12,
            lfu in proptest::bool::ANY,
        ) {
            let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
            let run = || {
                let mut c = EmbedCache::with_thrash_guard(capacity, policy);
                for &(pe, row) in &stream {
                    c.access(CacheKey { pe, row });
                }
                (c.stats(), c.len(), c.thrash_bypassing())
            };
            let (stats, len, _) = run();
            prop_assert_eq!(run(), run(), "guard decisions must replay identically");
            prop_assert_eq!(stats.hits + stats.misses, stream.len() as u64);
            prop_assert!(stats.bypassed <= stats.misses);
            prop_assert!(len <= capacity);
        }

        /// LRU is a stack algorithm: growing the cache never loses hits.
        #[test]
        fn lru_hit_rate_is_monotone_in_capacity(
            stream in proptest::collection::vec((0u16..2, 0u32..32), 1..300),
        ) {
            let mut prev_hits = 0u64;
            for capacity in [0usize, 1, 2, 4, 8, 16, 32] {
                let mut c = EmbedCache::new(capacity, CachePolicy::Lru);
                for &(pe, row) in &stream {
                    c.access(CacheKey { pe, row });
                }
                let hits = c.stats().hits;
                prop_assert!(
                    hits >= prev_hits,
                    "capacity {} lost hits: {} < {}", capacity, hits, prev_hits
                );
                prev_hits = hits;
            }
        }
    }
}
