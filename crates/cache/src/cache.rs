//! The capacity-bounded deterministic embedding cache.

use crate::hash::KeyMap;
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

/// List terminator for the slot and class links.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Slot {
    key: u64,
    /// Row version the payload was filled at (see
    /// [`EmbedCache::access_versioned`]). Plain [`EmbedCache::access`]
    /// admissions carry version 0.
    version: u64,
    /// Use-count class the slot is listed in.
    class: u32,
    /// Older neighbour in the class's recency list.
    prev: u32,
    /// Newer neighbour in the class's recency list.
    next: u32,
}

/// One use-count class: the resident slots used exactly `count` times
/// (LFU), or every resident slot (LRU, where the count never grows).
#[derive(Debug, Clone, Copy)]
struct Class {
    count: u64,
    /// Least recently used member.
    head: u32,
    /// Most recently used member.
    tail: u32,
    /// Class with the next lower count.
    prev: u32,
    /// Class with the next higher count.
    next: u32,
}

/// A deterministic, capacity-bounded cache of remote-row keys.
///
/// Resident slots sit in doubly linked recency lists, one per use-count
/// class, and the classes are linked in ascending count order. An
/// admission appends to the tail of class 1; a hit moves the slot to the
/// tail of its own list (LRU, the one-class case) or of class count + 1
/// (LFU); eviction takes the head of the lowest class. Every step is
/// O(1). Within a class the list is ordered by last use, so the head of
/// the lowest class is the unique minimum of `(use count, last use)` —
/// the same total order the policies define — and the same access stream
/// always evicts the same keys, independent of hash-map layout.
///
/// The cache stores *keys only*; a caller that needs payloads keeps them
/// in a table indexed by [`Lookup::slot`].
#[derive(Debug)]
pub struct EmbedCache {
    policy: CachePolicy,
    capacity: usize,
    map: KeyMap<u32>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    classes: Vec<Class>,
    free_classes: Vec<u32>,
    /// Class with the lowest count (`NIL` when nothing is resident).
    lowest: u32,
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
            map: KeyMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            classes: Vec::new(),
            free_classes: Vec::new(),
            lowest: NIL,
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
        self.map.get(&key.pack()).map(|&s| s as usize)
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
        if let Some(g) = &mut self.guard {
            g.accesses += 1;
        }
        if let Some(&slot) = self.map.get(&packed) {
            if self.slots[slot as usize].version != version {
                // Stale resident row: drop it and fall through to the miss
                // path so the caller refetches the current payload.
                self.stale += 1;
                debug_assert!(
                    false,
                    "stale cache row: {key:?} resident at version {} but row is at {version} \
                     — a graph delta bypassed invalidation",
                    self.slots[slot as usize].version
                );
                self.map.remove(&packed);
                self.unlink(slot);
                self.free.push(slot);
            } else {
                self.stats.hits += 1;
                if let Some(g) = &mut self.guard {
                    g.hits += 1;
                    g.maybe_roll();
                }
                self.promote(slot);
                return Lookup { hit: true, slot: Some(slot as usize), evicted: None };
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
                    let s = u32::try_from(self.slots.len())
                        .ok()
                        .filter(|&s| s != NIL)
                        .expect("cache slots fit u32 indices");
                    self.slots.push(Slot { key: 0, version: 0, class: NIL, prev: NIL, next: NIL });
                    s
                }
            }
        } else {
            let victim = self.classes[self.lowest as usize].head;
            let victim_key = self.slots[victim as usize].key;
            self.map.remove(&victim_key);
            self.unlink(victim);
            self.stats.evictions += 1;
            if let Some(g) = &mut self.guard {
                g.evictions += 1;
            }
            evicted = Some(CacheKey::unpack(victim_key));
            victim
        };
        self.slots[slot as usize].key = packed;
        self.slots[slot as usize].version = version;
        let first = if self.lowest != NIL && self.classes[self.lowest as usize].count == 1 {
            self.lowest
        } else {
            self.new_class(1, NIL)
        };
        self.push_tail(first, slot);
        self.map.insert(packed, slot);
        if let Some(g) = &mut self.guard {
            g.maybe_roll();
        }
        Lookup { hit: false, slot: Some(slot as usize), evicted }
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
                self.unlink(slot);
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
        self.classes.clear();
        self.free_classes.clear();
        self.lowest = NIL;
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

    /// Moves a hit `slot` to the most recent end of its next list: its
    /// own class under LRU, class count + 1 under LFU.
    fn promote(&mut self, slot: u32) {
        let c = self.slots[slot as usize].class;
        let Class { count, head, tail, next, .. } = self.classes[c as usize];
        let target = match self.policy {
            CachePolicy::Lru => c,
            CachePolicy::Lfu if next != NIL && self.classes[next as usize].count == count + 1 => {
                next
            }
            CachePolicy::Lfu if head == slot && tail == slot => {
                // Sole member and no class count + 1 yet: the class itself
                // moves up one count without leaving its place in the order.
                self.classes[c as usize].count += 1;
                return;
            }
            CachePolicy::Lfu => self.new_class(count + 1, c),
        };
        if target == c && tail == slot {
            return;
        }
        self.unlink(slot);
        self.push_tail(target, slot);
    }

    /// A new empty class of `count`, linked right after class `after`
    /// (`NIL` links it in front of every class).
    fn new_class(&mut self, count: u64, after: u32) -> u32 {
        let next = if after == NIL { self.lowest } else { self.classes[after as usize].next };
        let class = Class { count, head: NIL, tail: NIL, prev: after, next };
        let c = match self.free_classes.pop() {
            Some(c) => {
                self.classes[c as usize] = class;
                c
            }
            None => {
                self.classes.push(class);
                (self.classes.len() - 1) as u32
            }
        };
        if after == NIL {
            self.lowest = c;
        } else {
            self.classes[after as usize].next = c;
        }
        if next != NIL {
            self.classes[next as usize].prev = c;
        }
        c
    }

    /// Appends `slot` at the most recent end of class `c`'s list.
    fn push_tail(&mut self, c: u32, slot: u32) {
        let tail = self.classes[c as usize].tail;
        let s = &mut self.slots[slot as usize];
        s.class = c;
        s.prev = tail;
        s.next = NIL;
        if tail == NIL {
            self.classes[c as usize].head = slot;
        } else {
            self.slots[tail as usize].next = slot;
        }
        self.classes[c as usize].tail = slot;
    }

    /// Takes `slot` out of its class's list, freeing the class if that
    /// empties it.
    fn unlink(&mut self, slot: u32) {
        let Slot { class: c, prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.classes[c as usize].head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.classes[c as usize].tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
        if self.classes[c as usize].head != NIL {
            return;
        }
        let Class { prev: below, next: above, .. } = self.classes[c as usize];
        if below == NIL {
            self.lowest = above;
        } else {
            self.classes[below as usize].next = above;
        }
        if above != NIL {
            self.classes[above as usize].prev = below;
        }
        self.free_classes.push(c);
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
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    /// One resident row of the reference model.
    #[derive(Clone, Copy)]
    struct RefSlot {
        key: u64,
        count: u64,
        last_use: u64,
        version: u64,
    }

    /// Reference model: a flat slot table scanned linearly, with the same
    /// slot rule as [`EmbedCache`] (freed slots stack up for reuse, an
    /// eviction reuses the victim's slot) and the victim picked as the
    /// minimum of `(last use)` under LRU or `(use count, last use)` under
    /// LFU.
    struct Reference {
        policy: CachePolicy,
        capacity: usize,
        slots: Vec<Option<RefSlot>>,
        free: Vec<usize>,
        tick: u64,
        stats: CacheStats,
        stale: u64,
        guard: Option<ThrashGuard>,
    }

    impl Reference {
        fn new(capacity: usize, policy: CachePolicy, guarded: bool) -> Self {
            Reference {
                policy,
                capacity,
                slots: Vec::new(),
                free: Vec::new(),
                tick: 0,
                stats: CacheStats::default(),
                stale: 0,
                guard: guarded.then(ThrashGuard::new),
            }
        }

        fn find(&self, key: u64) -> Option<usize> {
            self.slots.iter().position(|s| s.is_some_and(|s| s.key == key))
        }

        fn rank(&self, s: &RefSlot) -> (u64, u64) {
            match self.policy {
                CachePolicy::Lru => (s.last_use, 0),
                CachePolicy::Lfu => (s.count, s.last_use),
            }
        }

        fn access(&mut self, key: CacheKey, version: u64) -> Lookup {
            let packed = key.pack();
            self.tick += 1;
            if let Some(g) = &mut self.guard {
                g.accesses += 1;
            }
            if let Some(i) = self.find(packed) {
                let s = self.slots[i].as_mut().expect("found");
                if s.version == version {
                    s.count += 1;
                    s.last_use = self.tick;
                    self.stats.hits += 1;
                    if let Some(g) = &mut self.guard {
                        g.hits += 1;
                        g.maybe_roll();
                    }
                    return Lookup { hit: true, slot: Some(i), evicted: None };
                }
                self.stale += 1;
                self.slots[i] = None;
                self.free.push(i);
            }
            self.stats.misses += 1;
            let bypass = self.guard.is_some_and(|g| g.bypassing());
            if self.capacity == 0 || bypass {
                self.stats.bypassed += u64::from(self.capacity > 0);
                if let Some(g) = &mut self.guard {
                    g.maybe_roll();
                }
                return Lookup { hit: false, slot: None, evicted: None };
            }
            let mut evicted = None;
            let resident = self.slots.iter().flatten().count();
            let slot = if resident < self.capacity {
                self.free.pop().unwrap_or_else(|| {
                    self.slots.push(None);
                    self.slots.len() - 1
                })
            } else {
                let victim = (0..self.slots.len())
                    .filter_map(|i| self.slots[i].map(|s| (self.rank(&s), i)))
                    .min()
                    .expect("full cache has residents")
                    .1;
                evicted = Some(CacheKey::unpack(self.slots[victim].expect("resident").key));
                self.stats.evictions += 1;
                if let Some(g) = &mut self.guard {
                    g.evictions += 1;
                }
                victim
            };
            self.slots[slot] = Some(RefSlot { key: packed, count: 1, last_use: self.tick, version });
            if let Some(g) = &mut self.guard {
                g.maybe_roll();
            }
            Lookup { hit: false, slot: Some(slot), evicted }
        }

        fn invalidate(&mut self, key: CacheKey) -> bool {
            let Some(i) = self.find(key.pack()) else { return false };
            self.slots[i] = None;
            self.free.push(i);
            true
        }

        fn flush(&mut self) {
            self.slots.clear();
            self.free.clear();
            if self.guard.is_some() {
                self.guard = Some(ThrashGuard::new());
            }
        }
    }

    /// Replays `ops` on both the cache and the reference model, asserting
    /// every outcome agrees. Each op is `(kind, pe, row, protect)`: kind 0
    /// flushes, 1..=30 invalidates, 31..=60 bumps the row's version, and
    /// the rest access it at its current version. A bump invalidates the
    /// row first when `protect` is set, as the engine does; debug builds
    /// always protect, since an unprotected stale hit fails loudly there.
    fn replay(ops: &[(u32, u16, u32, bool)], capacity: usize, policy: CachePolicy, guarded: bool) {
        let mut cache = if guarded {
            EmbedCache::with_thrash_guard(capacity, policy)
        } else {
            EmbedCache::new(capacity, policy)
        };
        let mut reference = Reference::new(capacity, policy, guarded);
        let mut versions = [0u64; 64];
        for (step, &(kind, pe, row, protect)) in ops.iter().enumerate() {
            let key = CacheKey { pe, row };
            let v = &mut versions[(pe as usize) * 16 + row as usize];
            match kind {
                0 => {
                    cache.flush();
                    reference.flush();
                }
                1..=30 => assert_eq!(cache.invalidate(key), reference.invalidate(key), "step {step}"),
                31..=60 => {
                    *v += 1;
                    if protect || cfg!(debug_assertions) {
                        assert_eq!(cache.invalidate(key), reference.invalidate(key), "step {step}");
                    }
                }
                _ => assert_eq!(
                    cache.access_versioned(key, *v),
                    reference.access(key, *v),
                    "step {step}: {key:?} at version {v}"
                ),
            }
            assert_eq!(cache.len(), reference.slots.iter().flatten().count(), "step {step}");
        }
        assert_eq!(cache.stats(), reference.stats);
        assert_eq!(cache.stale_hits(), reference.stale);
        assert!(cache.len() <= capacity);
    }

    /// A long stream over a small working set, far past capacity, so the
    /// use-count classes split, merge and empty many times over.
    #[test]
    fn long_lfu_stream_matches_reference_model() {
        let ops: Vec<(u32, u16, u32, bool)> =
            (0..10_000u32).map(|i| (100, 0, i * 7919 % 37 % 16, true)).collect();
        for policy in [CachePolicy::Lfu, CachePolicy::Lru] {
            replay(&ops, 8, policy, false);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every lookup (hit, slot, evicted key), every invalidation,
        /// `stale_hits` and the counters agree with the naive reference
        /// model, for both policies, with and without the thrash guard,
        /// over streams that mix version bumps, invalidations and flushes.
        #[test]
        fn every_lookup_matches_reference_model(
            ops in proptest::collection::vec(
                (0u32..1_000, 0u16..3, 0u32..16, proptest::bool::ANY), 0..3000),
            capacity in 0usize..24,
            lfu in proptest::bool::ANY,
            guarded in proptest::bool::ANY,
        ) {
            let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
            replay(&ops, capacity, policy, guarded);
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
