//! Deterministic event queue for the simulation main loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Minimum bucket count (power of two).
const MIN_BUCKETS: usize = 16;

/// An event queue delivering `(time, payload)` pairs in time order, with
/// FIFO tie-breaking by insertion sequence so runs are fully deterministic.
///
/// Internally a bucketed *calendar queue* (Brown 1988): events hash into
/// `buckets.len()` time-sliced buckets by `(time / width) % buckets`, and
/// `pop` walks slots in calendar order, so the common discrete-event
/// pattern — pops near the current time, pushes slightly ahead of it —
/// costs O(1) amortized instead of the binary heap's O(log n). The
/// ordering contract is exact: among all pending events the one with the
/// smallest `(time, insertion seq)` pops first, identical to the previous
/// `BinaryHeap` implementation for every push/pop interleaving.
#[derive(Debug)]
pub struct EventQueue<T> {
    /// `buckets[slot & mask]` holds events of every calendar "year" that
    /// maps onto the slot; entries are `(time, seq, payload)`.
    buckets: Vec<Vec<(SimTime, u64, T)>>,
    /// Power-of-two bucket-count mask.
    mask: usize,
    /// Nanoseconds of simulated time per bucket.
    width: SimTime,
    /// Absolute slot (`time / width`) the next pop scans from. Invariant:
    /// every pending event's slot is >= `cur_slot`.
    cur_slot: u64,
    len: usize,
    seq: u64,
    /// Cached `(bucket, index)` of the current minimum, found by [`Self::peek`]
    /// and consumed by the next [`Self::pop`]; invalidated by any push that
    /// could beat it and by resizes.
    peeked: Option<(usize, usize)>,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..MIN_BUCKETS).map(|_| Vec::new()).collect(),
            mask: MIN_BUCKETS - 1,
            // Matched to the simulator's typical inter-event gap (tens to
            // hundreds of ns); resizes re-estimate it from live events.
            width: 256,
            cur_slot: 0,
            len: 0,
            seq: 0,
            peeked: None,
        }
    }

    /// Empties the queue while keeping every bucket allocation (and the
    /// calibrated bucket width), so a simulator run can reuse the queue of
    /// the previous run without re-growing it. Ordering is unaffected: the
    /// contract depends only on stored `(time, seq)` keys, never on bucket
    /// layout, and `seq` restarts at 0 exactly like a fresh queue.
    pub fn recycle(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cur_slot = 0;
        self.len = 0;
        self.seq = 0;
        self.peeked = None;
    }

    #[inline]
    fn slot_of(&self, time: SimTime) -> u64 {
        time / self.width
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let slot = self.slot_of(time);
        if self.len == 0 {
            // Empty queue: re-anchor the scan position directly.
            self.cur_slot = slot;
        } else if slot < self.cur_slot {
            // Out-of-order push (allowed by the API even though the DES
            // loop never time-travels): rewind the scan position.
            self.cur_slot = slot;
        }
        let b = (slot as usize) & self.mask;
        // A pushed event can beat the cached minimum only with a strictly
        // smaller time: its seq is larger than every pending event's.
        if let Some((pb, pi)) = self.peeked {
            if time < self.buckets[pb][pi].0 {
                self.peeked = None;
            }
        }
        self.buckets[b].push((time, self.seq, payload));
        self.seq += 1;
        self.len += 1;
        if self.len > 2 * self.buckets.len() {
            self.resize(self.buckets.len() * 2);
        }
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (b, idx) = self.locate()?;
        self.peeked = None;
        Some(self.take(b, idx))
    }

    /// The earliest event without removing it (smallest `(time, seq)`).
    /// The located position is cached, so a `peek` followed by `pop` costs
    /// one calendar walk, not two.
    pub fn peek(&mut self) -> Option<(SimTime, &T)> {
        let (b, idx) = self.locate()?;
        self.peeked = Some((b, idx));
        let (t, _, ref p) = self.buckets[b][idx];
        Some((t, p))
    }

    /// `(bucket, index)` of the earliest event, advancing `cur_slot` to its
    /// calendar slot (sound: no pending event lives in an earlier slot).
    fn locate(&mut self) -> Option<(usize, usize)> {
        if self.len == 0 {
            return None;
        }
        if let Some(loc) = self.peeked {
            return Some(loc);
        }
        // Walk calendar slots from the current position. Each probe scans
        // one bucket for events belonging to the probed year-slot; a full
        // lap without a hit means the next event is far in the future, so
        // jump straight to the global minimum.
        let nbuckets = self.buckets.len() as u64;
        for probe in 0..nbuckets {
            let slot = self.cur_slot + probe;
            let b = (slot as usize) & self.mask;
            let lo = slot.saturating_mul(self.width);
            let hi = lo.saturating_add(self.width);
            if let Some(idx) = Self::min_in_window(&self.buckets[b], lo, hi) {
                self.cur_slot = slot;
                return Some((b, idx));
            }
        }
        // Sparse tail: direct min over everything (rare), then re-anchor.
        let (b, idx) = self.global_min().expect("len > 0");
        self.cur_slot = self.buckets[b][idx].0 / self.width;
        Some((b, idx))
    }

    /// Index of the smallest `(time, seq)` entry of `bucket` with
    /// `lo <= time < hi`, if any.
    #[inline]
    fn min_in_window(bucket: &[(SimTime, u64, T)], lo: SimTime, hi: SimTime) -> Option<usize> {
        let mut best: Option<(SimTime, u64, usize)> = None;
        for (i, &(t, s, _)) in bucket.iter().enumerate() {
            if t >= lo && t < hi && best.is_none_or(|(bt, bs, _)| (t, s) < (bt, bs)) {
                best = Some((t, s, i));
            }
        }
        best.map(|(_, _, i)| i)
    }

    /// `(bucket, index)` of the globally smallest `(time, seq)` entry.
    fn global_min(&self) -> Option<(usize, usize)> {
        let mut best: Option<(SimTime, u64, usize, usize)> = None;
        for (b, bucket) in self.buckets.iter().enumerate() {
            for (i, &(t, s, _)) in bucket.iter().enumerate() {
                if best.is_none_or(|(bt, bs, _, _)| (t, s) < (bt, bs)) {
                    best = Some((t, s, b, i));
                }
            }
        }
        best.map(|(_, _, b, i)| (b, i))
    }

    /// Removes entry `idx` of bucket `b` and returns `(time, payload)`.
    fn take(&mut self, b: usize, idx: usize) -> (SimTime, T) {
        let (t, _, p) = self.buckets[b].swap_remove(idx);
        self.len -= 1;
        (t, p)
    }

    /// Rebuilds with `nbuckets` buckets and a width re-estimated from the
    /// live events' time span, preserving all entries and the ordering
    /// contract (which depends only on stored `(time, seq)` keys).
    fn resize(&mut self, nbuckets: usize) {
        self.peeked = None;
        let old: Vec<(SimTime, u64, T)> =
            self.buckets.iter_mut().flat_map(std::mem::take).collect();
        let (mut min_t, mut max_t) = (SimTime::MAX, 0);
        for &(t, _, _) in &old {
            min_t = min_t.min(t);
            max_t = max_t.max(t);
        }
        // Aim for ~1 event per bucket across the live span.
        let span = max_t.saturating_sub(min_t);
        self.width = (span / old.len().max(1) as u64).max(1);
        self.mask = nbuckets - 1;
        self.buckets = (0..nbuckets).map(|_| Vec::new()).collect();
        // Re-anchor the scan position at the earliest live event, which
        // preserves the invariant cur_slot <= slot(event) for every event.
        self.cur_slot = min_t / self.width;
        for (t, s, p) in old {
            let b = ((t / self.width) as usize) & self.mask;
            self.buckets[b].push((t, s, p));
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// A pool of `k` identical servers with FIFO admission, used to model
/// resources with bounded concurrency (e.g. the GPU's page-fault handling
/// pipeline, which can service only a few faults at once).
///
/// Dispatch keeps the servers in a min-heap on `(free time, server id)`,
/// so `submit` is O(log k) instead of the previous O(k) linear scan; ties
/// still go to the lowest-numbered server, so job-to-server assignment —
/// and therefore every completion time — is unchanged.
#[derive(Debug, Clone)]
pub struct MultiServerQueue {
    /// Min-heap of `(time the server frees up, server id)`.
    available: BinaryHeap<Reverse<(SimTime, u32)>>,
    servers: u32,
    jobs: u64,
    busy_ns_total: u64,
}

impl MultiServerQueue {
    /// Creates a pool of `servers` servers (at least one).
    pub fn new(servers: u32) -> Self {
        assert!(servers >= 1, "need at least one server");
        MultiServerQueue {
            available: (0..servers).map(|i| Reverse((0, i))).collect(),
            servers,
            jobs: 0,
            busy_ns_total: 0,
        }
    }

    /// Submits a job of `service_ns` at `now`; returns its completion time.
    pub fn submit(&mut self, now: SimTime, service_ns: u64) -> SimTime {
        // The earliest-free server takes the job (lowest id on ties).
        let Reverse((earliest, idx)) = self.available.pop().expect("non-empty server pool");
        let start = earliest.max(now);
        let done = start + service_ns;
        self.available.push(Reverse((done, idx)));
        self.jobs += 1;
        self.busy_ns_total += service_ns;
        done
    }

    /// Number of jobs serviced.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Total service time dispensed.
    pub fn busy_ns_total(&self) -> u64 {
        self.busy_ns_total
    }

    /// Clears all queueing state.
    pub fn reset(&mut self) {
        self.available = (0..self.servers).map(|i| Reverse((0, i))).collect();
        self.jobs = 0;
        self.busy_ns_total = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(30, "c");
        q.push(10, "a");
        q.push(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(5, 1);
        q.push(5, 2);
        q.push(5, 3);
        assert_eq!(q.pop(), Some((5, 1)));
        assert_eq!(q.pop(), Some((5, 2)));
        assert_eq!(q.pop(), Some((5, 3)));
    }

    #[test]
    fn far_apart_times_pop_correctly() {
        // Events many calendar laps apart exercise the sparse-tail jump.
        let mut q = EventQueue::new();
        q.push(1_000_000_000, "far");
        q.push(3, "near");
        q.push(50_000_000, "mid");
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.pop(), Some((50_000_000, "mid")));
        assert_eq!(q.pop(), Some((1_000_000_000, "far")));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // DES-style usage: pops advance time, pushes land slightly ahead.
        let mut q = EventQueue::new();
        q.push(0, 0u64);
        let mut popped = Vec::new();
        let mut next_id = 1u64;
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
            if next_id < 200 {
                q.push(t + 17 * (next_id % 5), next_id);
                next_id += 1;
                q.push(t + 3, next_id);
                next_id += 1;
            }
        }
        // 1 seed event + 100 pop-iterations pushing 2 events each.
        assert_eq!(popped.len(), 201);
        // Times must be non-decreasing; equal times FIFO by insertion.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated: {w:?}");
        }
    }

    /// Exhaustive cross-check against the reference semantics (a binary
    /// heap on `(time, seq)`), including resize-triggering volumes.
    #[test]
    fn matches_reference_heap_order_exactly() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64)>> = BinaryHeap::new();
        // Deterministic pseudo-random stream (splitmix-ish).
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut rand = move || {
            state ^= state >> 30;
            state = state.wrapping_mul(0xbf58476d1ce4e5b9);
            state ^= state >> 27;
            state
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for round in 0..2_000u64 {
            // Push a burst ahead of `now` (occasionally a large jump).
            let burst = (rand() % 4) + 1;
            for _ in 0..burst {
                let dt = match rand() % 10 {
                    0 => rand() % 1_000_000,
                    1..=3 => 0,
                    _ => rand() % 500,
                };
                q.push(now + dt, seq);
                reference.push(Reverse((now + dt, seq)));
                seq += 1;
            }
            // Pop a few and compare exactly (time AND payload identity).
            for _ in 0..(rand() % 4) {
                let got = q.pop();
                let want = reference.pop().map(|Reverse((t, s))| (t, s));
                assert_eq!(got, want, "round {round}");
                if let Some((t, _)) = got {
                    now = now.max(t);
                }
            }
        }
        // Drain both.
        loop {
            let got = q.pop();
            let want = reference.pop().map(|Reverse((t, s))| (t, s));
            assert_eq!(got, want);
            if got.is_none() {
                break;
            }
        }
    }

    #[test]
    fn peek_matches_pop_and_survives_pushes() {
        let mut q = EventQueue::new();
        q.push(50, "b");
        q.push(10, "a");
        assert_eq!(q.peek(), Some((10, &"a")));
        // A later-time push must not disturb the cached minimum...
        q.push(70, "c");
        assert_eq!(q.peek(), Some((10, &"a")));
        // ...and an earlier-time push must replace it.
        q.push(5, "z");
        assert_eq!(q.peek(), Some((5, &"z")));
        assert_eq!(q.pop(), Some((5, "z")));
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((50, "b")));
        assert_eq!(q.pop(), Some((70, "c")));
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn recycle_preserves_capacity_and_restarts_clean() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(i * 13, i);
        }
        let buckets_before = q.buckets.len();
        assert!(buckets_before > MIN_BUCKETS, "volume must have resized");
        q.recycle();
        assert!(q.is_empty());
        assert_eq!(q.buckets.len(), buckets_before, "allocations kept");
        // Recycled queue behaves exactly like a fresh one.
        q.push(30, 3);
        q.push(10, 1);
        q.push(10, 2);
        assert_eq!(q.pop(), Some((10, 1)));
        assert_eq!(q.pop(), Some((10, 2)));
        assert_eq!(q.pop(), Some((30, 3)));
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        for i in 0..100 {
            q.push(i * 7, i);
        }
        assert_eq!(q.len(), 100);
        for _ in 0..60 {
            q.pop();
        }
        assert_eq!(q.len(), 40);
        assert!(!q.is_empty());
    }

    #[test]
    fn multiserver_parallelism() {
        let mut pool = MultiServerQueue::new(2);
        // Two jobs run in parallel, the third queues behind the earliest.
        assert_eq!(pool.submit(0, 100), 100);
        assert_eq!(pool.submit(0, 100), 100);
        assert_eq!(pool.submit(0, 100), 200);
        assert_eq!(pool.jobs(), 3);
    }

    #[test]
    fn multiserver_respects_arrival_time() {
        let mut pool = MultiServerQueue::new(1);
        assert_eq!(pool.submit(0, 10), 10);
        // Arrives after the server freed: no queueing delay.
        assert_eq!(pool.submit(50, 10), 60);
    }

    /// The heap-based dispatcher must reproduce the old linear-scan
    /// dispatch (first minimum wins) job for job: completion times and
    /// aggregate stats are unchanged on a long adversarial stream.
    #[test]
    fn multiserver_heap_matches_linear_scan_reference() {
        /// The pre-optimization implementation, kept as an oracle.
        struct LinearScan {
            available: Vec<SimTime>,
            jobs: u64,
            busy_ns_total: u64,
        }
        impl LinearScan {
            fn submit(&mut self, now: SimTime, service_ns: u64) -> SimTime {
                let (idx, &earliest) = self
                    .available
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    .expect("non-empty");
                let start = earliest.max(now);
                let done = start + service_ns;
                self.available[idx] = done;
                self.jobs += 1;
                self.busy_ns_total += service_ns;
                done
            }
        }
        for servers in [1u32, 2, 3, 7] {
            let mut heap = MultiServerQueue::new(servers);
            let mut oracle =
                LinearScan { available: vec![0; servers as usize], jobs: 0, busy_ns_total: 0 };
            let mut state = 42u64 + servers as u64;
            let mut rand = move || {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                state.wrapping_mul(0x2545F4914F6CDD1D)
            };
            let mut now = 0u64;
            for _ in 0..5_000 {
                now += rand() % 50;
                // Many ties (service 0 and equal arrival times) to stress
                // the tie-break rule.
                let service = rand() % 40;
                assert_eq!(heap.submit(now, service), oracle.submit(now, service));
            }
            assert_eq!(heap.jobs(), oracle.jobs);
            assert_eq!(heap.busy_ns_total(), oracle.busy_ns_total);
        }
    }

    #[test]
    fn multiserver_reset_restores_fresh_state() {
        let mut pool = MultiServerQueue::new(3);
        pool.submit(0, 100);
        pool.submit(0, 100);
        pool.reset();
        assert_eq!(pool.jobs(), 0);
        assert_eq!(pool.busy_ns_total(), 0);
        assert_eq!(pool.submit(0, 5), 5);
    }

    #[test]
    #[should_panic(expected = "need at least one server")]
    fn zero_servers_rejected() {
        let _ = MultiServerQueue::new(0);
    }
}
