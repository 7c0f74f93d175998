//! Deterministic event queue for the simulation main loop.

use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// An event queue delivering `(time, payload)` pairs in time order, with
/// FIFO tie-breaking by insertion sequence so runs are fully deterministic.
///
/// A binary heap keyed on `(time, insertion seq)`: among all pending events
/// the one with the smallest key pops first, for every push/pop
/// interleaving. Push and pop are O(log n) however the pending times are
/// spread, which matters because a simulated kernel puts thousands of
/// events on the same nanosecond (every SM issues at t=0, and every `_nbi`
/// GET frees its scheduler slot one request overhead later).
///
/// Beside the heap sits a FIFO lane for events a caller pushes in
/// non-decreasing time order ([`push_sorted`](Self::push_sorted)): those
/// cost O(1) each way. `pop` takes the smaller `(time, seq)` of the lane
/// head and the heap top, so events pop in the order they would if every
/// one were on the heap.
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// Events from `push_sorted`, ascending on `(time, seq)`.
    lane: VecDeque<Entry<T>>,
    /// Sequence number of the next push (either kind): the tie-breaker
    /// among equal times.
    seq: u64,
}

/// A pending event, ordered by its `(time, seq)` key alone (the payload
/// never takes part) and reversed, so the max-heap yields the smallest key.
#[derive(Debug)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> Reverse<(SimTime, u64)> {
        Reverse((self.time, self.seq))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), lane: VecDeque::new(), seq: 0 }
    }

    /// Empties the queue but keeps its allocations, so a simulator run can
    /// reuse the queue of the previous run without re-growing it. `seq`
    /// restarts at 0, so a cleared queue orders events exactly like a
    /// fresh one.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.lane.clear();
        self.seq = 0;
    }

    /// Schedules `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        self.heap.push(Entry { time, seq: self.seq, payload });
        self.seq += 1;
    }

    /// Schedules `payload` at `time`, for a caller whose successive
    /// `push_sorted` times never decrease. Such an event is appended to the
    /// FIFO lane in O(1); one that would break the lane's order goes to
    /// the heap instead, so the pop order never depends on the caller
    /// keeping that promise.
    pub fn push_sorted(&mut self, time: SimTime, payload: T) {
        let entry = Entry { time, seq: self.seq, payload };
        self.seq += 1;
        if self.lane.back().is_none_or(|last| time >= last.time) {
            self.lane.push_back(entry);
        } else {
            self.heap.push(entry);
        }
    }

    /// Removes and returns the earliest event (smallest `(time, seq)`).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let from_lane = match (self.lane.front(), self.heap.peek()) {
            (Some(head), Some(top)) => (head.time, head.seq) < (top.time, top.seq),
            (lane_head, _) => lane_head.is_some(),
        };
        let entry = if from_lane { self.lane.pop_front() } else { self.heap.pop() };
        entry.map(|e| (e.time, e.payload))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
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

    /// Pending `(time, seq)` keys, sorted descending so the minimum pops
    /// off the end: the reference order every `EventQueue` pop must match.
    struct Oracle {
        keys: Vec<(SimTime, u64)>,
        seq: u64,
    }

    impl Oracle {
        fn new() -> Self {
            Oracle { keys: Vec::new(), seq: 0 }
        }
        fn push(&mut self, time: SimTime) {
            let key = (time, self.seq);
            let at = self.keys.partition_point(|&k| k > key);
            self.keys.insert(at, key);
            self.seq += 1;
        }
        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.keys.pop()
        }
    }

    /// Deterministic pseudo-random stream (splitmix-ish).
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state ^= state >> 30;
            state = state.wrapping_mul(0xbf58476d1ce4e5b9);
            state ^= state >> 27;
            state
        }
    }

    /// Randomized push/pop/clear stream checked pop for pop against a
    /// sorted-`Vec` oracle on `(time, seq)`. The stream has the shapes a
    /// simulated kernel produces: same-time cohorts of thousands of events
    /// (every SM issuing at one instant), short gaps, far-future
    /// stragglers, and a clear partway through that restarts `seq`.
    #[test]
    fn matches_sorted_vec_oracle_on_time_then_seq() {
        let mut q = EventQueue::new();
        let mut oracle = Oracle::new();
        let mut rand = splitmix(0x9e3779b97f4a7c15);
        let (mut now, mut pops, mut cleared) = (0u64, 0usize, false);
        for round in 0..400u64 {
            if round == 200 {
                // Clear with thousands pending: both restart from seq 0.
                assert!(q.len() > 1_000, "clear must drop a full queue");
                q.clear();
                oracle = Oracle::new();
                cleared = true;
            }
            let burst = match rand() % 8 {
                // A same-time cohort of thousands of events.
                0 => 1_000 + rand() % 3_000,
                _ => 1 + rand() % 64,
            };
            let cohort_time = now + rand() % 200;
            for _ in 0..burst {
                let t = match rand() % 16 {
                    0 => now + 1_000_000 + rand() % 1_000_000_000,
                    1..=10 => cohort_time,
                    _ => now + rand() % 700,
                };
                // The payload is the seq the oracle assigns, so a pop that
                // breaks a time tie wrongly returns the wrong payload.
                q.push(t, oracle.seq);
                oracle.push(t);
            }
            for _ in 0..rand() % (2 * burst + 1) {
                let want = oracle.pop();
                assert_eq!(q.pop(), want, "round {round}");
                assert_eq!(q.len(), oracle.keys.len());
                if let Some((t, _)) = want {
                    now = t;
                    pops += 1;
                }
            }
        }
        while let Some(want) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
            pops += 1;
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert!(cleared && pops > 100_000, "stream too small: {pops} pops");
    }

    /// The sorted lane beside the heap keeps the heap's pop order. The
    /// stream mixes what a kernel pushes: `push_sorted` at a fixed delay
    /// after a non-decreasing `now` (the `_nbi` GET frees), plain pushes
    /// at that same instant, same-time cohorts and far-future wakes, and
    /// deliberately out-of-order `push_sorted` calls that must fall back
    /// to the heap, with a clear partway through.
    #[test]
    fn sorted_lane_matches_sorted_vec_oracle() {
        const DELAY: u64 = 150;
        let mut q = EventQueue::new();
        let mut oracle = Oracle::new();
        let mut rand = splitmix(0x2545f4914f6cdd1d);
        let (mut now, mut pops, mut cleared) = (0u64, 0usize, false);
        let (mut sorted_pushes, mut fell_back) = (0usize, 0usize);
        // Pops where the lane head and the heap top share a time, split by
        // which of the two was pushed first.
        let (mut tie_lane_first, mut tie_heap_first) = (0usize, 0usize);
        for round in 0..400u64 {
            if round == 200 {
                assert!(q.lane.len() > 100 && q.heap.len() > 100, "clear must drop both parts");
                q.clear();
                oracle = Oracle::new();
                cleared = true;
            }
            let burst = match rand() % 8 {
                0 => 1_000 + rand() % 2_000,
                _ => 1 + rand() % 64,
            };
            let cohort_time = now + rand() % 200;
            for _ in 0..burst {
                let payload = oracle.seq;
                match rand() % 16 {
                    kind @ 0..=7 => {
                        // One in eight is earlier than the stream, out of order.
                        let t = if kind == 7 { now + rand() % DELAY } else { now + DELAY };
                        let heap_len = q.heap.len();
                        q.push_sorted(t, payload);
                        oracle.push(t);
                        sorted_pushes += 1;
                        fell_back += usize::from(q.heap.len() > heap_len);
                    }
                    8 | 9 => {
                        q.push(now + DELAY, payload);
                        oracle.push(now + DELAY);
                    }
                    10 => {
                        let t = now + 1_000_000 + rand() % 1_000_000_000;
                        q.push(t, payload);
                        oracle.push(t);
                    }
                    _ => {
                        q.push(cohort_time, payload);
                        oracle.push(cohort_time);
                    }
                }
            }
            for _ in 0..rand() % (2 * burst + 1) {
                if let (Some(head), Some(top)) = (q.lane.front(), q.heap.peek()) {
                    if head.time == top.time {
                        tie_lane_first += usize::from(head.seq < top.seq);
                        tie_heap_first += usize::from(head.seq > top.seq);
                    }
                }
                let want = oracle.pop();
                assert_eq!(q.pop(), want, "round {round}");
                assert_eq!(q.len(), oracle.keys.len());
                if let Some((t, _)) = want {
                    now = t;
                    pops += 1;
                }
            }
        }
        while let Some(want) = oracle.pop() {
            assert_eq!(q.pop(), Some(want));
            pops += 1;
        }
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
        assert!(cleared && pops > 50_000, "stream too small: {pops} pops");
        let laned = sorted_pushes - fell_back;
        assert!(laned > 10_000 && fell_back > 1_000, "lane {laned}, fallback {fell_back}");
        assert!(
            tie_lane_first > 100 && tie_heap_first > 100,
            "ties: lane first {tie_lane_first}, heap first {tie_heap_first}"
        );
    }

    #[test]
    fn cleared_queue_behaves_like_a_fresh_one() {
        let mut q = EventQueue::new();
        for i in 0..500u64 {
            q.push(i * 13, i);
            q.push_sorted(i * 7, i);
        }
        q.pop();
        let (heap_capacity, lane_capacity) = (q.heap.capacity(), q.lane.capacity());
        q.clear();
        assert_eq!(q.heap.capacity(), heap_capacity, "clear keeps the heap's allocation");
        assert_eq!(q.lane.capacity(), lane_capacity, "clear keeps the lane's allocation");
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(30, 3);
        q.push_sorted(10, 1);
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
