//! Deterministic parallel execution runtime for the MGG host stack.
//!
//! Every parallel surface in this workspace (bench sweep cells, functional
//! aggregation, chaos seed matrices) runs through this crate so there is
//! exactly one place where the determinism contract is enforced:
//!
//! * **Slot merge** — [`par_map`]/[`par_map_indexed`] write each job's
//!   result into a preallocated, cache-line-padded slot owned by its input
//!   index (written exactly once, read only after the region barrier) and
//!   return the slots in input order, so the output `Vec` is bit-identical
//!   to a sequential `map` at *any* thread count (including odd counts and
//!   oversubscription) and workers never share a hot cache line while
//!   writing results.
//! * **Disjoint writes** — [`par_slices_mut`] hands each worker exclusive
//!   `&mut` windows of one buffer; the windows tile the buffer, so there is
//!   no accumulation-order freedom to lose.
//! * **No wall-clock, no RNG in jobs** — jobs must be pure functions of
//!   their input index/item. The runtime provides no ambient randomness and
//!   no timing information to jobs; anything time- or schedule-dependent
//!   belongs on the caller's side of the join.
//!
//! Scheduling is work-stealing-lite: workers claim job indices one at a
//! time from a shared atomic counter, which self-balances uneven job costs
//! without per-worker deques. The claim order is nondeterministic; the
//! merge order is not, which is all that matters for output bits.
//!
//! Execution runs on a **persistent worker pool** ([`pool`]): workers are
//! spawned lazily on first use, park between regions, and are reused by
//! every subsequent parallel call, so a region dispatch costs a mutex
//! handoff instead of per-call thread spawn/teardown. The caller
//! participates as lane 0. Nested parallel calls from inside a job run
//! sequentially on the claiming worker (no oversubscription, same bits).
//! A 1-thread configuration (or an empty/1-item input) short-circuits to a
//! plain sequential loop on the calling thread, and [`shutdown_pool`]
//! joins the workers for clean teardown.

#![deny(missing_docs)]

pub mod pool;
pub mod profile;

pub use pool::{shutdown as shutdown_pool, spawned_workers};

use profile::{LaneRaw, RegionTimer};
use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide thread-count setting: 0 = auto (`available_parallelism`).
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Per-thread override installed by [`with_threads`]; 0 = none.
    static LOCAL_THREADS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sets the process-wide worker count used by subsequent parallel calls.
/// `0` restores the default (`std::thread::available_parallelism()`).
/// `1` forces the fully sequential path.
///
/// The persistent pool resizes on demand: growing spawns the missing
/// workers at the next parallel region; shrinking leaves the extra workers
/// parked (they hold no scratch and cost only their stack) so a later
/// wider setting reuses them without respawning.
pub fn set_threads(n: usize) {
    GLOBAL_THREADS.store(n, Ordering::Relaxed);
}

/// The worker count parallel calls on this thread will use right now:
/// the innermost [`with_threads`] override, else [`set_threads`], else
/// `std::thread::available_parallelism()`.
pub fn threads() -> usize {
    let local = LOCAL_THREADS.with(|t| t.get());
    if local > 0 {
        return local;
    }
    let global = GLOBAL_THREADS.load(Ordering::Relaxed);
    if global > 0 {
        return global;
    }
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Runs `f` with the calling thread's worker count pinned to `n`
/// (restored afterwards, panic-safe). Scoped and per-thread, so
/// concurrently running tests cannot perturb each other's setting.
pub fn with_threads<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            LOCAL_THREADS.with(|t| t.set(self.0));
        }
    }
    let _restore = LOCAL_THREADS.with(|t| {
        let prev = t.get();
        t.set(n);
        Restore(prev)
    });
    f()
}

/// Deterministic chunk length for splitting `total` work items across the
/// current worker count: one contiguous chunk per worker (ceil division),
/// floored at `min_per_chunk` so tiny inputs do not shatter into jobs
/// smaller than their dispatch cost. Callers that split work by rows use
/// this so granularity follows `rows / threads` instead of a fixed size;
/// the chunk boundary never influences output values (each item is a pure
/// function of its index), so bit-identity across thread counts holds.
pub fn chunk_len(total: usize, min_per_chunk: usize) -> usize {
    let w = threads().max(1);
    total.div_ceil(w).max(min_per_chunk.max(1))
}

/// One result slot, padded to a cache line so workers completing adjacent
/// jobs never write to the same line (the false-sharing half of the PR 7
/// merge-wait finding). Written exactly once by the worker that claimed
/// the index, read by the caller after the region barrier.
#[repr(align(64))]
struct Slot<T>(UnsafeCell<Option<T>>);

// SAFETY: the atomic claim counter hands each slot index to exactly one
// worker, and the caller only reads after the region completes.
unsafe impl<T: Send> Sync for Slot<T> {}

/// Effective worker count for a region of `n` jobs on this thread. Nested
/// regions (called from inside a pool job) always run sequentially: the
/// pool is already saturated, and re-entering dispatch would deadlock.
fn region_workers(n: usize) -> usize {
    if pool::in_worker() {
        return 1;
    }
    threads().min(n)
}

/// Maps `f` over `0..n` in parallel; results come back in index order,
/// bit-identical to `(0..n).map(f).collect()` at any thread count.
pub fn par_map_indexed<U, F>(n: usize, f: F) -> Vec<U>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    let workers = region_workers(n);
    if workers <= 1 {
        let timer = RegionTimer::start("par_map_indexed", n, 1);
        let Some(timer) = timer else {
            return (0..n).map(f).collect();
        };
        let mut lane = LaneRaw::default();
        let out = (0..n)
            .map(|i| {
                let (j0, c0) = (timer.elapsed_ns(), profile::thread_cpu_ns());
                let value = f(i);
                let (j1, c1) = (timer.elapsed_ns(), profile::thread_cpu_ns());
                lane.note_job(j1.saturating_sub(j0), c1.saturating_sub(c0), j1);
                value
            })
            .collect();
        timer.finish(vec![lane]);
        return out;
    }
    let slots: Vec<Slot<U>> = (0..n).map(|_| Slot(UnsafeCell::new(None))).collect();
    let next = AtomicUsize::new(0);
    // One check per region, not per job: profiling is on only when the
    // caller wrapped this in `profile::collect`.
    let timer = RegionTimer::start("par_map_indexed", n, workers);
    let lanes = run_pool_region(workers, timer.as_ref(), |i| {
        let value = f(i);
        // SAFETY: `i` < n and the claim counter hands each index to one
        // lane only; the caller reads only after the region barrier.
        unsafe { *slots[i].0.get() = Some(value) };
    }, &next, n);
    if let Some(timer) = timer {
        timer.finish(lanes);
    }
    slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every claimed slot is written"))
        .collect()
}

/// Shared claim-loop body for pool-backed regions: each lane pulls job
/// indices from `next` and runs `body(i)`, with per-job attribution when
/// `timer` is live. Returns the per-lane profiles (empty when unprofiled).
fn run_pool_region<B>(
    workers: usize,
    timer: Option<&RegionTimer>,
    body: B,
    next: &AtomicUsize,
    n: usize,
) -> Vec<LaneRaw>
where
    B: Fn(usize) + Sync,
{
    let lane_slots: Vec<Slot<LaneRaw>> =
        (0..if timer.is_some() { workers } else { 0 })
            .map(|_| Slot(UnsafeCell::new(None)))
            .collect();
    pool::run_region(workers, |lane| {
        // Pool lanes need the caller's collector for nested regions and
        // telemetry hooks; lane 0 is the caller and already has it.
        let _guard = if lane > 0 {
            timer.map(|t| profile::install(Some(t.collector())))
        } else {
            None
        };
        let mut lane_raw = LaneRaw::default();
        if let Some(t) = timer {
            lane_raw.spawn_delay_ns = t.elapsed_ns();
        }
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            match timer {
                None => body(i),
                Some(t) => {
                    let (j0, c0) = (t.elapsed_ns(), profile::thread_cpu_ns());
                    body(i);
                    let (j1, c1) = (t.elapsed_ns(), profile::thread_cpu_ns());
                    lane_raw.note_job(j1.saturating_sub(j0), c1.saturating_sub(c0), j1);
                }
            }
        }
        if timer.is_some() {
            // SAFETY: each lane index is owned by exactly one lane.
            unsafe { *lane_slots[lane].0.get() = Some(lane_raw) };
        }
    });
    lane_slots
        .into_iter()
        .map(|s| s.0.into_inner().expect("every lane reports"))
        .collect()
}

/// Maps `f` over `items` in parallel; results merge in input order
/// (bit-identical to `items.iter().map(f).collect()`).
pub fn par_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

/// Runs `f(slice_index, slice)` over a set of disjoint mutable slices in
/// parallel. The slices must come from one buffer (e.g. via
/// `split_at_mut`/`chunks_mut`); each is visited exactly once.
pub fn par_slices_mut<T, F>(slices: Vec<&mut [T]>, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    let n = slices.len();
    let workers = region_workers(n);
    if workers <= 1 {
        let timer = RegionTimer::start("par_slices_mut", n, 1);
        let Some(timer) = timer else {
            for (i, s) in slices.into_iter().enumerate() {
                f(i, s);
            }
            return;
        };
        let mut lane = LaneRaw::default();
        for (i, s) in slices.into_iter().enumerate() {
            let (j0, c0) = (timer.elapsed_ns(), profile::thread_cpu_ns());
            f(i, s);
            let (j1, c1) = (timer.elapsed_ns(), profile::thread_cpu_ns());
            lane.note_job(j1.saturating_sub(j0), c1.saturating_sub(c0), j1);
        }
        timer.finish(vec![lane]);
        return;
    }
    // Decompose the exclusive borrows into raw windows so idle workers can
    // claim them through a shared reference; the atomic counter keeps the
    // windows exclusive.
    struct Windows<T> {
        parts: Vec<(*mut T, usize)>,
    }
    unsafe impl<T: Send> Send for Windows<T> {}
    unsafe impl<T: Send> Sync for Windows<T> {}
    let windows = Windows {
        parts: slices.into_iter().map(|s| (s.as_mut_ptr(), s.len())).collect(),
    };
    // Capture the struct (not its field) so the `Sync` impl applies.
    let windows = &windows;
    let next = AtomicUsize::new(0);
    let timer = RegionTimer::start("par_slices_mut", n, workers);
    let lanes = run_pool_region(workers, timer.as_ref(), |i| {
        let (ptr, len) = windows.parts[i];
        // SAFETY: window `i` is claimed by exactly one lane and the source
        // slices were disjoint exclusive borrows that outlive the region.
        let slice = unsafe { std::slice::from_raw_parts_mut(ptr, len) };
        f(i, slice);
    }, &next, n);
    if let Some(timer) = timer {
        timer.finish(lanes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_merges_in_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        for t in [1, 2, 4, 7, 16] {
            let got = with_threads(t, || par_map(&items, |&x| x * x + 1));
            assert_eq!(got, want, "{t} threads");
        }
    }

    #[test]
    fn par_map_indexed_handles_degenerate_sizes() {
        for n in [0usize, 1, 2] {
            for t in [1, 3, 8] {
                let got = with_threads(t, || par_map_indexed(n, |i| i * 3));
                assert_eq!(got, (0..n).map(|i| i * 3).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn float_results_are_bit_identical_across_thread_counts() {
        // Each job does its own order-sensitive float reduction; the merge
        // preserves job boundaries, so bits match exactly.
        let job = |i: usize| -> f64 {
            let mut acc = 0.0f64;
            for k in 0..100 {
                acc += 1.0 / (1.0 + (i * 100 + k) as f64);
            }
            acc
        };
        let seq: Vec<u64> = (0..31).map(|i| job(i).to_bits()).collect();
        for t in [2, 4, 7] {
            let par: Vec<u64> = with_threads(t, || par_map_indexed(31, job))
                .into_iter()
                .map(f64::to_bits)
                .collect();
            assert_eq!(par, seq, "{t} threads");
        }
    }

    #[test]
    fn par_chunks_mut_tiles_the_buffer() {
        let mut seq = vec![0u32; 103];
        for (i, c) in seq.chunks_mut(10).enumerate() {
            for (j, v) in c.iter_mut().enumerate() {
                *v = (i * 1000 + j) as u32;
            }
        }
        for t in [1, 2, 4, 7] {
            let mut par = vec![0u32; 103];
            with_threads(t, || {
                par_slices_mut(par.chunks_mut(10).collect(), |i, c| {
                    for (j, v) in c.iter_mut().enumerate() {
                        *v = (i * 1000 + j) as u32;
                    }
                })
            });
            assert_eq!(par, seq, "{t} threads");
        }
    }

    #[test]
    fn par_slices_mut_visits_every_slice_once() {
        let mut data = [0u8; 64];
        let (a, rest) = data.split_at_mut(5);
        let (b, c) = rest.split_at_mut(40);
        with_threads(4, || {
            par_slices_mut(vec![a, b, c], |i, s| {
                for v in s.iter_mut() {
                    *v += 1 + i as u8;
                }
            })
        });
        assert!(data[..5].iter().all(|&v| v == 1));
        assert!(data[5..45].iter().all(|&v| v == 2));
        assert!(data[45..].iter().all(|&v| v == 3));
    }

    #[test]
    fn with_threads_is_scoped_and_restores() {
        set_threads(0);
        let outer = threads();
        let inner = with_threads(5, threads);
        assert_eq!(inner, 5);
        assert_eq!(threads(), outer);
        // Nested overrides unwind correctly.
        let (a, b) = with_threads(3, || (threads(), with_threads(2, threads)));
        assert_eq!((a, b), (3, 2));
    }

    #[test]
    fn set_threads_one_forces_sequential_path() {
        // A job observing its own thread id: with 1 worker everything runs
        // on the caller.
        let caller = std::thread::current().id();
        let ids = with_threads(1, || par_map_indexed(8, |_| std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn uneven_job_costs_still_merge_in_order() {
        // Front-loaded work: early indices are much slower, so claim order
        // diverges wildly from completion order.
        let job = |i: usize| -> usize {
            let spins = if i < 4 { 200_000 } else { 10 };
            let mut acc = i;
            for _ in 0..spins {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
            }
            (acc & 0xff) ^ i
        };
        let want: Vec<usize> = (0..64).map(job).collect();
        let got = with_threads(7, || par_map_indexed(64, job));
        assert_eq!(got, want);
    }

    #[test]
    fn nested_parallel_calls_run_sequentially_and_stay_correct() {
        // A job that itself calls par_map: the nested region must take the
        // sequential path (no pool re-entry) and still produce exact bits.
        let want: Vec<Vec<u64>> = (0..12u64)
            .map(|i| (0..8u64).map(|j| i * 100 + j * j).collect())
            .collect();
        for t in [2, 4, 7] {
            let got = with_threads(t, || {
                par_map_indexed(12, |i| {
                    with_threads(4, || par_map_indexed(8, |j| (i as u64) * 100 + (j * j) as u64))
                })
            });
            assert_eq!(got, want, "{t} threads");
        }
    }

    #[test]
    fn chunk_len_tracks_threads_with_floor() {
        with_threads(4, || {
            assert_eq!(chunk_len(1000, 1), 250);
            assert_eq!(chunk_len(1001, 1), 251);
            // The floor wins when rows/threads would shatter the work.
            assert_eq!(chunk_len(16, 64), 64);
            assert_eq!(chunk_len(0, 8), 8);
        });
        with_threads(1, || assert_eq!(chunk_len(1000, 1), 1000));
    }
}
