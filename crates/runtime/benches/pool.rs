//! Criterion micro-benchmarks of the runtime primitives behind the
//! persistent-pool refactor, so pool changes are measurable without a full
//! `ext_hostperf` sweep:
//!
//! * **merge strategy** — `par_map` through the pool's preallocated slot
//!   merge vs a scoped-thread baseline that funnels `(index, value)` pairs
//!   through a mutex and sorts afterwards (the pre-refactor shape).
//! * **dispatch latency** — an empty region through the persistent pool
//!   (park/unpark) vs spawning fresh scoped threads per region.
//! * **event queue drain** — the simulator's event queue (a binary heap on
//!   `(time, seq)`) on a deterministic push/pop stream.

use criterion::{criterion_group, criterion_main, Criterion};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The pre-refactor merge shape: scoped threads claim indices from an
/// atomic, push tagged results through a shared mutex, and the caller
/// sorts by index to restore input order.
fn scoped_ordered_map<T: Send, F: Fn(usize) -> T + Sync>(n: usize, threads: usize, f: F) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let v = f(i);
                results.lock().unwrap().push((i, v));
            });
        }
    });
    let mut tagged = results.into_inner().unwrap();
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, v)| v).collect()
}

fn bench_merge_strategy(c: &mut Criterion) {
    const N: usize = 4096;
    const THREADS: usize = 4;
    let work = |i: usize| {
        let mut h = i as u64 ^ 0x9e37_79b9_7f4a_7c15;
        for _ in 0..64 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
        }
        h
    };
    let mut group = c.benchmark_group("par_map_merge");
    group.sample_size(20);
    group.bench_function("slot_merge_pool", |b| {
        b.iter(|| {
            mgg_runtime::with_threads(THREADS, || {
                mgg_runtime::par_map_indexed(N, std::hint::black_box(work))
            })
        })
    });
    group.bench_function("mutex_ordered_scoped", |b| {
        b.iter(|| scoped_ordered_map(N, THREADS, std::hint::black_box(work)))
    });
    group.finish();
}

fn bench_dispatch_latency(c: &mut Criterion) {
    const THREADS: usize = 4;
    let mut group = c.benchmark_group("region_dispatch");
    group.sample_size(50);
    // Warm the pool so the first persistent-dispatch sample does not pay
    // the one-time lazy spawn.
    mgg_runtime::with_threads(THREADS, || mgg_runtime::par_map_indexed(THREADS, |i| i));
    group.bench_function("persistent_pool", |b| {
        b.iter(|| {
            mgg_runtime::with_threads(THREADS, || {
                mgg_runtime::par_map_indexed(THREADS, std::hint::black_box(|i| i))
            })
        })
    });
    group.bench_function("scoped_spawn", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for _ in 0..THREADS {
                    scope.spawn(|| std::hint::black_box(0usize));
                }
            })
        })
    });
    group.finish();
}

/// The simulator's event-loop access pattern: bursts of near-future events
/// with occasional far-future stragglers, one push per pop.
fn bench_event_queue_drain(c: &mut Criterion) {
    const N: u64 = 200_000;
    const GPUS: usize = 8;
    let mut group = c.benchmark_group("event_queue_drain");
    group.sample_size(10);
    group.bench_function("binary_heap", |b| {
        b.iter(|| {
            let mut q: mgg_sim::EventQueue<u64> = mgg_sim::EventQueue::new();
            let mut state: u64 = 0x9e37_79b9_7f4a_7c15;
            for g in 0..GPUS as u64 {
                q.push(g, g);
            }
            let mut processed = 0u64;
            let mut sink = 0u64;
            while let Some((now, v)) = q.pop() {
                sink = sink.wrapping_add(v);
                processed += 1;
                if processed < N {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let delta = if state.is_multiple_of(32) {
                        50_000 + state % 100_000
                    } else {
                        1 + state % 700
                    };
                    q.push(now + delta, state);
                }
            }
            std::hint::black_box(sink)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_merge_strategy, bench_dispatch_latency, bench_event_queue_drain);
criterion_main!(benches);
