//! Property-based invariants of the remote-embedding cache (proptest).
//!
//! Three guarantees underwrite the cache's "free" status:
//!
//! 1. **Value transparency.** The cache sits on the *address/timing*
//!    plane; data-plane aggregation through [`CachedRegion`] must be
//!    bit-identical to the uncached path for any graph, feature seed,
//!    GPU count and capacity — including capacities small enough to
//!    evict mid-run and the degenerate zero-row cache.
//! 2. **Stack property.** LRU is a stack algorithm: the resident set at
//!    capacity `C` is a subset of the resident set at any capacity
//!    `C' >= C` under the same access trace, so the hit count is
//!    monotone non-decreasing in capacity and the total access count is
//!    capacity-invariant.
//! 3. **Replay and freshness.** Values stay bit-identical to the uncached
//!    path at every thread-pool width, the cache counters do not move with
//!    the pool width, and a warm cache serves zero stale reads across
//!    churn fences.
//!
//! [`CachedRegion`]: mgg::shmem::CachedRegion

use proptest::prelude::*;

use mgg::core::{CacheConfig, CachePolicy, MggConfig, MggEngine};
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::Matrix;
use mgg::graph::{CsrGraph, GraphBuilder};
use mgg::sim::ClusterSpec;

/// Strategy: a small arbitrary directed graph as an edge list.
fn arb_graph() -> impl Strategy<Value = CsrGraph> {
    (2usize..60).prop_flat_map(|n| {
        proptest::collection::vec((0..n as u32, 0..n as u32), 0..300).prop_map(move |edges| {
            let mut b = GraphBuilder::new(n);
            for (d, s) in edges {
                b.add_edge(d, s);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cached_aggregation_is_bit_identical_to_uncached(
        g in arb_graph(),
        gpus in 1usize..5,
        dim in 1usize..8,
        seed in 0u64..1000,
        capacity_bytes in 0u64..8192,
    ) {
        let x = Matrix::glorot(g.num_nodes(), dim, seed);
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let want = engine.aggregate_values(&x);
        engine.set_cache(Some(CacheConfig {
            capacity_bytes,
            policy: CachePolicy::Lru,
        }));
        let (got, _) = engine.aggregate_values_cached(&x).unwrap();
        // Exact equality, not a tolerance: hits replay the very bytes the
        // fabric delivered, so no float may differ in even one bit.
        prop_assert_eq!(got.data(), want.data());
    }

    #[test]
    fn lru_hit_count_is_monotone_in_capacity(
        g in arb_graph(),
        gpus in 2usize..5,
        capacities in proptest::collection::vec(0u64..4096, 2..6),
    ) {
        prop_assume!(g.num_edges() > 0);
        let dim = 8;
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let mut capacities = capacities;
        capacities.sort_unstable();
        let mut prev_hits = 0u64;
        let mut total_accesses: Option<u64> = None;
        for capacity_bytes in capacities {
            engine.set_cache(Some(CacheConfig {
                capacity_bytes,
                policy: CachePolicy::Lru,
            }));
            let stats = engine.simulate_aggregation(dim).unwrap();
            let c = stats.cache;
            prop_assert!(
                c.hits >= prev_hits,
                "hits fell from {} to {} when capacity grew to {} bytes",
                prev_hits, c.hits, capacity_bytes
            );
            prev_hits = c.hits;
            // The access trace is capacity-independent; only its
            // hit/miss split moves.
            let accesses = c.hits + c.misses;
            if let Some(t) = total_accesses {
                prop_assert_eq!(accesses, t);
            }
            total_accesses = Some(accesses);
        }
    }
}

use mgg::churn::GraphDelta;
use mgg::fault::{FaultSchedule, FaultSpec};
use mgg::shmem::{CachedRegion, SymmetricRegion};

/// Strategy: a transient-only fault spec (drops, degraded links,
/// stragglers — no permanent failures, so every GET eventually lands).
fn arb_transient_faults() -> impl Strategy<Value = FaultSpec> {
    (0u64..500, 0.0f64..0.5, 1.0f64..4.0, 0.3f64..1.0).prop_map(
        |(seed, drop_rate, straggler, link_degrade)| FaultSpec {
            seed,
            drop_rate,
            straggler,
            link_degrade,
            ..FaultSpec::quiet()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    // Chaos variant of value transparency: with a transient fault
    // schedule installed (dropped completions, degraded links,
    // stragglers), the cached data plane must still be bit-identical to
    // the uncached one. Faults move *timing* (retries, stalls); a cached
    // hit replays the bytes the fabric delivered, no matter how many
    // retries delivered them.
    #[test]
    fn cached_aggregation_is_bit_identical_under_transient_faults(
        g in arb_graph(),
        gpus in 2usize..5,
        dim in 1usize..8,
        seed in 0u64..1000,
        capacity_bytes in 0u64..8192,
        fault in arb_transient_faults(),
    ) {
        let x = Matrix::glorot(g.num_nodes(), dim, seed);
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        engine.install_fault_schedule(FaultSchedule::derive(&fault, gpus));
        let want = engine.aggregate_values(&x);
        engine.set_cache(Some(CacheConfig {
            capacity_bytes,
            policy: CachePolicy::Lru,
        }));
        let (got, _) = engine.aggregate_values_cached(&x).unwrap();
        prop_assert_eq!(got.data(), want.data());
    }

    // Landing-buffer invalidation: an arbitrary interleaving of cached
    // GETs, non-blocking GETs, window closes and mid-window `flush`
    // calls (the recovery/re-plan invalidation hook) must never lose an
    // in-flight row — every read returns the backing region's bytes and
    // no coalesced duplicate is left pointing at a cleared landing
    // buffer.
    #[test]
    fn landing_buffer_invalidation_never_loses_inflight_rows(
        ops in proptest::collection::vec(
            (0usize..3, 0usize..3, 0u32..6, 0usize..8), 1..120),
        capacity_bytes in 0u64..256,
        fault in arb_transient_faults(),
    ) {
        let pes = 3usize;
        let rows = 6usize;
        let dim = 4usize;
        // Distinct payload per (pe, row) so any mix-up is visible.
        let matrix: Vec<f32> = (0..pes * rows * dim)
            .map(|i| i as f32 + 0.5)
            .collect();
        let region = SymmetricRegion::scatter_rows(&matrix, &[rows; 3], dim);
        let sched = FaultSchedule::derive(&fault, pes);
        let cfg = CacheConfig { capacity_bytes, policy: CachePolicy::Lru };
        let mut c = CachedRegion::new(&region, Some(&sched), cfg, dim);
        for pe in 0..pes {
            c.begin_batch(pe);
        }
        let mut dst = vec![0.0f32; dim];
        for (pe, src_pe, row, kind) in ops {
            match kind {
                0..=3 => match c.get_nbi(&mut dst, pe, src_pe, row) {
                    Ok(()) => prop_assert_eq!(&dst, region.row(src_pe, row)),
                    // A dense drop schedule can exhaust the bounded retry
                    // budget. The failed fetch must leave the window
                    // coherent: an immediate duplicate re-issues its own
                    // transaction (never coalesces onto a landing buffer
                    // that never arrived) and is exact when it lands.
                    Err(_) => {
                        if c.get_nbi(&mut dst, pe, src_pe, row).is_ok() {
                            prop_assert_eq!(&dst, region.row(src_pe, row));
                        }
                    }
                },
                4 | 5 => match c.get(&mut dst, pe, src_pe, row) {
                    Ok(_) => prop_assert_eq!(&dst, region.row(src_pe, row)),
                    // Same for the blocking path: the key must not be
                    // left resident with a payload that never arrived, so
                    // a retry that succeeds — hit or miss — is exact.
                    Err(_) => {
                        if c.get(&mut dst, pe, src_pe, row).is_ok() {
                            prop_assert_eq!(&dst, region.row(src_pe, row));
                        }
                    }
                },
                6 => c.flush(),
                _ => c.quiet(pe).unwrap(),
            }
        }
        for pe in 0..pes {
            c.quiet(pe).unwrap();
        }
        // Accounting stays coherent across invalidations: every access
        // is classified exactly once.
        let s = c.stats();
        prop_assert!(s.bypassed <= s.misses);
        prop_assert_eq!(s.hits + s.misses + s.coalesced > 0, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Transparency across pool widths: with a cache of any size and
    // either policy, the cached data plane is bit-identical to the
    // uncached one at every thread-pool width, because work splits at
    // partition granularity, never by thread count. The hit/miss
    // counters are part of the same contract: they must not move when the
    // pool width does.
    #[test]
    fn tiered_aggregation_is_bit_identical_across_thread_counts(
        g in arb_graph(),
        gpus in 1usize..5,
        dim in 1usize..8,
        seed in 0u64..1000,
        capacity_bytes in 0u64..8192,
        lfu in proptest::bool::ANY,
    ) {
        let x = Matrix::glorot(g.num_nodes(), dim, seed);
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let want = engine.aggregate_values(&x);
        let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
        engine.set_cache(Some(CacheConfig { capacity_bytes, policy }));
        let mut baseline: Option<mgg::core::CacheStats> = None;
        for threads in [1usize, 2, 4, 7] {
            let (got, cs) = mgg::runtime::with_threads(threads, || {
                engine.aggregate_values_cached(&x)
            }).unwrap();
            prop_assert_eq!(got.data(), want.data());
            match &baseline {
                None => baseline = Some(cs),
                Some(cs0) => prop_assert_eq!(&cs, cs0, "CacheStats moved with thread count"),
            }
        }
    }

    // Never-stale across a fence: across arbitrary churn batches (edge
    // rewires, feature updates, tombstones — node count held fixed so
    // the feature matrix stays valid), a warm cached engine must never
    // serve a row from before the fence. The version check makes
    // staleness structurally impossible; this pins the counter at zero
    // and the values at the uncached reference.
    #[test]
    fn prefetch_never_serves_stale_rows_under_churn(
        g in arb_graph(),
        gpus in 2usize..5,
        seed in 0u64..1000,
        churn in proptest::collection::vec(
            (0usize..4, 0u32..60, 0u32..60), 1..24),
    ) {
        prop_assume!(g.num_edges() > 0);
        let n = g.num_nodes() as u32;
        let dim = 6;
        let x = Matrix::glorot(g.num_nodes(), dim, seed);
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        engine.set_cache(Some(CacheConfig { capacity_bytes: 4096, policy: CachePolicy::Lru }));
        // Warm the simulate-path persistent caches and the value plane.
        engine.simulate_aggregation(dim).unwrap();
        let _ = engine.aggregate_values_cached(&x).unwrap();
        let deltas: Vec<GraphDelta> = churn
            .into_iter()
            .map(|(kind, a, b)| {
                let (src, dst) = (a % n, b % n);
                match kind {
                    0 => GraphDelta::EdgeInsert { src, dst },
                    1 => GraphDelta::EdgeRemove { src, dst },
                    2 => GraphDelta::FeatureUpdate { node: src },
                    _ => GraphDelta::NodeRemove { node: src },
                }
            })
            .collect();
        engine.apply_graph_deltas(&deltas).unwrap();
        // Post-fence: cached copies of affected rows are gone, so the
        // cached plane recomputes the mutated graph exactly.
        let want = engine.aggregate_values(&x);
        let (got, _) = engine.aggregate_values_cached(&x).unwrap();
        prop_assert_eq!(got.data(), want.data());
        engine.simulate_aggregation(dim).unwrap();
        prop_assert_eq!(engine.stale_reads(), 0, "a churn fence leaked a stale row");
    }
}
