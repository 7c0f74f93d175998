//! Property-based invariants of the remote-embedding cache (proptest).
//!
//! The cache lives in the kernel planner (`MggKernel::build_cached`),
//! which decides each remote reference's hit, miss or coalesce and reports
//! the counters in `KernelStats::cache`. Three guarantees underwrite its
//! "free" status:
//!
//! 1. **Value transparency.** The cache moves *timing* only: after the
//!    planner has warmed it, the value plane's output is bit-identical to
//!    an engine that never had a cache, for any graph, feature seed, GPU
//!    count and capacity — including capacities small enough to evict
//!    mid-run and the degenerate zero-row cache — and the planner
//!    classifies every remote adjacency entry exactly once.
//! 2. **Stack property.** LRU is a stack algorithm: the resident set at
//!    capacity `C` is a subset of the resident set at any capacity
//!    `C' >= C` under the same access trace, so the hit count is
//!    monotone non-decreasing in capacity and the total access count is
//!    capacity-invariant.
//! 3. **Replay and freshness.** Kernel statistics (cache counters
//!    included) and values do not move with the pool width, and a warm
//!    cache serves zero stale reads across churn fences.

use proptest::prelude::*;

use mgg::core::{CacheConfig, CachePolicy, MggConfig, MggEngine};
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::Matrix;
use mgg::graph::{CsrGraph, GraphBuilder};
use mgg::sim::{ClusterSpec, KernelStats};

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

fn sum_engine(g: &CsrGraph, gpus: usize) -> MggEngine {
    MggEngine::new(g, ClusterSpec::dgx_a100(gpus), MggConfig::default_fixed(), AggregateMode::Sum)
}

/// The planner's accounting identity for one simulated pass: every remote
/// adjacency entry of the current placement is classified exactly once,
/// and the thrash guard only ever turns misses into bypasses.
fn check_accounting(engine: &MggEngine, stats: &KernelStats) {
    let remote: u64 = engine.placement.parts.iter().map(|p| p.remote.num_entries() as u64).sum();
    let c = stats.cache;
    assert_eq!(c.hits + c.misses + c.coalesced, remote, "{c:?}");
    assert!(c.bypassed <= c.misses, "{c:?}");
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
        let want = sum_engine(&g, gpus).aggregate_values(&x);
        let mut engine = sum_engine(&g, gpus);
        engine.set_cache(Some(CacheConfig {
            capacity_bytes,
            policy: CachePolicy::Lru,
        }));
        let stats = engine.simulate_aggregation(dim).unwrap();
        check_accounting(&engine, &stats);
        // Exact equality, not a tolerance: a warm cache may not move a
        // single bit of the value plane.
        let got = engine.aggregate_values(&x);
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
        let mut engine = sum_engine(&g, gpus);
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
    // stragglers), a cache warmed by the faulty — possibly re-planned —
    // simulation still leaves the values bit-identical to a fault-free
    // uncached engine. Faults move *timing* (retries, stalls), never
    // values.
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
        let want = sum_engine(&g, gpus).aggregate_values(&x);
        let mut engine = sum_engine(&g, gpus);
        engine.install_fault_schedule(FaultSchedule::derive(&fault, gpus));
        engine.set_cache(Some(CacheConfig {
            capacity_bytes,
            policy: CachePolicy::Lru,
        }));
        let stats = engine.simulate_aggregation(dim).unwrap();
        check_accounting(&engine, &stats);
        prop_assert_eq!(engine.aggregate_values(&x).data(), want.data());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Replay across pool widths: with a cache of any size and either
    // policy, one simulated pass yields the same full kernel statistics —
    // cache counters included — and the same values at every thread-pool
    // width, and the values equal the uncached engine's.
    #[test]
    fn cached_aggregation_is_bit_identical_across_thread_counts(
        g in arb_graph(),
        gpus in 1usize..5,
        dim in 1usize..8,
        seed in 0u64..1000,
        capacity_bytes in 0u64..8192,
        lfu in proptest::bool::ANY,
    ) {
        let x = Matrix::glorot(g.num_nodes(), dim, seed);
        let want = sum_engine(&g, gpus).aggregate_values(&x);
        let policy = if lfu { CachePolicy::Lfu } else { CachePolicy::Lru };
        let mut baseline: Option<KernelStats> = None;
        for threads in [1usize, 2, 4, 7] {
            let (stats, got) = mgg::runtime::with_threads(threads, || {
                let mut engine = sum_engine(&g, gpus);
                engine.set_cache(Some(CacheConfig { capacity_bytes, policy }));
                (engine.simulate_aggregation(dim).unwrap(), engine.aggregate_values(&x))
            });
            prop_assert_eq!(got.data(), want.data());
            match &baseline {
                None => baseline = Some(stats),
                Some(s0) => prop_assert_eq!(&stats, s0, "KernelStats moved with thread count"),
            }
        }
    }

    // Never-stale across a fence: across arbitrary churn batches (edge
    // rewires, feature updates, tombstones — node count held fixed so
    // the feature matrix stays valid), a warm cached engine must never
    // serve a row from before the fence. The version check makes
    // staleness structurally impossible; this pins the counter at zero
    // and the post-fence values at the CPU reference, bit for bit.
    #[test]
    fn cache_never_serves_stale_rows_under_churn(
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
        let mut engine = sum_engine(&g, gpus);
        engine.set_cache(Some(CacheConfig { capacity_bytes: 4096, policy: CachePolicy::Lru }));
        // Warm the planner's persistent caches.
        engine.simulate_aggregation(dim).unwrap();
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
        // Post-fence the engine computes the mutated graph exactly.
        let want = mgg::gnn::reference::aggregate(engine.graph(), &x, AggregateMode::Sum);
        prop_assert_eq!(engine.aggregate_values(&x).data(), want.data());
        engine.simulate_aggregation(dim).unwrap();
        prop_assert_eq!(engine.stale_reads(), 0, "a churn fence leaked a stale row");
    }
}
