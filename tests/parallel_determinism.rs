//! Parallel execution is an implementation detail: every result produced
//! through the `mgg-runtime` worker pool must be bit-identical to the
//! sequential run at any thread count. These tests pin that contract
//! across the pool itself, the engine's aggregation path, the dense plane
//! of the GNN models and a chaos seed matrix — deliberately including an
//! odd worker count (7) to catch stride/chunking assumptions.

use proptest::prelude::*;

use mgg::core::{MggConfig, MggEngine};
use mgg::fault::FaultSpec;
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::{DenseCostModel, Gcn, Gin, Matrix, ReferenceAggregator};
use mgg::graph::generators::random::erdos_renyi;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::runtime::{par_map, par_map_indexed, with_threads};
use mgg::sim::ClusterSpec;

const THREAD_COUNTS: [usize; 3] = [2, 4, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `par_map` over arbitrary inputs matches the sequential map exactly,
    /// in content and order, at every worker count.
    #[test]
    fn par_map_matches_sequential(xs in proptest::collection::vec(0u64..u64::MAX, 0..200)) {
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ x;
        let seq: Vec<u64> = with_threads(1, || par_map(&xs, f));
        prop_assert_eq!(&seq, &xs.iter().map(f).collect::<Vec<_>>());
        for t in THREAD_COUNTS {
            let par = with_threads(t, || par_map(&xs, f));
            prop_assert_eq!(&seq, &par, "par_map diverged at {} threads", t);
        }
    }

    /// Same for the index-driven entry point, including f64 results whose
    /// bit patterns must survive the merge untouched.
    #[test]
    fn par_map_indexed_is_bitwise_stable(n in 0usize..150, seed in 0u64..u64::MAX) {
        let f = |i: usize| ((i as u64).wrapping_add(seed) as f64).sqrt().to_bits();
        let seq = with_threads(1, || par_map_indexed(n, f));
        for t in THREAD_COUNTS {
            let par = with_threads(t, || par_map_indexed(n, f));
            prop_assert_eq!(&seq, &par);
        }
    }

    /// Two back-to-back regions reuse the same parked workers (the pool
    /// is persistent, not per-call); the second region's results must be
    /// as exact as the first's.
    #[test]
    fn consecutive_regions_on_one_pool_stay_deterministic(
        xs in proptest::collection::vec(0u64..u64::MAX, 0..120),
        t in 2usize..8,
    ) {
        let f = |&x: &u64| x.rotate_left(9) ^ 0xabcd_ef01_2345_6789;
        let g = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let (a_seq, b_seq) =
            with_threads(1, || (par_map(&xs, f), par_map_indexed(xs.len(), g)));
        let (a_par, b_par) =
            with_threads(t, || (par_map(&xs, f), par_map_indexed(xs.len(), g)));
        prop_assert_eq!(a_seq, a_par, "first region diverged at {} threads", t);
        prop_assert_eq!(b_seq, b_par, "second region diverged at {} threads", t);
    }

    /// Resizing the pool between regions (a wider or narrower
    /// `with_threads`) never perturbs results: generation counters fence
    /// the regions and lazily-spawned workers see only their own jobs.
    #[test]
    fn resize_between_regions_is_safe(
        n in 0usize..100,
        t1 in 1usize..8,
        t2 in 1usize..8,
    ) {
        let g = |i: usize| (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(13);
        let seq = with_threads(1, || par_map_indexed(n, g));
        let first = with_threads(t1, || par_map_indexed(n, g));
        let second = with_threads(t2, || par_map_indexed(n, g));
        prop_assert_eq!(&seq, &first, "diverged at {} threads", t1);
        prop_assert_eq!(&seq, &second, "diverged after resize to {} threads", t2);
    }

    /// Nested `with_threads`: a parallel call issued from inside a pool
    /// job runs sequentially on that worker (no oversubscription, no
    /// deadlock) and still produces exact results.
    #[test]
    fn nested_with_threads_matches_sequential(
        rows in 1usize..12,
        cols in 0usize..40,
        t in 2usize..8,
    ) {
        let cell = |r: usize, c: usize| {
            ((r * 1000 + c) as u64).wrapping_mul(0x9e37_79b9).rotate_left(7)
        };
        let seq: Vec<Vec<u64>> =
            (0..rows).map(|r| (0..cols).map(|c| cell(r, c)).collect()).collect();
        let par = with_threads(t, || {
            par_map_indexed(rows, |r| with_threads(t, || par_map_indexed(cols, |c| cell(r, c))))
        });
        prop_assert_eq!(seq, par);
    }
}

/// Degenerate region widths: n = 0 dispatches nothing, n = 1 runs inline
/// on the caller; both must leave the pool reusable for the next region.
#[test]
fn empty_and_single_regions_reuse_the_pool() {
    for t in [1usize, 2, 4, 7] {
        with_threads(t, || {
            let empty: Vec<u64> = par_map_indexed(0, |i| i as u64);
            assert!(empty.is_empty());
            let one = par_map_indexed(1, |i| i as u64 + 41);
            assert_eq!(one, vec![41]);
            let after: Vec<u64> = par_map_indexed(64, |i| (i as u64).wrapping_mul(3));
            assert_eq!(after, (0..64).map(|i| i * 3).collect::<Vec<u64>>());
        });
    }
}

fn test_engine() -> (mgg::graph::CsrGraph, Matrix) {
    let g = rmat(&RmatConfig::graph500(9, 6_000, 31));
    let x = Matrix::glorot(g.num_nodes(), 32, 5);
    (g, x)
}

/// Engine aggregation — the per-partition fan-out inside
/// `MggEngine::aggregate_values` — produces bit-identical floats at every
/// thread count, for every aggregation mode.
#[test]
fn engine_aggregation_is_bit_identical_across_threads() {
    let (g, x) = test_engine();
    for mode in [AggregateMode::Sum, AggregateMode::Mean, AggregateMode::GcnNorm] {
        let engine =
            MggEngine::new(&g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), mode);
        let seq = with_threads(1, || engine.aggregate_values(&x));
        for t in THREAD_COUNTS {
            let par = with_threads(t, || engine.aggregate_values(&x));
            let same = seq
                .data()
                .iter()
                .zip(par.data())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "aggregation diverged at {t} threads ({mode:?})");
        }
    }
}

/// The dense plane: `Matrix::matmul` splits its rows across the pool, so
/// GCN and GIN forwards on the reference aggregator give the same logits
/// and timings at every width. 2,051 rows make 2 to 7 row jobs and leave a
/// remainder below the kernel's 4-row block.
#[test]
fn model_forwards_are_bit_identical_across_threads() {
    let g = erdos_renyi(2_051, 16_000, 17);
    let x = Matrix::glorot(g.num_nodes(), 24, 5);
    let cost = DenseCostModel::a100(4);
    let gcn = Gcn::new(24, 16, 7, 3);
    let gin = Gin::new(24, 32, 7, 3, 4);
    let forwards = || {
        let mut gcn_agg = ReferenceAggregator { graph: g.clone(), mode: AggregateMode::GcnNorm };
        let mut gin_agg = ReferenceAggregator { graph: g.clone(), mode: AggregateMode::Sum };
        let (gcn_logits, gcn_t) = gcn.forward(&mut gcn_agg, &x, &cost);
        let (gin_logits, gin_t) = gin.forward(&mut gin_agg, &x, &cost);
        let bits = |m: &Matrix| m.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        (bits(&gcn_logits), gcn_t, bits(&gin_logits), gin_t)
    };
    let seq = with_threads(1, forwards);
    for t in THREAD_COUNTS {
        let par = with_threads(t, forwards);
        assert!(seq.0 == par.0 && seq.1 == par.1, "GCN forward diverged at {t} threads");
        assert!(seq.2 == par.2 && seq.3 == par.3, "GIN forward diverged at {t} threads");
    }
}

/// Simulated kernel statistics are a pure function of the workload, not of
/// the host pool width.
#[test]
fn kernel_stats_are_thread_count_invariant() {
    let (g, _) = test_engine();
    let run = || {
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.simulate_aggregation(32).expect("valid launch")
    };
    let seq = with_threads(1, run);
    for t in THREAD_COUNTS {
        let par = with_threads(t, run);
        assert_eq!(seq, par, "KernelStats diverged at {t} threads");
    }
}

/// A chaos seed matrix fanned out on the pool reports exactly what the
/// sequential sweep reports, seed by seed.
#[test]
fn chaos_seed_matrix_is_parallel_safe() {
    let (g, _) = test_engine();
    let seeds: Vec<u64> = (0..12).collect();
    let outcome = |&seed: &u64| {
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.install_faults(FaultSpec {
            seed,
            link_degrade: 0.6,
            straggler: 1.4,
            ..FaultSpec::quiet()
        })
        .expect("valid spec");
        match e.simulate_aggregation(16) {
            Ok(stats) => Ok((stats.makespan_ns(), stats.recovery)),
            Err(err) => Err(err.to_string()),
        }
    };
    let seq: Vec<_> = with_threads(1, || par_map(&seeds, outcome));
    assert_eq!(seq, seeds.iter().map(outcome).collect::<Vec<_>>());
    for t in THREAD_COUNTS {
        let par = with_threads(t, || par_map(&seeds, outcome));
        assert_eq!(seq, par, "chaos outcomes diverged at {t} threads");
    }
}
