//! Criterion micro-benchmarks of the reproduction's own hot paths: the
//! partitioning pipeline (Table 4's preprocessing story), kernel trace
//! simulation throughput, the reference aggregation, and the dense GEMM of
//! a GIN layer.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use mgg_core::{MggConfig, MggEngine};
use mgg_gnn::reference::{aggregate, AggregateMode};
use mgg_gnn::Matrix;
use mgg_graph::generators::rmat::{rmat, RmatConfig};
use mgg_graph::partition::multilevel::{self, MultilevelConfig};
use mgg_graph::NodeSplit;
use mgg_sim::ClusterSpec;

fn bench_partitioning(c: &mut Criterion) {
    let g = rmat(&RmatConfig::graph500(13, 120_000, 7));
    let mut group = c.benchmark_group("partitioning");
    group.sample_size(10);
    group.bench_function("mgg_edge_balanced_split", |b| {
        b.iter(|| NodeSplit::edge_balanced(std::hint::black_box(&g), 8))
    });
    group.bench_function("mgg_full_preprocess", |b| {
        b.iter(|| {
            let placement = mgg_core::placement::HybridPlacement::plan(&g, 8);
            mgg_core::workload::build_plans(&placement, 16)
        })
    });
    group.bench_function("dgcl_multilevel_partition", |b| {
        b.iter(|| multilevel::partition(std::hint::black_box(&g), &MultilevelConfig::new(8)))
    });
    group.finish();
}

fn bench_simulation(c: &mut Criterion) {
    let g = rmat(&RmatConfig::graph500(12, 60_000, 11));
    let mut group = c.benchmark_group("simulation");
    group.sample_size(10);
    for gpus in [2usize, 8] {
        group.bench_with_input(BenchmarkId::new("mgg_kernel", gpus), &gpus, |b, &gpus| {
            let mut engine = MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(gpus),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            b.iter(|| engine.simulate_aggregation_ns(128).unwrap())
        });
    }
    group.finish();
}

fn bench_aggregation(c: &mut Criterion) {
    let g = rmat(&RmatConfig::graph500(12, 60_000, 13));
    let x = Matrix::glorot(g.num_nodes(), 128, 1);
    let mut group = c.benchmark_group("reference_aggregation");
    group.sample_size(10);
    for mode in [AggregateMode::Sum, AggregateMode::GcnNorm] {
        group.bench_function(format!("{mode:?}"), |b| {
            b.iter(|| aggregate(std::hint::black_box(&g), &x, mode))
        });
    }
    group.finish();
}

/// `Matrix::matmul` at the three shapes of a perfbench GIN pass on the
/// 2^15-node ENWIKI stand-in: the first layer's `W1` (input dim 96), the
/// hidden `W1`/`W2` (64 × 64) and the classifier head (128 classes). The
/// `64x64_relu` case feeds the 64 × 64 GEMM a ReLU output, about half
/// zeros, as `W2` sees in every layer.
fn bench_dense(c: &mut Criterion) {
    const ROWS: usize = 1 << 15;
    let mut relu = Matrix::glorot(ROWS, 64, 23);
    relu.relu_inplace();
    let cases = [
        ("96x64", Matrix::glorot(ROWS, 96, 21), Matrix::glorot(96, 64, 31)),
        ("64x64", Matrix::glorot(ROWS, 64, 22), Matrix::glorot(64, 64, 32)),
        ("64x64_relu", relu, Matrix::glorot(64, 64, 33)),
        ("64x128", Matrix::glorot(ROWS, 64, 24), Matrix::glorot(64, 128, 34)),
    ];
    let mut group = c.benchmark_group("dense");
    group.sample_size(10);
    for (name, a, b) in &cases {
        group.bench_function(*name, |bench| {
            bench.iter(|| std::hint::black_box(a).matmul(std::hint::black_box(b)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_partitioning,
    bench_simulation,
    bench_aggregation,
    bench_dense
);
criterion_main!(benches);
