//! Cross-crate correctness: MGG's distributed data plane must reproduce
//! the single-address-space reference aggregation, on every graph shape,
//! aggregation mode, GPU count and kernel knob. The comparison engines
//! are timing models; of them only UVM implements `Aggregator` (returning
//! the reference values, so models and the trainer can run on it).

use mgg::baselines::UvmGnnEngine;
use mgg::core::{MggConfig, MggEngine};
use mgg::gnn::models::Aggregator;
use mgg::gnn::reference::{aggregate, AggregateMode};
use mgg::gnn::Matrix;
use mgg::graph::generators::random::erdos_renyi;
use mgg::graph::generators::regular::{complete, grid2d, path, ring, star};
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::graph::CsrGraph;
use mgg::sim::ClusterSpec;

const MODES: [AggregateMode; 3] =
    [AggregateMode::Sum, AggregateMode::Mean, AggregateMode::GcnNorm];

fn shapes() -> Vec<(&'static str, CsrGraph)> {
    vec![
        ("rmat", rmat(&RmatConfig::graph500(9, 4_000, 3))),
        ("er", erdos_renyi(300, 2_000, 5)),
        ("ring", ring(64)),
        ("path", path(33)),
        ("star", star(200)),
        ("grid", grid2d(9, 7)),
        ("complete", complete(24)),
        ("isolated", CsrGraph::empty(50)),
    ]
}

fn features(n: usize, dim: usize) -> Matrix {
    Matrix::from_vec(n, dim, (0..n * dim).map(|i| ((i * 37 % 23) as f32) - 11.0).collect())
}

#[test]
fn mgg_matches_reference_everywhere() {
    for (name, g) in shapes() {
        let x = features(g.num_nodes(), 9);
        for mode in MODES {
            for gpus in [1usize, 3, 8] {
                let engine = MggEngine::new(
                    &g,
                    ClusterSpec::dgx_a100(gpus),
                    MggConfig::default_fixed(),
                    mode,
                );
                let got = engine.aggregate_values(&x);
                let want = aggregate(&g, &x, mode);
                assert!(
                    got.max_abs_diff(&want) < 1e-3,
                    "MGG mismatch on {name} / {mode:?} / {gpus} GPUs: {}",
                    got.max_abs_diff(&want)
                );
            }
        }
    }
}

#[test]
fn all_engines_agree_via_aggregator_trait() {
    let g = rmat(&RmatConfig::graph500(9, 4_000, 11));
    let x = features(g.num_nodes(), 12);
    let spec = ClusterSpec::dgx_a100(4);
    for mode in MODES {
        let want = aggregate(&g, &x, mode);
        let mut engines: Vec<(&str, Box<dyn Aggregator>)> = vec![
            (
                "mgg",
                Box::new(MggEngine::new(&g, spec.clone(), MggConfig::default_fixed(), mode)),
            ),
            ("uvm", Box::new(UvmGnnEngine::new(&g, spec.clone(), mode))),
        ];
        for (name, engine) in engines.iter_mut() {
            let (got, ns) = engine.aggregate(&x);
            assert!(ns > 0, "{name} reported zero time");
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "{name} mismatch for {mode:?}: {}",
                got.max_abs_diff(&want)
            );
        }
    }
}

#[test]
fn mgg_values_invariant_across_every_knob() {
    let g = rmat(&RmatConfig::graph500(8, 2_500, 17));
    let x = features(g.num_nodes(), 7);
    let base = aggregate(&g, &x, AggregateMode::GcnNorm);
    for gpus in [2usize, 5, 8] {
        for cfg in [
            MggConfig { ps: 1, dist: 1, wpb: 1 },
            MggConfig { ps: 7, dist: 3, wpb: 5 },
            MggConfig { ps: 32, dist: 16, wpb: 16 },
            MggConfig { ps: 0, dist: 1, wpb: 2 }, // no-partitioning ablation
        ] {
            let mut engine =
                MggEngine::new(&g, ClusterSpec::dgx_a100(gpus), cfg, AggregateMode::GcnNorm);
            for variant in
                [mgg::core::kernel::KernelVariant::AsyncPipelined, mgg::core::kernel::KernelVariant::SyncRemote]
            {
                engine.variant = variant;
                let got = engine.aggregate_values(&x);
                assert!(
                    got.max_abs_diff(&base) < 1e-3,
                    "values changed for gpus={gpus} cfg={cfg} variant={variant:?}"
                );
            }
        }
    }
}

#[test]
fn timing_is_deterministic_across_engine_rebuilds() {
    let g = rmat(&RmatConfig::graph500(9, 4_000, 23));
    let run = || {
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        engine.simulate_aggregation_ns(64).unwrap()
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}
