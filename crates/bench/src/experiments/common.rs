//! Shared experiment plumbing.

use mgg_baselines::UvmGnnEngine;
use mgg_core::MggEngine;
use mgg_gnn::models::{DenseCostModel, ModelKind};
use mgg_graph::datasets::{Dataset, DatasetSpec};

/// Builds all five Table-3 stand-ins at `scale`.
pub fn datasets(scale: f64) -> Vec<Dataset> {
    DatasetSpec::table3().into_iter().map(|s| s.build(scale)).collect()
}

/// A uniform handle over every engine's timing entry point.
pub trait SimAggregator {
    /// Simulated duration of one aggregation pass at dimension `dim`,
    /// including launch overhead.
    fn sim_ns(&mut self, dim: usize) -> u64;
}

impl SimAggregator for MggEngine {
    fn sim_ns(&mut self, dim: usize) -> u64 {
        self.simulate_aggregation_ns(dim).expect("valid MGG launch")
    }
}

impl SimAggregator for UvmGnnEngine {
    fn sim_ns(&mut self, dim: usize) -> u64 {
        self.simulate_aggregation_ns(dim)
    }
}

/// Simulated end-to-end forward-pass time of a paper model on `engine`
/// (aggregation via the engine, dense side via the analytic cuBLAS
/// stand-in). Matches the timing composition of
/// [`mgg_gnn::models::Gcn::forward`] / [`mgg_gnn::models::Gin::forward`]
/// without paying for functional value computation.
pub fn model_time_ns(
    engine: &mut dyn SimAggregator,
    kind: ModelKind,
    num_nodes: usize,
    input_dim: usize,
    classes: usize,
    cost: &DenseCostModel,
) -> u64 {
    let hidden = kind.hidden_dim();
    let n = num_nodes;
    match kind {
        ModelKind::Gcn => {
            // GCN layers aggregate at the narrow side of each weight
            // multiply (transform-first when it shrinks the embedding),
            // matching `Gcn::forward`.
            let l1 = engine.sim_ns(input_dim.min(hidden))
                + cost.gemm_ns(n, input_dim, hidden)
                + cost.elementwise_ns(n, hidden);
            let l2 = engine.sim_ns(hidden.min(classes)) + cost.gemm_ns(n, hidden, classes);
            l1 + l2
        }
        ModelKind::Gin => {
            let mut total = 0u64;
            let mut d = input_dim;
            for _ in 0..kind.num_layers() {
                total += engine.sim_ns(d)
                    + cost.gemm_ns(n, d, hidden)
                    + cost.elementwise_ns(n, hidden)
                    + cost.gemm_ns(n, hidden, hidden);
                d = hidden;
            }
            total + cost.gemm_ns(n, hidden, classes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_core::MggConfig;
    use mgg_gnn::reference::AggregateMode;
    use mgg_sim::ClusterSpec;

    #[test]
    fn datasets_build_at_tiny_scale() {
        let ds = datasets(0.0625);
        assert_eq!(ds.len(), 5);
        assert!(ds.iter().all(|d| d.graph.num_edges() > 0));
    }

    #[test]
    fn model_time_gin_exceeds_gcn() {
        let d = DatasetSpec::prot().build(0.125);
        let mut engine = MggEngine::new(
            &d.graph,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let cost = DenseCostModel::a100(4);
        let n = d.graph.num_nodes();
        let gcn = model_time_ns(&mut engine, ModelKind::Gcn, n, d.spec.dim, d.spec.classes, &cost);
        let gin = model_time_ns(&mut engine, ModelKind::Gin, n, d.spec.dim, d.spec.classes, &cost);
        assert!(gin > gcn, "5-layer GIN ({gin}) must exceed 2-layer GCN ({gcn})");
    }

    /// `model_time_ns` re-derives the timing of `Gcn::forward` and
    /// `Gin::forward` without computing values; the two must agree to the
    /// nanosecond, on both fig8 engines. PROT's 128-dim input against
    /// GCN's 16 hidden dims exercises the transform-first layer, and its
    /// 112 classes the aggregate-first one.
    #[test]
    fn model_time_matches_the_models_own_forward_timing() {
        use mgg_gnn::models::{Aggregator, Gcn, Gin, LayerTiming};
        use mgg_gnn::Matrix;

        let d = DatasetSpec::prot().build(0.0625);
        let (n, dim, classes) = (d.graph.num_nodes(), d.spec.dim, d.spec.classes);
        let spec = ClusterSpec::dgx_a100(4);
        let cost = DenseCostModel::a100(4);
        let x = Matrix::glorot(n, dim, 7);
        let summed = |t: Vec<LayerTiming>| t.iter().map(LayerTiming::total_ns).sum::<u64>();
        for kind in [ModelKind::Gcn, ModelKind::Gin] {
            let mode = kind.aggregate_mode();
            let forward = |agg: &mut dyn Aggregator| match kind {
                ModelKind::Gcn => summed(Gcn::paper(dim, classes, 3).forward(agg, &x, &cost).1),
                ModelKind::Gin => summed(Gin::paper(dim, classes, 3).forward(agg, &x, &cost).1),
            };
            let mgg = || MggEngine::new(&d.graph, spec.clone(), MggConfig::default_fixed(), mode);
            let uvm = || UvmGnnEngine::new(&d.graph, spec.clone(), mode);
            assert_eq!(
                forward(&mut mgg()),
                model_time_ns(&mut mgg(), kind, n, dim, classes, &cost),
                "{kind:?} on MGG"
            );
            assert_eq!(
                forward(&mut uvm()),
                model_time_ns(&mut uvm(), kind, n, dim, classes, &cost),
                "{kind:?} on UVM"
            );
        }
    }
}
