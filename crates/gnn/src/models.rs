//! GNN model definitions and their dense-side cost model.
//!
//! Models are parameterized over an [`Aggregator`], the one operation that
//! differs between execution engines: the CPU reference, MGG's pipelined
//! multi-GPU kernel, the UVM baseline, and so on all plug in here. The
//! dense side (weight multiplies, activations) is functionally computed on
//! the CPU and *timed* with [`DenseCostModel`], standing in for cuBLAS as
//! the paper does (§5 "Platforms & Tools").

use crate::reference::AggregateMode;
use crate::tensor::Matrix;

/// The pluggable sparse-aggregation engine.
pub trait Aggregator {
    /// Aggregates neighbor rows of `x`; returns the result and the
    /// simulated duration in nanoseconds.
    fn aggregate(&mut self, x: &Matrix) -> (Matrix, u64);

    /// The combination rule this engine was built for.
    fn mode(&self) -> AggregateMode;

    /// Aggregates values without timing. Simulated engines override this
    /// to skip the timing replay — useful when the caller already knows
    /// the (deterministic) duration for this dimension, e.g. a training
    /// loop running hundreds of structurally identical epochs.
    fn aggregate_only(&mut self, x: &Matrix) -> Matrix {
        self.aggregate(x).0
    }
}

/// Sustained fp32 FLOPs per nanosecond per A100 (peak is ~19.5e3; real
/// GEMMs at GNN sizes sustain far less).
const FLOPS_PER_NS_PER_GPU: f64 = 9_000.0;
/// Launch overhead per dense kernel, nanoseconds.
const LAUNCH_NS: u64 = 6_000;

/// Analytic timing for dense operations on the simulated platform.
#[derive(Debug, Clone, Copy)]
pub struct DenseCostModel {
    /// GPUs sharing the (row-partitioned) dense work.
    pub num_gpus: usize,
}

impl DenseCostModel {
    /// Default for `n` A100s.
    pub fn a100(num_gpus: usize) -> Self {
        DenseCostModel { num_gpus: num_gpus.max(1) }
    }

    /// Simulated time of an `m x k @ k x n` GEMM row-partitioned over GPUs.
    pub fn gemm_ns(&self, m: usize, k: usize, n: usize) -> u64 {
        let flops = 2.0 * m as f64 * k as f64 * n as f64;
        (flops / (FLOPS_PER_NS_PER_GPU * self.num_gpus as f64)) as u64 + LAUNCH_NS
    }

    /// Simulated time of an elementwise op over `m x n`.
    pub fn elementwise_ns(&self, m: usize, n: usize) -> u64 {
        let elems = m as f64 * n as f64;
        (elems / (FLOPS_PER_NS_PER_GPU * 0.25 * self.num_gpus as f64)) as u64 + LAUNCH_NS
    }
}

/// Per-layer simulated timing breakdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTiming {
    /// Simulated time in the sparse aggregation.
    pub aggregate_ns: u64,
    /// Simulated time in the dense matmuls/activations.
    pub dense_ns: u64,
}

impl LayerTiming {
    /// Total of both phases.
    pub fn total_ns(&self) -> u64 {
        self.aggregate_ns + self.dense_ns
    }
}

/// Which paper model a configuration corresponds to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// 2-layer GCN, 16 hidden dims (§5, Equation 4).
    Gcn,
    /// 5-layer GIN, 64 hidden dims (§5, Equation 5).
    Gin,
}

impl ModelKind {
    /// Aggregation rule the model's layers use.
    pub fn aggregate_mode(&self) -> AggregateMode {
        match self {
            ModelKind::Gcn => AggregateMode::GcnNorm,
            ModelKind::Gin => AggregateMode::Sum,
        }
    }

    /// Number of aggregation layers.
    pub fn num_layers(&self) -> usize {
        match self {
            ModelKind::Gcn => 2,
            ModelKind::Gin => 5,
        }
    }

    /// Hidden dimension from the paper's settings.
    pub fn hidden_dim(&self) -> usize {
        match self {
            ModelKind::Gcn => 16,
            ModelKind::Gin => 64,
        }
    }
}

/// The 2-layer GCN of Equation 4: `Z = softmax(Â ReLU(Â X W1) W2)`
/// (softmax is applied by the loss).
#[derive(Debug, Clone)]
pub struct Gcn {
    /// First-layer weights.
    pub w1: Matrix,
    /// Second-layer weights.
    pub w2: Matrix,
}

impl Gcn {
    /// Glorot-initialized GCN.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        Gcn {
            w1: Matrix::glorot(in_dim, hidden, seed),
            w2: Matrix::glorot(hidden, classes, seed.wrapping_add(1)),
        }
    }

    /// Paper configuration (16 hidden dims).
    pub fn paper(in_dim: usize, classes: usize, seed: u64) -> Self {
        Self::new(in_dim, ModelKind::Gcn.hidden_dim(), classes, seed)
    }

    /// Full forward pass; returns logits and per-layer timings.
    ///
    /// Each layer exploits the linearity of GCN aggregation to pick the
    /// cheaper operand order (the standard GNN-system optimization): when
    /// the weight multiply *shrinks* the embedding (`in_dim > out_dim`),
    /// it transforms first and aggregates the narrow result — e.g.
    /// Reddit's 602-dim inputs aggregate at 16 dims, which is what makes
    /// fine-grained remote access affordable at all.
    pub fn forward(
        &self,
        agg: &mut dyn Aggregator,
        x: &Matrix,
        cost: &DenseCostModel,
    ) -> (Matrix, Vec<LayerTiming>) {
        debug_assert_eq!(agg.mode(), AggregateMode::GcnNorm, "GCN needs GcnNorm aggregation");
        let n = x.rows();
        let layer = |agg: &mut dyn Aggregator, h: &Matrix, w: &Matrix| -> (Matrix, LayerTiming) {
            let dense_ns = cost.gemm_ns(n, h.cols(), w.cols());
            if h.cols() > w.cols() {
                // Transform first: aggregate the narrow embedding.
                let hw = h.matmul(w);
                let (out, agg_ns) = agg.aggregate(&hw);
                (out, LayerTiming { aggregate_ns: agg_ns, dense_ns })
            } else {
                let (a, agg_ns) = agg.aggregate(h);
                (a.matmul(w), LayerTiming { aggregate_ns: agg_ns, dense_ns })
            }
        };
        let (mut h1, mut t1) = layer(agg, x, &self.w1);
        h1.relu_inplace();
        t1.dense_ns += cost.elementwise_ns(n, self.w1.cols());
        let (logits, t2) = layer(agg, &h1, &self.w2);
        (logits, vec![t1, t2])
    }
}

/// One GIN layer: `h' = MLP((1 + eps) * h + sum_neighbors h_u)` with a
/// two-linear MLP (Equation 5).
#[derive(Debug, Clone)]
pub struct GinLayer {
    /// The learnable self-loop weight `eps`.
    pub eps: f32,
    /// First MLP linear.
    pub w1: Matrix,
    /// Second MLP linear.
    pub w2: Matrix,
}

/// The 5-layer GIN of §5 plus a linear classifier head.
#[derive(Debug, Clone)]
pub struct Gin {
    /// The five GIN layers.
    pub layers: Vec<GinLayer>,
    /// Linear classifier head.
    pub head: Matrix,
}

impl Gin {
    /// Glorot-initialized GIN with `num_layers` layers of width `hidden`.
    pub fn new(
        in_dim: usize,
        hidden: usize,
        classes: usize,
        num_layers: usize,
        seed: u64,
    ) -> Self {
        assert!(num_layers >= 1, "need at least one layer");
        let mut layers = Vec::with_capacity(num_layers);
        let mut d = in_dim;
        for l in 0..num_layers {
            layers.push(GinLayer {
                eps: 0.0,
                w1: Matrix::glorot(d, hidden, seed.wrapping_add(2 * l as u64)),
                w2: Matrix::glorot(hidden, hidden, seed.wrapping_add(2 * l as u64 + 1)),
            });
            d = hidden;
        }
        Gin { layers, head: Matrix::glorot(hidden, classes, seed.wrapping_add(999)) }
    }

    /// Paper configuration (5 layers, 64 hidden dims).
    pub fn paper(in_dim: usize, classes: usize, seed: u64) -> Self {
        Self::new(in_dim, ModelKind::Gin.hidden_dim(), classes, ModelKind::Gin.num_layers(), seed)
    }

    /// Full forward pass; returns logits and per-layer timings (the head
    /// GEMM is folded into the last layer's dense time).
    pub fn forward(
        &self,
        agg: &mut dyn Aggregator,
        x: &Matrix,
        cost: &DenseCostModel,
    ) -> (Matrix, Vec<LayerTiming>) {
        debug_assert_eq!(agg.mode(), AggregateMode::Sum, "GIN needs Sum aggregation");
        let n = x.rows();
        let mut h = x.clone();
        let mut timings = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            let (mut a, t_agg) = agg.aggregate(&h);
            // (1 + eps) * h + neighbor sum.
            a.axpy(1.0 + layer.eps, &h);
            let mut z = a.matmul(&layer.w1);
            z.relu_inplace();
            let out = z.matmul(&layer.w2);
            let dense = cost.gemm_ns(n, h.cols(), layer.w1.cols())
                + cost.elementwise_ns(n, layer.w1.cols())
                + cost.gemm_ns(n, layer.w1.cols(), layer.w2.cols());
            timings.push(LayerTiming { aggregate_ns: t_agg, dense_ns: dense });
            h = out;
        }
        let logits = h.matmul(&self.head);
        if let Some(last) = timings.last_mut() {
            last.dense_ns += cost.gemm_ns(n, h.cols(), self.head.cols());
        }
        (logits, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{aggregate, AggregateMode, ReferenceAggregator};
    use mgg_graph::generators::regular::ring;

    #[test]
    fn dense_cost_scales_with_flops_and_gpus() {
        let c1 = DenseCostModel::a100(1);
        let c4 = DenseCostModel::a100(4);
        let small = c1.gemm_ns(1_000, 602, 64);
        let big = c1.gemm_ns(4_000, 602, 64);
        // Compute scales 4x; the fixed launch overhead dampens the ratio.
        assert!(big > 2 * small, "big={big} small={small}");
        let quad = 4 * (small - LAUNCH_NS) + LAUNCH_NS;
        assert!((big as i64 - quad as i64).abs() <= 8, "big={big} quad={quad}");
        assert!(c4.gemm_ns(4_000, 602, 64) < big);
    }

    #[test]
    fn gcn_forward_matches_manual_composition() {
        let g = ring(6);
        let x = Matrix::glorot(6, 4, 3);
        let model = Gcn::new(4, 8, 3, 5);
        let mut agg = ReferenceAggregator { graph: g.clone(), mode: AggregateMode::GcnNorm };
        let (logits, timings) = model.forward(&mut agg, &x, &DenseCostModel::a100(1));
        assert_eq!(logits.rows(), 6);
        assert_eq!(logits.cols(), 3);
        assert_eq!(timings.len(), 2);

        // Manual: logits = Â relu(Â x W1) W2.
        let a1 = aggregate(&g, &x, AggregateMode::GcnNorm);
        let mut h1 = a1.matmul(&model.w1);
        h1.relu_inplace();
        let a2 = aggregate(&g, &h1, AggregateMode::GcnNorm);
        let want = a2.matmul(&model.w2);
        assert!(logits.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn gin_forward_shapes_and_layer_count() {
        let g = ring(5);
        let x = Matrix::glorot(5, 7, 11);
        let model = Gin::paper(7, 4, 2);
        let mut agg = ReferenceAggregator { graph: g, mode: AggregateMode::Sum };
        let (logits, timings) = model.forward(&mut agg, &x, &DenseCostModel::a100(2));
        assert_eq!(logits.rows(), 5);
        assert_eq!(logits.cols(), 4);
        assert_eq!(timings.len(), 5);
        assert!(timings.iter().all(|t| t.dense_ns > 0));
    }

    #[test]
    fn gin_eps_shifts_self_contribution() {
        let g = mgg_graph::generators::regular::path(2);
        let x = Matrix::from_vec(2, 1, vec![1.0, 2.0]);
        let mut model = Gin::new(1, 1, 1, 1, 1);
        // Make the MLP identity-ish: w1 = w2 = [1], head = [1].
        model.layers[0].w1 = Matrix::from_vec(1, 1, vec![1.0]);
        model.layers[0].w2 = Matrix::from_vec(1, 1, vec![1.0]);
        model.head = Matrix::from_vec(1, 1, vec![1.0]);
        let cost = DenseCostModel::a100(1);
        let mut agg = ReferenceAggregator {
            graph: g.clone(),
            mode: AggregateMode::Sum,
        };
        model.layers[0].eps = 0.0;
        let (z0, _) = model.forward(&mut agg, &x, &cost);
        model.layers[0].eps = 1.0;
        let (z1, _) = model.forward(&mut agg, &x, &cost);
        // Node 0: eps=0 -> 2 + 1 = 3; eps=1 -> 2 + 2 = 4.
        assert!((z0.row(0)[0] - 3.0).abs() < 1e-6);
        assert!((z1.row(0)[0] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn model_kind_paper_settings() {
        assert_eq!(ModelKind::Gcn.num_layers(), 2);
        assert_eq!(ModelKind::Gcn.hidden_dim(), 16);
        assert_eq!(ModelKind::Gin.num_layers(), 5);
        assert_eq!(ModelKind::Gin.hidden_dim(), 64);
        assert_eq!(ModelKind::Gcn.aggregate_mode(), AggregateMode::GcnNorm);
        assert_eq!(ModelKind::Gin.aggregate_mode(), AggregateMode::Sum);
    }
}
