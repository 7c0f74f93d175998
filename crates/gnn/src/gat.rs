//! Graph Attention Network (GAT) support.
//!
//! The paper positions GIN as "the reference architecture for many other
//! advanced GNNs with more edge properties, such as Graph Attention
//! Network" (§5). GAT's edge property is the attention coefficient: each
//! layer computes, per directed edge `(v, u)`,
//!
//! ```text
//! e(v,u)     = LeakyReLU(a_dst · h_v + a_src · h_u)
//! alpha(v,u) = softmax_u e(v,u)            (over v's neighbors)
//! out_v      = sum_u alpha(v,u) * h_u
//! ```
//!
//! On the distributed engines this costs one scalar (dim-1) exchange for
//! the neighbor scores plus one weighted aggregation at the hidden width —
//! the same access pattern MGG's pipeline already serves, which is why the
//! locality split carries original edge indices.

use mgg_graph::{CsrGraph, NodeId};

use crate::tensor::Matrix;

/// Backend capable of GAT's two sparse phases.
pub trait GatBackend {
    /// Computes per-edge softmax attention weights (indexed by the input
    /// graph's flat adjacency) from per-node scores; returns the weights
    /// and the simulated duration of the scalar score exchange.
    fn attention(&mut self, s_dst: &[f32], s_src: &[f32], slope: f32) -> (Vec<f32>, u64);

    /// Aggregates `x` with the given per-edge weights; returns values and
    /// the simulated duration.
    fn aggregate_weighted(&mut self, x: &Matrix, w: &[f32]) -> (Matrix, u64);
}

#[inline]
fn leaky_relu(x: f32, slope: f32) -> f32 {
    if x >= 0.0 {
        x
    } else {
        slope * x
    }
}

/// Computes the per-edge attention weights on a plain graph (the
/// reference path): leaky-ReLU scores, softmax per destination row.
pub fn reference_attention(
    graph: &CsrGraph,
    s_dst: &[f32],
    s_src: &[f32],
    slope: f32,
) -> Vec<f32> {
    assert_eq!(s_dst.len(), graph.num_nodes(), "one dst score per node");
    assert_eq!(s_src.len(), graph.num_nodes(), "one src score per node");
    let mut w = vec![0.0f32; graph.num_edges()];
    for v in 0..graph.num_nodes() as NodeId {
        let base = graph.row_ptr()[v as usize] as usize;
        let nbrs = graph.neighbors(v);
        if nbrs.is_empty() {
            continue;
        }
        // Stabilized softmax over the row's scores.
        let mut max = f32::NEG_INFINITY;
        for (k, &u) in nbrs.iter().enumerate() {
            let e = leaky_relu(s_dst[v as usize] + s_src[u as usize], slope);
            w[base + k] = e;
            max = max.max(e);
        }
        let mut sum = 0.0f32;
        for k in 0..nbrs.len() {
            w[base + k] = (w[base + k] - max).exp();
            sum += w[base + k];
        }
        if sum > 0.0 {
            for k in 0..nbrs.len() {
                w[base + k] /= sum;
            }
        }
    }
    w
}

/// The reference (single-address-space) GAT backend.
#[derive(Debug, Clone)]
pub struct ReferenceGatBackend {
    /// The graph attention coefficients and aggregation run over.
    pub graph: CsrGraph,
}

impl GatBackend for ReferenceGatBackend {
    fn attention(&mut self, s_dst: &[f32], s_src: &[f32], slope: f32) -> (Vec<f32>, u64) {
        (reference_attention(&self.graph, s_dst, s_src, slope), 0)
    }

    fn aggregate_weighted(&mut self, x: &Matrix, w: &[f32]) -> (Matrix, u64) {
        (crate::reference::aggregate_edge_weighted(&self.graph, x, w), 0)
    }
}

/// One single-head GAT layer.
#[derive(Debug, Clone)]
pub struct GatLayer {
    /// Linear projection applied before attention.
    pub w: Matrix,
    /// Attention vector dotted with the source projection.
    pub a_src: Vec<f32>,
    /// Attention vector dotted with the destination projection.
    pub a_dst: Vec<f32>,
}

impl GatLayer {
    /// Glorot-initialized layer mapping `in_dim -> out_dim`.
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        let a = Matrix::glorot(2, out_dim, seed.wrapping_add(7));
        GatLayer {
            w: Matrix::glorot(in_dim, out_dim, seed),
            a_src: a.row(0).to_vec(),
            a_dst: a.row(1).to_vec(),
        }
    }
}

/// A 2-layer single-head GAT with the usual LeakyReLU slope.
#[derive(Debug, Clone)]
pub struct Gat {
    /// The two layers, hidden then output.
    pub layers: Vec<GatLayer>,
    /// LeakyReLU negative slope used in the attention logits.
    pub slope: f32,
}

/// Per-layer GAT timing breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct GatLayerTiming {
    /// Scalar score exchange + softmax.
    pub attention_ns: u64,
    /// Weighted neighbor aggregation.
    pub aggregate_ns: u64,
}

impl Gat {
    /// Builds `in_dim -> hidden -> classes`.
    pub fn new(in_dim: usize, hidden: usize, classes: usize, seed: u64) -> Self {
        Gat {
            layers: vec![
                GatLayer::new(in_dim, hidden, seed),
                GatLayer::new(hidden, classes, seed.wrapping_add(100)),
            ],
            slope: 0.2,
        }
    }

    /// Full forward pass through `backend`.
    pub fn forward(&self, backend: &mut dyn GatBackend, x: &Matrix) -> (Matrix, Vec<GatLayerTiming>) {
        let mut h = x.clone();
        let mut timings = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let z = h.matmul(&layer.w);
            // Per-node scalar scores.
            let dot = |a: &[f32], row: &[f32]| -> f32 {
                a.iter().zip(row).map(|(&p, &q)| p * q).sum()
            };
            let s_src: Vec<f32> = (0..z.rows()).map(|r| dot(&layer.a_src, z.row(r))).collect();
            let s_dst: Vec<f32> = (0..z.rows()).map(|r| dot(&layer.a_dst, z.row(r))).collect();
            let (alpha, t_attn) = backend.attention(&s_dst, &s_src, self.slope);
            let (mut out, t_agg) = backend.aggregate_weighted(&z, &alpha);
            if i + 1 != self.layers.len() {
                out.relu_inplace();
            }
            timings.push(GatLayerTiming { attention_ns: t_attn, aggregate_ns: t_agg });
            h = out;
        }
        (h, timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{aggregate, AggregateMode};
    use mgg_graph::generators::regular::{path, star};
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn attention_rows_sum_to_one() {
        let g = rmat(&RmatConfig::graph500(8, 2_000, 5));
        let n = g.num_nodes();
        let s_dst: Vec<f32> = (0..n).map(|i| (i % 5) as f32 - 2.0).collect();
        let s_src: Vec<f32> = (0..n).map(|i| (i % 3) as f32).collect();
        let w = reference_attention(&g, &s_dst, &s_src, 0.2);
        for v in 0..n as NodeId {
            let base = g.row_ptr()[v as usize] as usize;
            let deg = g.degree(v);
            if deg == 0 {
                continue;
            }
            let sum: f32 = w[base..base + deg].iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {v} sums to {sum}");
            assert!(w[base..base + deg].iter().all(|&a| a >= 0.0));
        }
    }

    #[test]
    fn zero_scores_reduce_to_mean_aggregation() {
        let g = star(6);
        let x = Matrix::glorot(6, 4, 9);
        let zeros = vec![0.0f32; 6];
        let w = reference_attention(&g, &zeros, &zeros, 0.2);
        let got = crate::reference::aggregate_edge_weighted(&g, &x, &w);
        let want = aggregate(&g, &x, AggregateMode::Mean);
        assert!(got.max_abs_diff(&want) < 1e-5);
    }

    #[test]
    fn attention_prefers_high_score_neighbors() {
        // Node 1 of a path has neighbors 0 and 2; boost 2's source score.
        let g = path(3);
        let mut s_src = vec![0.0f32; 3];
        s_src[2] = 5.0;
        let w = reference_attention(&g, &[0.0; 3], &s_src, 0.2);
        let base = g.row_ptr()[1] as usize;
        assert!(w[base + 1] > 0.9, "neighbor 2 should dominate: {}", w[base + 1]);
        assert!(w[base] < 0.1);
    }

    #[test]
    fn gat_forward_shapes_and_finite() {
        let g = rmat(&RmatConfig::graph500(8, 2_000, 11));
        let x = Matrix::glorot(g.num_nodes(), 12, 13);
        let model = Gat::new(12, 8, 3, 17);
        let mut backend = ReferenceGatBackend { graph: g };
        let (logits, timings) = model.forward(&mut backend, &x);
        assert_eq!(logits.cols(), 3);
        assert_eq!(timings.len(), 2);
        assert!(logits.data().iter().all(|v| v.is_finite()));
    }
}
