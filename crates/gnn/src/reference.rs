//! Single-address-space reference aggregation.
//!
//! This is the ground truth every distributed engine (MGG, UVM,
//! direct-NVSHMEM, DGCL) must reproduce: a plain CPU sparse-dense multiply
//! over the whole graph. Distributed engines may reassociate floating-point
//! sums, so comparisons use a small tolerance.

use mgg_graph::{CsrGraph, NodeId};

use crate::models::Aggregator;
use crate::tensor::Matrix;

/// Neighbor combination rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateMode {
    /// Plain neighbor sum (GIN's inner sum, Equation 5).
    Sum,
    /// GCN symmetric normalization: `sum_u norm[v] * norm[u] * x[u]` plus
    /// the self term `norm[v]^2 * x[v]` (the self-loop of \hat{A}).
    GcnNorm,
    /// Mean over neighbors (GraphSAGE-mean style, used by the sampling
    /// comparison).
    Mean,
}

/// Aggregates `x` (one row per node) over `graph` in a single pass.
pub fn aggregate(graph: &CsrGraph, x: &Matrix, mode: AggregateMode) -> Matrix {
    assert_eq!(graph.num_nodes(), x.rows(), "one feature row per node");
    let dim = x.cols();
    let mut out = Matrix::zeros(x.rows(), dim);
    let norm = match mode {
        AggregateMode::GcnNorm => graph.gcn_norm(),
        _ => Vec::new(),
    };
    for v in 0..graph.num_nodes() as NodeId {
        let nbrs = graph.neighbors(v);
        let (acc_start, acc_end) = (v as usize * dim, (v as usize + 1) * dim);
        match mode {
            AggregateMode::Sum => {
                for &u in nbrs {
                    let src = x.row(u as usize);
                    let dst = &mut out.data_mut()[acc_start..acc_end];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s;
                    }
                }
            }
            AggregateMode::Mean => {
                let inv = if nbrs.is_empty() { 0.0 } else { 1.0 / nbrs.len() as f32 };
                for &u in nbrs {
                    let src = x.row(u as usize);
                    let dst = &mut out.data_mut()[acc_start..acc_end];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s * inv;
                    }
                }
            }
            AggregateMode::GcnNorm => {
                let nv = norm[v as usize];
                for &u in nbrs {
                    let w = nv * norm[u as usize];
                    let src = x.row(u as usize);
                    let dst = &mut out.data_mut()[acc_start..acc_end];
                    for (d, &s) in dst.iter_mut().zip(src) {
                        *d += s * w;
                    }
                }
                // Self-loop term of \hat{A} = A + I.
                let w = nv * nv;
                let src: Vec<f32> = x.row(v as usize).to_vec();
                let dst = &mut out.data_mut()[acc_start..acc_end];
                for (d, s) in dst.iter_mut().zip(src) {
                    *d += s * w;
                }
            }
        }
    }
    out
}

/// Adjoint (transpose) of [`aggregate`]: scatters `g[v]` to every neighbor
/// `u` of `v` with the same coefficients the forward pass used.
///
/// Needed by backpropagation when the aggregation operator is not
/// symmetric — e.g. the per-epoch sampled subgraphs of Table 5, where edge
/// `(v, u)` exists without its mirror.
pub fn aggregate_adjoint(graph: &CsrGraph, g: &Matrix, mode: AggregateMode) -> Matrix {
    assert_eq!(graph.num_nodes(), g.rows(), "one gradient row per node");
    let dim = g.cols();
    let mut out = Matrix::zeros(g.rows(), dim);
    let norm = match mode {
        AggregateMode::GcnNorm => graph.gcn_norm(),
        _ => Vec::new(),
    };
    for v in 0..graph.num_nodes() as NodeId {
        let nbrs = graph.neighbors(v);
        let src: Vec<f32> = g.row(v as usize).to_vec();
        match mode {
            AggregateMode::Sum => {
                for &u in nbrs {
                    let dst = out.row_mut(u as usize);
                    for (d, &s) in dst.iter_mut().zip(&src) {
                        *d += s;
                    }
                }
            }
            AggregateMode::Mean => {
                let inv = if nbrs.is_empty() { 0.0 } else { 1.0 / nbrs.len() as f32 };
                for &u in nbrs {
                    let dst = out.row_mut(u as usize);
                    for (d, &s) in dst.iter_mut().zip(&src) {
                        *d += s * inv;
                    }
                }
            }
            AggregateMode::GcnNorm => {
                let nv = norm[v as usize];
                for &u in nbrs {
                    let w = nv * norm[u as usize];
                    let dst = out.row_mut(u as usize);
                    for (d, &s) in dst.iter_mut().zip(&src) {
                        *d += s * w;
                    }
                }
                let w = nv * nv;
                let dst = out.row_mut(v as usize);
                for (d, &s) in dst.iter_mut().zip(&src) {
                    *d += s * w;
                }
            }
        }
    }
    out
}

/// An [`Aggregator`] backed by the reference implementation (zero simulated
/// time — it represents the ideal single-GPU-unbounded-memory oracle).
#[derive(Debug, Clone)]
pub struct ReferenceAggregator {
    /// The graph aggregated over.
    pub graph: CsrGraph,
    /// Neighbor combination rule (sum, mean, GCN-normalized).
    pub mode: AggregateMode,
}

impl Aggregator for ReferenceAggregator {
    fn aggregate(&mut self, x: &Matrix) -> (Matrix, u64) {
        (aggregate(&self.graph, x, self.mode), 0)
    }

    fn mode(&self) -> AggregateMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::regular::{path, star};

    fn feat(n: usize, dim: usize) -> Matrix {
        Matrix::from_vec(n, dim, (0..n * dim).map(|i| (i % 7) as f32 - 3.0).collect())
    }

    #[test]
    fn sum_on_path() {
        // Path 0-1-2: node 1 aggregates x0 + x2.
        let g = path(3);
        let x = Matrix::from_vec(3, 2, vec![1.0, 2.0, 10.0, 20.0, 100.0, 200.0]);
        let out = aggregate(&g, &x, AggregateMode::Sum);
        assert_eq!(out.row(1), &[101.0, 202.0]);
        assert_eq!(out.row(0), &[10.0, 20.0]);
    }

    #[test]
    fn mean_divides_by_degree() {
        let g = star(3); // hub 0 with leaves 1, 2
        let x = Matrix::from_vec(3, 1, vec![0.0, 3.0, 5.0]);
        let out = aggregate(&g, &x, AggregateMode::Mean);
        assert_eq!(out.row(0), &[4.0]);
        assert_eq!(out.row(1), &[0.0]);
    }

    #[test]
    fn mean_of_isolated_node_is_zero() {
        let g = CsrGraph::empty(2);
        let x = feat(2, 3);
        let out = aggregate(&g, &x, AggregateMode::Mean);
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gcn_norm_includes_self_loop() {
        // Isolated node: output = x * (1/sqrt(1+0))^2 = x.
        let g = CsrGraph::empty(1);
        let x = Matrix::from_vec(1, 2, vec![3.0, -1.0]);
        let out = aggregate(&g, &x, AggregateMode::GcnNorm);
        assert!((out.row(0)[0] - 3.0).abs() < 1e-6);
        assert!((out.row(0)[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn gcn_norm_is_symmetric_operator() {
        // For symmetric graphs, the aggregation matrix D^-1/2 (A+I) D^-1/2
        // is symmetric: <Ax, y> == <x, Ay>.
        let g = path(5);
        let x = feat(5, 1);
        let y = Matrix::from_vec(5, 1, vec![2.0, -1.0, 0.5, 3.0, 1.0]);
        let ax = aggregate(&g, &x, AggregateMode::GcnNorm);
        let ay = aggregate(&g, &y, AggregateMode::GcnNorm);
        let dot = |a: &Matrix, b: &Matrix| -> f32 {
            a.data().iter().zip(b.data()).map(|(&p, &q)| p * q).sum()
        };
        assert!((dot(&ax, &y) - dot(&x, &ay)).abs() < 1e-4);
    }

    #[test]
    fn adjoint_matches_forward_on_symmetric_graph() {
        // On a symmetric graph with GcnNorm, the operator is self-adjoint.
        let g = path(6);
        let x = feat(6, 3);
        let fwd = aggregate(&g, &x, AggregateMode::GcnNorm);
        let adj = aggregate_adjoint(&g, &x, AggregateMode::GcnNorm);
        assert!(fwd.max_abs_diff(&adj) < 1e-5);
    }

    #[test]
    fn adjoint_is_true_transpose_on_directed_graph() {
        // Directed edge 0 <- 1 only: forward moves x1 into row 0; adjoint
        // moves g0 into row 1.
        let g = CsrGraph::from_raw(vec![0, 1, 1], vec![1]);
        let x = Matrix::from_vec(2, 1, vec![5.0, 7.0]);
        let fwd = aggregate(&g, &x, AggregateMode::Sum);
        assert_eq!(fwd.data(), &[7.0, 0.0]);
        let adj = aggregate_adjoint(&g, &x, AggregateMode::Sum);
        assert_eq!(adj.data(), &[0.0, 5.0]);
    }

    #[test]
    fn adjoint_inner_product_identity() {
        // <A x, y> == <x, A^T y> for any mode, including Mean on a
        // directed sampled-like graph.
        let g = CsrGraph::from_raw(vec![0, 2, 3, 3], vec![1, 2, 0]);
        let x = feat(3, 2);
        let y = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 3.0, -1.0, 2.0]);
        for mode in [AggregateMode::Sum, AggregateMode::Mean, AggregateMode::GcnNorm] {
            let ax = aggregate(&g, &x, mode);
            let aty = aggregate_adjoint(&g, &y, mode);
            let dot = |a: &Matrix, b: &Matrix| -> f32 {
                a.data().iter().zip(b.data()).map(|(&p, &q)| p * q).sum()
            };
            assert!(
                (dot(&ax, &y) - dot(&x, &aty)).abs() < 1e-4,
                "adjoint identity failed for {mode:?}"
            );
        }
    }

    #[test]
    fn reference_aggregator_reports_zero_time() {
        let g = path(4);
        let mut r = ReferenceAggregator { graph: g, mode: AggregateMode::Sum };
        let x = feat(4, 2);
        let (_, ns) = Aggregator::aggregate(&mut r, &x);
        assert_eq!(ns, 0);
    }
}

/// Aggregates with a caller-provided weight per directed edge:
/// `out[v] = sum_k w[e_k] * x[u_k]` where `e_k` indexes the graph's flat
/// adjacency. This is the primitive behind attention-style GNNs (GAT):
/// the weights are the per-edge attention coefficients.
pub fn aggregate_edge_weighted(graph: &CsrGraph, x: &Matrix, w: &[f32]) -> Matrix {
    assert_eq!(graph.num_nodes(), x.rows(), "one feature row per node");
    assert_eq!(graph.num_edges(), w.len(), "one weight per directed edge");
    let dim = x.cols();
    let mut out = Matrix::zeros(x.rows(), dim);
    for v in 0..graph.num_nodes() as NodeId {
        let base = graph.row_ptr()[v as usize] as usize;
        let acc_start = v as usize * dim;
        for (k, &u) in graph.neighbors(v).iter().enumerate() {
            let weight = w[base + k];
            let src = x.row(u as usize);
            let dst = &mut out.data_mut()[acc_start..acc_start + dim];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d += weight * s;
            }
        }
    }
    out
}

#[cfg(test)]
mod edge_weighted_tests {
    use super::*;
    use mgg_graph::generators::regular::path;

    #[test]
    fn unit_weights_reduce_to_sum() {
        let g = path(5);
        let x = Matrix::glorot(5, 3, 3);
        let w = vec![1.0f32; g.num_edges()];
        let weighted = aggregate_edge_weighted(&g, &x, &w);
        let plain = aggregate(&g, &x, AggregateMode::Sum);
        assert!(weighted.max_abs_diff(&plain) < 1e-6);
    }

    #[test]
    fn weights_scale_contributions() {
        // Path 0-1-2: node 1's neighbors are 0 and 2 in sorted order.
        let g = path(3);
        let x = Matrix::from_vec(3, 1, vec![1.0, 10.0, 100.0]);
        let mut w = vec![0.0f32; g.num_edges()];
        // Find node 1's edges in the flat adjacency.
        let base = g.row_ptr()[1] as usize;
        w[base] = 2.0; // neighbor 0
        w[base + 1] = 0.5; // neighbor 2
        let out = aggregate_edge_weighted(&g, &x, &w);
        assert!((out.row(1)[0] - (2.0 * 1.0 + 0.5 * 100.0)).abs() < 1e-6);
        assert_eq!(out.row(0)[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "one weight per directed edge")]
    fn weight_length_checked() {
        let g = path(3);
        let x = Matrix::zeros(3, 1);
        let _ = aggregate_edge_weighted(&g, &x, &[1.0]);
    }
}
