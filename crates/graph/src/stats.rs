//! Graph statistics used to characterize workloads.
//!
//! The paper's performance story is driven by degree structure: average
//! degree sets the compute-to-node ratio, skew sets warp-workload
//! imbalance (what neighbor partitioning fixes), and the remote fraction
//! under a split sets communication pressure. This module quantifies all
//! of it for dataset reports and test assertions.

use serde::Serialize;

use crate::csr::{CsrGraph, NodeId};

/// Degree-distribution summary of a graph.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DegreeStats {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of directed edges.
    pub edges: usize,
    /// Mean degree.
    pub avg: f64,
    /// Minimum degree.
    pub min: usize,
    /// Median degree.
    pub p50: usize,
    /// 90th-percentile degree.
    pub p90: usize,
    /// 99th-percentile degree.
    pub p99: usize,
    /// Maximum degree.
    pub max: usize,
    /// Coefficient of variation of the degree (stddev / mean) — the
    /// workload-imbalance proxy neighbor partitioning neutralizes.
    pub cv: f64,
    /// Fraction of edges owned by the top 1% highest-degree nodes.
    pub top1pct_edge_share: f64,
    /// Number of isolated (degree-0) nodes.
    pub isolated: usize,
}

/// Computes the degree summary.
///
/// # Examples
///
/// ```
/// use mgg_graph::generators::regular::star;
/// use mgg_graph::stats::degree_stats;
///
/// let s = degree_stats(&star(100));
/// assert_eq!(s.max, 99);       // the hub
/// assert_eq!(s.p50, 1);        // the leaves
/// assert!(s.top1pct_edge_share > 0.4);
/// ```
pub fn degree_stats(graph: &CsrGraph) -> DegreeStats {
    let n = graph.num_nodes();
    let m = graph.num_edges();
    let mut degrees: Vec<usize> =
        (0..n as NodeId).map(|v| graph.degree(v)).collect();
    if degrees.is_empty() {
        return DegreeStats {
            nodes: 0,
            edges: 0,
            avg: 0.0,
            min: 0,
            p50: 0,
            p90: 0,
            p99: 0,
            max: 0,
            cv: 0.0,
            top1pct_edge_share: 0.0,
            isolated: 0,
        };
    }
    degrees.sort_unstable();
    let pct = |p: f64| -> usize {
        let idx = ((n as f64 - 1.0) * p).round() as usize;
        degrees[idx.min(n - 1)]
    };
    let avg = m as f64 / n as f64;
    let var = degrees.iter().map(|&d| (d as f64 - avg).powi(2)).sum::<f64>() / n as f64;
    let cv = if avg > 0.0 { var.sqrt() / avg } else { 0.0 };
    let top = (n.div_ceil(100)).max(1);
    let top_edges: usize = degrees[n - top..].iter().sum();
    DegreeStats {
        nodes: n,
        edges: m,
        avg,
        min: degrees[0],
        p50: pct(0.5),
        p90: pct(0.9),
        p99: pct(0.99),
        max: *degrees.last().expect("non-empty"),
        cv,
        top1pct_edge_share: if m == 0 { 0.0 } else { top_edges as f64 / m as f64 },
        isolated: degrees.iter().take_while(|&&d| d == 0).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::regular::{ring, star};
    use crate::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn ring_is_perfectly_uniform() {
        let s = degree_stats(&ring(100));
        assert_eq!(s.min, 2);
        assert_eq!(s.max, 2);
        assert_eq!(s.p99, 2);
        assert!(s.cv < 1e-9);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn star_is_maximally_skewed() {
        let s = degree_stats(&star(1_000));
        assert_eq!(s.max, 999);
        assert_eq!(s.p50, 1);
        assert!(s.cv > 10.0);
        // The hub (top 1%) holds half of all directed edges.
        assert!(s.top1pct_edge_share > 0.49);
    }

    #[test]
    fn rmat_skew_between_the_extremes() {
        let s = degree_stats(&rmat(&RmatConfig::graph500(11, 20_000, 7)));
        assert!(s.cv > 1.0, "cv {}", s.cv);
        assert!(s.top1pct_edge_share > 0.05);
        assert!(s.top1pct_edge_share < 0.9);
        assert!(s.p99 < s.max);
    }

    #[test]
    fn empty_graph_is_all_zero() {
        let s = degree_stats(&CsrGraph::empty(0));
        assert_eq!(s.nodes, 0);
        assert_eq!(s.max, 0);
    }

    #[test]
    fn isolated_nodes_counted() {
        let mut b = crate::builder::GraphBuilder::new(10);
        b.add_edge(0, 1);
        let s = degree_stats(&b.build());
        assert_eq!(s.isolated, 9);
    }
}
