//! Compressed-sparse-row graph storage.

use serde::Serialize;

/// Node identifier. The paper's largest input (enwiki-2013) has 4.2M nodes,
/// comfortably within `u32`.
pub type NodeId = u32;

/// A directed graph in CSR form.
///
/// `row_ptr` has `num_nodes + 1` entries; the neighbors of node `v` are
/// `col_idx[row_ptr[v] .. row_ptr[v + 1]]`. For GNN aggregation the edge
/// `(v, u)` means "u contributes to v's aggregation", i.e. the neighbor
/// lists are *in*-neighbors of the destination node, matching how the
/// paper's kernels iterate.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CsrGraph {
    row_ptr: Vec<u64>,
    col_idx: Vec<NodeId>,
}

impl CsrGraph {
    /// Builds a CSR graph from raw arrays, validating the invariants.
    ///
    /// # Panics
    ///
    /// Panics when `row_ptr` is empty, not monotone, does not end at
    /// `col_idx.len()`, or when a column index is out of range.
    pub fn from_raw(row_ptr: Vec<u64>, col_idx: Vec<NodeId>) -> Self {
        assert!(!row_ptr.is_empty(), "row_ptr must have at least one entry");
        assert_eq!(row_ptr[0], 0, "row_ptr must start at 0");
        assert!(
            row_ptr.windows(2).all(|w| w[0] <= w[1]),
            "row_ptr must be non-decreasing"
        );
        assert_eq!(
            *row_ptr.last().expect("non-empty") as usize,
            col_idx.len(),
            "row_ptr must end at the edge count"
        );
        let n = (row_ptr.len() - 1) as u64;
        assert!(
            col_idx.iter().all(|&c| (c as u64) < n.max(1)),
            "column index out of range"
        );
        CsrGraph { row_ptr, col_idx }
    }

    /// An empty graph with `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        CsrGraph { row_ptr: vec![0; n + 1], col_idx: Vec::new() }
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of directed edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (length `num_nodes() + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[u64] {
        &self.row_ptr
    }

    /// The column-index array (length `num_edges()`).
    #[inline]
    pub fn col_idx(&self) -> &[NodeId] {
        &self.col_idx
    }

    /// In-neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let s = self.row_ptr[v as usize] as usize;
        let e = self.row_ptr[v as usize + 1] as usize;
        &self.col_idx[s..e]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.row_ptr[v as usize + 1] - self.row_ptr[v as usize]) as usize
    }

    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes() as NodeId).map(|v| self.degree(v)).max().unwrap_or(0)
    }

    /// GCN symmetric-normalization coefficient per node, `1/sqrt(1+deg)`,
    /// for the self-loop-augmented graph.
    pub fn gcn_norm(&self) -> Vec<f32> {
        (0..self.num_nodes() as NodeId)
            .map(|v| {
                let d = self.degree(v) as f32;
                1.0 / (1.0 + d).sqrt()
            })
            .collect()
    }

    /// Relabels nodes by `perm` (new id of old node `v` is `perm[v]`).
    ///
    /// # Panics
    ///
    /// Panics unless `perm` is a permutation of `0..num_nodes()`.
    pub fn relabel(&self, perm: &[NodeId]) -> CsrGraph {
        let n = self.num_nodes();
        assert_eq!(perm.len(), n, "permutation length mismatch");
        let mut seen = vec![false; n];
        for &p in perm {
            assert!(!seen[p as usize], "perm is not a permutation");
            seen[p as usize] = true;
        }
        // inv[new] = old
        let mut inv = vec![0 as NodeId; n];
        for (old, &new) in perm.iter().enumerate() {
            inv[new as usize] = old as NodeId;
        }
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx = Vec::with_capacity(self.num_edges());
        row_ptr.push(0u64);
        for new in 0..n as NodeId {
            let old = inv[new as usize];
            let mut nbrs: Vec<NodeId> =
                self.neighbors(old).iter().map(|&u| perm[u as usize]).collect();
            nbrs.sort_unstable();
            col_idx.extend_from_slice(&nbrs);
            row_ptr.push(col_idx.len() as u64);
        }
        CsrGraph { row_ptr, col_idx }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 0 <- {1, 2}, 1 <- {2}, 2 <- {}.
    fn tri() -> CsrGraph {
        CsrGraph::from_raw(vec![0, 2, 3, 3], vec![1, 2, 2])
    }

    #[test]
    fn basic_accessors() {
        let g = tri();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.neighbors(0), &[1, 2]);
        assert_eq!(g.neighbors(2), &[] as &[NodeId]);
        assert_eq!(g.degree(0), 2);
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::empty(4);
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "row_ptr must be non-decreasing")]
    fn rejects_non_monotone() {
        let _ = CsrGraph::from_raw(vec![0, 2, 1, 3], vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "column index out of range")]
    fn rejects_bad_column() {
        let _ = CsrGraph::from_raw(vec![0, 1], vec![5]);
    }

    #[test]
    fn gcn_norm_values() {
        let g = tri();
        let norm = g.gcn_norm();
        assert!((norm[0] - 1.0 / 3f32.sqrt()).abs() < 1e-6);
        assert!((norm[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn relabel_is_isomorphic() {
        let g = tri();
        let perm = vec![2, 0, 1]; // old 0 -> new 2, old 1 -> new 0, old 2 -> new 1
        let h = g.relabel(&perm);
        assert_eq!(h.num_edges(), g.num_edges());
        // old edge 0 <- 1 becomes new edge 2 <- 0.
        assert!(h.neighbors(2).contains(&0));
        assert_eq!(h.degree(2), g.degree(0));
    }

    #[test]
    #[should_panic(expected = "perm is not a permutation")]
    fn relabel_rejects_duplicates() {
        let _ = tri().relabel(&[0, 0, 1]);
    }
}
