//! Hybrid GNN data placement (§3.2, Figure 5).
//!
//! Node embeddings (large, remotely accessed) go into the NVSHMEM
//! symmetric heap, partitioned across GPUs by the edge-balanced node
//! split: each GPU owns one contiguous range of rows. Graph topology
//! (small, scalar, locally accessed) goes into each GPU's private memory,
//! with remote neighbor ids pre-translated from global node ids to
//! `(owner GPU, local offset)` pairs — the Figure-5 conversion that makes
//! symmetric-heap addressing work. Because the ranges tile the node ids in
//! order, `(PE, row)` is global row `split.bounds()[PE] + row`, which is
//! how the value plane reads the feature matrix in place.

use mgg_graph::partition::locality::{self, LocalityPartition};
use mgg_graph::{CsrGraph, NodeSplit};

/// The placed input of one multi-GPU aggregation.
#[derive(Debug, Clone)]
pub struct HybridPlacement {
    /// Node ownership ranges (edge-balanced by default).
    pub split: NodeSplit,
    /// Per-GPU local/remote virtual CSRs ("private" graph memory).
    pub parts: Vec<LocalityPartition>,
}

impl HybridPlacement {
    /// Plans placement of `graph` over `num_gpus` GPUs using the
    /// edge-balanced node split (Algorithm 1).
    pub fn plan(graph: &CsrGraph, num_gpus: usize) -> Self {
        let split = NodeSplit::edge_balanced(graph, num_gpus);
        Self::from_split(graph, split)
    }

    /// Plans placement with a caller-provided split (e.g. uniform, for
    /// baselines or ablations).
    pub fn from_split(graph: &CsrGraph, split: NodeSplit) -> Self {
        let parts = locality::build(graph, &split);
        HybridPlacement { split, parts }
    }

    /// Number of GPUs planned for.
    pub fn num_gpus(&self) -> usize {
        self.parts.len()
    }

    /// Bytes of embedding storage each GPU's symmetric-heap partition
    /// needs at dimension `dim` (rows x dim x 4).
    pub fn embedding_bytes_per_gpu(&self, dim: usize) -> Vec<u64> {
        (0..self.split.num_parts())
            .map(|g| self.split.part_nodes(g) as u64 * dim as u64 * 4)
            .collect()
    }

    /// Checks that every GPU's embedding partition (plus the private graph
    /// structure) fits its device memory, leaving `headroom` of the
    /// capacity for activations and scratch.
    pub fn check_memory(
        &self,
        dim: usize,
        spec: &mgg_sim::GpuSpec,
        headroom: f64,
    ) -> Result<(), String> {
        assert!((0.0..1.0).contains(&headroom), "headroom must be in [0, 1)");
        let budget = (spec.dram_bytes as f64 * (1.0 - headroom)) as u64;
        for (pe, (bytes, part)) in self
            .embedding_bytes_per_gpu(dim)
            .iter()
            .zip(&self.parts)
            .enumerate()
        {
            // Edge lists: ~8 B per local entry, ~12 B per remote entry.
            let graph_bytes =
                8 * part.local.num_entries() as u64 + 12 * part.remote.num_entries() as u64;
            let total = bytes + graph_bytes;
            if total > budget {
                return Err(format!(
                    "GPU {pe} needs {total} B (embeddings {bytes} + graph {graph_bytes})                      but only {budget} B are available"
                ));
            }
        }
        Ok(())
    }

    /// Average remote-edge fraction over GPUs — the communication pressure
    /// this placement faces.
    pub fn remote_fraction(&self) -> f64 {
        if self.parts.is_empty() {
            return 0.0;
        }
        self.parts.iter().map(|p| p.remote_fraction()).sum::<f64>() / self.parts.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn plan_covers_all_nodes_and_edges() {
        let g = rmat(&RmatConfig::graph500(10, 8_000, 3));
        let p = HybridPlacement::plan(&g, 4);
        assert_eq!(p.num_gpus(), 4);
        let nodes: usize = (0..4).map(|g| p.split.part_nodes(g)).sum();
        assert_eq!(nodes, g.num_nodes());
        let edges: usize =
            p.parts.iter().map(|lp| lp.local.num_entries() + lp.remote.num_entries()).sum();
        assert_eq!(edges, g.num_edges());
    }

    #[test]
    fn memory_check_accepts_and_rejects() {
        let g = rmat(&RmatConfig::graph500(10, 8_000, 7));
        let p = HybridPlacement::plan(&g, 4);
        let spec = mgg_sim::GpuSpec::a100();
        // Realistic dims fit a 40 GB device easily.
        assert!(p.check_memory(602, &spec, 0.5).is_ok());
        // A tiny device does not fit.
        let mut small = spec.clone();
        small.dram_bytes = 64 * 1024;
        let err = p.check_memory(602, &small, 0.0).unwrap_err();
        assert!(err.contains("needs"), "{err}");
    }

    #[test]
    fn remote_fraction_bounded() {
        let g = rmat(&RmatConfig::graph500(9, 4_000, 5));
        let p = HybridPlacement::plan(&g, 8);
        let f = p.remote_fraction();
        assert!((0.0..=1.0).contains(&f));
        assert!(f > 0.5, "8-way split of a random graph is mostly remote, got {f}");
    }
}
