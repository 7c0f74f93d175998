//! Workload-driven partitioning with replicated outputs (§6).
//!
//! The paper's Discussion notes MGG can host partitioning schemes from
//! prior work: *workload-driven* partitioning (NeuGraph-style) splits the
//! **edge set** across GPUs instead of the node set, so every GPU holds a
//! replica of the output buffer, aggregates its edge shard into it, and
//! the replicas are combined with an NVSHMEM collective
//! (`nvshmem_float_sum_reduce`) at the end.
//!
//! This engine models that mode's time on the same substrates: edges are
//! dealt round-robin by source partition for balance, the per-GPU
//! aggregation kernel is all-local (each GPU also holds the full input
//! replica), and consistency costs one ring sum-reduce of `n x dim`
//! floats. It computes no values. The tradeoff it exposes: zero fine-grained remote traffic
//! during aggregation, but a collective whose volume scales with the
//! *output* size — which is why MGG's node-split pipeline wins whenever
//! the output is large relative to the cut.

use mgg_graph::partition::neighbor::{partition_rows, NeighborPartition, PartitionKind};
use mgg_graph::CsrGraph;
use mgg_shmem::sum_reduce_all;
use mgg_sim::{Cluster, ClusterSpec, GpuSim, NoPaging, SimTime};

use crate::kernel::LocalAggKernel;

/// Edge-sharded, output-replicated execution (NeuGraph-style under MGG's
/// substrates), modelled for time only.
pub struct ReplicatedEngine {
    /// The simulated multi-GPU platform the engine launches on.
    pub cluster: Cluster,
    /// Rows of each output replica.
    num_nodes: usize,
    /// Per GPU: the rows (by destination node) this GPU aggregates, as
    /// neighbor partitions rebased onto that GPU's private adjacency copy.
    shard_parts: Vec<Vec<NeighborPartition>>,
    /// Simulated duration of the last sum-reduce phase.
    pub last_reduce_ns: SimTime,
}

impl ReplicatedEngine {
    /// Shards the edge set across the GPUs of `spec`: node `v`'s neighbor
    /// list is cut into `ps`-sized partitions which are dealt round-robin
    /// to GPUs — a balanced edge split with no regard for locality
    /// (locality is irrelevant: inputs are replicated).
    pub fn new(graph: &CsrGraph, spec: ClusterSpec, ps: u32) -> Self {
        let num_gpus = spec.num_gpus;
        let all_parts = partition_rows(graph.row_ptr(), ps as usize, PartitionKind::Local);
        let mut shard_parts: Vec<Vec<NeighborPartition>> = vec![Vec::new(); num_gpus];
        let mut shard_cursor = vec![0u64; num_gpus];
        for (i, p) in all_parts.iter().enumerate() {
            let pe = i % num_gpus;
            // Rebase the partition onto this GPU's private adjacency copy.
            let start = shard_cursor[pe];
            shard_cursor[pe] += p.len as u64;
            shard_parts[pe].push(NeighborPartition { start, ..*p });
        }
        ReplicatedEngine {
            cluster: Cluster::new(spec),
            num_nodes: graph.num_nodes(),
            shard_parts,
            last_reduce_ns: 0,
        }
    }

    /// Simulates one aggregation: the all-local shard kernel (replicated
    /// inputs, replicated outputs), then the replica sum-reduce.
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> SimTime {
        self.cluster.reset();
        let kernel = LocalAggKernel { parts: &self.shard_parts, dim, poll_cycles: 0 };
        let stats = GpuSim::run(&mut self.cluster, &kernel, &mut NoPaging)
            .expect("shard kernel launch is valid");
        let agg_ns = stats.makespan_ns();
        // Consistency: sum-reduce the n x dim output replicas.
        let replica_bytes = (self.num_nodes * dim.max(1) * 4) as u64;
        self.last_reduce_ns = sum_reduce_all(&mut self.cluster, replica_bytes);
        agg_ns + self.last_reduce_ns + self.cluster.spec.kernel_launch_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MggConfig, MggEngine};
    use mgg_gnn::reference::AggregateMode;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 71))
    }

    #[test]
    fn shards_tile_the_edge_set() {
        let g = graph();
        let e = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(4), 16);
        let total: u64 = e
            .shard_parts
            .iter()
            .flatten()
            .map(|p| p.len as u64)
            .sum();
        assert_eq!(total, g.num_edges() as u64);
        // Balance: no shard more than 2x the ideal share.
        for (pe, parts) in e.shard_parts.iter().enumerate() {
            let edges: u64 = parts.iter().map(|p| p.len as u64).sum();
            assert!(
                edges <= g.num_edges() as u64 / 2,
                "shard {pe} holds {edges} of {} edges",
                g.num_edges()
            );
        }
    }

    #[test]
    fn reduce_phase_scales_with_output_size() {
        // Wide dims make the replica volume dominate the ring latency.
        let g = rmat(&RmatConfig::graph500(11, 20_000, 73));
        let mut e = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(4), 16);
        let _ = e.simulate_aggregation_ns(16);
        let small = e.last_reduce_ns;
        let _ = e.simulate_aggregation_ns(1024);
        let big = e.last_reduce_ns;
        assert!(big > 2 * small, "big={big} small={small}");
    }

    #[test]
    fn mgg_wins_at_large_output_dims() {
        // The §6 tradeoff: the replica reduction's n*dim volume dwarfs
        // MGG's cut-proportional traffic at wide dims.
        let g = graph();
        let dim = 256;
        let mut rep = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(8), 16);
        let t_rep = rep.simulate_aggregation_ns(dim);
        let mut mgg = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(8),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let t_mgg = mgg.simulate_aggregation_ns(dim).unwrap();
        assert!(t_rep > t_mgg, "replicated {t_rep} vs mgg {t_mgg}");
    }
}
