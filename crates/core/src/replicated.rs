//! Workload-driven partitioning with replicated outputs (§6).
//!
//! The paper's Discussion notes MGG can host partitioning schemes from
//! prior work: *workload-driven* partitioning (NeuGraph-style) splits the
//! **edge set** across GPUs instead of the node set, so every GPU holds a
//! replica of the output buffer, aggregates its edge shard into it, and
//! the replicas are combined with an NVSHMEM collective
//! (`nvshmem_float_sum_reduce`) at the end.
//!
//! This engine implements that mode on the same substrates: edges are
//! dealt round-robin by source partition for balance, the per-GPU
//! aggregation kernel is all-local (each GPU also holds the full input
//! replica), and consistency costs one ring sum-reduce of `n x dim`
//! floats. The tradeoff it exposes: zero fine-grained remote traffic
//! during aggregation, but a collective whose volume scales with the
//! *output* size — which is why MGG's node-split pipeline wins whenever
//! the output is large relative to the cut.

use mgg_gnn::models::Aggregator;
use mgg_gnn::reference::{aggregate, AggregateMode};
use mgg_gnn::Matrix;
use mgg_graph::partition::neighbor::{partition_rows, NeighborPartition, PartitionKind};
use mgg_graph::CsrGraph;
use mgg_shmem::{sum_reduce_all, SymmetricRegion};
use mgg_sim::{
    Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, KernelStats, NoPaging, SimTime,
    WarpOp,
};

use crate::kernel::aggregation_cycles;

/// Warps per block of the replicated kernel.
const WPB: u32 = 4;

/// Edge-sharded, output-replicated execution (NeuGraph-style under MGG's
/// substrates).
pub struct ReplicatedEngine {
    /// The simulated multi-GPU platform the engine launches on.
    pub cluster: Cluster,
    graph: CsrGraph,
    /// Per GPU: the rows (by destination node) this GPU aggregates, as
    /// neighbor partitions rebased onto that GPU's private adjacency copy.
    shard_parts: Vec<Vec<NeighborPartition>>,
    mode: AggregateMode,
    /// Simulated duration of the last sum-reduce phase.
    pub last_reduce_ns: SimTime,
    /// Statistics of the last aggregation kernel.
    pub last_stats: Option<KernelStats>,
}

struct ShardKernel<'a> {
    parts: &'a [Vec<NeighborPartition>],
    dim: usize,
}

impl ReplicatedEngine {
    /// Shards the edge set across the GPUs of `spec`: node `v`'s neighbor
    /// list is cut into `ps`-sized partitions which are dealt round-robin
    /// to GPUs — a balanced edge split with no regard for locality
    /// (locality is irrelevant: inputs are replicated).
    pub fn new(graph: &CsrGraph, spec: ClusterSpec, ps: u32, mode: AggregateMode) -> Self {
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
            graph: graph.clone(),
            shard_parts,
            mode,
            last_reduce_ns: 0,
            last_stats: None,
        }
    }

    /// Simulates one aggregation: the all-local shard kernel, then the
    /// replica sum-reduce.
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> SimTime {
        self.cluster.reset();
        let kernel = ShardKernel { parts: &self.shard_parts, dim };
        let stats = GpuSim::run(&mut self.cluster, &kernel, &mut NoPaging)
            .expect("shard kernel launch is valid");
        let agg_ns = stats.makespan_ns();
        self.last_stats = Some(stats);
        // Consistency: sum-reduce the n x dim output replicas.
        let n = self.graph.num_nodes();
        let mut replicas =
            SymmetricRegion::zeros(&vec![n; self.cluster.num_gpus()], dim.max(1));
        self.last_reduce_ns = sum_reduce_all(&mut self.cluster, &mut replicas);
        agg_ns + self.last_reduce_ns + self.cluster.spec.kernel_launch_ns
    }

    /// Functional aggregation: each shard accumulates into its replica;
    /// replicas sum to the full result (here computed directly, since
    /// addition is associative and the shards tile the edge set).
    pub fn aggregate_values(&self, x: &Matrix) -> Matrix {
        aggregate(&self.graph, x, self.mode)
    }
}

impl KernelProgram for ShardKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        let warps = self.parts[pe].len() as u32;
        KernelLaunch {
            blocks: warps.div_ceil(WPB).max(1),
            warps_per_block: WPB,
            smem_per_block: 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let i = (block * WPB + warp) as usize;
        let Some(p) = self.parts[pe].get(i) else {
            return;
        };
        let row_bytes = (self.dim * 4) as u32;
        // Everything is local: replicated inputs, replicated outputs.
        out.extend([
            WarpOp::GlobalRead { bytes: p.len * row_bytes },
            WarpOp::Compute { cycles: aggregation_cycles(p.len, self.dim) },
            WarpOp::GlobalWrite { bytes: row_bytes },
        ]);
    }
}

impl Aggregator for ReplicatedEngine {
    fn aggregate(&mut self, x: &Matrix) -> (Matrix, u64) {
        let ns = self.simulate_aggregation_ns(x.cols());
        (self.aggregate_values(x), ns)
    }

    fn aggregate_only(&mut self, x: &Matrix) -> Matrix {
        self.aggregate_values(x)
    }

    fn mode(&self) -> AggregateMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MggConfig, MggEngine};
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 71))
    }

    #[test]
    fn shards_tile_the_edge_set() {
        let g = graph();
        let e = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(4), 16, AggregateMode::Sum);
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
    fn values_match_reference() {
        let g = graph();
        let x = Matrix::glorot(g.num_nodes(), 8, 1);
        let mut e = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(4), 16, AggregateMode::Sum);
        let (vals, ns) = e.aggregate(&x);
        assert!(ns > 0);
        let want = aggregate(&g, &x, AggregateMode::Sum);
        assert!(vals.max_abs_diff(&want) < 1e-6);
    }

    #[test]
    fn reduce_phase_scales_with_output_size() {
        // Wide dims make the replica volume dominate the ring latency.
        let g = rmat(&RmatConfig::graph500(11, 20_000, 73));
        let mut e = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(4), 16, AggregateMode::Sum);
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
        let mut rep = ReplicatedEngine::new(&g, ClusterSpec::dgx_a100(8), 16, AggregateMode::Sum);
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
