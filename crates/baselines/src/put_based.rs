//! PUT-based communication variant (§3.3's rejected alternative).
//!
//! The paper chooses one-sided GET because "when using PUT, we have to
//! employ a complex receiver-side synchronization mechanism to
//! consistently check the local memory buffer for making sure that the
//! required node embedding arrives before its aggregation begins",
//! costing extra computation. This engine models that alternative's time
//! so the claim is measurable:
//!
//! 1. **Push phase**: every GPU walks its *outgoing* adjacency (the
//!    transpose of its consumers' remote lists) and PUTs each needed row
//!    into the consumer's staging buffer, then writes a completion flag.
//! 2. **Barrier** (`nvshmem_barrier_all`).
//! 3. **Aggregate phase**: consumers poll the arrival flags (the extra
//!    receiver-side synchronization compute), then aggregate staged rows
//!    from local memory.
//!
//! Same wire volume as GET, but the phases serialize at the barrier and
//! the receiver pays polling overhead — which is exactly why GET wins.

use mgg_graph::partition::locality;
use mgg_graph::partition::neighbor::{partition_rows, NeighborPartition, PartitionKind};
use mgg_graph::{CsrGraph, NodeSplit};
use mgg_shmem::barrier_all;
use mgg_sim::{
    Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, NoPaging, SimTime, WarpOp,
};

use mgg_core::kernel::LocalAggKernel;

const WPB: u32 = 4;

/// Cycles a consumer warp spends polling arrival flags per partition (the
/// receiver-side synchronization the paper wants to avoid).
const POLL_CYCLES_PER_PARTITION: u32 = 180;

/// The PUT-based aggregation engine, a timing model.
pub struct PutBasedEngine {
    /// The simulated platform the engine runs on.
    pub cluster: Cluster,
    /// Per GPU: outgoing pushes (destination GPU, rows) — one per remote
    /// edge whose source this GPU owns, grouped into warp-sized batches.
    push_batches: Vec<Vec<(u16, u32)>>,
    /// Per GPU: neighbor partitions over local + staged (all-local) data.
    agg_parts: Vec<Vec<NeighborPartition>>,
    /// Simulated duration of the inter-phase barrier.
    pub last_barrier_ns: SimTime,
}

struct PushKernel<'a> {
    batches: &'a [Vec<(u16, u32)>],
    dim: usize,
}

impl PutBasedEngine {
    /// Builds the engine (edge-balanced split, same as MGG's placement).
    pub fn new(graph: &CsrGraph, spec: ClusterSpec) -> Self {
        let split = NodeSplit::edge_balanced(graph, spec.num_gpus);
        let parts = locality::build(graph, &split);
        // Outgoing pushes: invert each consumer's remote list. A push of
        // `k` rows to one destination is one batch (warp-level put).
        const BATCH: u32 = 16;
        let mut push_batches: Vec<Vec<(u16, u32)>> = vec![Vec::new(); spec.num_gpus];
        let mut pending: Vec<Vec<u32>> = vec![vec![0u32; spec.num_gpus]; spec.num_gpus];
        for p in &parts {
            for rr in p.remote.adj() {
                let src = rr.owner as usize;
                let dst = p.pe;
                pending[src][dst] += 1;
                if pending[src][dst] == BATCH {
                    push_batches[src].push((dst as u16, BATCH));
                    pending[src][dst] = 0;
                }
            }
        }
        for (src, row) in pending.into_iter().enumerate() {
            for (dst, rem) in row.into_iter().enumerate() {
                if rem > 0 {
                    push_batches[src].push((dst as u16, rem));
                }
            }
        }
        // Aggregation phase: everything is local after staging; partition
        // the full per-node neighbor lists.
        let agg_parts = parts
            .iter()
            .map(|p| {
                // Combined row lengths: local + remote (staged) neighbors.
                let rows = p.local.num_rows();
                let mut row_ptr = Vec::with_capacity(rows + 1);
                row_ptr.push(0u64);
                for r in 0..rows as u32 {
                    let len = p.local.row(r).len() + p.remote.row(r).len();
                    row_ptr.push(row_ptr.last().unwrap() + len as u64);
                }
                partition_rows(&row_ptr, 16, PartitionKind::Local)
            })
            .collect();
        PutBasedEngine { cluster: Cluster::new(spec), push_batches, agg_parts, last_barrier_ns: 0 }
    }

    /// Simulates one aggregation: push, barrier, aggregate.
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> SimTime {
        self.cluster.reset();
        // Phase 1: pushes.
        let push = PushKernel { batches: &self.push_batches, dim };
        let push_stats = GpuSim::run(&mut self.cluster, &push, &mut NoPaging)
            .expect("push kernel launch is valid");
        let push_ns = push_stats.makespan_ns();
        // Phase 2: barrier (receiver must not aggregate early). The
        // barrier's completion time is measured on the same channel state,
        // so it already covers draining the posted puts still in flight
        // when the push kernel's warps retired — take the max rather than
        // summing, to avoid double-counting the overlap.
        self.last_barrier_ns = barrier_all(&mut self.cluster);
        let comm_done = push_ns.max(self.last_barrier_ns);
        // Phase 3: all-local aggregation with flag polling.
        let agg =
            LocalAggKernel { parts: &self.agg_parts, dim, poll_cycles: POLL_CYCLES_PER_PARTITION };
        let agg_ns = GpuSim::run(&mut self.cluster, &agg, &mut NoPaging)
            .expect("aggregate kernel launch is valid")
            .makespan_ns();
        comm_done + agg_ns + 2 * self.cluster.spec.kernel_launch_ns
    }
}

impl KernelProgram for PushKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        let warps = self.batches[pe].len() as u32;
        KernelLaunch {
            blocks: warps.div_ceil(WPB).max(1),
            warps_per_block: WPB,
            smem_per_block: 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let i = (block * WPB + warp) as usize;
        let Some(&(dst, rows)) = self.batches[pe].get(i) else {
            return;
        };
        let row_bytes = (self.dim * 4) as u32;
        // Read the rows locally, then put them to the consumer's staging
        // buffer (posted), then put the arrival flag.
        out.push(WarpOp::GlobalRead { bytes: rows * row_bytes });
        for _ in 0..rows {
            out.push(WarpOp::RemotePut { peer: dst, bytes: row_bytes });
        }
        out.push(WarpOp::RemotePut { peer: dst, bytes: 8 }); // flag
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_core::{MggConfig, MggEngine};
    use mgg_gnn::reference::AggregateMode;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 97))
    }

    #[test]
    fn push_batches_cover_all_remote_edges() {
        let g = graph();
        let e = PutBasedEngine::new(&g, ClusterSpec::dgx_a100(4));
        let pushed: u64 = e
            .push_batches
            .iter()
            .flatten()
            .map(|&(_, rows)| rows as u64)
            .sum();
        let parts = locality::build(&g, &NodeSplit::edge_balanced(&g, 4));
        let remote: u64 = parts.iter().map(|p| p.remote.num_entries() as u64).sum();
        assert_eq!(pushed, remote);
    }

    #[test]
    fn get_beats_put_as_the_paper_argues() {
        let g = graph();
        let dim = 64;
        let mut put = PutBasedEngine::new(&g, ClusterSpec::dgx_a100(8));
        let t_put = put.simulate_aggregation_ns(dim);
        let mut get = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(8),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let t_get = get.simulate_aggregation_ns(dim).unwrap();
        assert!(
            t_put > t_get,
            "PUT ({t_put}) must lose to the GET pipeline ({t_get})"
        );
    }
}
