//! The Figure-2 NCCL study: ring forwarding of node-embedding shards.
//!
//! Reconstructs the paper's §2.1 motivating experiment: a 1-layer GNN
//! where each GPU holds a shard of the embedding matrix and, after
//! aggregating with its current shard, forwards it to the next GPU until
//! every GPU has seen every shard. Communication (NCCL-style bulk ring
//! steps, host-initiated) and computation (aggregation kernels) strictly
//! alternate — NCCL calls cannot run inside a compute kernel — so the two
//! phases add up, and the paper's observation is that the transfer side
//! costs >5× the aggregation side.

use mgg_graph::partition::neighbor::{partition_rows, PartitionKind};
use mgg_graph::{CsrGraph, NodeSplit};
use mgg_shmem::COLLECTIVE_LAUNCH_NS;
use mgg_sim::{Cluster, ClusterSpec, GpuSim, NoPaging};

use mgg_core::kernel::LocalAggKernel;

/// Outcome of the ring study.
#[derive(Debug, Clone, Copy)]
pub struct NcclRingReport {
    /// Total simulated communication time (all ring steps + launches).
    pub comm_ns: u64,
    /// Total simulated aggregation time (all per-step kernels).
    pub comp_ns: u64,
    /// Ring steps executed (`num_gpus - 1` shard rotations).
    pub steps: usize,
}

impl NcclRingReport {
    /// The Figure-2 ratio.
    pub fn comm_to_comp(&self) -> f64 {
        self.comm_ns as f64 / self.comp_ns.max(1) as f64
    }
}

/// Per-row software overhead of the NCCL-style vector transfer path
/// (message setup, progress-engine handoff). NCCL sustains near-peak
/// bandwidth only on large contiguous buffers; row-granular embedding
/// forwarding pays this per message.
pub const NCCL_PER_MSG_NS: u64 = 350;

/// Runs the 1-layer ring-forwarding GNN and reports the comm/comp split.
pub fn nccl_ring_study(graph: &CsrGraph, spec: ClusterSpec, dim: usize) -> NcclRingReport {
    let n = spec.num_gpus;
    let mut cluster = Cluster::new(spec);
    let split = NodeSplit::uniform(graph.num_nodes(), n);

    // Compute side: across all rotation steps each GPU aggregates all of
    // its nodes' edges exactly once; simulate that total as one
    // neighbor-partitioned local kernel (sources are local by the time
    // they are aggregated — the shard was forwarded in).
    let parts: Vec<_> = (0..n)
        .map(|pe| {
            let range = split.range(pe);
            let lo = range.start as usize;
            let hi = range.end as usize;
            let base = graph.row_ptr()[lo];
            let local_ptr: Vec<u64> =
                graph.row_ptr()[lo..=hi].iter().map(|&p| p - base).collect();
            partition_rows(&local_ptr, 16, PartitionKind::Local)
        })
        .collect();
    let kernel = LocalAggKernel { parts: &parts, dim, poll_cycles: 0 };
    let stats = GpuSim::run(&mut cluster, &kernel, &mut NoPaging)
        .expect("ring aggregation kernel is valid");
    // Each of the n-1 steps launches its own aggregation kernel.
    let comp_ns = stats.makespan_ns()
        + (n.saturating_sub(1) as u64) * cluster.spec.kernel_launch_ns;

    // Communication side: n-1 shard rotations. The shard is a set of
    // *node-embedding rows*, and this is where NCCL falls down (§2.1:
    // "NCCL's inefficiency in transferring vector-based node
    // embeddings"): the transport moves the shard as per-row vector
    // messages, each paying a fixed software overhead, instead of one
    // saturating contiguous copy.
    cluster.reset();
    let max_shard_rows =
        (0..n).map(|pe| split.part_nodes(pe)).max().unwrap_or(0) as u64;
    let row_bytes = dim as u64 * 4;
    let mut t = 0;
    let steps = n.saturating_sub(1);
    for _ in 0..steps {
        let mut step_end = t;
        for pe in 0..n {
            let mut tp = t;
            for _ in 0..max_shard_rows {
                tp += NCCL_PER_MSG_NS;
                let done = cluster.ic.bulk_link_transfer(tp, pe, (pe + 1) % n, row_bytes);
                step_end = step_end.max(done);
            }
            step_end = step_end.max(tp);
        }
        t = step_end + COLLECTIVE_LAUNCH_NS;
    }
    NcclRingReport { comm_ns: t, comp_ns, steps }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn comm_dominates_comp() {
        // The Figure-2 observation: >5x on a Reddit-like dense graph.
        let g = rmat(&RmatConfig::graph500(11, 60_000, 43));
        let report = nccl_ring_study(&g, ClusterSpec::dgx_a100(8), 602);
        assert_eq!(report.steps, 7);
        assert!(
            report.comm_to_comp() > 2.0,
            "comm/comp = {:.2}",
            report.comm_to_comp()
        );
    }

    #[test]
    fn single_gpu_has_no_comm_steps() {
        let g = rmat(&RmatConfig::graph500(9, 4_000, 47));
        let report = nccl_ring_study(&g, ClusterSpec::dgx_a100(1), 64);
        assert_eq!(report.steps, 0);
        assert_eq!(report.comm_ns, 0);
        assert!(report.comp_ns > 0);
    }

    #[test]
    fn comm_grows_with_dim() {
        let g = rmat(&RmatConfig::graph500(9, 4_000, 53));
        let small = nccl_ring_study(&g, ClusterSpec::dgx_a100(4), 32);
        let big = nccl_ring_study(&g, ClusterSpec::dgx_a100(4), 512);
        assert!(big.comm_ns > small.comm_ns);
    }
}
