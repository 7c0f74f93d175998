//! Direct NVSHMEM: the §2.3 strawman (Table 1).
//!
//! Embeddings live in the symmetric heap (uniform node split), but the
//! kernel applies none of MGG's management: one warp per node, and every
//! remote neighbor is fetched with an *on-demand blocking* GET right when
//! the aggregation needs it. The paper shows this is "not a free lunch" —
//! on average slower than the UVM design — because (i) each blocking GET
//! exposes the full fabric latency to its warp, (ii) hub nodes serialize
//! thousands of GETs on a single warp, and (iii) warps flip between
//! computation and communication, defeating the SM scheduler.

use mgg_graph::partition::locality::{self, LocalityPartition};
use mgg_graph::{CsrGraph, NodeSplit};
use mgg_sim::{
    Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, KernelStats, NoPaging, WarpOp,
};

use mgg_core::kernel::aggregation_cycles;

/// Warps per block of the naive kernel.
const WPB: u32 = 8;

/// Warp-side software cycles per on-demand blocking GET (argument
/// marshalling, symmetric-address translation, quiet). MGG's batched
/// `_nbi` path amortizes this; issuing gets one by one on demand pays it
/// per neighbor — part of §2.3's "non-trivial overheads (e.g.,
/// communication warm-up costs)".
const GET_SW_CYCLES: u32 = 280;

/// The direct-NVSHMEM aggregation engine, a timing model.
pub struct DirectNvshmemEngine {
    /// The simulated platform the engine runs on.
    pub cluster: Cluster,
    parts: Vec<LocalityPartition>,
}

struct DirectKernel<'a> {
    parts: &'a [LocalityPartition],
    dim: usize,
}

impl DirectNvshmemEngine {
    /// Builds the engine with a uniform node split.
    pub fn new(graph: &CsrGraph, spec: ClusterSpec) -> Self {
        let split = NodeSplit::uniform(graph.num_nodes(), spec.num_gpus);
        let parts = locality::build(graph, &split);
        DirectNvshmemEngine { cluster: Cluster::new(spec), parts }
    }

    /// Simulates one aggregation pass at dimension `dim`.
    pub fn simulate_aggregation(&mut self, dim: usize) -> KernelStats {
        self.cluster.reset();
        let kernel = DirectKernel { parts: &self.parts, dim };
        GpuSim::run(&mut self.cluster, &kernel, &mut NoPaging)
            .expect("direct kernel launch is valid")
    }

    /// Simulated end-to-end duration (kernel + launch overhead).
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> u64 {
        let launch = self.cluster.spec.kernel_launch_ns;
        self.simulate_aggregation(dim).makespan_ns() + launch
    }
}

impl KernelProgram for DirectKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        let warps = self.parts[pe].local.num_rows() as u32;
        KernelLaunch {
            blocks: warps.div_ceil(WPB).max(1),
            warps_per_block: WPB,
            smem_per_block: 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let r = (block * WPB + warp) as usize;
        let part = &self.parts[pe];
        if r >= part.local.num_rows() {
            return;
        }
        let row_bytes = (self.dim * 4) as u32;
        let local = part.local.row(r as u32);
        let remote = part.remote.row(r as u32);
        if local.is_empty() && remote.is_empty() {
            return;
        }
        // Local neighbors: a single coalesced sweep plus the arithmetic.
        if !local.is_empty() {
            out.push(WarpOp::GlobalRead { bytes: local.len() as u32 * row_bytes });
            out.push(WarpOp::Compute {
                cycles: aggregation_cycles(local.len() as u32, self.dim),
            });
        }
        // Remote neighbors: on-demand blocking GET, then aggregate that
        // one row, then the next — the §2.3 "frequently switching between
        // local computation and remote access" pattern.
        for rr in remote {
            out.push(WarpOp::Compute { cycles: GET_SW_CYCLES });
            out.push(WarpOp::RemoteGet { peer: rr.owner, bytes: row_bytes, nbi: false });
            out.push(WarpOp::Compute { cycles: aggregation_cycles(1, self.dim) });
        }
        out.push(WarpOp::GlobalWrite { bytes: row_bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 37))
    }

    #[test]
    fn runs_and_times() {
        let g = graph();
        let mut e = DirectNvshmemEngine::new(&g, ClusterSpec::dgx_a100(4));
        let ns = e.simulate_aggregation_ns(64);
        assert!(ns > 0);
        let stats = e.simulate_aggregation(64);
        assert!(stats.traffic.remote_bytes() > 0);
    }

    #[test]
    fn blocking_gets_hurt_on_skewed_graphs() {
        // The hub's warp serializes its remote gets, so the direct design
        // must be far slower than MGG on the same skewed graph.
        use mgg_core::{MggConfig, MggEngine};
        use mgg_gnn::reference::AggregateMode;
        let g = mgg_graph::generators::regular::star(3_000);
        let dim = 128;
        let mut direct = DirectNvshmemEngine::new(&g, ClusterSpec::dgx_a100(4));
        let t_direct = direct.simulate_aggregation_ns(dim);
        let mut mgg = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let t_mgg = mgg.simulate_aggregation_ns(dim).unwrap();
        assert!(
            t_direct > 3 * t_mgg,
            "direct {t_direct} vs mgg {t_mgg}: expected a big gap on the star"
        );
    }
}
