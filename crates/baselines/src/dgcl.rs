//! DGCL-like engine (§5.2, Table 4).
//!
//! DGCL preprocesses each input graph with a dedicated
//! communication-minimizing partitioning algorithm (slow — the paper
//! measures tens to hundreds of seconds), then executes every layer as
//! two strictly serialized phases:
//!
//! 1. a graph-aware **allgather** that lands all needed remote neighbor
//!    embeddings in local memory, and
//! 2. a single-GPU aggregation kernel over now-local data (DGL's kernel:
//!    one warp per node, no workload adaptation).
//!
//! Nothing overlaps: the aggregation cannot start until the allgather
//! finishes — the design MGG's intra-kernel pipelining dismantles.
//!
//! Preprocessing here really runs the multilevel partitioner and is
//! measured in *wall-clock* time (both DGCL's and MGG's preprocessing are
//! host-side CPU algorithms, so wall-clock is the honest comparison);
//! execution time is simulated like every other engine.

use std::time::Instant;

use mgg_collective::{ring_allgather, COLLECTIVE_LAUNCH_NS};
use mgg_graph::partition::multilevel::{self, MultilevelConfig};
use mgg_graph::{CsrGraph, NodeId};
use mgg_sim::{Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, NoPaging, WarpOp};

use mgg_core::kernel::aggregation_cycles;

/// Warps per block of the DGL-style kernel.
const WPB: u32 = 8;

/// Wall-clock preprocessing comparison (Table 4, columns 2–3).
#[derive(Debug, Clone, Copy)]
pub struct DgclPreprocessReport {
    /// DGCL's multilevel partitioning, wall-clock nanoseconds.
    pub dgcl_wall_ns: u128,
    /// MGG's split pipeline (Algorithm 1 + locality + neighbor split) on
    /// the same graph, wall-clock nanoseconds.
    pub mgg_wall_ns: u128,
    /// Resulting edge cut of DGCL's partitioning.
    pub dgcl_edge_cut: u64,
}

impl DgclPreprocessReport {
    /// MGG's preprocessing speedup over DGCL's.
    pub fn mgg_speedup(&self) -> f64 {
        self.dgcl_wall_ns as f64 / self.mgg_wall_ns.max(1) as f64
    }
}

/// The DGCL-like execution engine, a timing model.
pub struct DgclEngine {
    /// The simulated platform the engine runs on.
    pub cluster: Cluster,
    /// The input graph, whose degrees the DGL-style kernel reads.
    graph: CsrGraph,
    /// Partition label per node (from the multilevel preprocessing).
    labels: Vec<u16>,
    /// Per GPU: owned nodes in label order.
    owned: Vec<Vec<NodeId>>,
    /// Per GPU: bytes of its rows other GPUs need (allgather contribution).
    contrib: Vec<u64>,
    /// Simulated duration of the most recent allgather phase.
    pub last_allgather_ns: u64,
}

struct DglKernel<'a> {
    graph: &'a CsrGraph,
    owned: &'a [Vec<NodeId>],
    dim: usize,
}

impl DgclEngine {
    /// Runs DGCL's preprocessing (wall-clock measured) and builds the
    /// engine. Also times MGG's preprocessing on the same graph for the
    /// Table-4 comparison.
    pub fn new(graph: &CsrGraph, spec: ClusterSpec) -> (Self, DgclPreprocessReport) {
        let num_gpus = spec.num_gpus;

        // DGCL preprocessing: multilevel communication-minimizing
        // partitioning, wall-clock timed. Like DGCL's dedicated algorithm
        // (and standard partitioner practice), it runs several randomized
        // trials and keeps the lowest cut — quality over preprocessing
        // speed, which is exactly the tradeoff Table 4 exposes.
        let t0 = Instant::now();
        let part = (0..3u64)
            .map(|trial| {
                let mut cfg = MultilevelConfig::new(num_gpus);
                cfg.seed = cfg.seed.wrapping_add(trial);
                cfg.refine_passes = 6;
                multilevel::partition(graph, &cfg)
            })
            .min_by_key(|p| p.edge_cut)
            .expect("at least one trial");
        let dgcl_wall_ns = t0.elapsed().as_nanos();

        // MGG preprocessing on the same graph, for the report.
        let t1 = Instant::now();
        let placement = mgg_core::placement::HybridPlacement::plan(graph, num_gpus);
        let _plans = mgg_core::workload::build_plans(&placement, 16);
        let mgg_wall_ns = t1.elapsed().as_nanos();

        let report = DgclPreprocessReport {
            dgcl_wall_ns,
            mgg_wall_ns,
            dgcl_edge_cut: part.edge_cut,
        };

        // Ownership lists per GPU.
        let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); num_gpus];
        for (v, &l) in part.labels.iter().enumerate() {
            owned[l as usize].push(v as NodeId);
        }

        // Allgather contributions: for each owner, the unique rows any
        // other GPU's aggregation needs (dedup per requester), in bytes
        // per f32 row unit — scaled by dim at simulation time.
        let n = graph.num_nodes();
        let mut unique_rows_needed = vec![0u64; num_gpus];
        let mut seen = vec![u32::MAX; n];
        for (req, nodes) in owned.iter().enumerate() {
            for &v in nodes {
                for &u in graph.neighbors(v) {
                    let owner = part.labels[u as usize] as usize;
                    if owner != req && seen[u as usize] != req as u32 {
                        seen[u as usize] = req as u32;
                        unique_rows_needed[owner] += 1;
                    }
                }
            }
        }

        let engine = DgclEngine {
            cluster: Cluster::new(spec),
            graph: graph.clone(),
            labels: part.labels,
            owned,
            contrib: unique_rows_needed,
            last_allgather_ns: 0,
        };
        (engine, report)
    }

    /// Partition labels produced by preprocessing.
    pub fn labels(&self) -> &[u16] {
        &self.labels
    }

    /// Simulates one aggregation: allgather phase, then the local kernel.
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> u64 {
        self.cluster.reset();
        // Phase 1: graph-aware allgather of needed remote rows.
        let contrib_bytes: Vec<u64> =
            self.contrib.iter().map(|&rows| rows * dim as u64 * 4).collect();
        let gather_ns = ring_allgather(&mut self.cluster, &contrib_bytes);
        self.last_allgather_ns = gather_ns;
        // Phase 2: local aggregation with the DGL-style kernel. Strictly
        // after the allgather (kernel-boundary semantics).
        let kernel = DglKernel { graph: &self.graph, owned: &self.owned, dim };
        let stats = GpuSim::run(&mut self.cluster, &kernel, &mut NoPaging)
            .expect("DGL kernel launch is valid");
        gather_ns + stats.makespan_ns() + COLLECTIVE_LAUNCH_NS
    }
}

impl KernelProgram for DglKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        let warps = self.owned[pe].len() as u32;
        KernelLaunch {
            blocks: warps.div_ceil(WPB).max(1),
            warps_per_block: WPB,
            smem_per_block: 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let i = (block * WPB + warp) as usize;
        let Some(&v) = self.owned[pe].get(i) else {
            return;
        };
        let deg = self.graph.degree(v) as u32;
        if deg == 0 {
            return;
        }
        let row_bytes = (self.dim * 4) as u32;
        // DGL-style node-per-warp kernel: scattered per-neighbor row
        // loads with a dependent accumulate after each — the
        // "offline-optimized single-GPU kernel that cannot adapt towards
        // different GNN inputs" of §5.2. Hub warps serialize their whole
        // neighborhood on device-memory latency.
        let per_neighbor = aggregation_cycles(1, self.dim);
        for _ in 0..deg {
            out.push(WarpOp::GlobalRead { bytes: row_bytes });
            out.push(WarpOp::Compute { cycles: per_neighbor });
        }
        out.push(WarpOp::GlobalWrite { bytes: row_bytes });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 41))
    }

    #[test]
    fn preprocessing_report_populated() {
        let g = graph();
        let (_, report) = DgclEngine::new(&g, ClusterSpec::dgx_a100(4));
        assert!(report.dgcl_wall_ns > 0);
        assert!(report.mgg_wall_ns > 0);
        assert!(
            report.mgg_speedup() > 1.0,
            "MGG preprocessing must be faster (speedup {})",
            report.mgg_speedup()
        );
    }

    #[test]
    fn execution_has_both_phases() {
        let g = graph();
        let (mut e, _) = DgclEngine::new(&g, ClusterSpec::dgx_a100(4));
        let total = e.simulate_aggregation_ns(64);
        assert!(e.last_allgather_ns > 0);
        // The aggregation kernel runs after the allgather and takes time.
        assert!(total > e.last_allgather_ns + COLLECTIVE_LAUNCH_NS);
    }

    #[test]
    fn ownership_covers_all_nodes_once() {
        let g = graph();
        let (e, _) = DgclEngine::new(&g, ClusterSpec::dgx_a100(4));
        let total: usize = e.owned.iter().map(|o| o.len()).sum();
        assert_eq!(total, g.num_nodes());
    }
}
