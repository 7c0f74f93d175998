//! The UVM-based multi-GPU GNN design (§2.2, §5.1).
//!
//! Graph and embeddings live in one unified virtual address space; GPUs
//! touch embedding rows by virtual address and the driver migrates a
//! 64 KiB region (four 16 KiB pages) from the page's home GPU on fault.
//! Following the paper's baseline construction, the kernel keeps MGG's
//! neighbor partitioning (a kernel-quality optimization) but has *no*
//! hybrid placement and no locality split — every neighbor access goes
//! through the paging path, local or not.
//!
//! Each measured iteration starts cold (residency reset): in end-to-end
//! GNN execution the dense phases and other layers' working sets evict the
//! aggregation pages between kernels, which is exactly the page-thrashing
//! regime the paper profiles in Figure 3.

use mgg_gnn::models::Aggregator;
use mgg_gnn::reference::{aggregate, AggregateMode};
use mgg_gnn::Matrix;
use mgg_graph::partition::neighbor::{partition_rows, NeighborPartition, PartitionKind};
use mgg_graph::{CsrGraph, NodeSplit};
use mgg_sim::{Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, KernelStats, WarpOp};
use mgg_telemetry::{PipelineMetrics, Telemetry};
use mgg_uvm::{UvmSpace, UvmStats};

use mgg_core::kernel::aggregation_cycles;

/// Fixed neighbor-partition size for the UVM kernel.
const UVM_PS: usize = 16;
/// Fixed warps per block for the UVM kernel.
const UVM_WPB: u32 = 4;

/// The immutable, shareable part of the engine (what the kernel reads).
struct UvmWorkload {
    graph: CsrGraph,
    /// Per GPU: neighbor partitions over the whole neighbor lists of its
    /// owned nodes (no locality split).
    parts: Vec<Vec<NeighborPartition>>,
    /// Per GPU: flat-adjacency base offset of the owned node range.
    row_base: Vec<u64>,
    page_bytes: u64,
}

/// The UVM-based aggregation engine.
pub struct UvmGnnEngine {
    /// The simulated platform the engine runs on.
    pub cluster: Cluster,
    workload: UvmWorkload,
    uvm: UvmSpace,
    mode: AggregateMode,
    /// UVM fault statistics of the most recent simulated kernel.
    pub last_uvm_stats: Option<UvmStats>,
    telemetry: Telemetry,
}

struct UvmKernel<'a> {
    workload: &'a UvmWorkload,
    dim: usize,
}

impl UvmGnnEngine {
    /// Builds the engine over the GPUs of `spec` with a uniform node
    /// split (the baseline has no edge-balancing workload management).
    pub fn new(graph: &CsrGraph, spec: ClusterSpec, mode: AggregateMode) -> Self {
        let num_gpus = spec.num_gpus;
        let split = NodeSplit::uniform(graph.num_nodes(), num_gpus);
        let mut parts = Vec::with_capacity(num_gpus);
        let mut row_base = Vec::with_capacity(num_gpus);
        for pe in 0..num_gpus {
            let range = split.range(pe);
            let lo = range.start as usize;
            let hi = range.end as usize;
            // Row pointers of the owned slice, rebased to the slice start.
            let base = graph.row_ptr()[lo];
            let local_ptr: Vec<u64> =
                graph.row_ptr()[lo..=hi].iter().map(|&p| p - base).collect();
            parts.push(partition_rows(&local_ptr, UVM_PS, PartitionKind::Local));
            row_base.push(base);
        }
        // Residency capacity: the whole table fits (modern 40 GB GPUs);
        // the cost driver is cold faulting + fabric migration.
        let uvm = UvmSpace::new(num_gpus, 1 << 20);
        let page_bytes = uvm.page_bytes();
        UvmGnnEngine {
            cluster: Cluster::new(spec),
            workload: UvmWorkload { graph: graph.clone(), parts, row_base, page_bytes },
            uvm,
            mode,
            last_uvm_stats: None,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Installs a telemetry handle; subsequent runs record `launch` and
    /// `aggregate` phase spans, the warp trace, and derived pipeline
    /// metrics into it.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Simulates one cold aggregation pass at dimension `dim`. With
    /// telemetry attached the warp trace is captured and recorded with the
    /// derived pipeline metrics; tracing never changes the statistics.
    pub fn simulate_aggregation(&mut self, dim: usize) -> KernelStats {
        let tel = self.telemetry.clone();
        let want_trace = tel.is_enabled();
        let (stats, trace) = {
            let _launch = tel.span("launch");
            self.cluster.reset();
            self.uvm.reset();
            let kernel = UvmKernel { workload: &self.workload, dim };
            drop(_launch);
            let _agg = tel.span("aggregate");
            if want_trace {
                let (stats, events) =
                    GpuSim::run_traced(&mut self.cluster, &kernel, &mut self.uvm)
                        .expect("UVM kernel launch is valid");
                (stats, Some(events))
            } else {
                let stats = GpuSim::run(&mut self.cluster, &kernel, &mut self.uvm)
                    .expect("UVM kernel launch is valid");
                (stats, None)
            }
        };
        if tel.is_enabled() {
            let events = trace.as_deref().unwrap_or(&[]);
            tel.counter_add("engine.kernels", 1);
            tel.add_trace_events(events);
            tel.set_pipeline(PipelineMetrics::derive(&stats, events));
        }
        self.last_uvm_stats = Some(self.uvm.stats().clone());
        stats
    }

    /// Simulated end-to-end duration (kernel + launch overhead).
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> u64 {
        let launch = self.cluster.spec.kernel_launch_ns;
        self.simulate_aggregation(dim).makespan_ns() + launch
    }
}

impl UvmWorkload {
    /// Unified-space page holding embedding row `v` at dimension `dim`.
    fn page_of_row(&self, v: u64, dim: usize) -> u64 {
        v * (dim as u64) * 4 / self.page_bytes
    }
}

impl KernelProgram for UvmKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        let warps = self.workload.parts[pe].len() as u32;
        KernelLaunch {
            blocks: warps.div_ceil(UVM_WPB),
            warps_per_block: UVM_WPB,
            smem_per_block: (UVM_PS as u32) * 4 + 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let w = (block * UVM_WPB + warp) as usize;
        let Some(part) = self.workload.parts[pe].get(w) else {
            return;
        };
        let row_bytes = (self.dim * 4) as u32;
        let base = self.workload.row_base[pe];
        let start = (base + part.start) as usize;
        let end = start + part.len as usize;
        for &u in &self.workload.graph.col_idx()[start..end] {
            let page = self.workload.page_of_row(u as u64, self.dim);
            out.push(WarpOp::PageAccess { page, bytes: row_bytes });
        }
        out.push(WarpOp::Compute { cycles: aggregation_cycles(part.len, self.dim) });
        out.push(WarpOp::GlobalWrite { bytes: row_bytes });
    }
}

impl Aggregator for UvmGnnEngine {
    fn aggregate(&mut self, x: &Matrix) -> (Matrix, u64) {
        let ns = self.simulate_aggregation_ns(x.cols());
        // Functionally, UVM is a single address space: the reference
        // aggregation is exactly what the kernel computes.
        (aggregate(&self.workload.graph, x, self.mode), ns)
    }

    fn aggregate_only(&mut self, x: &Matrix) -> Matrix {
        aggregate(&self.workload.graph, x, self.mode)
    }

    fn mode(&self) -> AggregateMode {
        self.mode
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 31))
    }

    #[test]
    fn produces_time_and_fault_stats() {
        let g = graph();
        let mut e = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(2), AggregateMode::Sum);
        let ns = e.simulate_aggregation_ns(64);
        assert!(ns > 0);
        let stats = e.last_uvm_stats.as_ref().unwrap();
        assert!(stats.total_faults() > 0, "cold run must fault");
    }

    #[test]
    fn faults_grow_with_gpu_count() {
        // Figure 3's shape: every added GPU cold-faults its own copy of
        // the shared pages.
        let g = graph();
        let faults = |gpus| {
            let mut e = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(gpus), AggregateMode::Sum);
            e.simulate_aggregation(64);
            e.last_uvm_stats.as_ref().unwrap().total_faults()
        };
        let f2 = faults(2);
        let f8 = faults(8);
        assert!(f8 > f2, "f8={f8} f2={f2}");
    }

    #[test]
    fn fault_duration_grows_with_gpu_count() {
        let g = graph();
        let duration = |gpus| {
            let mut e = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(gpus), AggregateMode::Sum);
            e.simulate_aggregation(64);
            e.last_uvm_stats.as_ref().unwrap().total_fault_duration_ns()
        };
        assert!(duration(8) > duration(2));
    }

    #[test]
    fn traced_run_matches_untraced_and_reports_blocking_overlap() {
        let g = graph();
        let mut e = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(2), AggregateMode::Sum);
        let plain = e.simulate_aggregation(32);
        let tel = Telemetry::enabled();
        e.set_telemetry(tel.clone());
        let with_tel = e.simulate_aggregation(32);
        assert_eq!(plain, with_tel, "tracing must not change stats");
        assert!(!tel.trace_events().is_empty());
        let snap = tel.snapshot();
        let pipeline = snap.pipeline.expect("pipeline metrics derived");
        // UVM page faults block the warp, so nothing hides the migrations.
        assert_eq!(pipeline.overlap_efficiency, 0.0);
        assert!(pipeline.comm_ns > 0, "paging traffic must be visible");
        assert!(snap.spans.iter().any(|s| s.name == "launch"));
        assert!(snap.spans.iter().any(|s| s.name == "aggregate"));
    }

    #[test]
    fn repeated_measurements_are_stable() {
        let g = graph();
        let mut e = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(2), AggregateMode::Sum);
        let a = e.simulate_aggregation_ns(32);
        let b = e.simulate_aggregation_ns(32);
        assert_eq!(a, b, "reset must make runs independent");
    }
}
