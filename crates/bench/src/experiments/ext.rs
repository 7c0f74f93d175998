//! §6 extension studies (the paper's Discussion, beyond its evaluation).
//!
//! * [`run_reorder`] — **locality-driven partitioning** composed with MGG:
//!   BFS locality reordering (the Rabbit-order stand-in) relabels a
//!   community-structured graph so that MGG's contiguous node split
//!   captures the communities, cutting the remote fraction and the
//!   aggregation time. Community graphs (SBM with scrambled ids) are used
//!   because that is the structure locality reordering exists to exploit;
//!   R-MAT stand-ins have no communities to recover.
//! * [`run_replicated`] — **workload-driven partitioning** under MGG's
//!   substrates: edge-sharded execution with replicated inputs/outputs
//!   combined by `nvshmem_float_sum_reduce`. Exposes the real tradeoff:
//!   replication can win wall-clock time on small graphs (its collective
//!   moves ~2·N·D bytes vs MGG's per-edge cut traffic) but needs the
//!   *whole* embedding matrix on every GPU — forfeiting the memory
//!   scaling that motivates multi-GPU GNNs in the first place (§2.2).

use mgg_core::{MggConfig, MggEngine, ReplicatedEngine};
use mgg_gnn::reference::AggregateMode;
use mgg_graph::generators::random::{sbm, SbmConfig};
use mgg_graph::partition::reorder;
use mgg_graph::{CsrGraph, NodeId};
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::{geomean, ExperimentReport};

/// Remote-traffic change from reordering one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ReorderRow {
    /// Graph.
    pub graph: String,
    /// Remote frac before.
    pub remote_frac_before: f64,
    /// Remote frac after.
    pub remote_frac_after: f64,
    /// Ms before.
    pub ms_before: f64,
    /// Ms after.
    pub ms_after: f64,
    /// Baseline latency over this configuration’s.
    pub speedup: f64,
}

/// The node-reordering locality experiment.
#[derive(Debug, Clone, Serialize)]
pub struct ReorderReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<ReorderRow>,
    /// Geomean speedup.
    pub geomean_speedup: f64,
}

/// Builds a community graph whose node ids are deterministically
/// scrambled (round-robin over communities), destroying id locality.
fn scrambled_community_graph(
    communities: usize,
    size: usize,
    deg_in: f64,
    deg_out: f64,
    seed: u64,
) -> CsrGraph {
    let out = sbm(&SbmConfig {
        block_sizes: vec![size; communities],
        avg_degree_in: deg_in,
        avg_degree_out: deg_out,
        seed,
    });
    let n = out.graph.num_nodes();
    // perm[v] = new id: interleave communities round-robin.
    let mut perm = vec![0 as NodeId; n];
    let mut counters = vec![0u32; communities];
    for (v, &c) in out.labels.iter().enumerate() {
        perm[v] = counters[c as usize] * communities as u32 + c;
        counters[c as usize] += 1;
    }
    out.graph.relabel(&perm)
}

/// MGG with vs without BFS locality reordering on community graphs.
pub fn run_reorder(scale: f64, gpus: usize) -> ReorderReport {
    let cfg = MggConfig::default_fixed();
    let dim = 128;
    let size = |base: usize| ((base as f64 * scale) as usize).max(64);
    let tasks = [
        ("16 communities, dense", 16usize, size(512), 40.0, 4.0, 81u64),
        ("64 communities, sparse", 64, size(128), 16.0, 2.0, 83),
        ("8 communities, huge", 8, size(1024), 24.0, 6.0, 85),
    ];
    let rows: Vec<ReorderRow> = tasks
        .into_iter()
        .map(|(name, communities, sz, din, dout, seed)| {
            let g = scrambled_community_graph(communities, sz, din, dout, seed);
            let spec = ClusterSpec::dgx_a100(gpus);
            let mut plain = MggEngine::new(&g, spec.clone(), cfg, AggregateMode::Sum);
            let t_plain = plain.simulate_aggregation_ns(dim).expect("valid launch");
            let (relabeled, _) = reorder::reorder(&g);
            let mut better = MggEngine::new(&relabeled, spec, cfg, AggregateMode::Sum);
            let t_better = better.simulate_aggregation_ns(dim).expect("valid launch");
            ReorderRow {
                graph: name.to_string(),
                remote_frac_before: plain.placement.remote_fraction(),
                remote_frac_after: better.placement.remote_fraction(),
                ms_before: t_plain as f64 / 1e6,
                ms_after: t_better as f64 / 1e6,
                speedup: t_plain as f64 / t_better.max(1) as f64,
            }
        })
        .collect();
    let geomean_speedup = geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    ReorderReport { gpus, rows, geomean_speedup }
}

impl ExperimentReport for ReorderReport {
    fn id(&self) -> &'static str {
        "ext_reorder"
    }

    fn print(&self) {
        println!(
            "Extension (§6): locality reordering composed with MGG ({} GPUs, community graphs)",
            self.gpus
        );
        println!(
            "{:<24} {:>12} {:>8} {:>11} {:>10} {:>9}",
            "graph", "remote frac", "after", "before(ms)", "after(ms)", "speedup"
        );
        for r in &self.rows {
            println!(
                "{:<24} {:>11.1}% {:>7.1}% {:>11.3} {:>10.3} {:>8.2}x",
                r.graph,
                100.0 * r.remote_frac_before,
                100.0 * r.remote_frac_after,
                r.ms_before,
                r.ms_after,
                r.speedup
            );
        }
        println!(
            "geomean speedup from reordering: {:.2}x \
             (MGG accommodates reduced-communication partitionings, §6)",
            self.geomean_speedup
        );
    }
}

/// One dataset’s replicated-engine cell.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicatedRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Embedding dimension.
    pub dim: usize,
    /// Mgg ms.
    pub mgg_ms: f64,
    /// Replicated ms.
    pub replicated_ms: f64,
    /// Replicated reduce ms.
    pub replicated_reduce_ms: f64,
    /// `replicated / mgg` — above 1 means MGG wins on time.
    pub mgg_time_advantage: f64,
    /// Embedding bytes each GPU must hold: MGG partitions (N/n · D · 4).
    pub mgg_bytes_per_gpu: u64,
    /// Replicated execution holds the full matrix per GPU (N · D · 4).
    pub replicated_bytes_per_gpu: u64,
}

/// The replication-vs-partitioning memory/time trade.
#[derive(Debug, Clone, Serialize)]
pub struct ReplicatedReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<ReplicatedRow>,
}

/// MGG's node-split pipeline vs edge-sharded replicated execution, at a
/// small and the native aggregation dimension.
pub fn run_replicated(scale: f64, gpus: usize) -> ReplicatedReport {
    let cfg = MggConfig::default_fixed();
    let mut rows = Vec::new();
    for d in datasets(scale) {
        for dim in [16usize, d.spec.dim.max(64)] {
            let spec = ClusterSpec::dgx_a100(gpus);
            let n = d.graph.num_nodes() as u64;
            let mut mgg = MggEngine::new(&d.graph, spec.clone(), cfg, AggregateMode::Sum);
            let t_mgg = mgg.simulate_aggregation_ns(dim).expect("valid launch");
            let mut rep = ReplicatedEngine::new(&d.graph, spec, cfg.ps);
            let t_rep = rep.simulate_aggregation_ns(dim);
            rows.push(ReplicatedRow {
                dataset: d.spec.name,
                dim,
                mgg_ms: t_mgg as f64 / 1e6,
                replicated_ms: t_rep as f64 / 1e6,
                replicated_reduce_ms: rep.last_reduce_ns as f64 / 1e6,
                mgg_time_advantage: t_rep as f64 / t_mgg.max(1) as f64,
                mgg_bytes_per_gpu: n.div_ceil(gpus as u64) * dim as u64 * 4,
                replicated_bytes_per_gpu: n * dim as u64 * 4,
            });
        }
    }
    ReplicatedReport { gpus, rows }
}

impl ExperimentReport for ReplicatedReport {
    fn id(&self) -> &'static str {
        "ext_replicated"
    }

    fn print(&self) {
        println!(
            "Extension (§6): node-split MGG vs edge-sharded replicated execution ({} GPUs)",
            self.gpus
        );
        println!(
            "{:<8} {:>5} {:>9} {:>12} {:>11} | {:>12} {:>12}",
            "dataset", "dim", "MGG (ms)", "repl. (ms)", "(reduce)", "MGG MiB/GPU", "repl MiB/GPU"
        );
        for r in &self.rows {
            println!(
                "{:<8} {:>5} {:>9.3} {:>12.3} {:>11.3} | {:>12.2} {:>12.2}",
                r.dataset,
                r.dim,
                r.mgg_ms,
                r.replicated_ms,
                r.replicated_reduce_ms,
                r.mgg_bytes_per_gpu as f64 / (1 << 20) as f64,
                r.replicated_bytes_per_gpu as f64 / (1 << 20) as f64,
            );
        }
        println!(
            "(replication can win wall-clock on small graphs but holds the whole \
             matrix on every GPU — {}x the memory — forfeiting the out-of-single-GPU \
             scaling that motivates multi-GPU GNNs, §2.2)",
            self.gpus
        );
    }
}

/// Makespan on one platform preset.
#[derive(Debug, Clone, Serialize)]
pub struct FabricRow {
    /// Fabric.
    pub fabric: &'static str,
    /// Link gbps.
    pub link_gbps: f64,
    /// Mgg ms.
    pub mgg_ms: f64,
    /// Uvm ms.
    pub uvm_ms: f64,
    /// Baseline latency over this configuration’s.
    pub speedup: f64,
}

/// The fabric-topology sensitivity sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FabricReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Dataset name.
    pub dataset: &'static str,
    /// Per-cell sweep rows.
    pub rows: Vec<FabricRow>,
}

/// Fabric sensitivity: MGG vs UVM on NVSwitch, a half-bandwidth fabric,
/// and a PCIe-only box (§2.4: prior systems targeted PCIe, where
/// fine-grained remote access is hopeless; MGG's design leans on the
/// "recent software/hardware advancement in communication").
pub fn run_fabric(scale: f64, gpus: usize) -> FabricReport {
    use mgg_baselines::UvmGnnEngine;
    use mgg_graph::datasets::DatasetSpec;
    use mgg_sim::LinkSpec;

    let d = DatasetSpec::rdd().build(scale);
    let dim = 16; // the GCN aggregation width
    let mut half = ClusterSpec::dgx_a100(gpus);
    half.link = LinkSpec {
        bw_gbps: half.link.bw_gbps / 2.0,
        latency_ns: half.link.latency_ns * 2,
        request_overhead_ns: half.link.request_overhead_ns,
    };
    let fabrics: Vec<(&'static str, ClusterSpec)> = vec![
        ("NVSwitch (DGX-A100)", ClusterSpec::dgx_a100(gpus)),
        ("half-bandwidth fabric", half),
        ("PCIe-only box", ClusterSpec::pcie_box(gpus)),
    ];
    let rows = fabrics
        .into_iter()
        .map(|(name, spec)| {
            let link_gbps = spec.link.bw_gbps;
            let mut mgg =
                MggEngine::new(&d.graph, spec.clone(), MggConfig::default_fixed(), AggregateMode::Sum);
            let t_mgg = mgg.simulate_aggregation_ns(dim).expect("valid launch");
            let mut uvm = UvmGnnEngine::new(&d.graph, spec, AggregateMode::Sum);
            let t_uvm = uvm.simulate_aggregation_ns(dim);
            FabricRow {
                fabric: name,
                link_gbps,
                mgg_ms: t_mgg as f64 / 1e6,
                uvm_ms: t_uvm as f64 / 1e6,
                speedup: t_uvm as f64 / t_mgg.max(1) as f64,
            }
        })
        .collect();
    FabricReport { gpus, dataset: "RDD", rows }
}

impl ExperimentReport for FabricReport {
    fn id(&self) -> &'static str {
        "ext_fabric"
    }

    fn print(&self) {
        println!(
            "Extension (§2.4): fabric sensitivity of MGG vs UVM ({} stand-in, {} GPUs, GCN width)",
            self.dataset, self.gpus
        );
        println!(
            "{:<22} {:>10} {:>10} {:>10} {:>9}",
            "fabric", "GB/s/dir", "MGG (ms)", "UVM (ms)", "speedup"
        );
        for r in &self.rows {
            println!(
                "{:<22} {:>10.0} {:>10.3} {:>10.3} {:>8.2}x",
                r.fabric, r.link_gbps, r.mgg_ms, r.uvm_ms, r.speedup
            );
        }
        println!("(fine-grained pipelining needs a fast fabric; PCIe shrinks the gap)");
    }
}

/// One engine’s epoch time and accuracy.
#[derive(Debug, Clone, Serialize)]
pub struct TrainRow {
    /// Engine label.
    pub engine: &'static str,
    /// Epoch ms.
    pub epoch_ms: f64,
    /// Total ms.
    pub total_ms: f64,
    /// Test accuracy.
    pub test_accuracy: f64,
}

/// End-to-end training comparison across engines.
#[derive(Debug, Clone, Serialize)]
pub struct TrainReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<TrainRow>,
}

/// End-to-end GCN *training* on the distributed engines: identical
/// accuracy (same math), different simulated epoch times — the §5.3
/// "end-to-end GNN training consists of more than 100 iterations" story.
pub fn run_train(scale: f64, gpus: usize) -> TrainReport {
    use mgg_baselines::UvmGnnEngine;
    use mgg_gnn::features::{label_features, split_masks};
    use mgg_gnn::models::DenseCostModel;
    use mgg_gnn::train::{train_gcn_on_engine, TrainConfig};
    use mgg_graph::generators::random::{sbm, SbmConfig};

    let epochs = 100;
    let size = ((160.0 * scale) as usize).max(60);
    let out = sbm(&SbmConfig {
        block_sizes: vec![size; 10],
        avg_degree_in: 14.0,
        avg_degree_out: 5.0,
        seed: 91,
    });
    let x = label_features(&out.labels, 10, 32, 0.15, 92);
    let (tr, va, te) = split_masks(out.graph.num_nodes(), 0.3, 0.2, 93);
    let cfg = TrainConfig::paper(epochs, 94);
    let cost = DenseCostModel::a100(gpus);
    let spec = ClusterSpec::dgx_a100(gpus);

    // Data-parallel dense layers: the weight gradients (W1: dim x 16,
    // W2: 16 x classes) all-reduce across GPUs once per epoch.
    let grad_bytes = (x.cols() * 16 + 16 * 10) as u64 * 4;
    let allreduce_ns = {
        let mut c = mgg_sim::Cluster::new(spec.clone());
        mgg_collective::ring_allreduce(&mut c, grad_bytes)
    };

    let mut rows = Vec::new();
    {
        let mut engine = MggEngine::new(
            &out.graph,
            spec.clone(),
            MggConfig::default_fixed(),
            AggregateMode::GcnNorm,
        );
        let r = train_gcn_on_engine(
            &mut engine, &x, &out.labels, 10, &tr, &va, &te, &cfg, &cost,
        );
        let epoch_ns = r.epoch_ns + allreduce_ns;
        rows.push(TrainRow {
            engine: "MGG",
            epoch_ms: epoch_ns as f64 / 1e6,
            total_ms: (epoch_ns * epochs as u64) as f64 / 1e6,
            test_accuracy: r.result.test_accuracy,
        });
    }
    {
        let mut engine = UvmGnnEngine::new(&out.graph, spec, AggregateMode::GcnNorm);
        let r = train_gcn_on_engine(
            &mut engine, &x, &out.labels, 10, &tr, &va, &te, &cfg, &cost,
        );
        let epoch_ns = r.epoch_ns + allreduce_ns;
        rows.push(TrainRow {
            engine: "UVM",
            epoch_ms: epoch_ns as f64 / 1e6,
            total_ms: (epoch_ns * epochs as u64) as f64 / 1e6,
            test_accuracy: r.result.test_accuracy,
        });
    }
    TrainReport { gpus, epochs, rows }
}

impl ExperimentReport for TrainReport {
    fn id(&self) -> &'static str {
        "ext_train"
    }

    fn print(&self) {
        println!(
            "Extension (§5.3): end-to-end GCN training on the engines ({} GPUs, {} epochs)",
            self.gpus, self.epochs
        );
        println!(
            "{:<8} {:>12} {:>12} {:>10}",
            "engine", "epoch (ms)", "total (ms)", "test acc"
        );
        for r in &self.rows {
            println!(
                "{:<8} {:>12.3} {:>12.3} {:>10.3}",
                r.engine, r.epoch_ms, r.total_ms, r.test_accuracy
            );
        }
        println!("(same math, same accuracy; only the aggregation engine differs)");
    }
}

/// Reference-CPU vs simulated-GPU latency on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct CpuRow {
    /// Platform preset label.
    pub platform: &'static str,
    /// Async ms.
    pub async_ms: f64,
    /// Sync ms.
    pub sync_ms: f64,
    /// Pipelining gain.
    pub pipelining_gain: f64,
    /// Tuned.
    pub tuned: String,
    /// Tuned ms.
    pub tuned_ms: f64,
}

/// The host-CPU (reference) comparison across datasets.
#[derive(Debug, Clone, Serialize)]
pub struct CpuReport {
    /// Number of nodes.
    pub nodes: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<CpuRow>,
}

/// §6 hardware generality: the same pipelined design on a GPU fabric and
/// on a multi-CPU OpenSHMEM cluster. The pattern transfers (async beats
/// sync on both) and the tuner lands on different knobs per platform.
pub fn run_cpu(scale: f64, nodes: usize) -> CpuReport {
    use mgg_core::kernel::KernelVariant;
    use mgg_core::{AnalyticalModel, Tuner};
    use mgg_graph::datasets::DatasetSpec;

    let d = DatasetSpec::orkt().build(scale);
    let dim = d.spec.dim;
    let platforms: Vec<(&'static str, ClusterSpec)> = vec![
        ("DGX-A100 (GPUs)", ClusterSpec::dgx_a100(nodes)),
        ("OpenSHMEM CPU cluster", ClusterSpec::cpu_cluster(nodes)),
    ];
    let rows = platforms
        .into_iter()
        .map(|(name, spec)| {
            let time = |variant: KernelVariant| {
                let mut e = MggEngine::new(
                    &d.graph,
                    spec.clone(),
                    MggConfig::default_fixed(),
                    AggregateMode::Sum,
                );
                e.variant = variant;
                e.simulate_aggregation_ns(dim).expect("valid launch")
            };
            let t_async = time(KernelVariant::AsyncPipelined);
            let t_sync = time(KernelVariant::SyncRemote);
            // Retune for the platform.
            let mut engine = MggEngine::new(
                &d.graph,
                spec.clone(),
                MggConfig::initial(),
                AggregateMode::Sum,
            );
            let model = AnalyticalModel::new(spec.gpu.clone(), dim);
            let result = {
                let cell = std::cell::RefCell::new(&mut engine);
                Tuner::new(|cfg: &MggConfig| {
                    let mut e = cell.borrow_mut();
                    e.set_config(*cfg).expect("search configs are valid");
                    e.simulate_aggregation_ns(dim).unwrap_or(u64::MAX)
                })
                .with_feasibility(move |cfg| model.feasible(cfg))
                .run()
            };
            CpuRow {
                platform: name,
                async_ms: t_async as f64 / 1e6,
                sync_ms: t_sync as f64 / 1e6,
                pipelining_gain: t_sync as f64 / t_async.max(1) as f64,
                tuned: result.best.to_string(),
                tuned_ms: result.best_latency_ns as f64 / 1e6,
            }
        })
        .collect();
    CpuReport { nodes, rows }
}

impl ExperimentReport for CpuReport {
    fn id(&self) -> &'static str {
        "ext_cpu"
    }

    fn print(&self) {
        println!(
            "Extension (§6): hardware generality — the pipeline on GPUs vs a CPU cluster ({} nodes)",
            self.nodes
        );
        println!(
            "{:<24} {:>10} {:>10} {:>9} {:>20} {:>10}",
            "platform", "async(ms)", "sync(ms)", "gain", "retuned config", "tuned(ms)"
        );
        for r in &self.rows {
            println!(
                "{:<24} {:>10.3} {:>10.3} {:>8.2}x {:>20} {:>10.3}",
                r.platform, r.async_ms, r.sync_ms, r.pipelining_gain, r.tuned, r.tuned_ms
            );
        }
        println!("(the overlap pattern transfers; the knobs do not — exactly §6's point)");
    }
}

/// PUT-based vs GET-based makespan on one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct PutGetRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Get ms.
    pub get_ms: f64,
    /// Put ms.
    pub put_ms: f64,
    /// Put barrier ms.
    pub put_barrier_ms: f64,
    /// Get advantage.
    pub get_advantage: f64,
}

/// The PUT-vs-GET comparison across datasets.
#[derive(Debug, Clone, Serialize)]
pub struct PutGetReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<PutGetRow>,
    /// Geomean advantage.
    pub geomean_advantage: f64,
}

/// §3.3's design-choice ablation: the GET pipeline vs the rejected
/// PUT-based variant (staging + barrier + receiver-side polling).
pub fn run_putget(scale: f64, gpus: usize) -> PutGetReport {
    use mgg_baselines::PutBasedEngine;
    let dim = 64;
    let rows: Vec<PutGetRow> = datasets(scale)
        .into_iter()
        .map(|d| {
            let spec = ClusterSpec::dgx_a100(gpus);
            let mut get = MggEngine::new(
                &d.graph,
                spec.clone(),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            let t_get = get.simulate_aggregation_ns(dim).expect("valid launch");
            let mut put = PutBasedEngine::new(&d.graph, spec);
            let t_put = put.simulate_aggregation_ns(dim);
            PutGetRow {
                dataset: d.spec.name,
                get_ms: t_get as f64 / 1e6,
                put_ms: t_put as f64 / 1e6,
                put_barrier_ms: put.last_barrier_ns as f64 / 1e6,
                get_advantage: t_put as f64 / t_get.max(1) as f64,
            }
        })
        .collect();
    let geomean_advantage =
        geomean(&rows.iter().map(|r| r.get_advantage).collect::<Vec<_>>());
    PutGetReport { gpus, rows, geomean_advantage }
}

impl ExperimentReport for PutGetReport {
    fn id(&self) -> &'static str {
        "ext_putget"
    }

    fn print(&self) {
        println!(
            "Extension (§3.3): GET pipeline vs the rejected PUT design ({} GPUs, dim 64)",
            self.gpus
        );
        println!(
            "{:<8} {:>10} {:>10} {:>14} {:>10}",
            "dataset", "GET (ms)", "PUT (ms)", "(barrier ms)", "GET adv."
        );
        for r in &self.rows {
            println!(
                "{:<8} {:>10.3} {:>10.3} {:>14.3} {:>9.2}x",
                r.dataset, r.get_ms, r.put_ms, r.put_barrier_ms, r.get_advantage
            );
        }
        println!(
            "geomean GET advantage: {:.2}x (the paper picks GET to avoid the PUT \
             variant's receiver-side synchronization)",
            self.geomean_advantage
        );
    }
}

/// Makespan at one embedding dimension.
#[derive(Debug, Clone, Serialize)]
pub struct DimRow {
    /// Embedding dimension.
    pub dim: usize,
    /// Mgg ms.
    pub mgg_ms: f64,
    /// Uvm ms.
    pub uvm_ms: f64,
    /// Baseline latency over this configuration’s.
    pub speedup: f64,
    /// Fabric bytes MGG moved at this dim.
    pub mgg_fabric_mib: f64,
}

/// The embedding-dimension sweep: one row per hidden width.
#[derive(Debug, Clone, Serialize)]
pub struct DimReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Dataset name.
    pub dataset: &'static str,
    /// Per-cell sweep rows.
    pub rows: Vec<DimRow>,
}

/// Dimension sensitivity: MGG vs UVM as the aggregation width grows from
/// the GCN hidden size to Reddit's raw features — the regime shift from
/// request-overhead-bound to wire-bandwidth-bound.
pub fn run_dims(scale: f64, gpus: usize) -> DimReport {
    use mgg_baselines::UvmGnnEngine;
    use mgg_graph::datasets::DatasetSpec;
    let d = DatasetSpec::rdd().build(scale);
    let spec = ClusterSpec::dgx_a100(gpus);
    let rows = [16usize, 32, 64, 128, 256, 602]
        .into_iter()
        .map(|dim| {
            let mut mgg =
                MggEngine::new(&d.graph, spec.clone(), MggConfig::default_fixed(), AggregateMode::Sum);
            let stats = mgg.simulate_aggregation(dim).expect("valid launch");
            let t_mgg = stats.makespan_ns() + spec.kernel_launch_ns;
            let fabric = stats.traffic.remote_bytes() as f64 / (1 << 20) as f64;
            let mut uvm = UvmGnnEngine::new(&d.graph, spec.clone(), AggregateMode::Sum);
            let t_uvm = uvm.simulate_aggregation_ns(dim);
            DimRow {
                dim,
                mgg_ms: t_mgg as f64 / 1e6,
                uvm_ms: t_uvm as f64 / 1e6,
                speedup: t_uvm as f64 / t_mgg.max(1) as f64,
                mgg_fabric_mib: fabric,
            }
        })
        .collect();
    DimReport { gpus, dataset: "RDD", rows }
}

impl ExperimentReport for DimReport {
    fn id(&self) -> &'static str {
        "ext_dims"
    }

    fn print(&self) {
        println!(
            "Extension: aggregation-width sensitivity ({} stand-in, {} GPUs)",
            self.dataset, self.gpus
        );
        println!(
            "{:>5} {:>10} {:>10} {:>9} {:>14}",
            "dim", "MGG (ms)", "UVM (ms)", "speedup", "fabric (MiB)"
        );
        for r in &self.rows {
            println!(
                "{:>5} {:>10.3} {:>10.3} {:>8.2}x {:>14.2}",
                r.dim, r.mgg_ms, r.uvm_ms, r.speedup, r.mgg_fabric_mib
            );
        }
        println!(
            "(narrow dims are request-bound — where the tuner matters; wide dims \
             become wire-bandwidth-bound)"
        );
    }
}

/// Makespan at one GPU count.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingRow {
    /// Number of GPUs.
    pub gpus: usize,
    /// Mgg ms.
    pub mgg_ms: f64,
    /// Uvm ms.
    pub uvm_ms: f64,
    /// Baseline latency over this configuration’s.
    pub speedup: f64,
}

/// The GPU-count scaling experiment: one row per cluster size.
#[derive(Debug, Clone, Serialize)]
pub struct ScalingReport {
    /// Dataset name.
    pub dataset: &'static str,
    /// Embedding dimension.
    pub dim: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<ScalingRow>,
}

/// Strong scaling from 1 to 8 GPUs (the Figure-8 trend, resolved per GPU
/// count): MGG's advantage grows with the GPU count because fine-grained
/// pipelining keeps the added remote traffic off the critical path.
pub fn run_scaling(scale: f64) -> ScalingReport {
    use mgg_baselines::UvmGnnEngine;
    use mgg_graph::datasets::DatasetSpec;
    let d = DatasetSpec::rdd().build(scale);
    let dim = 16; // GCN aggregation width
    let rows = [1usize, 2, 4, 8]
        .into_iter()
        .map(|gpus| {
            let spec = ClusterSpec::dgx_a100(gpus);
            let mut mgg =
                MggEngine::new(&d.graph, spec.clone(), MggConfig::default_fixed(), AggregateMode::Sum);
            let t_mgg = mgg.simulate_aggregation_ns(dim).expect("valid launch");
            let mut uvm = UvmGnnEngine::new(&d.graph, spec, AggregateMode::Sum);
            let t_uvm = uvm.simulate_aggregation_ns(dim);
            ScalingRow {
                gpus,
                mgg_ms: t_mgg as f64 / 1e6,
                uvm_ms: t_uvm as f64 / 1e6,
                speedup: t_uvm as f64 / t_mgg.max(1) as f64,
            }
        })
        .collect();
    ScalingReport { dataset: "RDD", dim, rows }
}

impl ExperimentReport for ScalingReport {
    fn id(&self) -> &'static str {
        "ext_scaling"
    }

    fn print(&self) {
        println!(
            "Extension: strong scaling 1-8 GPUs ({} stand-in, dim {})",
            self.dataset, self.dim
        );
        println!("{:>5} {:>10} {:>10} {:>9}", "GPUs", "MGG (ms)", "UVM (ms)", "speedup");
        for r in &self.rows {
            println!(
                "{:>5} {:>10.3} {:>10.3} {:>8.2}x",
                r.gpus, r.mgg_ms, r.uvm_ms, r.speedup
            );
        }
        println!("(the Figure-8 trend: MGG's advantage grows with the GPU count)");
    }
}
