//! The end-to-end MGG execution engine.
//!
//! Combines placement, workload management, the pipelined kernel and the
//! simulated cluster into an [`Aggregator`] that GNN models consume:
//! functional outputs match the CPU reference (up to floating-point
//! reassociation) while timing comes from the discrete-event simulation.

use mgg_cache::{CacheConfig, CacheKey, CacheStats, EmbedCache};
use mgg_churn::{apply_deltas, GraphDelta};
use mgg_failover::checkpoint::Checkpoint;
use mgg_failover::{plan_route, ClusterView, HealthMonitor, Route};
use mgg_fault::{FaultSchedule, FaultSpec};
use mgg_gnn::models::Aggregator;
use mgg_gnn::reference::AggregateMode;
use mgg_gnn::Matrix;
use mgg_graph::partition::locality::{LocalRef, LocalityPartition, RemoteRef};
use mgg_graph::{CsrGraph, NodeSplit};
use mgg_shmem::SymmetricRegion;
use mgg_sim::{Cluster, ClusterSpec, GpuSim, KernelStats, NoPaging, SimTime, TraceEvent};
use mgg_telemetry::{PipelineMetrics, Telemetry};

use crate::config::MggConfig;
use crate::error::MggError;
use crate::kernel::{KernelVariant, MggKernel};
use crate::mapping::MappingMode;
use crate::model::AnalyticalModel;
use crate::placement::HybridPlacement;
use crate::workload::{build_plans, WorkPlan};

/// Below this per-GPU health the engine re-plans placement around the
/// impaired GPU instead of riding out the degradation.
const REPLAN_HEALTH_THRESHOLD: f64 = 0.9;

/// Below this health the degradation is severe enough that the engine also
/// recommends abandoning peer-to-peer access for the UVM path.
const UVM_FALLBACK_HEALTH_THRESHOLD: f64 = 0.25;

/// Device-memory fraction kept free for activations and scratch when
/// deciding whether survivors can absorb an evacuated shard.
const EVACUATION_HEADROOM: f64 = 0.5;

/// What the engine decided to do about an installed fault scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryAction {
    /// Faults (if any) are mild: retries and timeouts absorb them.
    None,
    /// Re-balance the impaired GPUs' share of the workload.
    Rebalance,
    /// Degradation is severe: re-balance, and fall back to the UVM path.
    UvmFallback,
    /// A link died but both endpoints survive: relay traffic around it.
    Reroute,
    /// A GPU died: evacuate its shard onto the survivors.
    Evacuate,
}

/// What [`MggEngine::recover`] actually executed.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// The degradation step the engine took (the final rung when the
    /// ladder escalated, e.g. an evacuation that overflowed into UVM).
    pub action: RecoveryAction,
    /// The health monitor's cluster view at the detection horizon.
    pub view: ClusterView,
    /// Relay routes installed around dead links.
    pub routes_installed: usize,
    /// Dead GPUs whose shards were evacuated onto survivors.
    pub evacuated_gpus: usize,
    /// Simulated time from the first failure to full detection.
    pub detection_ns: u64,
}

/// What one [`MggEngine::apply_graph_deltas`] epoch fence actually did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// Deltas in the applied batch.
    pub applied: usize,
    /// Pre-existing rows whose adjacency or features changed.
    pub affected_rows: usize,
    /// Resident cache entries dropped by targeted invalidation (summed
    /// over all per-GPU caches; 0 when caching is disabled).
    pub invalidated: usize,
    /// Nodes appended to the graph (the node split was re-extended, not
    /// re-planned, so every pre-existing `(PE, row)` address survived).
    pub inserted_nodes: usize,
    /// Nodes tombstoned.
    pub removed_nodes: usize,
    /// Undirected edges added.
    pub edges_added: u64,
    /// Undirected edges removed.
    pub edges_removed: u64,
}

/// One neighbor of a destination row: where its embedding lives and which
/// input-graph edge reached it.
#[derive(Clone, Copy)]
struct Neighbor {
    /// PE owning the neighbor's embedding row.
    pe: usize,
    /// Row within that PE's partition.
    row: u32,
    /// Originating edge id in the input graph's flat adjacency.
    edge: u32,
}

/// Visits row `r` of `part` in the input graph's neighbor order. Each
/// virtual CSR keeps its entries in ascending edge order, so a two-pointer
/// merge of the local and remote rows reconstructs the input CSR order.
/// Aggregating in this order makes functional outputs bit-identical across
/// *any* node split — the invariant elastic failover leans on when it
/// evacuates a dead GPU's shard: the recovered placement reproduces the
/// fault-free run's floats exactly.
#[inline]
fn walk_neighbors(part: &LocalityPartition, r: u32, mut f: impl FnMut(Neighbor)) {
    let (local, remote) = (part.local.row(r), part.remote.row(r));
    let local_nb = |lr: &LocalRef| Neighbor { pe: part.pe, row: lr.local, edge: lr.edge };
    let remote_nb =
        |rr: &RemoteRef| Neighbor { pe: rr.owner as usize, row: rr.local, edge: rr.edge };
    let (mut i, mut j) = (0, 0);
    while i < local.len() && j < remote.len() {
        if local[i].edge < remote[j].edge {
            f(local_nb(&local[i]));
            i += 1;
        } else {
            f(remote_nb(&remote[j]));
            j += 1;
        }
    }
    local[i..].iter().for_each(|lr| f(local_nb(lr)));
    remote[j..].iter().for_each(|rr| f(remote_nb(rr)));
}

/// Minimum output rows per parallel aggregation job. Below this, the
/// per-job dispatch cost outweighs the row math, so small graphs collapse
/// into fewer (or one) jobs instead of paying the fan-out.
const MIN_AGG_ROWS_PER_JOB: usize = 64;

/// The MGG multi-GPU aggregation engine.
pub struct MggEngine {
    /// The simulated multi-GPU platform the engine launches on.
    pub cluster: Cluster,
    /// Hybrid data placement: symmetric-heap embeddings + private topology.
    pub placement: HybridPlacement,
    /// Per-GPU decomposed workloads (LNP/RNP lists).
    pub plans: Vec<WorkPlan>,
    config: MggConfig,
    /// Which kernel pipeline to lower (async Figure-7(b) or sync 7(a)).
    pub variant: KernelVariant,
    /// Warp mapping mode (interleaved or separated, the Figure-9b ablation).
    pub mapping: MappingMode,
    mode: AggregateMode,
    /// Global GCN normalization coefficients (empty for other modes).
    norm: Vec<f32>,
    /// The input graph, kept for fault-driven re-planning.
    graph: CsrGraph,
    /// True once placement has been re-planned around the current faults.
    replanned: bool,
    /// Remote-embedding cache configuration. `None` — the default —
    /// disables caching entirely; the kernel then lowers to traces
    /// byte-identical to pre-cache builds (pinned by the golden tests).
    cache_cfg: Option<CacheConfig>,
    /// Per-GPU timing-plane embedding caches. Residency persists across
    /// kernels (that is the point: layer `k+1` hits on rows layer `k`
    /// fetched) until an invalidation hook flushes them.
    caches: Vec<EmbedCache>,
    /// Embedding dimension the caches were sized for; capacity is counted
    /// in rows, so a dimension change rebuilds them.
    cache_dim: usize,
    /// Per-node row versions, bumped by every epoch-fence delta that
    /// touches the row. The cached kernel build checks each access
    /// against this table ([`EmbedCache::access_versioned`]), so a delta
    /// that somehow bypassed invalidation fails loudly (debug) or
    /// self-heals and counts ([`MggEngine::stale_reads`]) instead of
    /// serving a stale embedding. Empty until the first delta batch —
    /// version 0 everywhere, the static-graph fast path.
    row_versions: Vec<u64>,
    /// Checkpoint restores executed since the last simulation, merged into
    /// the next run's recovery stats (one-shot).
    checkpoint_restores: u64,
    /// Analytic host-link cost of those restores, in nanoseconds.
    pending_restore_ns: u64,
    /// Telemetry sink for engine phases and counters (disabled by default,
    /// in which case every recording call is a no-op).
    telemetry: Telemetry,
}

impl MggEngine {
    /// Builds the engine with MGG's defaults (edge-balanced split, async
    /// pipelined kernel, interleaved mapping). Panics on an invalid
    /// configuration; use [`MggEngine::try_new`] to handle it.
    pub fn new(
        graph: &CsrGraph,
        spec: ClusterSpec,
        config: MggConfig,
        mode: AggregateMode,
    ) -> Self {
        Self::try_new(graph, spec, config, mode).expect("invalid MGG configuration")
    }

    /// Fallible [`MggEngine::new`].
    pub fn try_new(
        graph: &CsrGraph,
        spec: ClusterSpec,
        config: MggConfig,
        mode: AggregateMode,
    ) -> Result<Self, MggError> {
        let placement = HybridPlacement::plan(graph, spec.num_gpus);
        Self::with_placement(graph, spec, placement, config, mode)
    }

    /// [`MggEngine::try_new`] with a telemetry sink attached from the
    /// start, so the `partition` and `plan` phases are recorded too.
    pub fn try_new_with_telemetry(
        graph: &CsrGraph,
        spec: ClusterSpec,
        config: MggConfig,
        mode: AggregateMode,
        telemetry: Telemetry,
    ) -> Result<Self, MggError> {
        let placement = {
            let _span = telemetry.span("partition");
            HybridPlacement::plan(graph, spec.num_gpus)
        };
        let mut engine = {
            let _span = telemetry.span("plan");
            Self::with_placement(graph, spec, placement, config, mode)?
        };
        engine.telemetry = telemetry;
        Ok(engine)
    }

    /// Attaches (or replaces) the engine's telemetry sink.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Builds the engine with a caller-chosen node split (ablations).
    pub fn with_split(
        graph: &CsrGraph,
        spec: ClusterSpec,
        split: NodeSplit,
        config: MggConfig,
        mode: AggregateMode,
    ) -> Self {
        let placement = HybridPlacement::from_split(graph, split);
        Self::with_placement(graph, spec, placement, config, mode)
            .expect("invalid MGG configuration")
    }

    fn with_placement(
        graph: &CsrGraph,
        spec: ClusterSpec,
        placement: HybridPlacement,
        config: MggConfig,
        mode: AggregateMode,
    ) -> Result<Self, MggError> {
        config.validate().map_err(MggError::InvalidConfig)?;
        let plans = build_plans(&placement, config.ps);
        let norm = match mode {
            AggregateMode::GcnNorm => graph.gcn_norm(),
            _ => Vec::new(),
        };
        Ok(MggEngine {
            cluster: Cluster::new(spec),
            placement,
            plans,
            config,
            variant: KernelVariant::AsyncPipelined,
            mapping: MappingMode::Interleaved,
            mode,
            norm,
            graph: graph.clone(),
            replanned: false,
            cache_cfg: None,
            caches: Vec::new(),
            cache_dim: 0,
            row_versions: Vec::new(),
            checkpoint_restores: 0,
            pending_restore_ns: 0,
            telemetry: Telemetry::disabled(),
        })
    }

    /// Current configuration.
    pub fn config(&self) -> MggConfig {
        self.config
    }

    /// Replaces the configuration, rebuilding work plans when `ps` changed.
    pub fn set_config(&mut self, config: MggConfig) -> Result<(), MggError> {
        config.validate().map_err(MggError::InvalidConfig)?;
        if config.ps != self.config.ps {
            self.plans = build_plans(&self.placement, config.ps);
            // The warp layout (and so the cache access stream) changed;
            // start the next run from a cold cache so results depend only
            // on the new configuration, not on tuning history.
            self.flush_cache();
        }
        self.config = config;
        Ok(())
    }

    /// Enables (`Some`) or disables (`None`) the per-GPU remote-embedding
    /// cache for subsequent simulations. Enabling or re-configuring always
    /// starts cold. Caching changes *timing only*: the cache lives in the
    /// kernel planner, which reports its counters in `KernelStats::cache`;
    /// the value plane never reads it, so functional outputs are
    /// bit-identical either way. With `None` the lowered traces are
    /// byte-identical to an engine that never had a cache.
    pub fn set_cache(&mut self, cfg: Option<CacheConfig>) {
        self.cache_cfg = cfg;
        self.caches = Vec::new();
        self.cache_dim = 0;
    }

    /// Drops all cached rows (counters survive). This is the invalidation
    /// hook of the recovery ladder: any event that re-plans placement or
    /// changes fault state re-maps `(PE, row)` addresses, so the engine
    /// calls this from [`MggEngine::recover`], [`MggEngine::resume`],
    /// fault installation and re-planning. Callers embedding the engine in
    /// a larger system can also invalidate explicitly (e.g. when
    /// embeddings are updated between epochs).
    pub fn flush_cache(&mut self) {
        for c in &mut self.caches {
            c.flush();
        }
    }

    /// Cumulative cache counters summed over all GPUs since the caches
    /// were (re)built — across kernels, unlike the per-run
    /// `KernelStats::cache` figure. All zero when caching is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        let mut acc = CacheStats::default();
        for c in &self.caches {
            acc.merge(&c.stats());
        }
        acc
    }

    /// (Re)builds the per-GPU caches when the embedding dimension or GPU
    /// count changed since they were last sized.
    fn ensure_caches(&mut self, dim: usize) {
        let Some(cfg) = self.cache_cfg else { return };
        let gpus = self.placement.num_gpus();
        if self.cache_dim == dim && self.caches.len() == gpus {
            return;
        }
        let rows = cfg.capacity_rows((dim * 4) as u32);
        // The thrash guard keeps undersized budgets from paying fill-write
        // bandwidth for rows they immediately re-evict (never slower than
        // uncached); right-sized budgets behave exactly as before.
        self.caches = (0..gpus).map(|_| EmbedCache::with_thrash_guard(rows, cfg.policy)).collect();
        self.cache_dim = dim;
    }

    /// Derives a deterministic fault scenario from `spec` and installs it
    /// on the cluster. Subsequent simulations run under these faults (and
    /// may trigger graceful degradation — see
    /// [`MggEngine::simulate_aggregation`]).
    pub fn install_faults(&mut self, spec: FaultSpec) -> Result<(), MggError> {
        spec.validate().map_err(MggError::InvalidFaultSpec)?;
        let sched = FaultSchedule::derive(&spec, self.cluster.num_gpus());
        self.cluster.install_faults(sched);
        self.replanned = false;
        self.flush_cache();
        Ok(())
    }

    /// Installs an explicit fault schedule (pinned test scenarios).
    pub fn install_fault_schedule(&mut self, sched: FaultSchedule) {
        self.cluster.install_faults(sched);
        self.replanned = false;
        self.flush_cache();
    }

    /// Removes any installed fault scenario.
    pub fn clear_faults(&mut self) {
        self.cluster.clear_faults();
        self.replanned = false;
        self.flush_cache();
    }

    /// The installed fault schedule, if any.
    pub fn fault_schedule(&self) -> Option<&FaultSchedule> {
        self.cluster.faults()
    }

    /// What graceful degradation the installed faults call for.
    pub fn recovery_action(&self) -> RecoveryAction {
        let Some(sched) = self.cluster.faults() else { return RecoveryAction::None };
        if !sched.dead_gpus().is_empty() {
            return RecoveryAction::Evacuate;
        }
        if sched.has_permanent() {
            return RecoveryAction::Reroute;
        }
        let min_health = (0..sched.num_gpus())
            .map(|g| sched.health(g))
            .fold(1.0_f64, f64::min);
        if min_health < UVM_FALLBACK_HEALTH_THRESHOLD {
            RecoveryAction::UvmFallback
        } else if min_health < REPLAN_HEALTH_THRESHOLD {
            RecoveryAction::Rebalance
        } else {
            RecoveryAction::None
        }
    }

    /// Executes recovery for the installed fault scenario at embedding
    /// dimension `dim` (the dimension decides whether survivors can hold an
    /// evacuated shard). Walks the degradation ladder for real:
    ///
    /// 1. dead links between surviving GPUs get relay routes installed on
    ///    the interconnect (shortest surviving path; host staging when the
    ///    fabric is partitioned);
    /// 2. dead GPUs' shards are evacuated by re-splitting the graph over
    ///    the survivors, weighted by their health;
    /// 3. when the survivors cannot hold the evacuated embeddings, the
    ///    whole job degrades to UVM (every fabric transfer host-staged).
    ///
    /// Returns what was done, or [`MggError::Unrecoverable`] when no GPU
    /// survives. Idempotent for a given installed schedule.
    pub fn recover(&mut self, dim: usize) -> Result<RecoveryReport, MggError> {
        // Every recovery rung may change routes or addressing; resident
        // cache rows are suspect from here on. (Re-planning flushes again,
        // but the reroute-only rung would otherwise keep stale rows.)
        self.flush_cache();
        let num_gpus = self.cluster.num_gpus();
        let Some(sched) = self.cluster.faults().cloned() else {
            let view = HealthMonitor::new(num_gpus).observe(&FaultSchedule::quiet(num_gpus), 0);
            return Ok(RecoveryReport {
                action: RecoveryAction::None,
                view,
                routes_installed: 0,
                evacuated_gpus: 0,
                detection_ns: 0,
            });
        };
        let monitor = HealthMonitor::new(num_gpus);
        if !sched.has_permanent() {
            // Transient-only impairment: the health-weighted rebalance is
            // the whole recovery.
            let action = self.recovery_action();
            if action != RecoveryAction::None {
                let weights: Vec<f64> =
                    (0..num_gpus).map(|g| sched.health(g).max(0.05)).collect();
                self.replan_weighted(&weights);
            }
            return Ok(RecoveryReport {
                action,
                view: monitor.observe(&sched, 0),
                routes_installed: 0,
                evacuated_gpus: 0,
                detection_ns: 0,
            });
        }
        let detection_ns = monitor.detection_horizon_ns(&sched).unwrap_or(0);
        let view = monitor.observe(&sched, detection_ns);
        if view.survivors().is_empty() {
            return Err(MggError::Unrecoverable(format!(
                "all {num_gpus} GPUs are dead; nowhere to evacuate their shards"
            )));
        }
        // Rung 1: relay routes around dead links whose endpoints survive.
        let mut routes_installed = 0;
        for a in 0..num_gpus {
            for b in a + 1..num_gpus {
                if view.is_dead(a) || view.is_dead(b) || view.link_usable(a, b) {
                    continue;
                }
                if let Some(Route::Relay(hops)) = plan_route(&view, a, b) {
                    self.cluster.ic.install_route(
                        a,
                        b,
                        hops.iter().map(|&h| h as u16).collect(),
                    );
                    routes_installed += 1;
                }
                // HostStaged needs no wiring: the interconnect falls back
                // to the host channel by itself when no route is installed.
            }
        }
        // Rung 2: evacuate dead GPUs' shards onto the survivors.
        let evacuated_gpus =
            view.dead.iter().filter(|&&g| self.placement.split.part_nodes(g) > 0).count();
        let mut action =
            if view.dead.is_empty() { RecoveryAction::Reroute } else { RecoveryAction::Evacuate };
        if view.dead.is_empty() {
            self.replanned = true;
        } else {
            let weights: Vec<f64> = (0..num_gpus)
                .map(|g| if view.is_dead(g) { 0.0 } else { sched.health(g).max(0.05) })
                .collect();
            self.replan_weighted(&weights);
            // Rung 3: survivors over capacity — degrade to UVM for real.
            if self.placement.check_memory(dim, &self.cluster.spec.gpu, EVACUATION_HEADROOM).is_err()
            {
                self.cluster.ic.set_uvm_degraded(true);
                action = RecoveryAction::UvmFallback;
            }
        }
        self.telemetry.counter_add("engine.routes_installed", routes_installed as u64);
        self.telemetry.counter_add("engine.evacuations", evacuated_gpus as u64);
        Ok(RecoveryReport { action, view, routes_installed, evacuated_gpus, detection_ns })
    }

    /// Captures an epoch-boundary checkpoint: the node split in effect plus
    /// the aggregated features, checksummed for corruption detection.
    pub fn checkpoint(&self, epoch: u64, features: &Matrix) -> Checkpoint {
        Checkpoint::new(
            epoch,
            features.cols(),
            self.placement.split.bounds().to_vec(),
            features.data().to_vec(),
        )
    }

    /// Restores partition state and features from `ckpt`, so a run
    /// interrupted mid-epoch resumes from the last epoch boundary. The
    /// restore's host-link transfer cost is charged to the next
    /// simulation's `recovery.recovery_latency_ns`.
    ///
    /// A checkpoint that fails its checksum, or does not fit this engine
    /// (a split over another GPU count or graph, or features for another
    /// node count), is [`MggError::Unrecoverable`] and leaves the engine
    /// unchanged.
    pub fn resume(&mut self, ckpt: &Checkpoint) -> Result<Matrix, MggError> {
        if !ckpt.is_valid() {
            return Err(MggError::Unrecoverable(format!(
                "checkpoint for epoch {} failed checksum validation",
                ckpt.epoch
            )));
        }
        let (gpus, nodes) = (self.cluster.num_gpus(), self.graph.num_nodes());
        let b = &ckpt.bounds;
        if b.len() != gpus + 1
            || b[0] != 0
            || b.windows(2).any(|w| w[0] > w[1])
            || b[gpus] as usize != nodes
        {
            return Err(MggError::Unrecoverable(format!(
                "checkpoint for epoch {} has split {b:?}, not a monotone split of \
                 {nodes} nodes over {gpus} GPUs",
                ckpt.epoch
            )));
        }
        if ckpt.dim == 0 || ckpt.features.len() != nodes * ckpt.dim {
            return Err(MggError::Unrecoverable(format!(
                "checkpoint for epoch {} holds {} features at dim {}, not {nodes} rows",
                ckpt.epoch,
                ckpt.features.len(),
                ckpt.dim
            )));
        }
        let split = NodeSplit::from_bounds(ckpt.bounds.clone());
        self.placement = HybridPlacement::from_split(&self.graph, split);
        self.plans = build_plans(&self.placement, self.config.ps);
        // The restored split re-maps (PE, row) addresses.
        self.flush_cache();
        self.checkpoint_restores += 1;
        // Reloading the features from host storage costs one host-link
        // transfer of the checkpoint payload.
        let bytes = (ckpt.features.len() * 4) as u64;
        let host = &self.cluster.spec.host_link;
        self.pending_restore_ns += host.latency_ns
            + host.request_overhead_ns
            + (bytes as f64 / host.bw_gbps).ceil() as u64;
        Ok(Matrix::from_vec(ckpt.features.len() / ckpt.dim, ckpt.dim, ckpt.features.clone()))
    }

    /// Applies one epoch-fence batch of live-graph `deltas` transactionally.
    ///
    /// Ordering is the safety argument: **invalidation happens under the
    /// old addressing, before anything is rebuilt.** Each affected row's
    /// current `(owner, local)` cache key is dropped from every per-GPU
    /// cache and its version bumped; only then are the graph, placement
    /// and work plans swapped. Node insertion *re-extends* the current
    /// split (the last part's bound grows) instead of re-planning from
    /// scratch, so every pre-existing node keeps its `(PE, row)` address
    /// — which is exactly why targeted invalidation is sufficient and
    /// unaffected rows stay legitimately resident across the fence.
    ///
    /// The whole batch is validated first; on [`MggError::InvalidDelta`]
    /// nothing was applied. A quiet batch (`deltas.is_empty()`) is a
    /// no-op that still reports.
    pub fn apply_graph_deltas(&mut self, deltas: &[GraphDelta]) -> Result<DeltaReport, MggError> {
        let (new_graph, fx) =
            apply_deltas(&self.graph, deltas).map_err(MggError::InvalidDelta)?;
        // 1. Targeted invalidation, old addressing. Every GPU's cache keys
        //    remote rows globally by (owner PE, local row), so the same key
        //    is dropped from each.
        let mut invalidated = 0usize;
        for &node in &fx.affected {
            let key = CacheKey {
                pe: self.placement.split.owner(node) as u16,
                row: self.placement.split.local_index(node),
            };
            for c in &mut self.caches {
                if c.invalidate(key) {
                    invalidated += 1;
                }
            }
        }
        // 2. Version bumps for affected rows; inserted rows start at 0.
        if self.row_versions.len() < self.graph.num_nodes() {
            self.row_versions.resize(self.graph.num_nodes(), 0);
        }
        for &node in &fx.affected {
            self.row_versions[node as usize] += 1;
        }
        self.row_versions.resize(new_graph.num_nodes(), 0);
        // 3. Incremental split re-extension + placement/plan rebuild.
        let mut bounds = self.placement.split.bounds().to_vec();
        if fx.inserted_nodes > 0 {
            *bounds.last_mut().expect("split has bounds") = new_graph.num_nodes() as u32;
        }
        self.graph = new_graph;
        self.placement =
            HybridPlacement::from_split(&self.graph, NodeSplit::from_bounds(bounds));
        self.plans = build_plans(&self.placement, self.config.ps);
        if self.mode == AggregateMode::GcnNorm {
            self.norm = self.graph.gcn_norm();
        }
        self.telemetry.counter_add("churn.deltas_applied", deltas.len() as u64);
        self.telemetry.counter_add("churn.rows_invalidated", invalidated as u64);
        Ok(DeltaReport {
            applied: deltas.len(),
            affected_rows: fx.affected.len(),
            invalidated,
            inserted_nodes: fx.inserted_nodes,
            removed_nodes: fx.removed_nodes,
            edges_added: fx.edges_added,
            edges_removed: fx.edges_removed,
        })
    }

    /// Stale-read detections summed over the per-GPU caches: accesses
    /// that found a resident row at the wrong version. Any non-zero value
    /// means a delta bypassed invalidation — the churn drills assert 0.
    pub fn stale_reads(&self) -> u64 {
        self.caches.iter().map(EmbedCache::stale_hits).sum()
    }

    /// The engine's current (post-churn) graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }

    /// Simulates one aggregation pass at embedding dimension `dim` and
    /// returns the kernel statistics. Channels are reset first, so calls
    /// are independent measurements.
    ///
    /// Under an installed fault scenario with impaired GPUs, the first
    /// call additionally performs graceful degradation: the run that
    /// observed the degradation is treated as the detection pass,
    /// [`MggEngine::recover`] re-plans placement with capacity weights
    /// proportional to each GPU's health (rerouting and evacuating first
    /// under permanent failures), and the kernel is re-run on the recovered
    /// placement. The returned statistics are those of the recovered run,
    /// with the detection pass charged to `recovery.recovery_latency_ns`.
    pub fn simulate_aggregation(&mut self, dim: usize) -> Result<KernelStats, MggError> {
        Ok(self.simulate_aggregation_impl(dim, false)?.0)
    }

    /// [`MggEngine::simulate_aggregation`] with the per-warp trace captured
    /// end-to-end — including the recovery re-run, whose trace replaces the
    /// detection pass's, matching the returned statistics.
    pub fn simulate_aggregation_traced(
        &mut self,
        dim: usize,
    ) -> Result<(KernelStats, Vec<TraceEvent>), MggError> {
        let (stats, trace) = self.simulate_aggregation_impl(dim, true)?;
        Ok((stats, trace.expect("trace was requested")))
    }

    fn simulate_aggregation_impl(
        &mut self,
        dim: usize,
        want_trace: bool,
    ) -> Result<(KernelStats, Option<Vec<TraceEvent>>), MggError> {
        let tel = self.telemetry.clone();
        // With telemetry attached, always capture the trace: the derived
        // pipeline metrics need it, and tracing never changes the
        // simulation outcome (the sim crate's tests pin that equivalence).
        let want_trace = want_trace || tel.is_enabled();
        let (mut stats, mut trace) = self.run_kernel(dim, want_trace)?;
        if self.recovery_action() != RecoveryAction::None && !self.replanned {
            // The first run is the detection pass (under a permanent
            // failure it halts there). The engine then executes recovery —
            // rebalance, reroute, evacuate, possibly degrade to UVM — and
            // re-runs on the recovered configuration.
            let _span = tel.span("recover");
            let report = self.recover(dim)?;
            let (mut recovered, recovered_trace) = self.run_kernel(dim, want_trace)?;
            let r = &mut recovered.recovery;
            if report.evacuated_gpus > 0
                || matches!(report.action, RecoveryAction::Rebalance | RecoveryAction::UvmFallback)
            {
                r.replans += 1;
            }
            r.evacuations += report.evacuated_gpus as u64;
            if report.action == RecoveryAction::UvmFallback {
                r.uvm_fallbacks += 1;
            }
            // The failure's blast radius, observed by the detection pass.
            r.halted_warps += stats.recovery.halted_warps;
            r.dead_peer_gets += stats.recovery.dead_peer_gets;
            // Detection → resume latency: the detection pass overlaps the
            // monitor's detection horizon (zero for transient impairment);
            // the longer of the two dominates.
            let detection_ns = stats.makespan_ns().max(report.detection_ns);
            r.recovery_latency_ns += detection_ns;
            tel.counter_add("engine.replans", u64::from(r.replans > 0));
            tel.counter_add("engine.recovery_detection_ns", detection_ns);
            stats = recovered;
            trace = recovered_trace;
        }
        if self.checkpoint_restores > 0 {
            // One-shot: checkpoint restores and their host-link transfer
            // are attributed to the first simulation after them.
            stats.recovery.checkpoint_restores += self.checkpoint_restores;
            stats.recovery.recovery_latency_ns += self.pending_restore_ns;
            tel.counter_add("engine.checkpoint_restores", self.checkpoint_restores);
            self.checkpoint_restores = 0;
            self.pending_restore_ns = 0;
        }
        {
            // The inter-GPU barrier closing the aggregation: each GPU idles
            // from its own finish until the global makespan.
            let _span = tel.span("barrier");
            let makespan = stats.makespan_ns();
            let skew: u64 =
                stats.per_gpu.iter().map(|g| makespan.saturating_sub(g.finish_ns)).sum();
            tel.counter_add("engine.barrier_skew_ns", skew);
        }
        if tel.is_enabled() {
            tel.counter_add("engine.kernels", 1);
            let events = trace.as_deref().unwrap_or(&[]);
            tel.add_trace_events(events);
            tel.set_pipeline(PipelineMetrics::derive(&stats, events));
        }
        Ok((stats, trace))
    }

    /// One raw kernel simulation on the current placement (no recovery).
    fn run_kernel(
        &mut self,
        dim: usize,
        want_trace: bool,
    ) -> Result<(KernelStats, Option<Vec<TraceEvent>>), MggError> {
        let tel = self.telemetry.clone();
        self.ensure_caches(dim);
        let kernel = {
            let _span = tel.span("launch");
            let model = AnalyticalModel::new(self.cluster.spec.gpu.clone(), dim);
            if self.cache_cfg.is_some() {
                MggKernel::build_cached(
                    &self.placement,
                    &self.plans,
                    &self.config,
                    dim,
                    &model,
                    self.variant,
                    self.mapping,
                    &mut self.caches,
                    &self.row_versions,
                )
            } else {
                MggKernel::build(
                    &self.placement,
                    &self.plans,
                    &self.config,
                    dim,
                    &model,
                    self.variant,
                    self.mapping,
                )
            }
        };
        self.cluster.reset();
        let _span = tel.span("aggregate");
        let (mut stats, events) = if want_trace {
            let (stats, events) = GpuSim::run_traced(&mut self.cluster, &kernel, &mut NoPaging)?;
            (stats, Some(events))
        } else {
            (GpuSim::run(&mut self.cluster, &kernel, &mut NoPaging)?, None)
        };
        if self.cache_cfg.is_some() {
            // The builder planned the cache outcomes; attribute them to
            // this run (the simulator only priced the resulting ops).
            let cs = kernel.cache_stats();
            stats.cache = cs;
            tel.counter_add("cache.hits", cs.hits);
            tel.counter_add("cache.misses", cs.misses);
            tel.counter_add("cache.coalesced", cs.coalesced);
            tel.counter_add("cache.evictions", cs.evictions);
            tel.gauge_set("cache.hit_rate", cs.hit_rate());
        }
        Ok((stats, events))
    }

    /// Rebuilds split, placement and work plans with per-GPU capacity
    /// weights. Functional outputs are split-invariant, so this only moves
    /// work, never changes values.
    fn replan_weighted(&mut self, weights: &[f64]) {
        let split = NodeSplit::edge_balanced_weighted(&self.graph, weights);
        self.placement = HybridPlacement::from_split(&self.graph, split);
        self.plans = build_plans(&self.placement, self.config.ps);
        self.replanned = true;
        // Re-splitting re-maps every (PE, row) address: resident cache
        // entries now name the wrong rows. Invalidate.
        self.flush_cache();
    }

    /// Simulated end-to-end duration of one aggregation (kernel makespan
    /// plus the host launch overhead).
    pub fn simulate_aggregation_ns(&mut self, dim: usize) -> Result<SimTime, MggError> {
        let launch_overhead = self.cluster.spec.kernel_launch_ns;
        Ok(self.simulate_aggregation(dim)?.makespan_ns() + launch_overhead)
    }

    /// Functional aggregation: computes the same values the simulated
    /// kernel would produce, using the locality-split virtual CSRs and the
    /// symmetric-heap addressing.
    pub fn aggregate_values(&self, x: &Matrix) -> Matrix {
        let label = "engine.aggregate";
        // One instance per weight rule, so the unit-weight loop is
        // compiled with its constant weight.
        match self.mode {
            AggregateMode::GcnNorm => {
                self.aggregate_direct(x, self.mode, |v, nb| self.weight(v, nb), label)
            }
            AggregateMode::Mean | AggregateMode::Sum => {
                self.aggregate_direct(x, self.mode, |_, _| 1.0, label)
            }
        }
    }

    /// Aggregates `x` with per-edge weights indexed by the input graph's
    /// flat adjacency (see `mgg_graph::partition::locality`'s edge ids).
    /// Pure edge-weighted aggregation, with no mode finish: used by GAT.
    pub fn aggregate_values_weighted(&self, x: &Matrix, w: &[f32]) -> Matrix {
        let weight = |_, nb: Neighbor| w[nb.edge as usize];
        self.aggregate_direct(x, AggregateMode::Sum, weight, "engine.aggregate_weighted")
    }

    /// The row-chunk parallel driver over direct reads. Jobs are contiguous
    /// row ranges sized to `rows / threads` with a minimum-work floor (one
    /// job per partition underfills wide pools and overfills small graphs
    /// with spawn overhead). Each row is computed exactly as in a serial
    /// loop — chunk boundaries never enter the math — so the result is
    /// bit-identical at any thread count.
    fn aggregate_direct(
        &self,
        x: &Matrix,
        mode: AggregateMode,
        weight: impl Fn(usize, Neighbor) -> f32 + Sync,
        label: &'static str,
    ) -> Matrix {
        let dim = x.cols();
        let region = self.placement.place_embeddings(x);
        let mut out = Matrix::zeros(x.rows(), dim);
        if x.rows() == 0 || dim == 0 {
            return out;
        }
        let chunk_rows = mgg_runtime::chunk_len(x.rows(), MIN_AGG_ROWS_PER_JOB);
        let slices: Vec<&mut [f32]> = out.data_mut().chunks_mut(chunk_rows * dim).collect();
        let _lbl = mgg_runtime::profile::region_label(label);
        mgg_runtime::par_slices_mut(slices, |ci, out_chunk| {
            for (k, dst) in out_chunk.chunks_mut(dim).enumerate() {
                let v = ci * chunk_rows + k;
                self.aggregate_row(v, x, mode, &region, &weight, dst);
            }
        });
        out
    }

    /// Aggregates destination row `v` into `dst`: each neighbor in edge
    /// order adds `weight(v, nb) * row`, then `mode` finishes the row with
    /// GCN's self-loop term or Mean's `1/deg` scale.
    #[inline]
    fn aggregate_row(
        &self,
        v: usize,
        x: &Matrix,
        mode: AggregateMode,
        region: &SymmetricRegion,
        weight: impl Fn(usize, Neighbor) -> f32,
        dst: &mut [f32],
    ) {
        let part = &self.placement.parts[self.part_of(v)];
        let r = (v - part.node_range.start as usize) as u32;
        walk_neighbors(part, r, |nb| {
            let w = weight(v, nb);
            for (d, &s) in dst.iter_mut().zip(region.row(nb.pe, nb.row)) {
                *d += w * s;
            }
        });
        match mode {
            AggregateMode::GcnNorm => {
                // Self-loop term of \hat{A}.
                let w = self.norm[v] * self.norm[v];
                for (d, &s) in dst.iter_mut().zip(x.row(v)) {
                    *d += w * s;
                }
            }
            AggregateMode::Mean => {
                let deg = part.local.row(r).len() + part.remote.row(r).len();
                if deg > 0 {
                    let inv = 1.0 / deg as f32;
                    for d in dst.iter_mut() {
                        *d *= inv;
                    }
                }
            }
            AggregateMode::Sum => {}
        }
    }

    /// Index of the partition owning global node `v` (the partitions'
    /// node ranges tile `0..n` in order).
    fn part_of(&self, v: usize) -> usize {
        self.placement
            .parts
            .partition_point(|p| (p.node_range.end as usize) <= v)
    }

    /// Global node id of neighbor `nb`.
    #[inline]
    fn global(&self, nb: Neighbor) -> usize {
        (self.placement.split.bounds()[nb.pe] + nb.row) as usize
    }

    /// The engine mode's weight of neighbor `nb` in destination row `v`.
    #[inline]
    fn weight(&self, v: usize, nb: Neighbor) -> f32 {
        match self.mode {
            AggregateMode::GcnNorm => self.norm[v] * self.norm[self.global(nb)],
            // Mean divides at the end; Sum uses unit weights.
            AggregateMode::Mean | AggregateMode::Sum => 1.0,
        }
    }
}

impl mgg_gnn::gat::GatBackend for MggEngine {
    fn attention(&mut self, s_dst: &[f32], s_src: &[f32], slope: f32) -> (Vec<f32>, u64) {
        // Timing: exchanging the scalar neighbor scores is an aggregation
        // pass at dimension 1 (same access pattern, 4-byte rows).
        let ns = self
            .simulate_aggregation_ns(1)
            .expect("MGG launch must be valid for the configured GPU");
        // Functional: leaky-ReLU scores then a per-destination softmax over
        // the union of the row's local and remote entries.
        let mut w = vec![0.0f32; self.graph.num_edges()];
        let leaky = |x: f32| if x >= 0.0 { x } else { slope * x };
        // (edge id, raw score) for every neighbor of one destination row.
        let mut entries: Vec<(u32, f32)> = Vec::new();
        for part in &self.placement.parts {
            let base = part.node_range.start as usize;
            for r in 0..part.local.num_rows() as u32 {
                let v = base + r as usize;
                entries.clear();
                // Edge-order walk keeps the softmax reduction order (and
                // so the weights, bitwise) independent of the node split.
                walk_neighbors(part, r, |nb| {
                    entries.push((nb.edge, leaky(s_dst[v] + s_src[self.global(nb)])));
                });
                if entries.is_empty() {
                    continue;
                }
                let max = entries.iter().map(|&(_, e)| e).fold(f32::NEG_INFINITY, f32::max);
                let mut sum = 0.0f32;
                for (_, e) in entries.iter_mut() {
                    *e = (*e - max).exp();
                    sum += *e;
                }
                for &(edge, e) in &entries {
                    w[edge as usize] = if sum > 0.0 { e / sum } else { 0.0 };
                }
            }
        }
        (w, ns)
    }

    fn aggregate_weighted(&mut self, x: &Matrix, w: &[f32]) -> (Matrix, u64) {
        let ns = self
            .simulate_aggregation_ns(x.cols())
            .expect("MGG launch must be valid for the configured GPU");
        (self.aggregate_values_weighted(x, w), ns)
    }
}

impl Aggregator for MggEngine {
    fn aggregate(&mut self, x: &Matrix) -> (Matrix, u64) {
        let ns = self
            .simulate_aggregation_ns(x.cols())
            .expect("MGG launch must be valid for the configured GPU");
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
    use mgg_gnn::reference::aggregate;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    fn graph() -> CsrGraph {
        rmat(&RmatConfig::graph500(9, 5_000, 29))
    }

    fn features(n: usize, dim: usize) -> Matrix {
        Matrix::from_vec(n, dim, (0..n * dim).map(|i| ((i % 13) as f32) - 6.0).collect())
    }

    #[test]
    fn values_match_reference_all_modes() {
        let g = graph();
        let x = features(g.num_nodes(), 17);
        for mode in [AggregateMode::Sum, AggregateMode::Mean, AggregateMode::GcnNorm] {
            let engine =
                MggEngine::new(&g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), mode);
            let got = engine.aggregate_values(&x);
            let want = aggregate(&g, &x, mode);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "mode {mode:?}: diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn values_independent_of_config_and_gpus() {
        let g = graph();
        let x = features(g.num_nodes(), 8);
        let base = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(2),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        )
        .aggregate_values(&x);
        for gpus in [1, 4, 8] {
            for cfg in [MggConfig { ps: 1, dist: 1, wpb: 1 }, MggConfig { ps: 32, dist: 16, wpb: 16 }] {
                let engine =
                    MggEngine::new(&g, ClusterSpec::dgx_a100(gpus), cfg, AggregateMode::Sum);
                let got = engine.aggregate_values(&x);
                assert!(got.max_abs_diff(&base) < 1e-3, "gpus={gpus} cfg={cfg}");
            }
        }
    }

    #[test]
    fn simulation_time_positive_and_deterministic() {
        let g = graph();
        let mut e1 = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let mut e2 = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let t1 = e1.simulate_aggregation_ns(64).unwrap();
        let t2 = e2.simulate_aggregation_ns(64).unwrap();
        assert!(t1 > 0);
        assert_eq!(t1, t2);
    }

    #[test]
    fn repeated_simulation_is_stable() {
        // Channel state must be reset between measurements.
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let a = e.simulate_aggregation_ns(64).unwrap();
        let b = e.simulate_aggregation_ns(64).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn set_config_rebuilds_plans() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(2),
            MggConfig { ps: 32, dist: 1, wpb: 1 },
            AggregateMode::Sum,
        );
        let coarse: usize = e.plans.iter().map(|p| p.lnps.len() + p.rnps.len()).sum();
        e.set_config(MggConfig { ps: 2, dist: 1, wpb: 1 }).unwrap();
        let fine: usize = e.plans.iter().map(|p| p.lnps.len() + p.rnps.len()).sum();
        assert!(fine > coarse);
    }

    #[test]
    fn quiet_faults_leave_engine_bit_identical() {
        let g = graph();
        let x = features(g.num_nodes(), 16);
        let mut plain = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let mut faulty = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        faulty.install_faults(mgg_fault::FaultSpec::quiet()).unwrap();
        assert_eq!(faulty.recovery_action(), RecoveryAction::None);
        let a = plain.simulate_aggregation(64).unwrap();
        let b = faulty.simulate_aggregation(64).unwrap();
        assert_eq!(a, b, "quiet fault spec must not perturb timing");
        let va = plain.aggregate_values(&x);
        let vb = faulty.aggregate_values(&x);
        assert_eq!(va.data(), vb.data(), "quiet faults must not perturb values");
    }

    #[test]
    fn degraded_link_triggers_replan_and_keeps_values_exact() {
        let g = graph();
        let x = features(g.num_nodes(), 16);
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::GcnNorm,
        );
        let spec = mgg_fault::FaultSpec { seed: 42, link_degrade: 0.5, ..Default::default() };
        e.install_faults(spec).unwrap();
        assert_eq!(e.recovery_action(), RecoveryAction::Rebalance);
        let stats = e.simulate_aggregation(64).unwrap();
        assert_eq!(stats.recovery.replans, 1);
        assert!(stats.recovery.recovery_latency_ns > 0);
        // Re-planning moves work, never values.
        let got = e.aggregate_values(&x);
        let want = aggregate(&g, &x, AggregateMode::GcnNorm);
        assert!(got.max_abs_diff(&want) < 1e-3);
        // Second run is on the recovered placement: no further replans.
        let again = e.simulate_aggregation(64).unwrap();
        assert_eq!(again.recovery.replans, 0);
    }

    #[test]
    fn severe_degradation_recommends_uvm_fallback() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let spec = mgg_fault::FaultSpec { seed: 7, link_degrade: 0.1, ..Default::default() };
        e.install_faults(spec).unwrap();
        assert_eq!(e.recovery_action(), RecoveryAction::UvmFallback);
        let stats = e.simulate_aggregation(32).unwrap();
        assert_eq!(stats.recovery.uvm_fallbacks, 1);
        e.clear_faults();
        assert_eq!(e.recovery_action(), RecoveryAction::None);
    }

    #[test]
    fn dropped_gets_recover_with_exact_values() {
        let g = graph();
        let x = features(g.num_nodes(), 8);
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.install_faults(mgg_fault::FaultSpec {
            seed: 3,
            drop_rate: 0.2,
            ..Default::default()
        })
        .unwrap();
        let stats = e.simulate_aggregation(32).unwrap();
        assert!(stats.recovery.retried_gets > 0, "drop rate 0.2 must hit some gets");
        let got = e.aggregate_values(&x);
        let want = aggregate(&g, &x, AggregateMode::Sum);
        assert!(got.max_abs_diff(&want) < 1e-3, "recovered values must stay exact");
    }

    #[test]
    fn invalid_config_and_spec_are_reported_not_panicked() {
        let g = graph();
        let bad = MggConfig { ps: 4, dist: 0, wpb: 1 };
        match MggEngine::try_new(&g, ClusterSpec::dgx_a100(2), bad, AggregateMode::Sum) {
            Err(MggError::InvalidConfig(_)) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("dist=0 must be rejected"),
        }
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(2),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let err = e
            .install_faults(mgg_fault::FaultSpec { drop_rate: 1.5, ..Default::default() })
            .unwrap_err();
        assert!(matches!(err, MggError::InvalidFaultSpec(_)));
    }

    #[test]
    fn telemetry_does_not_change_kernel_stats() {
        let g = graph();
        let mut plain = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let tel = Telemetry::enabled();
        let mut instrumented = MggEngine::try_new_with_telemetry(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
            tel.clone(),
        )
        .unwrap();
        let a = plain.simulate_aggregation(64).unwrap();
        let b = instrumented.simulate_aggregation(64).unwrap();
        assert_eq!(a, b, "telemetry must not perturb the simulation");

        let snap = tel.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|s| s.name.as_str()).collect();
        for phase in ["partition", "plan", "launch", "aggregate", "barrier"] {
            assert!(names.contains(&phase), "missing phase {phase}: {names:?}");
        }
        let p = snap.pipeline.expect("pipeline metrics recorded");
        assert_eq!(p.makespan_ns, a.makespan_ns());
        assert!(
            p.overlap_efficiency > 0.0,
            "the async pipeline must hide some remote-wire time"
        );
        assert!(!p.pair_traffic.is_empty());
        assert!(!tel.trace_events().is_empty());
    }

    #[test]
    fn traced_simulation_matches_untraced() {
        let g = graph();
        let mk = || {
            MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(4),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            )
        };
        let plain = mk().simulate_aggregation(64).unwrap();
        let mut traced_engine = mk();
        let (traced, events) = traced_engine.simulate_aggregation_traced(64).unwrap();
        assert_eq!(plain, traced);
        assert!(!events.is_empty());
        // Every GPU contributed events.
        for g in 0..4u16 {
            assert!(events.iter().any(|e| e.gpu == g), "gpu {g} missing from trace");
        }
    }

    #[test]
    fn recovery_is_recorded_as_a_phase() {
        let g = graph();
        let tel = Telemetry::enabled();
        let mut e = MggEngine::try_new_with_telemetry(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
            tel.clone(),
        )
        .unwrap();
        let spec = mgg_fault::FaultSpec { seed: 42, link_degrade: 0.5, ..Default::default() };
        e.install_faults(spec).unwrap();
        let stats = e.simulate_aggregation(64).unwrap();
        assert_eq!(stats.recovery.replans, 1);
        let snap = tel.snapshot();
        assert!(snap.spans.iter().any(|s| s.name == "recover"));
        assert_eq!(tel.counter_value("engine.replans"), 1);
        let p = snap.pipeline.expect("pipeline recorded");
        assert_eq!(p.recovery.replans, 1);
    }

    #[test]
    fn values_are_bit_identical_across_splits() {
        // The edge-order merge makes aggregation split-invariant *bitwise*,
        // not just within tolerance — the guarantee evacuation relies on.
        let g = graph();
        let x = features(g.num_nodes(), 8);
        let base = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(1),
            MggConfig::default_fixed(),
            AggregateMode::GcnNorm,
        )
        .aggregate_values(&x);
        for gpus in [2, 3, 4, 8] {
            let engine = MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(gpus),
                MggConfig::default_fixed(),
                AggregateMode::GcnNorm,
            );
            let got = engine.aggregate_values(&x);
            assert_eq!(got.data(), base.data(), "split over {gpus} GPUs changed bits");
        }
    }

    #[test]
    fn dead_gpu_is_evacuated_and_values_survive_bit_exact() {
        let g = graph();
        let x = features(g.num_nodes(), 16);
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let healthy = e.aggregate_values(&x);
        e.install_fault_schedule(FaultSchedule::gpu_failure(4, 2, 2_000));
        assert_eq!(e.recovery_action(), RecoveryAction::Evacuate);
        let stats = e.simulate_aggregation(32).unwrap();
        assert_eq!(stats.recovery.evacuations, 1);
        assert_eq!(stats.recovery.replans, 1);
        assert!(stats.recovery.recovery_latency_ns >= 2_000, "detection must be charged");
        // The dead GPU owns nothing after evacuation.
        assert_eq!(e.placement.split.part_nodes(2), 0);
        // The recovered placement reproduces the healthy floats exactly.
        let recovered = e.aggregate_values(&x);
        assert_eq!(recovered.data(), healthy.data());
        // Second simulation runs on the recovered placement: no re-recovery.
        let again = e.simulate_aggregation(32).unwrap();
        assert_eq!(again.recovery.evacuations, 0);
        assert_eq!(again.recovery.replans, 0);
    }

    #[test]
    fn dead_link_gets_a_relay_route() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.install_fault_schedule(FaultSchedule::link_down(4, 0, 1, 500));
        assert_eq!(e.recovery_action(), RecoveryAction::Reroute);
        let report = e.recover(32).unwrap();
        assert_eq!(report.action, RecoveryAction::Reroute);
        assert_eq!(report.routes_installed, 1);
        assert_eq!(report.evacuated_gpus, 0);
        let stats = e.simulate_aggregation(32).unwrap();
        assert!(
            stats.recovery.rerouted_transfers > 0,
            "traffic between the pair must relay around the dead link"
        );
        assert_eq!(stats.recovery.evacuations, 0);
    }

    #[test]
    fn overflowing_evacuation_degrades_to_uvm() {
        let g = graph();
        let mut spec = ClusterSpec::dgx_a100(4);
        // Device memory too small for three survivors to absorb the
        // evacuated shard under the headroom rule.
        spec.gpu.dram_bytes = 32 * 1024;
        let mut e = MggEngine::new(&g, spec, MggConfig::default_fixed(), AggregateMode::Sum);
        e.install_fault_schedule(FaultSchedule::gpu_failure(4, 1, 1_000));
        let stats = e.simulate_aggregation(32).unwrap();
        assert_eq!(stats.recovery.uvm_fallbacks, 1);
        assert!(e.cluster.ic.uvm_degraded(), "the interconnect must actually degrade");
        assert!(
            stats.recovery.host_staged_transfers > 0,
            "degraded mode stages every fabric transfer through the host"
        );
    }

    #[test]
    fn losing_every_gpu_is_unrecoverable_not_a_hang() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(2),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let sched = FaultSchedule::gpu_failure(2, 0, 1_000).with_permanent(
            mgg_fault::PermanentFault::GpuFailure { gpu: 1, at_ns: 1_500 },
        );
        e.install_fault_schedule(sched);
        match e.simulate_aggregation(32) {
            Err(MggError::Unrecoverable(msg)) => {
                assert!(msg.contains("dead"), "{msg}");
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_resume_restores_placement_and_features() {
        let g = graph();
        let x = features(g.num_nodes(), 8);
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let agg = e.aggregate_values(&x);
        let ckpt = e.checkpoint(3, &agg);
        assert!(ckpt.is_valid());

        // A corrupted checkpoint is a typed error, not silent wrong data.
        let mut bad = ckpt.clone();
        bad.features[0] += 1.0;
        assert!(matches!(e.resume(&bad), Err(MggError::Unrecoverable(_))));

        // Fail GPU 0, recover (placement changes), then resume from the
        // checkpoint: the pre-failure placement and features come back.
        e.install_fault_schedule(FaultSchedule::gpu_failure(4, 0, 1_000));
        e.simulate_aggregation(8).unwrap();
        assert_eq!(e.placement.split.part_nodes(0), 0);
        e.clear_faults();
        let restored = e.resume(&ckpt).unwrap();
        assert_eq!(restored.data(), agg.data());
        assert!(e.placement.split.part_nodes(0) > 0, "bounds restored from checkpoint");
        let stats = e.simulate_aggregation(8).unwrap();
        assert_eq!(stats.recovery.checkpoint_restores, 1);
        assert!(stats.recovery.recovery_latency_ns > 0, "restore transfer must be charged");
        // One-shot: the next run is clean.
        let again = e.simulate_aggregation(8).unwrap();
        assert_eq!(again.recovery.checkpoint_restores, 0);
    }

    #[test]
    fn resume_rejects_checkpoints_that_do_not_fit() {
        let g = graph();
        let n = g.num_nodes();
        let mk = |gpus| {
            MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(gpus),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            )
        };
        let mut e = mk(4);
        let bounds = e.placement.split.bounds().to_vec();
        let other = rmat(&RmatConfig::graph500(8, 2_000, 5));
        let other_engine = MggEngine::new(
            &other,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let bad = [
            // A valid checkpoint of a 2-GPU engine.
            mk(2).checkpoint(1, &features(n, 8)),
            // A valid checkpoint of a different graph.
            other_engine.checkpoint(1, &features(other.num_nodes(), 8)),
            // Non-monotone bounds under a valid checksum.
            Checkpoint::new(1, 8, vec![0, 300, 200, 400, n as u32], vec![0.0; n * 8]),
            // Features for 10 rows of a graph with more nodes.
            Checkpoint::new(1, 8, bounds.clone(), vec![0.0; 10 * 8]),
        ];
        for (i, ckpt) in bad.iter().enumerate() {
            assert!(ckpt.is_valid(), "case {i} must pass its checksum");
            match e.resume(ckpt) {
                Err(MggError::Unrecoverable(_)) => {}
                Err(err) => panic!("case {i}: expected Unrecoverable, got {err:?}"),
                Ok(m) => panic!("case {i}: resumed a {}x{} matrix", m.rows(), m.cols()),
            }
            assert_eq!(e.placement.split.bounds(), &bounds[..], "case {i} moved the split");
        }
        // Nothing was restored: the next run matches an untouched engine's.
        assert_eq!(e.simulate_aggregation(8).unwrap(), mk(4).simulate_aggregation(8).unwrap());
    }

    #[test]
    fn aggregator_trait_roundtrip() {
        let g = graph();
        let x = features(g.num_nodes(), 16);
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::GcnNorm,
        );
        let (vals, ns) = e.aggregate(&x);
        assert!(ns > 0);
        let want = aggregate(&g, &x, AggregateMode::GcnNorm);
        assert!(vals.max_abs_diff(&want) < 1e-3);
    }

    #[test]
    fn cached_values_are_bit_identical_to_uncached() {
        let g = graph();
        let x = features(g.num_nodes(), 16);
        // A roomy cache, and a tiny one (32 rows at dim 16) that must evict.
        let roomy = CacheConfig::from_mb(4);
        let tiny = CacheConfig { capacity_bytes: 2048, policy: mgg_cache::CachePolicy::Lru };
        for mode in [AggregateMode::Sum, AggregateMode::Mean, AggregateMode::GcnNorm] {
            let mut engine =
                MggEngine::new(&g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), mode);
            let want = engine.aggregate_values(&x);
            for cfg in [roomy, tiny] {
                engine.set_cache(Some(cfg));
                let stats = engine.simulate_aggregation(16).unwrap().cache;
                assert!(stats.hits > 0, "the reuse pattern must produce hits");
                if cfg == tiny {
                    assert!(stats.evictions > 0, "undersized cache must evict: {stats:?}");
                }
                let got = engine.aggregate_values(&x);
                assert_eq!(got.data(), want.data(), "mode {mode:?} {cfg:?} must be bit-identical");
            }
        }
    }

    #[test]
    fn cache_makes_the_simulated_kernel_faster() {
        let g = graph();
        let mk = |cache: Option<CacheConfig>| {
            let mut e = MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(4),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            e.set_cache(cache);
            let stats = e.simulate_aggregation(64).unwrap();
            (stats.makespan_ns(), stats.cache, stats.traffic.remote_bytes())
        };
        let (base_ns, base_cache, base_bytes) = mk(None);
        let (cached_ns, cached_cache, cached_bytes) = mk(Some(CacheConfig::from_mb(16)));
        assert_eq!(base_cache, mgg_cache::CacheStats::default());
        assert!(cached_cache.hits > 0, "expected hits: {cached_cache:?}");
        assert!(
            cached_bytes < base_bytes,
            "hits must come off the fabric ({cached_bytes} vs {base_bytes})"
        );
        assert!(
            cached_ns < base_ns,
            "cache must shorten the kernel ({cached_ns} vs {base_ns})"
        );
    }

    #[test]
    fn cache_residency_persists_across_layers() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.set_cache(Some(CacheConfig::from_mb(64)));
        let first = e.simulate_aggregation(64).unwrap().cache;
        let second = e.simulate_aggregation(64).unwrap().cache;
        assert!(
            second.misses < first.misses,
            "layer 2 must reuse layer 1's residency ({second:?} vs {first:?})"
        );
        assert!(second.hit_rate() > first.hit_rate());
    }

    #[test]
    fn cache_simulation_is_deterministic() {
        let g = graph();
        let run = || {
            let mut e = MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(4),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            e.set_cache(Some(CacheConfig::from_mb(8)));
            let a = e.simulate_aggregation(64).unwrap();
            let b = e.simulate_aggregation(64).unwrap();
            (a.makespan_ns(), a.cache, b.makespan_ns(), b.cache)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn replanning_flushes_the_cache() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.set_cache(Some(CacheConfig::from_mb(64)));
        e.simulate_aggregation(64).unwrap();
        assert!(e.cache_stats().misses > 0);
        // A degraded GPU triggers the health-weighted replan, which
        // re-maps (PE, row) addresses: the next run must start cold, i.e.
        // its misses include all first-touches again.
        let warm_misses = e.simulate_aggregation(64).unwrap().cache.misses;
        e.install_faults(mgg_fault::FaultSpec {
            seed: 42,
            link_degrade: 0.5,
            ..Default::default()
        })
        .unwrap();
        let after_replan = e.simulate_aggregation(64).unwrap().cache;
        assert!(
            after_replan.misses > warm_misses,
            "cold restart expected after replan ({after_replan:?} vs warm {warm_misses})"
        );
        // Values stay exact through all of it.
        let x = features(g.num_nodes(), 16);
        assert_eq!(e.aggregate_values(&x).data(), aggregate(&g, &x, AggregateMode::Sum).data());
    }

    #[test]
    fn graph_deltas_apply_and_values_match_reference() {
        let g = graph();
        let deltas = vec![
            GraphDelta::EdgeInsert { src: 3, dst: 200 },
            GraphDelta::FeatureUpdate { node: 7 },
            GraphDelta::NodeRemove { node: 11 },
            GraphDelta::NodeInsert { neighbors: vec![1, 5, 9] },
            GraphDelta::EdgeRemove { src: 3, dst: 200 },
        ];
        let (g2, _) = apply_deltas(&g, &deltas).unwrap();
        let x2 = features(g2.num_nodes(), 16);
        for mode in [AggregateMode::Sum, AggregateMode::GcnNorm] {
            let mut e =
                MggEngine::new(&g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), mode);
            let report = e.apply_graph_deltas(&deltas).unwrap();
            assert_eq!(report.applied, 5);
            assert_eq!(report.inserted_nodes, 1);
            assert_eq!(report.removed_nodes, 1);
            assert_eq!(e.graph().num_nodes(), g2.num_nodes());
            // The post-fence engine computes on the mutated graph — same
            // values as an engine built from it directly (GcnNorm checks
            // the degree-dependent norm recompute too).
            let got = e.aggregate_values(&x2);
            let want = aggregate(&g2, &x2, mode);
            assert!(
                got.max_abs_diff(&want) < 1e-3,
                "mode {mode:?}: post-churn diff {}",
                got.max_abs_diff(&want)
            );
        }
    }

    #[test]
    fn delta_fence_invalidates_exactly_the_affected_rows() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        e.set_cache(Some(CacheConfig::from_mb(64)));
        e.simulate_aggregation(64).unwrap();
        let warm_misses = e.simulate_aggregation(64).unwrap().cache.misses;
        // Feature-update a handful of rows: only those rows' cache
        // entries drop, so the next run is nearly as warm as before (a
        // full flush would re-miss every first touch).
        let deltas: Vec<GraphDelta> =
            (0..8).map(|i| GraphDelta::FeatureUpdate { node: i * 31 }).collect();
        let report = e.apply_graph_deltas(&deltas).unwrap();
        assert_eq!(report.affected_rows, 8);
        assert!(
            report.invalidated <= 8 * 4,
            "at most one entry per affected row per GPU cache ({report:?})"
        );
        let after = e.simulate_aggregation(64).unwrap().cache.misses;
        assert!(
            after <= warm_misses + 8 * 4,
            "targeted invalidation must not cold-start the cache \
             ({after} misses vs warm {warm_misses})"
        );
        assert_eq!(e.stale_reads(), 0, "versioned accesses must never see a stale row");
    }

    #[test]
    fn node_insert_extends_the_split_without_replanning() {
        let g = graph();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let before = e.placement.split.bounds().to_vec();
        e.apply_graph_deltas(&[
            GraphDelta::NodeInsert { neighbors: vec![0] },
            GraphDelta::NodeInsert { neighbors: vec![2, 4] },
        ])
        .unwrap();
        let after = e.placement.split.bounds().to_vec();
        assert_eq!(after.len(), before.len());
        assert_eq!(&after[..after.len() - 1], &before[..before.len() - 1],
            "interior bounds must survive a node insert");
        assert_eq!(*after.last().unwrap(), *before.last().unwrap() + 2);
    }

    #[test]
    fn invalid_delta_batch_is_rejected_transactionally() {
        let g = graph();
        let n = g.num_nodes();
        let mut e = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let err = e
            .apply_graph_deltas(&[
                GraphDelta::EdgeInsert { src: 0, dst: 1 },
                GraphDelta::FeatureUpdate { node: n as u32 + 5 },
            ])
            .unwrap_err();
        assert!(matches!(err, MggError::InvalidDelta(_)), "{err:?}");
        assert_eq!(e.graph().num_nodes(), n, "a rejected batch must change nothing");
        assert_eq!(e.graph().num_edges(), g.num_edges());
    }

    #[test]
    fn invalidation_audit_every_replan_path_starts_cold() {
        // The invalidation audit: every path that re-maps (PE, row)
        // addresses — set_config(ps), resume, recover — must leave
        // the cache cold (first-touch misses reappear), while a fence
        // that touches nothing keeps it warm.
        let g = graph();
        let x = features(g.num_nodes(), 8);
        let cold_misses = {
            let mut e = MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(4),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            e.set_cache(Some(CacheConfig::from_mb(64)));
            e.simulate_aggregation(32).unwrap().cache.misses
        };
        let run_after = |prep: &dyn Fn(&mut MggEngine)| {
            let mut e = MggEngine::new(
                &g,
                ClusterSpec::dgx_a100(4),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            e.set_cache(Some(CacheConfig::from_mb(64)));
            e.simulate_aggregation(32).unwrap();
            prep(&mut e);
            e.simulate_aggregation(32).unwrap().cache.misses
        };
        let warm = run_after(&|_| {});
        assert!(warm < cold_misses / 2, "baseline: second run must be warm");
        let after_set_config = run_after(&|e| {
            let mut cfg = e.config();
            cfg.ps = if cfg.ps == 16 { 32 } else { 16 };
            e.set_config(cfg).unwrap();
        });
        // ps changes the warp layout and so the access stream; cold-start
        // means misses rebound to at least the cold first-touch count of
        // the *new* stream — conservatively, well above the warm count.
        assert!(after_set_config > warm, "set_config(ps) must flush");
        let after_resume = run_after(&|e| {
            let ckpt = e.checkpoint(1, &x);
            e.resume(&ckpt).unwrap();
        });
        assert!(after_resume >= cold_misses, "resume must flush");
        let after_recover = run_after(&|e| {
            e.install_fault_schedule(FaultSchedule::link_down(4, 0, 1, 500));
            e.recover(32).unwrap();
        });
        assert!(after_recover >= cold_misses, "recover must flush even reroute-only");
    }
}

#[cfg(test)]
mod gat_tests {
    use super::*;
    use mgg_gnn::gat::{Gat, GatBackend, ReferenceGatBackend};
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn weighted_aggregation_matches_reference() {
        let g = rmat(&RmatConfig::graph500(9, 4_000, 77));
        let x = Matrix::glorot(g.num_nodes(), 9, 1);
        let w: Vec<f32> = (0..g.num_edges()).map(|i| ((i % 11) as f32) / 10.0).collect();
        let engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let got = engine.aggregate_values_weighted(&x, &w);
        let want = mgg_gnn::reference::aggregate_edge_weighted(&g, &x, &w);
        assert!(got.max_abs_diff(&want) < 1e-4, "diff {}", got.max_abs_diff(&want));
    }

    #[test]
    fn gat_forward_matches_reference_backend() {
        let g = rmat(&RmatConfig::graph500(8, 2_000, 79));
        let x = Matrix::glorot(g.num_nodes(), 10, 3);
        let model = Gat::new(10, 6, 4, 5);

        let mut reference = ReferenceGatBackend { graph: g.clone() };
        let (want, _) = model.forward(&mut reference, &x);

        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(4),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let (got, timings) = model.forward(&mut engine, &x);
        assert!(got.max_abs_diff(&want) < 1e-3, "diff {}", got.max_abs_diff(&want));
        assert!(timings.iter().all(|t| t.attention_ns > 0 && t.aggregate_ns > 0));
        // The scalar score exchange must be far cheaper than the
        // hidden-width aggregation.
        assert!(timings[0].attention_ns < timings[0].aggregate_ns);
    }

    #[test]
    fn mgg_attention_weights_match_reference() {
        let g = rmat(&RmatConfig::graph500(8, 2_000, 83));
        let n = g.num_nodes();
        let s_dst: Vec<f32> = (0..n).map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.5).collect();
        let s_src: Vec<f32> = (0..n).map(|i| ((i * 3) % 5) as f32 / 5.0).collect();
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(3),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let (got, _) = engine.attention(&s_dst, &s_src, 0.2);
        let want = mgg_gnn::gat::reference_attention(&g, &s_dst, &s_src, 0.2);
        let diff = got
            .iter()
            .zip(&want)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(diff < 1e-5, "max weight diff {diff}");
    }

}
