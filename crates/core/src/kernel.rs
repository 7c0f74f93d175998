//! The pipeline-centric aggregation kernel (§3.3–§3.4).
//!
//! Lowers every warp's [`WarpAssignment`] into a `mgg-sim` operation trace.
//! The default [`KernelVariant::AsyncPipelined`] implements Figure 7(b):
//! for each (LNP, RNP) pair the warp
//!
//! 1. issues non-blocking symmetric-heap GETs for every remote neighbor of
//!    the RNP (`nvshmem_float_get_nbi` at warp scope),
//! 2. aggregates the LNP from local device memory while the remote rows
//!    are in flight,
//! 3. waits for the GETs (`nvshmem_quiet`), aggregates the landed rows
//!    from the shared-memory staging buffer, and
//! 4. writes back both partial results.
//!
//! [`KernelVariant::SyncRemote`] is Figure 7(a): blocking GETs, no
//! overlap — kept for the intra-warp pipelining ablation.

use mgg_cache::{CacheKey, CacheStats, EmbedCache, WarpCoalescer};
use mgg_graph::partition::neighbor::NeighborPartition;
use mgg_sim::{KernelLaunch, KernelProgram, WarpOp};

use crate::config::MggConfig;
use crate::mapping::{map_warps, MappingMode, WarpAssignment};
use crate::model::AnalyticalModel;
use crate::placement::HybridPlacement;
use crate::workload::WorkPlan;

/// Cycle cost of aggregating one neighbor's 32-lane dimension chunk
/// (fused multiply-add plus shared-memory traffic plus index math).
pub const CYCLES_PER_DIM_CHUNK: u32 = 6;

/// Fixed per-partition cycle overhead (loop setup, partition metadata).
pub const PARTITION_OVERHEAD_CYCLES: u32 = 24;

/// Which Figure-7 schedule the kernel uses for remote partitions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelVariant {
    /// Figure 7(b): non-blocking gets overlapped with local aggregation.
    AsyncPipelined,
    /// Figure 7(a): blocking gets, strictly sequential.
    SyncRemote,
}

/// Aggregation cycles for a partition of `len` neighbors at dimension
/// `dim` (one warp processes 32 lanes of the embedding at a time).
pub fn aggregation_cycles(len: u32, dim: usize) -> u32 {
    let chunks = dim.div_ceil(32) as u32;
    len * chunks * CYCLES_PER_DIM_CHUNK + PARTITION_OVERHEAD_CYCLES
}

/// Warps per block of [`LocalAggKernel`].
const LOCAL_WPB: u32 = 4;

/// The all-local aggregation kernel of the comparison designs that move
/// every neighbor row into device memory before aggregating (the NCCL
/// ring study, the PUT variant's aggregate phase, replicated execution):
/// one warp per neighbor partition reads the partition's rows, aggregates
/// them and writes one row back. With `poll_cycles` non-zero each warp
/// first polls arrival flags for that long (the PUT variant's
/// receiver-side synchronization).
pub struct LocalAggKernel<'a> {
    /// Per GPU: the neighbor partitions its warps aggregate.
    pub parts: &'a [Vec<NeighborPartition>],
    /// Embedding dimension.
    pub dim: usize,
    /// Flag-polling cycles per warp before its reads; 0 polls nothing.
    pub poll_cycles: u32,
}

impl KernelProgram for LocalAggKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        let warps = self.parts[pe].len() as u32;
        KernelLaunch {
            blocks: warps.div_ceil(LOCAL_WPB).max(1),
            warps_per_block: LOCAL_WPB,
            smem_per_block: 2 * (self.dim as u32) * 4,
        }
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let Some(p) = self.parts[pe].get((block * LOCAL_WPB + warp) as usize) else {
            return;
        };
        if self.poll_cycles > 0 {
            out.push(WarpOp::Compute { cycles: self.poll_cycles });
        }
        let row_bytes = (self.dim * 4) as u32;
        out.extend([
            WarpOp::GlobalRead { bytes: p.len * row_bytes },
            WarpOp::Compute { cycles: aggregation_cycles(p.len, self.dim) },
            WarpOp::GlobalWrite { bytes: row_bytes },
        ]);
    }
}

/// Precomputed cache outcome for one warp's (LNP, RNP) pair: which remote
/// references must still cross the fabric, and how many were served from
/// the local embedding cache.
///
/// The cache is consulted once, at [`MggKernel::build_cached`] time, in a
/// fixed deterministic order (PE-major, then warp, then pair, then
/// adjacency order). `warp_ops` only replays the plan, which keeps the
/// `KernelProgram` contract — identical trace on every call — intact even
/// though the cache itself is stateful.
#[derive(Debug, Clone, Copy)]
struct PairCachePlan {
    /// This pair's misses: `miss_peers[miss_start..miss_end]` of its PE's
    /// plan.
    miss_start: u32,
    miss_end: u32,
    /// Misses actually admitted into the cache. Misses the eviction-thrash
    /// guard bypassed still fetch over the fabric but fill nothing, so
    /// only admitted misses cost a posted HBM fill write.
    admitted: u32,
    /// Remote references served from the resident cache (no fabric).
    hits: u32,
}

/// One PE's cache plan, flat: every pair's record in warp order, where
/// each warp's pairs start, and one shared list of missed owners.
#[derive(Debug)]
struct PeCachePlan {
    pairs: Vec<PairCachePlan>,
    /// Index into `pairs` of each warp's first pair.
    warp_start: Vec<u32>,
    /// Owner PE of each remote reference that missed the cache, in
    /// access order.
    miss_peers: Vec<u16>,
}

/// A fully-lowered MGG kernel, ready for the simulator.
pub struct MggKernel<'a> {
    placement: &'a HybridPlacement,
    /// Per PE, per warp assignments.
    assignments: Vec<Vec<WarpAssignment>>,
    launches: Vec<KernelLaunch>,
    dim: usize,
    wpb: u32,
    variant: KernelVariant,
    /// Per PE cache outcomes; `None` when the kernel was built without a
    /// cache (the default path — traces are then byte-identical to
    /// pre-cache builds).
    cache_plans: Option<Vec<PeCachePlan>>,
    /// Cache counters accumulated while planning this kernel (delta over
    /// the caches' state before the build).
    cache_stats: CacheStats,
}

impl<'a> MggKernel<'a> {
    /// Lowers `plans` into per-warp traces under `cfg`.
    pub fn build(
        placement: &'a HybridPlacement,
        plans: &[WorkPlan],
        cfg: &MggConfig,
        dim: usize,
        model: &AnalyticalModel,
        variant: KernelVariant,
        mapping: MappingMode,
    ) -> Self {
        assert_eq!(plans.len(), placement.num_gpus(), "one plan per GPU");
        cfg.validate().expect("invalid MGG configuration");
        let assignments: Vec<Vec<WarpAssignment>> =
            plans.iter().map(|p| map_warps(p, cfg.dist, mapping)).collect();
        let launches = plans
            .iter()
            .zip(&assignments)
            .map(|(plan, warps)| {
                let mut launch = model.launch_for(cfg, plan);
                // The separated mapping changes the warp count (local and
                // remote ranges are disjoint); size the grid from the
                // actual assignment list.
                launch.blocks = (warps.len() as u32).div_ceil(cfg.wpb);
                launch
            })
            .collect();
        MggKernel {
            placement,
            assignments,
            launches,
            dim,
            wpb: cfg.wpb,
            variant,
            cache_plans: None,
            cache_stats: CacheStats::default(),
        }
    }

    /// Like [`MggKernel::build`], but runs every remote reference through
    /// the per-GPU embedding `caches` (one per PE, mutated in place so
    /// residency persists across kernels) and records the hit / miss /
    /// coalesce outcome per warp pair.
    ///
    /// In the [`KernelVariant::AsyncPipelined`] variant each warp pair is
    /// one warp-scope non-blocking batch window: duplicate `(pe, row)`
    /// references inside the window coalesce onto the first request and
    /// never touch the cache or fabric. The blocking
    /// [`KernelVariant::SyncRemote`] variant has no in-flight window, so
    /// every reference consults the cache (a duplicate is simply a hit
    /// after the first fill).
    ///
    /// `row_versions` is the engine's per-global-node version table under
    /// live-graph churn: each access is checked against the referenced
    /// row's current version, so a resident row a delta should have
    /// invalidated trips the stale-row assertion instead of being served.
    /// Pass `&[]` for a static graph (every row at version 0 — bitwise
    /// the unversioned behaviour).
    #[allow(clippy::too_many_arguments)]
    pub fn build_cached(
        placement: &'a HybridPlacement,
        plans: &[WorkPlan],
        cfg: &MggConfig,
        dim: usize,
        model: &AnalyticalModel,
        variant: KernelVariant,
        mapping: MappingMode,
        caches: &mut [EmbedCache],
        row_versions: &[u64],
    ) -> Self {
        let mut kernel = Self::build(placement, plans, cfg, dim, model, variant, mapping);
        assert_eq!(caches.len(), placement.num_gpus(), "one cache per GPU");
        let before: Vec<CacheStats> = caches.iter().map(|c| c.stats()).collect();
        let mut coalescer = WarpCoalescer::new();
        let mut cache_plans = Vec::with_capacity(kernel.assignments.len());
        for (pe, warps) in kernel.assignments.iter().enumerate() {
            let cache = &mut caches[pe];
            let remote_adj = placement.parts[pe].remote.adj();
            let mut pe_plan = PeCachePlan {
                pairs: Vec::with_capacity(warps.iter().map(|a| a.pairs.len()).sum()),
                warp_start: Vec::with_capacity(warps.len()),
                miss_peers: Vec::new(),
            };
            for assignment in warps {
                pe_plan.warp_start.push(as_index(pe_plan.pairs.len()));
                for (_, rnp) in &assignment.pairs {
                    let miss_start = as_index(pe_plan.miss_peers.len());
                    let (mut hits, mut admitted) = (0, 0);
                    if let Some(r) = rnp {
                        coalescer.begin();
                        let refs =
                            &remote_adj[r.start as usize..(r.start + r.len as u64) as usize];
                        for rr in refs {
                            let key = CacheKey { pe: rr.owner, row: rr.local };
                            if variant == KernelVariant::AsyncPipelined
                                && !coalescer.admit(key)
                            {
                                // Duplicate inside this warp's batch
                                // window: rides the in-flight request (or
                                // re-reads the already-resident row).
                                cache.note_coalesced(1);
                                continue;
                            }
                            let global = placement.split.range(rr.owner as usize).start
                                + rr.local;
                            let version =
                                row_versions.get(global as usize).copied().unwrap_or(0);
                            let look = cache.access_versioned(key, version);
                            if look.hit {
                                hits += 1;
                            } else {
                                pe_plan.miss_peers.push(rr.owner);
                                if look.slot.is_some() {
                                    admitted += 1;
                                }
                            }
                        }
                    }
                    let miss_end = as_index(pe_plan.miss_peers.len());
                    pe_plan.pairs.push(PairCachePlan { miss_start, miss_end, admitted, hits });
                }
            }
            pe_plan.miss_peers.shrink_to_fit();
            cache_plans.push(pe_plan);
        }
        kernel.cache_stats = caches
            .iter()
            .zip(&before)
            .map(|(c, b)| c.stats().delta_since(*b))
            .fold(CacheStats::default(), |mut acc, d| {
                acc.merge(&d);
                acc
            });
        kernel.cache_plans = Some(cache_plans);
        kernel
    }

    /// Cache counters accumulated while planning this kernel: zero for
    /// uncached builds, otherwise the per-run delta summed over all PEs.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache_stats
    }

    fn row_bytes(&self) -> u32 {
        (self.dim * 4) as u32
    }
}

/// A cache-plan index, which is stored as `u32`.
fn as_index(i: usize) -> u32 {
    u32::try_from(i).expect("cache plan fits u32 indices")
}

impl KernelProgram for MggKernel<'_> {
    fn launch(&self, pe: usize) -> KernelLaunch {
        self.launches[pe]
    }

    fn warp_ops(&self, pe: usize, block: u32, warp: u32, ops: &mut Vec<WarpOp>) {
        let w = (block * self.wpb + warp) as usize;
        let Some(assignment) = self.assignments[pe].get(w) else {
            return; // padding warp in the last block
        };
        let row_bytes = self.row_bytes();
        let remote_adj = self.placement.parts[pe].remote.adj();
        let pe_plan = self.cache_plans.as_ref().map(|p| &p[pe]);
        let first_pair = pe_plan.map_or(0, |p| p.warp_start[w] as usize);
        // Figure 7(b) launches its GETs non-blocking and aggregates the local
        // partition while they fly; 7(a) aggregates it first, then blocks
        // on each GET in turn.
        let nbi = self.variant == KernelVariant::AsyncPipelined;
        let local = |ops: &mut Vec<WarpOp>, lnp: &Option<NeighborPartition>| {
            if let Some(l) = lnp {
                ops.extend([
                    WarpOp::GlobalRead { bytes: l.len * row_bytes },
                    WarpOp::Compute { cycles: aggregation_cycles(l.len, self.dim) },
                    WarpOp::GlobalWrite { bytes: row_bytes },
                ]);
            }
        };
        let get = |peer| WarpOp::RemoteGet { peer, bytes: row_bytes, nbi };
        for (pair, (lnp, rnp)) in assignment.pairs.iter().enumerate() {
            if !nbi || rnp.is_none() {
                local(ops, lnp);
            }
            let Some(r) = rnp else { continue };
            // With a cache plan only the misses cross the fabric; hits are
            // one batched HBM read and coalesced duplicates cost nothing.
            let plan = pe_plan.map(|p| {
                let pp = p.pairs[first_pair + pair];
                (pp, &p.miss_peers[pp.miss_start as usize..pp.miss_end as usize])
            });
            let (hits, admitted) = plan.map_or((0, 0), |(p, _)| (p.hits, p.admitted));
            if hits > 0 && !nbi {
                ops.push(WarpOp::GlobalRead { bytes: hits * row_bytes });
            }
            match plan {
                Some((_, miss_peers)) => ops.extend(miss_peers.iter().map(|&peer| get(peer))),
                None => ops.extend(
                    remote_adj[r.start as usize..(r.start + r.len as u64) as usize]
                        .iter()
                        .map(|rr| get(rr.owner)),
                ),
            }
            if nbi {
                // The hit read launches with the GETs: an async local copy
                // that overlaps the local partition and joins the same
                // WaitRemote, instead of stalling through the HBM FIFO,
                // which under GET-source load queues deeper than the fabric.
                if hits > 0 {
                    ops.push(WarpOp::CacheHit { bytes: hits * row_bytes });
                }
                local(ops, lnp);
                ops.push(WarpOp::WaitRemote);
            }
            ops.push(WarpOp::Compute { cycles: aggregation_cycles(r.len, self.dim) });
            // Landed misses gain residency: a posted HBM fill write.
            // Thrash-bypassed misses fill nothing.
            if admitted > 0 {
                ops.push(WarpOp::GlobalWrite { bytes: admitted * row_bytes });
            }
            ops.push(WarpOp::GlobalWrite { bytes: row_bytes });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::build_plans;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};
    use mgg_sim::{Cluster, ClusterSpec, GpuSim, NoPaging};

    fn setup(gpus: usize) -> (HybridPlacement, AnalyticalModel) {
        let g = rmat(&RmatConfig::graph500(10, 10_000, 23));
        let placement = HybridPlacement::plan(&g, gpus);
        let model = AnalyticalModel::new(mgg_sim::GpuSpec::a100(), 128);
        (placement, model)
    }

    #[test]
    fn cycles_scale_with_len_and_dim() {
        assert!(aggregation_cycles(16, 602) > aggregation_cycles(16, 32));
        assert!(aggregation_cycles(16, 128) > aggregation_cycles(4, 128));
        assert_eq!(
            aggregation_cycles(1, 32),
            CYCLES_PER_DIM_CHUNK + PARTITION_OVERHEAD_CYCLES
        );
    }

    #[test]
    fn kernel_runs_and_produces_time() {
        let (placement, model) = setup(4);
        let cfg = MggConfig::default_fixed();
        let plans = build_plans(&placement, cfg.ps);
        let kernel = MggKernel::build(
            &placement,
            &plans,
            &cfg,
            128,
            &model,
            KernelVariant::AsyncPipelined,
            MappingMode::Interleaved,
        );
        let mut cluster = Cluster::new(ClusterSpec::dgx_a100(4));
        let stats = GpuSim::run(&mut cluster, &kernel, &mut NoPaging).unwrap();
        assert!(stats.makespan_ns() > 0);
        assert!(stats.traffic.remote_bytes() > 0, "remote gets must hit the fabric");
    }

    #[test]
    fn async_beats_sync() {
        let (placement, model) = setup(4);
        let cfg = MggConfig::default_fixed();
        let plans = build_plans(&placement, cfg.ps);
        let time = |variant| {
            let kernel = MggKernel::build(
                &placement,
                &plans,
                &cfg,
                128,
                &model,
                variant,
                MappingMode::Interleaved,
            );
            let mut cluster = Cluster::new(ClusterSpec::dgx_a100(4));
            GpuSim::run(&mut cluster, &kernel, &mut NoPaging).unwrap().makespan_ns()
        };
        let async_t = time(KernelVariant::AsyncPipelined);
        let sync_t = time(KernelVariant::SyncRemote);
        assert!(
            async_t < sync_t,
            "pipelined ({async_t}) must beat sync ({sync_t})"
        );
    }

    #[test]
    fn interleaved_beats_separated() {
        let (placement, model) = setup(4);
        let cfg = MggConfig { ps: 16, dist: 1, wpb: 2 };
        let plans = build_plans(&placement, cfg.ps);
        let time = |mapping| {
            let kernel = MggKernel::build(
                &placement,
                &plans,
                &cfg,
                128,
                &model,
                KernelVariant::AsyncPipelined,
                mapping,
            );
            let mut cluster = Cluster::new(ClusterSpec::dgx_a100(4));
            GpuSim::run(&mut cluster, &kernel, &mut NoPaging).unwrap().makespan_ns()
        };
        let inter = time(MappingMode::Interleaved);
        let sep = time(MappingMode::Separated);
        assert!(inter < sep, "interleaved ({inter}) must beat separated ({sep})");
    }

    #[test]
    fn every_neighbor_appears_in_some_trace() {
        let (placement, model) = setup(2);
        let cfg = MggConfig { ps: 8, dist: 2, wpb: 2 };
        let plans = build_plans(&placement, cfg.ps);
        let kernel = MggKernel::build(
            &placement,
            &plans,
            &cfg,
            64,
            &model,
            KernelVariant::AsyncPipelined,
            MappingMode::Interleaved,
        );
        // Count remote gets in all traces; must equal total remote edges.
        let mut gets = 0u64;
        for pe in 0..2 {
            let launch = kernel.launch(pe);
            for b in 0..launch.blocks {
                for w in 0..launch.warps_per_block {
                    let mut ops = Vec::new();
                    kernel.warp_ops(pe, b, w, &mut ops);
                    gets += ops.iter().filter(|op| matches!(op, WarpOp::RemoteGet { .. })).count()
                        as u64;
                }
            }
        }
        let want: u64 =
            placement.parts.iter().map(|p| p.remote.num_entries() as u64).sum();
        assert_eq!(gets, want);
    }
}
