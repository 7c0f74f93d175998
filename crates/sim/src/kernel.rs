//! Kernel launch descriptors, program traits and run statistics.

use serde::Serialize;

use crate::metrics::TrafficStats;
use crate::spec::GpuSpec;
use crate::time::SimTime;
use crate::warp::WarpOp;

/// Launch configuration of one GPU's grid, mirroring
/// `kernel<<<grid, block, smem>>>` (Listing 2 of the paper computes exactly
/// these three quantities on the host).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct KernelLaunch {
    /// Number of thread blocks in the grid.
    pub blocks: u32,
    /// Warps per thread block (`warpPerBlock` in the paper).
    pub warps_per_block: u32,
    /// Dynamic shared memory per block, in bytes.
    pub smem_per_block: u32,
}

impl KernelLaunch {
    /// Maximum blocks that can be resident on one SM under `spec`.
    ///
    /// Returns an error when a single block already exceeds SM resources
    /// (the launch would fail on real hardware).
    pub fn max_resident_blocks(&self, spec: &GpuSpec) -> Result<u32, LaunchError> {
        if self.warps_per_block == 0 {
            return Err(LaunchError::ZeroWarps);
        }
        if self.warps_per_block > spec.warp_slots_per_sm {
            return Err(LaunchError::TooManyWarps {
                warps: self.warps_per_block,
                limit: spec.warp_slots_per_sm,
            });
        }
        if self.smem_per_block > spec.smem_per_sm {
            return Err(LaunchError::SmemOverflow {
                requested: self.smem_per_block,
                limit: spec.smem_per_sm,
            });
        }
        let by_warps = spec.warp_slots_per_sm / self.warps_per_block;
        let by_smem =
            spec.smem_per_sm.checked_div(self.smem_per_block).unwrap_or(u32::MAX);
        Ok(by_warps.min(by_smem).min(spec.max_blocks_per_sm))
    }
}

/// Reasons a kernel launch is invalid on the target GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaunchError {
    /// A block must contain at least one warp.
    ZeroWarps,
    /// More warps per block than SM warp slots.
    TooManyWarps {
        /// Requested warps per block.
        warps: u32,
        /// The SM's warp-slot limit.
        limit: u32,
    },
    /// Dynamic shared memory request exceeds the SM's capacity.
    SmemOverflow {
        /// Requested dynamic shared memory in bytes.
        requested: u32,
        /// The SM's shared-memory capacity in bytes.
        limit: u32,
    },
}

impl std::fmt::Display for LaunchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LaunchError::ZeroWarps => write!(f, "block has zero warps"),
            LaunchError::TooManyWarps { warps, limit } => {
                write!(f, "{warps} warps per block exceeds SM limit of {limit}")
            }
            LaunchError::SmemOverflow { requested, limit } => {
                write!(f, "{requested} B shared memory per block exceeds SM capacity {limit} B")
            }
        }
    }
}

impl std::error::Error for LaunchError {}

/// A kernel as seen by the simulator: a launch shape per GPU plus a lazy
/// per-warp operation trace.
///
/// The same program object describes all GPUs of an SPMD launch (NVSHMEM
/// runs the identical kernel on every PE); per-PE behaviour differs only in
/// the traces returned.
pub trait KernelProgram {
    /// Launch configuration on GPU `pe`.
    fn launch(&self, pe: usize) -> KernelLaunch;

    /// Appends the operation trace of warp `warp` (0-based within the
    /// block) of block `block` on GPU `pe` to `out`. Called once per warp,
    /// when its block becomes resident. The simulator appends every
    /// admitted warp's trace to one op arena per GPU, so an implementation
    /// only pushes: what `out` already holds belongs to other warps.
    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>);
}

/// Per-GPU result of simulating one kernel.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct GpuKernelStats {
    /// Time the last warp on this GPU retired.
    pub finish_ns: SimTime,
    /// Integral of resident warps over time, in warp-nanoseconds.
    pub warp_residency_ns: u64,
    /// Integral of *unblocked* resident warps (ready or computing) over
    /// time — resident warps stalled on memory do not count. This is the
    /// quantity behind the paper's "achieved occupancy" comparison: a
    /// fault-stalled kernel has warps resident but not schedulable.
    pub active_warp_ns: u64,
    /// Integral of "SM has at least one unblocked warp" over time.
    pub sm_active_ns: u64,
    /// Total scheduler-slot occupancy (compute issue time).
    pub sched_busy_ns: u64,
    /// Number of warps executed.
    pub warps: u64,
    /// Number of blocks executed.
    pub blocks: u64,
}

/// Fault-recovery events observed while simulating one kernel. All-zero —
/// the `Default` — on a fault-free run, so adding this to [`KernelStats`]
/// does not perturb equality comparisons between healthy runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RecoveryStats {
    /// One-sided GETs that were transiently dropped and re-issued.
    pub retried_gets: u64,
    /// Non-blocking completions that were lost and recovered by timeout.
    pub dropped_completions: u64,
    /// Channel transfers that started inside a link-degradation window.
    pub degraded_transfers: u64,
    /// Times the engine re-planned placement around an impaired GPU.
    pub replans: u64,
    /// Times the engine recommended falling back to the UVM path.
    pub uvm_fallbacks: u64,
    /// Warps halted mid-kernel because their GPU died permanently.
    pub halted_warps: u64,
    /// One-sided GETs abandoned because the target PE was dead (each
    /// completes by the bounded peer-death timeout, never a hang).
    pub dead_peer_gets: u64,
    /// Fabric transfers that took an engine-installed relay route around
    /// a dead link instead of the direct path.
    pub rerouted_transfers: u64,
    /// Fabric transfers staged through host memory because no fabric
    /// route survived (or the engine degraded to UVM).
    pub host_staged_transfers: u64,
    /// Dead-GPU shards evacuated onto survivors by re-splitting.
    pub evacuations: u64,
    /// Times execution resumed from an epoch-boundary checkpoint.
    pub checkpoint_restores: u64,
    /// Extra nanoseconds attributable to recovery (retry backoff + wasted
    /// first attempts, completion timeouts, re-planned re-runs, failure
    /// detection and checkpoint restore).
    pub recovery_latency_ns: u64,
}

/// Result of simulating one multi-GPU kernel.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct KernelStats {
    /// Per-GPU timing and occupancy breakdown, indexed by PE.
    pub per_gpu: Vec<GpuKernelStats>,
    /// Channel traffic during the kernel.
    pub traffic: TrafficStats,
    /// Fault-recovery events (all zero on a healthy run).
    pub recovery: RecoveryStats,
    /// Embedding-cache hit/miss/coalesce/eviction counters, rolled up over
    /// all GPUs. All zero — the `Default` — when caching is disabled, so
    /// uncached runs keep their equality comparisons unperturbed (the
    /// [`RecoveryStats`] pattern). Populated by the kernel builder, which
    /// is the only layer that can attribute cache outcomes; the simulator
    /// only prices the resulting [`crate::WarpOp::CacheHit`] /
    /// [`crate::WarpOp::CacheFill`] operations.
    pub cache: mgg_cache::CacheStats,
    /// SM count used for the derived occupancy metrics.
    pub num_sms: u32,
    /// Warp slots per SM used for the derived occupancy metrics.
    pub warp_slots_per_sm: u32,
}

impl KernelStats {
    /// Kernel makespan: all GPUs run concurrently, so the kernel-level
    /// barrier completes when the slowest GPU finishes.
    pub fn makespan_ns(&self) -> SimTime {
        self.per_gpu.iter().map(|g| g.finish_ns).max().unwrap_or(0)
    }

    /// "Achieved occupancy" (§5.1): average *schedulable* warps per cycle
    /// over the kernel, relative to the maximum resident warps the GPU
    /// supports. Averaged over GPUs.
    pub fn achieved_occupancy(&self) -> f64 {
        let mk = self.makespan_ns();
        if mk == 0 || self.per_gpu.is_empty() {
            return 0.0;
        }
        let cap = (self.num_sms as u64 * self.warp_slots_per_sm as u64 * mk) as f64;
        let got: u64 = self.per_gpu.iter().map(|g| g.active_warp_ns).sum();
        got as f64 / (cap * self.per_gpu.len() as f64)
    }

    /// "SM utilization" (§5.1): fraction of SM-time with issuable work.
    pub fn sm_utilization(&self) -> f64 {
        let mk = self.makespan_ns();
        if mk == 0 || self.per_gpu.is_empty() {
            return 0.0;
        }
        let cap = (self.num_sms as u64 * mk) as f64;
        let got: u64 = self.per_gpu.iter().map(|g| g.sm_active_ns).sum();
        got as f64 / (cap * self.per_gpu.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::GpuSpec;

    fn launch(warps: u32, smem: u32) -> KernelLaunch {
        KernelLaunch { blocks: 1, warps_per_block: warps, smem_per_block: smem }
    }

    #[test]
    fn residency_limited_by_warps() {
        let spec = GpuSpec::a100(); // 64 warp slots
        assert_eq!(launch(16, 0).max_resident_blocks(&spec).unwrap(), 4);
        assert_eq!(launch(64, 0).max_resident_blocks(&spec).unwrap(), 1);
    }

    #[test]
    fn residency_limited_by_smem() {
        let spec = GpuSpec::a100(); // 164 KiB smem
        let blk = launch(1, 60 * 1024);
        assert_eq!(blk.max_resident_blocks(&spec).unwrap(), 2);
    }

    #[test]
    fn residency_limited_by_hw_cap() {
        let spec = GpuSpec::a100(); // max 32 blocks/SM
        assert_eq!(launch(1, 0).max_resident_blocks(&spec).unwrap(), 32);
    }

    #[test]
    fn invalid_launches_rejected() {
        let spec = GpuSpec::a100();
        assert_eq!(launch(0, 0).max_resident_blocks(&spec), Err(LaunchError::ZeroWarps));
        assert!(matches!(
            launch(65, 0).max_resident_blocks(&spec),
            Err(LaunchError::TooManyWarps { .. })
        ));
        assert!(matches!(
            launch(1, 200 * 1024).max_resident_blocks(&spec),
            Err(LaunchError::SmemOverflow { .. })
        ));
    }

    #[test]
    fn stats_derivations() {
        let stats = KernelStats {
            per_gpu: vec![GpuKernelStats {
                finish_ns: 100,
                warp_residency_ns: 64 * 100 * 108 / 2,
                active_warp_ns: 64 * 100 * 108 / 2, // half occupancy
                sm_active_ns: 108 * 100,
                sched_busy_ns: 0,
                warps: 1,
                blocks: 1,
            }],
            traffic: TrafficStats::default(),
            recovery: RecoveryStats::default(),
            cache: mgg_cache::CacheStats::default(),
            num_sms: 108,
            warp_slots_per_sm: 64,
        };
        assert!((stats.achieved_occupancy() - 0.5).abs() < 1e-9);
        assert!((stats.sm_utilization() - 1.0).abs() < 1e-9);
    }
}
