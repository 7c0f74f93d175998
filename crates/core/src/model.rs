//! Analytical performance/resource modeling (§4, Equations 1–3).
//!
//! Two modeled quantities steer the tuner:
//!
//! ```text
//! WPW  = 2 · ps · D · dist                      (workload per warp)
//! SMEM = ps · wpb · IntS + 2 · wpb · D · FloatS (shared memory per block)
//! numWarps    = max(local, remote) / dist       (Equation 2)
//! numBlocks   = numWarps / wpb                  (Equation 3)
//! blocksPerSM = numBlocks / numSMs
//! ```
//!
//! Note: the paper's Listing 2 computes a larger shared-memory size
//! (`ps·wpb·IntS + 2·ps·wpb·D·FloatS`, i.e. a full `ps x D` staging area
//! per warp); Equation 1 keeps one `D`-vector per warp for the partial
//! result and one for the remote staging buffer. The two disagree in the
//! paper itself; we follow Equation 1 for modeling, since Equation 1 is
//! what the constraint `SMEM ≤ c2` is stated over.

use mgg_sim::{GpuSpec, KernelLaunch};
use serde::Serialize;

use crate::config::MggConfig;
use crate::workload::WorkPlan;

const INT_S: u64 = 4;
const FLOAT_S: u64 = 4;

/// The §4 model, bound to a GPU spec and an embedding dimension.
#[derive(Debug, Clone)]
pub struct AnalyticalModel {
    /// The GPU the model prices constraints against.
    pub spec: GpuSpec,
    /// Node embedding dimension `D`.
    pub dim: usize,
}

/// Model outputs for one configuration and workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ModelEstimate {
    /// Workload per warp (Equation 1).
    pub wpw: u64,
    /// Shared memory per block (Equation 2).
    pub smem_bytes: u64,
    /// Total warps the configuration launches.
    pub num_warps: u64,
    /// Total thread blocks (Equation 3).
    pub num_blocks: u64,
    /// Resident blocks per SM the configuration implies.
    pub blocks_per_sm: f64,
}

impl AnalyticalModel {
    /// Creates the model.
    pub fn new(spec: GpuSpec, dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        AnalyticalModel { spec, dim }
    }

    /// Equation 1 (first line): workload per warp in elements.
    pub fn wpw(&self, cfg: &MggConfig) -> u64 {
        2 * cfg.ps as u64 * self.dim as u64 * cfg.dist as u64
    }

    /// Equation 1 (second line): dynamic shared memory per block in bytes.
    pub fn smem_bytes(&self, cfg: &MggConfig) -> u64 {
        cfg.ps as u64 * cfg.wpb as u64 * INT_S
            + 2 * cfg.wpb as u64 * self.dim as u64 * FLOAT_S
    }

    /// Equations 2–3 for a given per-GPU partition census.
    pub fn estimate(&self, cfg: &MggConfig, local: usize, remote: usize) -> ModelEstimate {
        let num_warps = local.max(remote).div_ceil(cfg.dist.max(1) as usize) as u64;
        let num_blocks = num_warps.div_ceil(cfg.wpb.max(1) as u64);
        ModelEstimate {
            wpw: self.wpw(cfg),
            smem_bytes: self.smem_bytes(cfg),
            num_warps,
            num_blocks,
            blocks_per_sm: num_blocks as f64 / self.spec.num_sms as f64,
        }
    }

    /// Hardware-constraint check (`SMEM ≤ c2`, §4 constraint 4) plus the
    /// search-space bounds (§4 constraints 1–3).
    pub fn feasible(&self, cfg: &MggConfig) -> bool {
        cfg.in_search_space() && self.smem_bytes(cfg) <= self.spec.smem_per_sm as u64
    }

    /// Builds the simulator launch configuration for one GPU's plan —
    /// the host-side computation of Listing 2 lines 28–32.
    pub fn launch_for(&self, cfg: &MggConfig, plan: &WorkPlan) -> KernelLaunch {
        let est = self.estimate(cfg, plan.lnps.len(), plan.rnps.len());
        KernelLaunch {
            blocks: est.num_blocks as u32,
            warps_per_block: cfg.wpb,
            smem_per_block: est.smem_bytes as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AnalyticalModel {
        AnalyticalModel::new(GpuSpec::a100(), 602)
    }

    #[test]
    fn wpw_formula() {
        let m = model();
        let cfg = MggConfig { ps: 16, dist: 2, wpb: 4 };
        assert_eq!(m.wpw(&cfg), 2 * 16 * 602 * 2);
    }

    #[test]
    fn smem_formula_eq1() {
        let m = model();
        let cfg = MggConfig { ps: 16, dist: 1, wpb: 2 };
        assert_eq!(m.smem_bytes(&cfg), 16 * 2 * 4 + 2 * 2 * 602 * 4);
    }

    #[test]
    fn warp_and_block_counts() {
        let m = model();
        let cfg = MggConfig { ps: 16, dist: 2, wpb: 4 };
        let est = m.estimate(&cfg, 1_000, 600);
        assert_eq!(est.num_warps, 500); // ceil(max(1000,600)/2)
        assert_eq!(est.num_blocks, 125);
        assert!((est.blocks_per_sm - 125.0 / 108.0).abs() < 1e-9);
    }

    #[test]
    fn feasibility_respects_smem_cap() {
        let m = model();
        // Every in-bounds config fits A100's 164 KiB under Equation 1.
        assert!(m.feasible(&MggConfig { ps: 32, dist: 16, wpb: 16 }));
        // Out-of-bounds knobs are infeasible regardless of memory.
        assert!(!m.feasible(&MggConfig { ps: 64, dist: 1, wpb: 1 }));
        // A huge dim can exceed shared memory.
        let wide = AnalyticalModel::new(GpuSpec::a100(), 10_000);
        assert!(!wide.feasible(&MggConfig { ps: 1, dist: 1, wpb: 16 }));
    }

    #[test]
    fn launch_matches_estimate() {
        let m = model();
        let cfg = MggConfig { ps: 8, dist: 2, wpb: 2 };
        let plan = WorkPlan { pe: 0, lnps: vec![], rnps: vec![] };
        let launch = m.launch_for(&cfg, &plan);
        assert_eq!(launch.blocks, 0);
        assert_eq!(launch.warps_per_block, 2);
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    proptest! {
        #[test]
        fn smem_and_wpw_are_monotone_in_every_knob(
            ps in 1u32..32,
            dist in 1u32..16,
            wpb in 1u32..16,
            dim in 1usize..1024,
        ) {
            let m = AnalyticalModel::new(GpuSpec::a100(), dim);
            let cfg = MggConfig { ps, dist, wpb };
            let up_ps = MggConfig { ps: ps + 1, ..cfg };
            let up_wpb = MggConfig { wpb: wpb + 1, ..cfg };
            let up_dist = MggConfig { dist: dist + 1, ..cfg };
            prop_assert!(m.smem_bytes(&up_ps) >= m.smem_bytes(&cfg));
            prop_assert!(m.smem_bytes(&up_wpb) > m.smem_bytes(&cfg));
            prop_assert!(m.wpw(&up_ps) > m.wpw(&cfg));
            prop_assert!(m.wpw(&up_dist) > m.wpw(&cfg));
        }

        #[test]
        fn estimate_counts_are_consistent(
            local in 0usize..10_000,
            remote in 0usize..10_000,
            dist in 1u32..17,
            wpb in 1u32..17,
        ) {
            let m = AnalyticalModel::new(GpuSpec::a100(), 64);
            let cfg = MggConfig { ps: 16, dist, wpb };
            let est = m.estimate(&cfg, local, remote);
            // Warps cover the longer list at `dist` per warp; blocks cover
            // warps at `wpb` per block.
            prop_assert!(est.num_warps * dist as u64 >= local.max(remote) as u64);
            prop_assert!(est.num_blocks * wpb as u64 >= est.num_warps);
            prop_assert!((est.num_blocks.saturating_sub(1)) * wpb as u64 <= est.num_warps.max(1));
        }
    }
}
