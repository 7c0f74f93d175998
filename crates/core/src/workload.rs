//! Pipeline-aware workload management (§3.1): per-GPU work plans.
//!
//! Composes the three splits — edge-balanced node split, locality-aware
//! edge split, workload-aware neighbor split — into, per GPU, two flat
//! lists of neighbor partitions (LNPs and RNPs in the paper's Figure 4/6
//! terminology) ready for warp mapping.

use mgg_graph::partition::neighbor::{partition_rows, NeighborPartition, PartitionKind};

use crate::placement::HybridPlacement;

/// One GPU's decomposed aggregation workload.
#[derive(Debug, Clone)]
pub struct WorkPlan {
    /// The GPU (PE) this plan belongs to.
    pub pe: usize,
    /// Local neighbor partitions (low-latency device-memory aggregation).
    pub lnps: Vec<NeighborPartition>,
    /// Remote neighbor partitions (symmetric-heap gets + aggregation).
    pub rnps: Vec<NeighborPartition>,
}

impl WorkPlan {
    /// Total neighbor entries covered by this plan.
    pub fn total_neighbors(&self) -> u64 {
        self.lnps.iter().chain(&self.rnps).map(|p| p.len as u64).sum()
    }
}

/// Builds every GPU's [`WorkPlan`] with neighbor-partition size `ps`
/// (`ps == 0` disables neighbor partitioning, the Figure-9(a) ablation).
pub fn build_plans(placement: &HybridPlacement, ps: u32) -> Vec<WorkPlan> {
    placement
        .parts
        .iter()
        .map(|part| WorkPlan {
            pe: part.pe,
            lnps: partition_rows(part.local.row_ptr(), ps as usize, PartitionKind::Local),
            rnps: partition_rows(part.remote.row_ptr(), ps as usize, PartitionKind::Remote),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::regular::star;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};
    use mgg_graph::partition::neighbor::verify_tiling;

    #[test]
    fn plans_tile_every_virtual_csr() {
        let g = rmat(&RmatConfig::graph500(10, 8_000, 11));
        let placement = HybridPlacement::plan(&g, 4);
        let plans = build_plans(&placement, 8);
        for (plan, part) in plans.iter().zip(&placement.parts) {
            assert!(verify_tiling(part.local.row_ptr(), &plan.lnps));
            assert!(verify_tiling(part.remote.row_ptr(), &plan.rnps));
        }
    }

    #[test]
    fn neighbor_conservation() {
        let g = rmat(&RmatConfig::graph500(10, 8_000, 13));
        let placement = HybridPlacement::plan(&g, 3);
        let plans = build_plans(&placement, 16);
        let total: u64 = plans.iter().map(|p| p.total_neighbors()).sum();
        assert_eq!(total, g.num_edges() as u64);
    }

    #[test]
    fn partitioning_bounds_skew_on_star() {
        // Global skew across all GPUs: without neighbor partitioning the
        // hub's single giant partition dwarfs the leaves' length-1 ones.
        let g = star(4_000);
        let placement = HybridPlacement::plan(&g, 2);
        let global_skew = |plans: &[WorkPlan]| -> f64 {
            let lens: Vec<u32> = plans
                .iter()
                .flat_map(|p| p.lnps.iter().chain(&p.rnps))
                .map(|p| p.len)
                .collect();
            let max = *lens.iter().max().unwrap() as f64;
            let min = *lens.iter().min().unwrap() as f64;
            max / min
        };
        let skew_with = global_skew(&build_plans(&placement, 16));
        let skew_without = global_skew(&build_plans(&placement, 0));
        assert!(skew_with <= 16.0, "skew_with={skew_with}");
        assert!(skew_without > 100.0, "skew_without={skew_without}");
    }

    #[test]
    fn ps_controls_partition_count() {
        let g = rmat(&RmatConfig::graph500(9, 4_000, 17));
        let placement = HybridPlacement::plan(&g, 2);
        let coarse = build_plans(&placement, 32);
        let fine = build_plans(&placement, 4);
        let count = |plans: &[WorkPlan]| -> usize {
            plans.iter().map(|p| p.lnps.len() + p.rnps.len()).sum()
        };
        assert!(count(&fine) > 2 * count(&coarse));
    }
}
