//! §5.1 GPU-kernel metrics: achieved occupancy and SM utilization.
//!
//! Paper result: MGG improves SM utilization by ~21% and achieved
//! occupancy by ~39% on average over the UVM design — the mechanism
//! behind Figure 8's speedups.
//!
//! Extended with the pipeline view: overlap efficiency (the fraction of
//! remote-wire time hidden under the same warp's compute), which each
//! engine's attached telemetry derives from the warp traces — the quantity
//! Figure 7(b)'s interleaving exists to raise.

use mgg_baselines::UvmGnnEngine;
use mgg_gnn::reference::AggregateMode;
use mgg_sim::ClusterSpec;
use mgg_telemetry::Telemetry;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::ExperimentReport;

/// One configuration’s predicted occupancy cell.
#[derive(Debug, Clone, Serialize)]
pub struct OccupancyRow {
    /// Dataset name.
    pub dataset: &'static str,
    /// Mgg occupancy.
    pub mgg_occupancy: f64,
    /// Uvm occupancy.
    pub uvm_occupancy: f64,
    /// Mgg sm util.
    pub mgg_sm_util: f64,
    /// Uvm sm util.
    pub uvm_sm_util: f64,
    /// Mgg overlap.
    pub mgg_overlap: f64,
    /// Uvm overlap.
    pub uvm_overlap: f64,
}

/// The SM-occupancy model validation report.
#[derive(Debug, Clone, Serialize)]
pub struct OccupancyReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<OccupancyRow>,
    /// Avg occupancy gain.
    pub avg_occupancy_gain: f64,
    /// Avg sm util gain.
    pub avg_sm_util_gain: f64,
    /// Avg overlap gain.
    pub avg_overlap_gain: f64,
}

/// Compares the kernel metrics of MGG and UVM across datasets.
pub fn run(scale: f64, gpus: usize) -> OccupancyReport {
    // Dataset cells are independent simulations; run them as parallel jobs
    // on the deterministic worker pool (results merge in dataset order).
    let ds = datasets(scale);
    let _lbl = mgg_runtime::profile::region_label("bench.occupancy");
    let rows: Vec<OccupancyRow> = mgg_runtime::par_map(&ds, |d| {
        let spec = ClusterSpec::dgx_a100(gpus);
        let mut mgg = crate::experiments::fig8::tuned_engine(
            &d.graph,
            spec.clone(),
            AggregateMode::Sum,
            d.spec.dim,
        );
        // Attached after tuning, so only the measured run is traced.
        let mgg_tel = Telemetry::enabled();
        mgg.set_telemetry(mgg_tel.clone());
        let mgg_stats = mgg.simulate_aggregation(d.spec.dim).expect("valid launch");
        let mut uvm = UvmGnnEngine::new(&d.graph, spec, AggregateMode::Sum);
        let uvm_tel = Telemetry::enabled();
        uvm.set_telemetry(uvm_tel.clone());
        let uvm_stats = uvm.simulate_aggregation(d.spec.dim);
        let overlap = |tel: &Telemetry| {
            tel.snapshot().pipeline.expect("telemetry derives the pipeline").overlap_efficiency
        };
        OccupancyRow {
            dataset: d.spec.name,
            mgg_occupancy: mgg_stats.achieved_occupancy(),
            uvm_occupancy: uvm_stats.achieved_occupancy(),
            mgg_sm_util: mgg_stats.sm_utilization(),
            uvm_sm_util: uvm_stats.sm_utilization(),
            mgg_overlap: overlap(&mgg_tel),
            uvm_overlap: overlap(&uvm_tel),
        }
    });
    let avg_occupancy_gain = rows
        .iter()
        .map(|r| r.mgg_occupancy - r.uvm_occupancy)
        .sum::<f64>()
        / rows.len() as f64;
    let avg_sm_util_gain =
        rows.iter().map(|r| r.mgg_sm_util - r.uvm_sm_util).sum::<f64>() / rows.len() as f64;
    let avg_overlap_gain =
        rows.iter().map(|r| r.mgg_overlap - r.uvm_overlap).sum::<f64>() / rows.len() as f64;
    OccupancyReport { gpus, rows, avg_occupancy_gain, avg_sm_util_gain, avg_overlap_gain }
}

impl ExperimentReport for OccupancyReport {
    fn id(&self) -> &'static str {
        "occupancy"
    }

    fn print(&self) {
        println!("Section 5.1 metrics: achieved occupancy & SM utilization ({} GPUs)", self.gpus);
        println!(
            "{:<8} {:>9} {:>9} | {:>9} {:>9} | {:>9} {:>9}",
            "dataset", "MGG occ", "UVM occ", "MGG util", "UVM util", "MGG ovlp", "UVM ovlp"
        );
        for r in &self.rows {
            println!(
                "{:<8} {:>8.1}% {:>8.1}% | {:>8.1}% {:>8.1}% | {:>8.1}% {:>8.1}%",
                r.dataset,
                100.0 * r.mgg_occupancy,
                100.0 * r.uvm_occupancy,
                100.0 * r.mgg_sm_util,
                100.0 * r.uvm_sm_util,
                100.0 * r.mgg_overlap,
                100.0 * r.uvm_overlap
            );
        }
        println!(
            "average gains: occupancy +{:.1} points, SM utilization +{:.1} points, \
             overlap +{:.1} points (paper: +39.2% occupancy, +21.2% SM utilization)",
            100.0 * self.avg_occupancy_gain,
            100.0 * self.avg_sm_util_gain,
            100.0 * self.avg_overlap_gain
        );
    }
}
