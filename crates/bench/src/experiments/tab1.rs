//! Table 1: Direct NVSHMEM vs UVM speedup.
//!
//! Paper result: naively replacing UVM with on-demand blocking NVSHMEM
//! gets is *not* a free lunch — speedups range from 0.20× (ORKT) to
//! 1.44× (PROD), 23% slower on average.

use mgg_baselines::{DirectNvshmemEngine, UvmGnnEngine};
use mgg_gnn::reference::AggregateMode;
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::{geomean, ExperimentReport};

/// Serialized `tab1 row` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Tab1Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Uvm, in simulated ms.
    pub uvm_ms: f64,
    /// Direct, in simulated ms.
    pub direct_ms: f64,
    /// `uvm / direct` — above 1 means direct NVSHMEM wins.
    pub speedup: f64,
}

/// Serialized `tab1 report` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Tab1Report {
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<Tab1Row>,
    /// Geomean speedup.
    pub geomean_speedup: f64,
}

/// Runs the aggregation comparison across all five datasets.
pub fn run(scale: f64, gpus: usize) -> Tab1Report {
    // Independent per-dataset simulations: parallel jobs, dataset-order merge.
    let ds = datasets(scale);
    let _lbl = mgg_runtime::profile::region_label("bench.tab1");
    let rows: Vec<Tab1Row> = mgg_runtime::par_map(&ds, |d| {
        let spec = ClusterSpec::dgx_a100(gpus);
        let mut uvm = UvmGnnEngine::new(&d.graph, spec.clone(), AggregateMode::Sum);
        let uvm_ns = uvm.simulate_aggregation_ns(d.spec.dim);
        let mut direct = DirectNvshmemEngine::new(&d.graph, spec);
        let direct_ns = direct.simulate_aggregation_ns(d.spec.dim);
        Tab1Row {
            dataset: d.spec.name,
            uvm_ms: uvm_ns as f64 / 1e6,
            direct_ms: direct_ns as f64 / 1e6,
            speedup: uvm_ns as f64 / direct_ns.max(1) as f64,
        }
    });
    let geomean_speedup = geomean(&rows.iter().map(|r| r.speedup).collect::<Vec<_>>());
    Tab1Report { gpus, rows, geomean_speedup }
}

impl ExperimentReport for Tab1Report {
    fn id(&self) -> &'static str {
        "tab1"
    }

    fn print(&self) {
        println!("Table 1: Direct NVSHMEM vs UVM ({} GPUs)", self.gpus);
        println!("{:<8} {:>10} {:>12} {:>9}", "dataset", "UVM (ms)", "direct (ms)", "speedup");
        for r in &self.rows {
            println!(
                "{:<8} {:>10.3} {:>12.3} {:>8.2}x",
                r.dataset, r.uvm_ms, r.direct_ms, r.speedup
            );
        }
        println!(
            "geomean speedup: {:.2}x (paper: 0.20x-1.44x, mixed; direct NVSHMEM is no free lunch)",
            self.geomean_speedup
        );
    }
}
