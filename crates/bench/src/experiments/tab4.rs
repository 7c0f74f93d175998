//! Table 4: comparison with DGCL on a 1-layer GCN, 8 GPUs.
//!
//! Paper result: MGG beats DGCL by ~7.4× on the GCN kernel and by more
//! than 100× on graph preprocessing. Preprocessing columns are *measured
//! wall-clock* (both are host CPU algorithms: DGCL's multilevel
//! partitioner vs MGG's binary-search split); GCN columns are simulated.

use std::time::Instant;

use mgg_baselines::DgclEngine;
use mgg_core::placement::HybridPlacement;
use mgg_core::workload::build_plans;
use mgg_gnn::models::DenseCostModel;
use mgg_gnn::reference::AggregateMode;
use mgg_graph::CsrGraph;
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::{geomean, ExperimentReport};

/// Serialized `tab4 row` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Tab4Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Dgcl prep, in simulated ms.
    pub dgcl_prep_ms: f64,
    /// Mgg prep, in simulated ms.
    pub mgg_prep_ms: f64,
    /// Prep speedup.
    pub prep_speedup: f64,
    /// Dgcl gcn, in simulated ms.
    pub dgcl_gcn_ms: f64,
    /// Mgg gcn, in simulated ms.
    pub mgg_gcn_ms: f64,
    /// Gcn speedup.
    pub gcn_speedup: f64,
    /// Dgcl edge cut.
    pub dgcl_edge_cut: u64,
}

/// Serialized `tab4 report` record of this experiment.
#[derive(Debug, Clone, Serialize)]
pub struct Tab4Report {
    /// Number of GPUs.
    pub gpus: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<Tab4Row>,
    /// Geomean gcn speedup.
    pub geomean_gcn_speedup: f64,
    /// Geomean prep speedup.
    pub geomean_prep_speedup: f64,
}

/// Wall-clock nanoseconds of MGG's preprocessing of `graph` for `gpus`
/// GPUs: Algorithm 1's split, the locality partition and the neighbor
/// split (partition size 16).
fn mgg_prep_wall_ns(graph: &CsrGraph, gpus: usize) -> u128 {
    let t = Instant::now();
    let placement = HybridPlacement::plan(graph, gpus);
    let _plans = build_plans(&placement, 16);
    t.elapsed().as_nanos()
}

/// Runs the Table-4 comparison (1-layer GCN, 16 hidden dims).
pub fn run(scale: f64, gpus: usize) -> Tab4Report {
    let hidden = 16usize;
    // Each dataset row is an independent simulation; fan the cells out on
    // the deterministic worker pool (results merge in dataset order).
    let ds = datasets(scale);
    let _lbl = mgg_runtime::profile::region_label("bench.tab4");
    let rows: Vec<Tab4Row> = mgg_runtime::par_map(&ds, |d| {
        let spec = ClusterSpec::dgx_a100(gpus);
        let cost = DenseCostModel::a100(gpus);
        let n = d.graph.num_nodes();
        let dense = cost.gemm_ns(n, d.spec.dim, hidden);
        // The GCN layer transforms to 16 dims first and aggregates the
        // narrow embedding (see `Gcn::forward`); both systems do.
        let agg_dim = hidden.min(d.spec.dim);

        let (mut dgcl, prep) = DgclEngine::new(&d.graph, spec.clone());
        let mgg_wall_ns = mgg_prep_wall_ns(&d.graph, gpus);
        let dgcl_ns = dgcl.simulate_aggregation_ns(agg_dim) + dense;

        let mut mgg = crate::experiments::fig8::tuned_engine(
            &d.graph,
            spec,
            AggregateMode::GcnNorm,
            agg_dim,
        );
        let mgg_ns = mgg.simulate_aggregation_ns(agg_dim).expect("valid launch") + dense;

        Tab4Row {
            dataset: d.spec.name,
            dgcl_prep_ms: prep.dgcl_wall_ns as f64 / 1e6,
            mgg_prep_ms: mgg_wall_ns as f64 / 1e6,
            prep_speedup: prep.dgcl_wall_ns as f64 / mgg_wall_ns.max(1) as f64,
            dgcl_gcn_ms: dgcl_ns as f64 / 1e6,
            mgg_gcn_ms: mgg_ns as f64 / 1e6,
            gcn_speedup: dgcl_ns as f64 / mgg_ns.max(1) as f64,
            dgcl_edge_cut: prep.dgcl_edge_cut,
        }
    });
    let geomean_gcn_speedup =
        geomean(&rows.iter().map(|r| r.gcn_speedup).collect::<Vec<_>>());
    let geomean_prep_speedup =
        geomean(&rows.iter().map(|r| r.prep_speedup).collect::<Vec<_>>());
    Tab4Report { gpus, rows, geomean_gcn_speedup, geomean_prep_speedup }
}

impl ExperimentReport for Tab4Report {
    fn id(&self) -> &'static str {
        "tab4"
    }

    fn print(&self) {
        println!("Table 4: vs DGCL, 1-layer GCN ({} GPUs)", self.gpus);
        println!(
            "{:<8} {:>14} {:>13} {:>9} | {:>13} {:>12} {:>9}",
            "dataset", "DGCL prep(ms)", "MGG prep(ms)", "speedup", "DGCL GCN(ms)", "MGG GCN(ms)", "speedup"
        );
        for r in &self.rows {
            println!(
                "{:<8} {:>14.2} {:>13.2} {:>8.0}x | {:>13.3} {:>12.3} {:>8.2}x",
                r.dataset,
                r.dgcl_prep_ms,
                r.mgg_prep_ms,
                r.prep_speedup,
                r.dgcl_gcn_ms,
                r.mgg_gcn_ms,
                r.gcn_speedup
            );
        }
        println!(
            "geomean: preprocessing {:.0}x, GCN {:.2}x (paper: >100x and 7.38x)",
            self.geomean_prep_speedup, self.geomean_gcn_speedup
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};

    #[test]
    fn mgg_preprocesses_faster_than_dgcl() {
        let g = rmat(&RmatConfig::graph500(9, 5_000, 41));
        let (_, prep) = DgclEngine::new(&g, ClusterSpec::dgx_a100(4));
        let mgg_wall_ns = mgg_prep_wall_ns(&g, 4);
        assert!(mgg_wall_ns > 0);
        assert!(
            mgg_wall_ns < prep.dgcl_wall_ns,
            "MGG preprocessing must be faster ({mgg_wall_ns} ns vs DGCL's {} ns)",
            prep.dgcl_wall_ns
        );
    }
}
