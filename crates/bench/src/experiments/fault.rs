//! Extension: fault injection and graceful degradation.
//!
//! Measures what each deterministic fault class costs and how much of it
//! MGG's recovery path claws back, against the UVM baseline under the
//! *same* fault schedule. Per fault class:
//!
//! * `mgg_healthy_ms` — MGG with no faults installed (reference).
//! * `mgg_faulty_ms` — MGG under the fault schedule, with graceful
//!   degradation (retries, completion timeouts, health-weighted
//!   re-planning) active.
//! * `overhead_pct` — faulty vs healthy slowdown after recovery.
//! * recovery counters — retried GETs, timed-out completions, degraded
//!   transfers, re-plans, and the recovery latency (detection pass plus
//!   retry/timeout charges).
//! * `uvm_faulty_ms` — the UVM baseline under the same schedule, which has
//!   no recovery path and simply rides out the degradation.
//!
//! Everything derives from one seed, so the table replays identically.

use mgg_core::{MggConfig, MggEngine};
use mgg_fault::{FaultSchedule, FaultSpec};
use mgg_gnn::reference::AggregateMode;
use mgg_graph::datasets::DatasetSpec;
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::report::ExperimentReport;

const FAULT_SEED: u64 = 42;
const DIM: usize = 64;

/// Overhead at one fault intensity.
#[derive(Debug, Clone, Serialize)]
pub struct FaultRow {
    /// Class.
    pub class: &'static str,
    /// Mgg healthy ms.
    pub mgg_healthy_ms: f64,
    /// Mgg faulty ms.
    pub mgg_faulty_ms: f64,
    /// Overhead fraction.
    pub overhead_pct: f64,
    /// Retried gets.
    pub retried_gets: u64,
    /// Timed out completions.
    pub timed_out_completions: u64,
    /// Degraded transfers.
    pub degraded_transfers: u64,
    /// Replans.
    pub replans: u64,
    /// Recovery latency ms.
    pub recovery_latency_ms: f64,
    /// Uvm faulty ms.
    pub uvm_faulty_ms: f64,
}

/// The transient-fault overhead sweep.
#[derive(Debug, Clone, Serialize)]
pub struct FaultReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Dataset name.
    pub dataset: String,
    /// Per-cell sweep rows.
    pub rows: Vec<FaultRow>,
}

fn fault_classes() -> Vec<(&'static str, FaultSpec)> {
    let quiet = FaultSpec { seed: FAULT_SEED, ..Default::default() };
    vec![
        ("none", quiet),
        ("link-degrade", FaultSpec { link_degrade: 0.5, ..quiet }),
        ("straggler", FaultSpec { straggler: 2.0, ..quiet }),
        ("drop-get", FaultSpec { drop_rate: 0.05, ..quiet }),
        (
            "combined",
            FaultSpec { link_degrade: 0.5, straggler: 2.0, drop_rate: 0.05, ..quiet },
        ),
    ]
}

/// Runs the fault-overhead study on the reddit stand-in.
pub fn run(scale: f64, gpus: usize) -> FaultReport {
    let d = DatasetSpec::rdd().build(scale);
    let spec = ClusterSpec::dgx_a100(gpus);

    let rows = fault_classes()
        .into_iter()
        .map(|(class, fs)| {
            let mut mgg = MggEngine::new(
                &d.graph,
                spec.clone(),
                MggConfig::default_fixed(),
                AggregateMode::Sum,
            );
            let healthy = mgg.simulate_aggregation_ns(DIM).expect("valid launch");
            mgg.install_faults(fs).expect("fault classes are valid");
            let stats = mgg.simulate_aggregation(DIM).expect("valid launch");
            let faulty = stats.makespan_ns() + spec.kernel_launch_ns;

            let mut uvm = mgg_baselines::UvmGnnEngine::new(&d.graph, spec.clone(), AggregateMode::Sum);
            uvm.cluster.install_faults(FaultSchedule::derive(&fs, gpus));
            let uvm_faulty = uvm.simulate_aggregation_ns(DIM);

            FaultRow {
                class,
                mgg_healthy_ms: healthy as f64 / 1e6,
                mgg_faulty_ms: faulty as f64 / 1e6,
                overhead_pct: 100.0 * (faulty as f64 / healthy.max(1) as f64 - 1.0),
                retried_gets: stats.recovery.retried_gets,
                timed_out_completions: stats.recovery.dropped_completions,
                degraded_transfers: stats.recovery.degraded_transfers,
                replans: stats.recovery.replans,
                recovery_latency_ms: stats.recovery.recovery_latency_ns as f64 / 1e6,
                uvm_faulty_ms: uvm_faulty as f64 / 1e6,
            }
        })
        .collect();

    FaultReport { gpus, seed: FAULT_SEED, dataset: d.spec.name.to_string(), rows }
}

impl ExperimentReport for FaultReport {
    fn id(&self) -> &'static str {
        "ext_fault"
    }

    fn print(&self) {
        println!(
            "Extension: fault injection and graceful degradation ({} on {} GPUs, seed {}, dim {})",
            self.dataset, self.gpus, self.seed, DIM
        );
        println!(
            "{:<14} {:>11} {:>10} {:>9} {:>8} {:>9} {:>9} {:>7} {:>10} {:>10}",
            "fault class",
            "healthy ms",
            "faulty ms",
            "ovhd %",
            "retries",
            "timeouts",
            "degraded",
            "replans",
            "rec. ms",
            "UVM ms"
        );
        for r in &self.rows {
            println!(
                "{:<14} {:>11.3} {:>10.3} {:>8.1}% {:>8} {:>9} {:>9} {:>7} {:>10.3} {:>10.3}",
                r.class,
                r.mgg_healthy_ms,
                r.mgg_faulty_ms,
                r.overhead_pct,
                r.retried_gets,
                r.timed_out_completions,
                r.degraded_transfers,
                r.replans,
                r.recovery_latency_ms,
                r.uvm_faulty_ms
            );
        }
        println!(
            "faults perturb timing only: functional outputs stay exact under every class"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_deterministic_and_sane() {
        let a = run(0.02, 4);
        let b = run(0.02, 4);
        assert_eq!(a.rows.len(), 5);
        for (ra, rb) in a.rows.iter().zip(&b.rows) {
            assert_eq!(ra.mgg_faulty_ms, rb.mgg_faulty_ms, "{}", ra.class);
            assert_eq!(ra.retried_gets, rb.retried_gets, "{}", ra.class);
        }
        // The quiet class is exactly overhead-free.
        let none = &a.rows[0];
        assert_eq!(none.mgg_healthy_ms, none.mgg_faulty_ms);
        assert_eq!(none.retried_gets + none.replans + none.degraded_transfers, 0);
        // Drop class recovers via retries.
        let drop = a.rows.iter().find(|r| r.class == "drop-get").unwrap();
        assert!(drop.retried_gets > 0);
        assert!(drop.mgg_faulty_ms >= drop.mgg_healthy_ms);
    }
}
