//! `ext_serve`: overload and degradation behaviour of the serving layer —
//! the artifact behind `mgg-serve`.
//!
//! For every Table-3 dataset the experiment calibrates a [`Server`] on the
//! MGG engine, then offers seeded Poisson query streams at 0.5x, 1.0x and
//! 2.0x the calibrated saturation rate, plus a degraded-GPU scenario (a
//! 4.0x straggler under 1.0x load). The same scenario set runs on the
//! sequential and the parallel worker pool and must produce identical
//! decision digests (`replay_matches`).
//!
//! The stable robustness signals (the JSON's raison d'être in CI):
//!
//! * at 2.0x overload the server sheds (`overload_sheds`) while admitted
//!   queries still meet their deadline p99 (`overload_p99_within_deadline`)
//!   and goodput stays within 10% of the measured saturation goodput
//!   (`overload_goodput_ratio >= 0.9`) — shedding, not congestion collapse;
//! * under a straggling GPU the affected shard's breaker opens and rerouting
//!   never manufactures a deadline violation
//!   (`degraded_breaker_opened`, `degraded_routing_violations == 0`).

use mgg_churn::ChurnSchedule;
use mgg_core::{MggConfig, MggEngine};
use mgg_fault::{FaultSchedule, FaultSpec};
use mgg_gnn::reference::AggregateMode;
use mgg_serve::{ServeConfig, ServeOutcome, Server, WorkloadSpec};
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::ExperimentReport;

/// Offered-load multipliers of the calibrated saturation rate.
const LOAD_MULTS: &[f64] = &[0.5, 1.0, 2.0];

/// Straggler slowdown of the degraded-GPU scenario.
const STRAGGLER: f64 = 4.0;

/// One (dataset, offered-load) cell of the sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ServeLoadRow {
    /// Dataset name.
    pub dataset: String,
    /// Offered load as a multiple of calibrated saturation.
    pub load_mult: f64,
    /// Offered.
    pub offered: u64,
    /// Queries admitted past the queue.
    pub admitted: u64,
    /// Shed queue.
    pub shed_queue: u64,
    /// Shed fraction.
    pub shed_rate: u64,
    /// Shed infeasible.
    pub shed_infeasible: u64,
    /// Shed unavailable.
    pub shed_unavailable: u64,
    /// Shed fraction.
    pub shed_fraction: f64,
    /// In-deadline completions per second of simulated time.
    pub goodput_qps: f64,
    /// Calibrated full-batch healthy throughput.
    pub saturation_qps: f64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// P95, in simulated ns.
    pub p95_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// The per-query latency budget of this run.
    pub deadline_ns: u64,
    /// P99 within deadline.
    pub p99_within_deadline: bool,
    /// Deadline violations.
    pub deadline_violations: u64,
    /// Rerouted.
    pub rerouted: u64,
    /// Batches.
    pub batches: u64,
    /// Mean batch.
    pub mean_batch: f64,
    /// FNV-1a fingerprint of the full decision trace.
    pub digest: String,
}

/// The degraded-GPU scenario of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ServeFaultRow {
    /// Dataset name.
    pub dataset: String,
    /// Shards the fault schedule impairs.
    pub impaired_shards: Vec<usize>,
    /// Whether a breaker opened on every impaired shard.
    pub breaker_opened: bool,
    /// Breaker transitions.
    pub breaker_transitions: u64,
    /// Rerouted.
    pub rerouted: u64,
    /// Hedges.
    pub hedges: u64,
    /// Deadline violations attributable to rerouting (must stay 0: the
    /// admission feasibility check prices the relay surcharge up front).
    pub routing_violations: u64,
    /// Deadline violations.
    pub deadline_violations: u64,
    /// Shed fraction.
    pub shed_fraction: f64,
    /// Queries answered within deadline per second.
    pub goodput_qps: f64,
    /// Digest.
    pub digest: String,
}

/// The `ext_serve` report: load sweep, degradation runs, replay check.
#[derive(Debug, Clone, Serialize)]
pub struct ServeBenchReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Simulated workload window per run, in ns.
    pub duration_ns: u64,
    /// Per-cell sweep rows.
    pub rows: Vec<ServeLoadRow>,
    /// Faults.
    pub faults: Vec<ServeFaultRow>,
    /// Worst-case over datasets of goodput(2.0x) / goodput(1.0x): overload
    /// must not collapse the measured saturation goodput.
    pub overload_goodput_ratio: f64,
    /// Every dataset shed at 2.0x offered load.
    pub overload_sheds: bool,
    /// Every dataset's admitted p99 stayed inside the deadline at 2.0x.
    pub overload_p99_within_deadline: bool,
    /// Every degraded run opened the impaired shard's breaker.
    pub degraded_breaker_opened: bool,
    /// Total routing-attributable deadline violations across all degraded
    /// runs (must be 0).
    pub degraded_routing_violations: u64,
    /// The whole scenario set replays digest-identically on a sequential
    /// (`--threads 1`) and a parallel pool.
    pub replay_matches: bool,
}

fn load_row(dataset: &str, mult: f64, spec: &WorkloadSpec, out: &ServeOutcome) -> ServeLoadRow {
    let s = &out.summary;
    ServeLoadRow {
        dataset: dataset.to_string(),
        load_mult: mult,
        offered: s.offered,
        admitted: s.admitted,
        shed_queue: s.shed_queue,
        shed_rate: s.shed_rate,
        shed_infeasible: s.shed_infeasible,
        shed_unavailable: s.shed_unavailable,
        shed_fraction: s.shed_fraction,
        goodput_qps: s.goodput_qps,
        saturation_qps: s.saturation_qps,
        p50_ns: s.p50_ns,
        p95_ns: s.p95_ns,
        p99_ns: s.p99_ns,
        deadline_ns: spec.deadline_ns,
        p99_within_deadline: s.p99_ns <= spec.deadline_ns,
        deadline_violations: s.deadline_violations,
        rerouted: s.rerouted,
        batches: s.batches,
        mean_batch: s.mean_batch,
        digest: s.digest.clone(),
    }
}

/// Runs the `ext_serve` experiment.
pub fn run(scale: f64, gpus: usize) -> ServeBenchReport {
    let dim = 64;
    let mut rows = Vec::new();
    let mut faults = Vec::new();
    let mut goodput_ratio = f64::INFINITY;
    let mut sheds = true;
    let mut p99_ok = true;
    let mut breaker_opened = true;
    let mut routing_violations = 0u64;
    let mut replay_matches = true;
    let mut duration_ns = 0;

    for ds in datasets(scale) {
        let mut engine = MggEngine::new(
            &ds.graph,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let server = Server::new(&mut engine, dim, ServeConfig::default())
            .expect("serving calibration");
        let sat = server.calibration().saturation_qps;

        // Scenario set: the load sweep plus the degraded-GPU run, all
        // executed through the same deterministic fan-out.
        let scenario = |qps: f64, sched: FaultSchedule| {
            let spec = WorkloadSpec::poisson(42, qps, ds.graph.num_nodes());
            let quiet = ChurnSchedule::quiet(spec.duration_ns);
            (spec, sched, quiet)
        };
        let mut scenarios: Vec<(WorkloadSpec, FaultSchedule, ChurnSchedule)> =
            LOAD_MULTS.iter().map(|m| scenario(sat * m, FaultSchedule::quiet(gpus))).collect();
        let straggler = FaultSchedule::derive(
            &FaultSpec { seed: 5, straggler: STRAGGLER, ..FaultSpec::default() },
            gpus,
        );
        scenarios.push(scenario(sat, straggler.clone()));
        duration_ns = scenarios[0].0.duration_ns;

        let outs = server.run_sweep(&scenarios);
        let seq_outs = mgg_runtime::with_threads(1, || server.run_sweep(&scenarios));
        replay_matches &= outs
            .iter()
            .zip(&seq_outs)
            .all(|(a, b)| a.summary.digest == b.summary.digest && a == b);

        let mut goodput_at = [0.0f64; 2]; // [1.0x, 2.0x]
        for (i, mult) in LOAD_MULTS.iter().enumerate() {
            let row = load_row(ds.spec.name, *mult, &scenarios[i].0, &outs[i]);
            if *mult >= 1.0 {
                goodput_at[if *mult >= 2.0 { 1 } else { 0 }] = row.goodput_qps;
            }
            if *mult >= 2.0 {
                sheds &= row.shed_fraction > 0.0;
                p99_ok &= row.p99_within_deadline;
            }
            rows.push(row);
        }
        if goodput_at[0] > 0.0 {
            goodput_ratio = goodput_ratio.min(goodput_at[1] / goodput_at[0]);
        }

        let fo = &outs[LOAD_MULTS.len()];
        let impaired = straggler.impaired_gpus();
        let opened = impaired.iter().all(|s| {
            fo.transitions
                .iter()
                .any(|t| t.shard == *s && t.to == mgg_serve::BreakerState::Open)
        });
        breaker_opened &= opened;
        routing_violations += fo.summary.routing_violations;
        faults.push(ServeFaultRow {
            dataset: ds.spec.name.to_string(),
            impaired_shards: impaired,
            breaker_opened: opened,
            breaker_transitions: fo.transitions.len() as u64,
            rerouted: fo.summary.rerouted,
            hedges: fo.summary.hedges,
            routing_violations: fo.summary.routing_violations,
            deadline_violations: fo.summary.deadline_violations,
            shed_fraction: fo.summary.shed_fraction,
            goodput_qps: fo.summary.goodput_qps,
            digest: fo.summary.digest.clone(),
        });
    }

    ServeBenchReport {
        gpus,
        dim,
        duration_ns,
        rows,
        faults,
        overload_goodput_ratio: goodput_ratio,
        overload_sheds: sheds,
        overload_p99_within_deadline: p99_ok,
        degraded_breaker_opened: breaker_opened,
        degraded_routing_violations: routing_violations,
        replay_matches,
    }
}

impl ExperimentReport for ServeBenchReport {
    fn id(&self) -> &'static str {
        "ext_serve"
    }

    fn print(&self) {
        println!(
            "serving sweep on {} GPUs, dim {}, {:.1} ms window per run",
            self.gpus,
            self.dim,
            self.duration_ns as f64 / 1e6
        );
        println!(
            "{:<8} {:>5} {:>9} {:>9} {:>7} {:>11} {:>11} {:>9} {:>6}",
            "dataset", "load", "offered", "admitted", "shed%", "goodput", "saturation", "p99_us", "ok"
        );
        for r in &self.rows {
            println!(
                "{:<8} {:>4.1}x {:>9} {:>9} {:>6.1}% {:>9.2}M {:>9.2}M {:>9.1} {:>6}",
                r.dataset,
                r.load_mult,
                r.offered,
                r.admitted,
                100.0 * r.shed_fraction,
                r.goodput_qps / 1e6,
                r.saturation_qps / 1e6,
                r.p99_ns as f64 / 1e3,
                if r.p99_within_deadline { "yes" } else { "NO" }
            );
        }
        println!("\ndegraded-GPU runs ({STRAGGLER}x straggler, 1.0x load):");
        for f in &self.faults {
            println!(
                "  {:<8} impaired {:?}: breaker {}, {} transitions, {} rerouted, {} hedged, {} routing violations, goodput {:.2}M",
                f.dataset,
                f.impaired_shards,
                if f.breaker_opened { "opened" } else { "NEVER OPENED" },
                f.breaker_transitions,
                f.rerouted,
                f.hedges,
                f.routing_violations,
                f.goodput_qps / 1e6
            );
        }
        println!(
            "\noverload goodput ratio (2.0x vs 1.0x, worst dataset): {:.3}; sheds: {}; p99 in deadline: {}; breaker opened: {}; routing violations: {}; seq/par replay identical: {}",
            self.overload_goodput_ratio,
            self.overload_sheds,
            self.overload_p99_within_deadline,
            self.degraded_breaker_opened,
            self.degraded_routing_violations,
            self.replay_matches
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_report_holds_robustness_claims() {
        let r = run(0.05, 4);
        assert_eq!(r.rows.len(), 5 * LOAD_MULTS.len());
        assert_eq!(r.faults.len(), 5);
        assert!(r.overload_sheds, "2x overload must shed on every dataset");
        assert!(r.overload_p99_within_deadline);
        assert!(
            r.overload_goodput_ratio >= 0.9,
            "goodput ratio {} collapsed under overload",
            r.overload_goodput_ratio
        );
        assert!(r.degraded_breaker_opened);
        assert_eq!(r.degraded_routing_violations, 0);
        assert!(r.replay_matches);
    }
}
