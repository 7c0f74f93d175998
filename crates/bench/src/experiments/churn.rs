//! `ext_churn`: live-graph churn and elastic membership under load — the
//! artifact behind `mgg-churn` and the serving layer's scenario replay.
//!
//! Three phases per Table-3 dataset, all on the same calibrated server:
//!
//! 1. **Steady ceiling** — a quiet-churn run at 1.5x saturation measures
//!    the goodput ceiling the drill is judged against.
//! 2. **Drill** — the same 1.5x load through a full membership cycle
//!    (drain at 20%, leave at 35%, join at 55% of the window) while a
//!    steady delta stream with a 4x mutation burst applies at epoch
//!    fences. Claims: goodput stays within 10% of the ceiling
//!    (`drill_goodput_ratio >= 0.9`), no admitted query is lost
//!    (`drill_loss_free`), and the join passes the health gate.
//! 3. **Priority mix** — a 0.2/0.3/0.5 gold/silver/bronze mix at 1.0x
//!    and 2.0x load. Claims: shedding is strictly priority-ordered at
//!    overload (`bronze_sheds_first`) and the gold deadline-miss rate
//!    does not increase when load doubles (`gold_miss_rate_holds`).
//!
//! A fourth, engine-level check replays every fence's delta batch through
//! [`MggEngine::apply_graph_deltas`] on 1 and 4 host threads: the mutated
//! graph's functional aggregation must digest identically and the
//! versioned cache must report zero stale reads (`stale_reads == 0`,
//! `replay_matches`). The serving scenario set itself also replays on the
//! sequential pool and must match the parallel pool bitwise.

use mgg_churn::{BurstWindow, ChurnEventKind, ChurnSchedule, ChurnSpec, MembershipChange, MembershipEvent};
use mgg_core::{CacheConfig, MggConfig, MggEngine};
use mgg_fault::FaultSchedule;
use mgg_gnn::reference::AggregateMode;
use mgg_gnn::tensor::Matrix;
use mgg_serve::{PriorityMix, ServeConfig, Server, WorkloadSpec};
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::{fnv1a, ExperimentReport};

/// Offered load of the ceiling run and the drill, as a multiple of
/// calibrated saturation.
const DRILL_LOAD: f64 = 1.5;

/// Steady delta rate of the drill's churn plane, per simulated second.
const DELTA_RATE: f64 = 500_000.0;

/// Mutation-burst multiplier applied in the middle of the drill window.
const BURST_MULT: f64 = 4.0;

/// Gold/silver/bronze weights of the priority-mix phase.
const MIX: [f64; 3] = [0.2, 0.3, 0.5];

/// The drain / leave / join instants as fractions of the window.
const DRAIN_AT: f64 = 0.20;
const LEAVE_AT: f64 = 0.35;
const JOIN_AT: f64 = 0.55;

/// The ceiling-vs-drill drill of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnDrillRow {
    /// Dataset name.
    pub dataset: String,
    /// Offered.
    pub offered: u64,
    /// Queries admitted past the queue.
    pub admitted: u64,
    /// In-deadline completions per second through the drill.
    pub goodput_qps: f64,
    /// Quiet-churn goodput at the same offered load.
    pub steady_goodput_qps: f64,
    /// Drill goodput over the steady ceiling.
    pub goodput_ratio: f64,
    /// Fences.
    pub fences: u64,
    /// Deltas applied.
    pub deltas_applied: u64,
    /// Drains.
    pub drains: u64,
    /// Leaves.
    pub leaves: u64,
    /// Joins.
    pub joins: u64,
    /// Join rejections.
    pub join_rejections: u64,
    /// Pending queries migrated off the leaving shard (all dispatched).
    pub migrated_queries: u64,
    /// Fence stall, in simulated ns.
    pub fence_stall_ns: u64,
    /// offered == admitted + shed: nothing vanished mid-migration.
    pub loss_free: bool,
    /// Digest.
    pub digest: String,
}

/// One (dataset, load, class) cell of the priority phase.
#[derive(Debug, Clone, Serialize)]
pub struct PriorityClassRow {
    /// Dataset name.
    pub dataset: String,
    /// Offered load as a multiple of calibrated saturation.
    pub load_mult: f64,
    /// Class.
    pub class: String,
    /// Offered.
    pub offered: u64,
    /// Queries admitted past the queue.
    pub admitted: u64,
    /// Shed.
    pub shed: u64,
    /// shed / offered for this class.
    pub shed_fraction: f64,
    /// deadline_violations / admitted for this class.
    pub deadline_miss_rate: f64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
}

/// The engine-level mutation replay of one dataset.
#[derive(Debug, Clone, Serialize)]
pub struct MutationRow {
    /// Dataset name.
    pub dataset: String,
    /// Deltas applied.
    pub deltas_applied: u64,
    /// Affected rows.
    pub affected_rows: u64,
    /// Cache entries dropped by targeted fence invalidation.
    pub invalidated: u64,
    /// Inserted nodes.
    pub inserted_nodes: u64,
    /// Removed nodes.
    pub removed_nodes: u64,
    /// Versioned-read violations (must be 0).
    pub stale_reads: u64,
    /// FNV-1a of the post-churn functional aggregation output.
    pub digest: String,
    /// 1-thread and 4-thread replays digested identically.
    pub threads_match: bool,
}

/// The `ext_churn` report: drill, priority phase, mutation replay.
#[derive(Debug, Clone, Serialize)]
pub struct ChurnBenchReport {
    /// Number of GPUs.
    pub gpus: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Simulated workload window per run, in ns.
    pub duration_ns: u64,
    /// Drill.
    pub drill: Vec<ChurnDrillRow>,
    /// Priority.
    pub priority: Vec<PriorityClassRow>,
    /// Mutation.
    pub mutation: Vec<MutationRow>,
    /// Worst-case over datasets of drill goodput over the steady ceiling.
    pub drill_goodput_ratio: f64,
    /// Every drill conserved queries and completed its membership cycle.
    pub drill_loss_free: bool,
    /// At 2.0x load the gold deadline-miss rate is no worse than at 1.0x
    /// on every dataset.
    pub gold_miss_rate_holds: bool,
    /// At 2.0x load shed fractions are ordered bronze >= silver >= gold
    /// with bronze actually shedding, on every dataset.
    pub bronze_sheds_first: bool,
    /// Total stale versioned reads across all mutation replays (must be 0).
    pub stale_reads: u64,
    /// Serving scenarios and engine mutations replay digest-identically
    /// on sequential and parallel pools.
    pub replay_matches: bool,
}

/// The drill's churn plane: steady deltas, a mid-window burst, and the
/// scripted drain -> leave -> join cycle on shard 1.
fn drill_spec(duration_ns: u64) -> ChurnSpec {
    let at = |f: f64| (duration_ns as f64 * f) as u64;
    let mut spec = ChurnSpec::steady(7, duration_ns, DELTA_RATE);
    spec.burst = Some(BurstWindow { start_ns: at(0.40), end_ns: at(0.60), mult: BURST_MULT });
    spec.membership = vec![
        MembershipEvent { shard: 1, at_ns: at(DRAIN_AT), change: MembershipChange::Drain },
        MembershipEvent { shard: 1, at_ns: at(LEAVE_AT), change: MembershipChange::Leave },
        MembershipEvent { shard: 1, at_ns: at(JOIN_AT), change: MembershipChange::Join },
    ];
    spec
}

/// Replays every fence of `sched` through the engine, then digests the
/// functional aggregation of the mutated graph. Runs the whole thing
/// under `threads` workers.
fn mutate_and_digest(
    graph: &mgg_graph::CsrGraph,
    gpus: usize,
    sched: &ChurnSchedule,
    threads: usize,
) -> (mgg_core::DeltaReport, u64, String) {
    mgg_runtime::with_threads(threads, || {
        let mut engine = MggEngine::new(
            graph,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        engine.set_cache(Some(CacheConfig::from_mb(64)));
        // Warm the remote-row cache so fence invalidation has resident
        // entries to target (a cold cache trivially invalidates nothing).
        engine.simulate_aggregation(16).expect("warm-up launch");
        let mut total = mgg_core::DeltaReport::default();
        for ev in sched.events() {
            if let ChurnEventKind::Fence { deltas } = &ev.kind {
                if deltas.is_empty() {
                    continue;
                }
                let r = engine.apply_graph_deltas(deltas).expect("fence applies");
                total.applied += r.applied;
                total.affected_rows += r.affected_rows;
                total.invalidated += r.invalidated;
                total.inserted_nodes += r.inserted_nodes;
                total.removed_nodes += r.removed_nodes;
                total.edges_added += r.edges_added;
                total.edges_removed += r.edges_removed;
            }
        }
        let n = engine.graph().num_nodes();
        let dim = 16;
        let mut x = Matrix::zeros(n, dim);
        for (i, v) in x.data_mut().iter_mut().enumerate() {
            *v = ((i * 31 + 7) % 97) as f32 * 0.01;
        }
        let y = engine.aggregate_values(&x);
        let digest = fnv1a(y.data().iter().map(|f| f.to_bits() as u64));
        (total, engine.stale_reads(), digest)
    })
}

/// Runs the `ext_churn` experiment.
pub fn run(scale: f64, gpus: usize) -> ChurnBenchReport {
    let dim = 64;
    let mut drill = Vec::new();
    let mut priority = Vec::new();
    let mut mutation = Vec::new();
    let mut goodput_ratio = f64::INFINITY;
    let mut loss_free = true;
    let mut gold_holds = true;
    let mut bronze_first = true;
    let mut stale_total = 0u64;
    let mut replay_matches = true;
    let mut duration_ns = 0;

    for ds in datasets(scale) {
        let mut engine = MggEngine::new(
            &ds.graph,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let server =
            Server::new(&mut engine, dim, ServeConfig::default()).expect("serving calibration");
        let sat = server.calibration().saturation_qps;
        let nodes = ds.graph.num_nodes();
        let base = WorkloadSpec::poisson(42, sat * DRILL_LOAD, nodes);
        duration_ns = base.duration_ns;

        let mix = PriorityMix::new(MIX[0], MIX[1], MIX[2]);
        let mixed = |mult: f64| WorkloadSpec { qps: sat * mult, mix, ..base };
        let quiet = || ChurnSchedule::quiet(duration_ns);
        let scenarios = vec![
            // 0: steady ceiling at the drill load, no churn.
            (base, FaultSchedule::quiet(gpus), quiet()),
            // 1: the drill — same load through the membership cycle + burst.
            (
                base,
                FaultSchedule::quiet(gpus),
                ChurnSchedule::derive(&drill_spec(duration_ns), nodes),
            ),
            // 2/3: priority mix at nominal and doubled load, no churn.
            (mixed(1.0), FaultSchedule::quiet(gpus), quiet()),
            (mixed(2.0), FaultSchedule::quiet(gpus), quiet()),
        ];

        let outs = server.run_sweep(&scenarios);
        let seq_outs = mgg_runtime::with_threads(1, || server.run_sweep(&scenarios));
        replay_matches &= outs
            .iter()
            .zip(&seq_outs)
            .all(|(a, b)| a.summary.digest == b.summary.digest && a == b);

        let ceiling = &outs[0].summary;
        let s = &outs[1].summary;
        let c = &s.churn;
        let ratio = if ceiling.goodput_qps > 0.0 { s.goodput_qps / ceiling.goodput_qps } else { 0.0 };
        goodput_ratio = goodput_ratio.min(ratio);
        let shed = s.shed_queue + s.shed_rate + s.shed_infeasible + s.shed_unavailable;
        let conserved = s.offered == s.admitted + shed;
        let cycled = c.drains == 1 && c.leaves == 1 && c.joins == 1 && c.join_rejections == 0;
        loss_free &= conserved && cycled;
        drill.push(ChurnDrillRow {
            dataset: ds.spec.name.to_string(),
            offered: s.offered,
            admitted: s.admitted,
            goodput_qps: s.goodput_qps,
            steady_goodput_qps: ceiling.goodput_qps,
            goodput_ratio: ratio,
            fences: c.fences,
            deltas_applied: c.deltas_applied,
            drains: c.drains,
            leaves: c.leaves,
            joins: c.joins,
            join_rejections: c.join_rejections,
            migrated_queries: c.migrated_queries,
            fence_stall_ns: c.fence_stall_ns,
            loss_free: conserved && cycled,
            digest: s.digest.clone(),
        });

        // Priority phase: per-class rows at 1.0x and 2.0x.
        let mut miss = [[0.0f64; 3]; 2]; // [load][class] deadline-miss rate
        let mut shed_frac = [[0.0f64; 3]; 2];
        for (li, (mult, out)) in [(1.0, &outs[2]), (2.0, &outs[3])].iter().enumerate() {
            for (ci, pc) in out.summary.per_class.iter().enumerate() {
                let miss_rate = if pc.admitted > 0 {
                    pc.deadline_violations as f64 / pc.admitted as f64
                } else {
                    0.0
                };
                let sf =
                    if pc.offered > 0 { pc.shed as f64 / pc.offered as f64 } else { 0.0 };
                miss[li][ci] = miss_rate;
                shed_frac[li][ci] = sf;
                priority.push(PriorityClassRow {
                    dataset: ds.spec.name.to_string(),
                    load_mult: *mult,
                    class: pc.class.clone(),
                    offered: pc.offered,
                    admitted: pc.admitted,
                    shed: pc.shed,
                    shed_fraction: sf,
                    deadline_miss_rate: miss_rate,
                    p99_ns: pc.p99_ns,
                });
            }
        }
        // Doubling the load must not worsen gold's deadline-miss rate...
        gold_holds &= miss[1][0] <= miss[0][0] + 1e-9;
        // ...because the extra pressure lands on bronze (then silver) first.
        bronze_first &= shed_frac[1][2] > 0.0
            && shed_frac[1][2] >= shed_frac[1][1]
            && shed_frac[1][1] >= shed_frac[1][0];

        // Engine-level mutation replay at 1 and 4 host threads.
        let msched = ChurnSchedule::derive(&drill_spec(duration_ns), nodes);
        let (rep, stale1, d1) = mutate_and_digest(&ds.graph, gpus, &msched, 1);
        let (_, stale4, d4) = mutate_and_digest(&ds.graph, gpus, &msched, 4);
        stale_total += stale1 + stale4;
        replay_matches &= d1 == d4;
        mutation.push(MutationRow {
            dataset: ds.spec.name.to_string(),
            deltas_applied: rep.applied as u64,
            affected_rows: rep.affected_rows as u64,
            invalidated: rep.invalidated as u64,
            inserted_nodes: rep.inserted_nodes as u64,
            removed_nodes: rep.removed_nodes as u64,
            stale_reads: stale1 + stale4,
            digest: d1.clone(),
            threads_match: d1 == d4,
        });
    }

    ChurnBenchReport {
        gpus,
        dim,
        duration_ns,
        drill,
        priority,
        mutation,
        drill_goodput_ratio: goodput_ratio,
        drill_loss_free: loss_free,
        gold_miss_rate_holds: gold_holds,
        bronze_sheds_first: bronze_first,
        stale_reads: stale_total,
        replay_matches,
    }
}

impl ExperimentReport for ChurnBenchReport {
    fn id(&self) -> &'static str {
        "ext_churn"
    }

    fn print(&self) {
        println!(
            "churn drill on {} GPUs, dim {}, {:.1} ms window, {DRILL_LOAD}x load, \
             drain/leave/join at {:.0}/{:.0}/{:.0}% of window",
            self.gpus,
            self.dim,
            self.duration_ns as f64 / 1e6,
            100.0 * DRAIN_AT,
            100.0 * LEAVE_AT,
            100.0 * JOIN_AT,
        );
        println!(
            "{:<8} {:>9} {:>9} {:>10} {:>10} {:>6} {:>7} {:>7} {:>9} {:>5}",
            "dataset", "offered", "admitted", "goodput", "ceiling", "ratio", "fences", "deltas", "migrated", "ok"
        );
        for r in &self.drill {
            println!(
                "{:<8} {:>9} {:>9} {:>8.2}M {:>8.2}M {:>6.3} {:>7} {:>7} {:>9} {:>5}",
                r.dataset,
                r.offered,
                r.admitted,
                r.goodput_qps / 1e6,
                r.steady_goodput_qps / 1e6,
                r.goodput_ratio,
                r.fences,
                r.deltas_applied,
                r.migrated_queries,
                if r.loss_free { "yes" } else { "NO" }
            );
        }
        println!("\npriority mix {MIX:?} (gold/silver/bronze):");
        for r in &self.priority {
            println!(
                "  {:<8} {:>4.1}x {:<6} offered {:>8} shed {:>6.1}% miss {:>6.2}% p99 {:>8.1} us",
                r.dataset,
                r.load_mult,
                r.class,
                r.offered,
                100.0 * r.shed_fraction,
                100.0 * r.deadline_miss_rate,
                r.p99_ns as f64 / 1e3,
            );
        }
        println!("\nengine mutation replay (1 vs 4 threads):");
        for m in &self.mutation {
            println!(
                "  {:<8} {} deltas, {} rows touched, {} invalidated, +{}/-{} nodes, {} stale reads, digest {} ({})",
                m.dataset,
                m.deltas_applied,
                m.affected_rows,
                m.invalidated,
                m.inserted_nodes,
                m.removed_nodes,
                m.stale_reads,
                m.digest,
                if m.threads_match { "threads match" } else { "THREAD MISMATCH" }
            );
        }
        println!(
            "\ndrill goodput ratio (worst dataset): {:.3}; loss-free: {}; gold miss rate holds at 2x: {}; bronze sheds first: {}; stale reads: {}; replay identical: {}",
            self.drill_goodput_ratio,
            self.drill_loss_free,
            self.gold_miss_rate_holds,
            self.bronze_sheds_first,
            self.stale_reads,
            self.replay_matches
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_report_holds_robustness_claims() {
        // 8 GPUs to match the committed artifact: the drill retires one of
        // the fleet's shards for 35% of the window, so the goodput-ratio
        // claim is a statement about *that* capacity fraction (1/8 here; a
        // 4-GPU drill loses 25% of its fleet and sits near 0.88).
        let r = run(0.05, 8);
        assert_eq!(r.drill.len(), 5);
        assert_eq!(r.priority.len(), 5 * 2 * 3);
        assert_eq!(r.mutation.len(), 5);
        assert!(
            r.drill_goodput_ratio >= 0.9,
            "drill goodput ratio {} fell below 0.9x the steady ceiling",
            r.drill_goodput_ratio
        );
        assert!(r.drill_loss_free, "membership cycle must conserve queries");
        assert!(r.gold_miss_rate_holds, "gold deadline-miss rate rose at 2x load");
        assert!(r.bronze_sheds_first, "shedding must be priority-ordered");
        assert_eq!(r.stale_reads, 0, "versioned reads must never see a stale row");
        assert!(r.replay_matches, "1-vs-4-thread replays diverged");
        assert!(r.drill.iter().all(|d| d.fences > 0 && d.deltas_applied > 0));
        assert!(r.mutation.iter().all(|m| m.deltas_applied > 0 && m.invalidated > 0));
    }
}
