//! Derived pipeline metrics: the quantified Figure-7 effect.
//!
//! The raw simulator output is a warp-level span stream plus aggregate
//! `KernelStats`. This module reduces them to the numbers the paper argues
//! about: **overlap efficiency** (what fraction of remote-wire time was
//! hidden under that warp's own compute), achieved occupancy and SM
//! utilization (§5.1), per-GPU-pair fabric traffic, and recovery overhead.

use mgg_sim::{KernelStats, RecoveryStats, TraceEvent, TraceKind};
use serde::Serialize;
use std::collections::BTreeMap;

pub use mgg_sim::PairStats as PairTraffic;

/// One simulated kernel reduced to its headline pipeline numbers.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PipelineMetrics {
    /// End-to-end kernel time (max over GPUs).
    pub makespan_ns: u64,
    /// Resident-warp occupancy achieved, in `[0, 1]`.
    pub achieved_occupancy: f64,
    /// Fraction of SM-time with at least one schedulable warp, in `[0, 1]`.
    pub sm_utilization: f64,
    /// Fraction of communication time hidden under compute, in `[0, 1]`.
    /// This is the Fig. 7(b) pipelining effect: a blocking design scores
    /// ~0, the non-blocking GET pipeline scores high.
    pub overlap_efficiency: f64,
    /// Total warp compute time across all warps.
    pub compute_ns: u64,
    /// Total communication time (remote wire + UVM page access) across all
    /// warps.
    pub comm_ns: u64,
    /// The part of `comm_ns` that overlapped the owning warp's compute.
    pub hidden_comm_ns: u64,
    /// Total time warps spent blocked in `WaitRemote`.
    pub wait_ns: u64,
    /// Summed idle time between each GPU's finish and the global makespan —
    /// the load-imbalance cost a barrier turns into waiting.
    pub barrier_skew_ns: u64,
    /// Bytes moved over the inter-GPU fabric.
    pub remote_bytes: u64,
    /// Fabric transfer requests issued.
    pub remote_requests: u64,
    /// Per-(source, destination) fabric traffic, nonzero pairs only.
    pub pair_traffic: Vec<PairTraffic>,
    /// Fault-recovery counters for the run (all zero when fault-free).
    pub recovery: RecoveryStats,
}

impl PipelineMetrics {
    /// Reduces one kernel's stats + warp trace to pipeline metrics.
    pub fn derive(stats: &KernelStats, events: &[TraceEvent]) -> Self {
        let makespan = stats.makespan_ns();
        let barrier_skew_ns = stats
            .per_gpu
            .iter()
            .map(|g| makespan.saturating_sub(g.finish_ns))
            .sum();
        let (compute_ns, comm_ns, hidden_comm_ns, wait_ns) = overlap_breakdown(events);
        PipelineMetrics {
            makespan_ns: makespan,
            achieved_occupancy: stats.achieved_occupancy(),
            sm_utilization: stats.sm_utilization(),
            overlap_efficiency: ratio(hidden_comm_ns, comm_ns),
            compute_ns,
            comm_ns,
            hidden_comm_ns,
            wait_ns,
            barrier_skew_ns,
            remote_bytes: stats.traffic.remote_bytes(),
            remote_requests: stats.traffic.remote_requests(),
            pair_traffic: stats.traffic.pairs.clone(),
            recovery: stats.recovery,
        }
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        (num as f64 / den as f64).clamp(0.0, 1.0)
    }
}

/// Fraction of communication time (remote wire + page access) hidden under
/// the owning warp's compute, in `[0, 1]`. Returns 0 when the trace has no
/// communication at all.
pub fn overlap_efficiency(events: &[TraceEvent]) -> f64 {
    let (_, comm, hidden, _) = overlap_breakdown(events);
    ratio(hidden, comm)
}

/// `(compute_ns, comm_ns, hidden_comm_ns, wait_ns)` for a warp trace.
///
/// Hidden time is computed per warp: each communication span is intersected
/// with the union of that same warp's compute spans, so a GET in flight
/// counts as hidden only while *its* warp is doing useful work — exactly
/// the intra-warp pipelining the kernel is designed around. Compute by
/// *other* warps deliberately does not count; latency tolerance via
/// multithreading is already captured by occupancy.
fn overlap_breakdown(events: &[TraceEvent]) -> (u64, u64, u64, u64) {
    // Per-(gpu, warp): (compute intervals, communication intervals).
    type Intervals = (Vec<(u64, u64)>, Vec<(u64, u64)>);
    let mut warps: BTreeMap<(u16, u32), Intervals> = BTreeMap::new();
    let mut compute_ns = 0u64;
    let mut wait_ns = 0u64;
    for e in events {
        if e.end <= e.start {
            continue;
        }
        let slot = warps.entry((e.gpu, e.warp)).or_default();
        match e.kind {
            TraceKind::Compute => {
                compute_ns += e.end - e.start;
                slot.0.push((e.start, e.end));
            }
            TraceKind::RemoteWire | TraceKind::PageAccess => slot.1.push((e.start, e.end)),
            TraceKind::WaitRemote => wait_ns += e.end - e.start,
            // Cache hits are local HBM reads, not fabric communication —
            // grouped with GlobalRead for the overlap accounting.
            TraceKind::GlobalRead | TraceKind::RemoteIssue | TraceKind::CacheHit => {}
        }
    }
    let mut comm_ns = 0u64;
    let mut hidden_ns = 0u64;
    for (compute, comm) in warps.into_values() {
        let merged = merge_intervals(compute);
        for (s, e) in comm {
            comm_ns += e - s;
            hidden_ns += covered_len(&merged, s, e);
        }
    }
    (compute_ns, comm_ns, hidden_ns, wait_ns)
}

/// Sorts and unions intervals into a disjoint, ordered list.
fn merge_intervals(mut xs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    xs.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(xs.len());
    for (s, e) in xs {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Length of `[s, e)` covered by the disjoint ordered intervals in `merged`.
fn covered_len(merged: &[(u64, u64)], s: u64, e: u64) -> u64 {
    let mut covered = 0;
    for &(ms, me) in merged {
        if me <= s {
            continue;
        }
        if ms >= e {
            break;
        }
        covered += me.min(e) - ms.max(s);
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_sim::TraceKind;

    fn ev(gpu: u16, warp: u32, kind: TraceKind, start: u64, end: u64) -> TraceEvent {
        TraceEvent { gpu, sm: 0, warp, kind, start, end }
    }

    #[test]
    fn empty_trace_scores_zero() {
        assert_eq!(overlap_efficiency(&[]), 0.0);
    }

    #[test]
    fn compute_only_trace_scores_zero() {
        let events = [ev(0, 0, TraceKind::Compute, 0, 100)];
        assert_eq!(overlap_efficiency(&events), 0.0);
    }

    #[test]
    fn fully_hidden_wire_scores_one() {
        let events = [
            ev(0, 0, TraceKind::Compute, 0, 100),
            ev(0, 0, TraceKind::RemoteWire, 10, 60),
        ];
        assert_eq!(overlap_efficiency(&events), 1.0);
    }

    #[test]
    fn blocking_page_access_scores_zero() {
        // UVM shape: page access, then compute — no concurrency.
        let events = [
            ev(0, 0, TraceKind::PageAccess, 0, 50),
            ev(0, 0, TraceKind::Compute, 50, 100),
        ];
        assert_eq!(overlap_efficiency(&events), 0.0);
    }

    #[test]
    fn partial_overlap_is_proportional() {
        // Wire spans [0, 80); compute covers [40, 80) → half hidden.
        let events = [
            ev(0, 0, TraceKind::RemoteWire, 0, 80),
            ev(0, 0, TraceKind::Compute, 40, 80),
        ];
        assert_eq!(overlap_efficiency(&events), 0.5);
    }

    #[test]
    fn other_warps_compute_does_not_hide() {
        // Wire on warp 0 concurrent with compute on warp 1 only.
        let events = [
            ev(0, 0, TraceKind::RemoteWire, 0, 100),
            ev(0, 1, TraceKind::Compute, 0, 100),
        ];
        assert_eq!(overlap_efficiency(&events), 0.0);
    }

    #[test]
    fn overlapping_compute_spans_are_not_double_counted() {
        let events = [
            ev(0, 0, TraceKind::Compute, 0, 60),
            ev(0, 0, TraceKind::Compute, 40, 80),
            ev(0, 0, TraceKind::RemoteWire, 50, 100),
        ];
        // Compute union is [0, 80); wire [50, 100) → 30 of 50 hidden.
        assert_eq!(overlap_efficiency(&events), 0.6);
    }

    #[test]
    fn zero_duration_spans_are_ignored() {
        let events = [
            ev(0, 0, TraceKind::RemoteWire, 10, 10),
            ev(0, 0, TraceKind::Compute, 0, 0),
        ];
        assert_eq!(overlap_efficiency(&events), 0.0);
    }

    #[test]
    fn breakdown_counts_wait_and_compute() {
        let events = [
            ev(0, 0, TraceKind::Compute, 0, 30),
            ev(0, 0, TraceKind::WaitRemote, 30, 50),
            ev(0, 0, TraceKind::RemoteWire, 10, 40),
        ];
        let (compute, comm, hidden, wait) = overlap_breakdown(&events);
        assert_eq!(compute, 30);
        assert_eq!(comm, 30);
        assert_eq!(hidden, 20);
        assert_eq!(wait, 20);
    }

    #[test]
    fn merge_and_cover_helpers() {
        let merged = merge_intervals(vec![(10, 20), (0, 5), (18, 30)]);
        assert_eq!(merged, vec![(0, 5), (10, 30)]);
        assert_eq!(covered_len(&merged, 0, 40), 25);
        assert_eq!(covered_len(&merged, 6, 9), 0);
        assert_eq!(covered_len(&merged, 4, 12), 3);
    }
}
