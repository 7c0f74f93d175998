//! Point-in-time copies of a recorder's contents, serializable to JSON and
//! renderable as the `mgg-cli profile` text report.

use crate::pipeline::PipelineMetrics;
use mgg_runtime::profile::RuntimeProfile;
use serde::Serialize;

/// Percentile of an ascending-sorted f64 sample set, `p` in `[0, 1]`:
/// the smallest sample whose rank is ≥ ⌈len·p⌉ (the ceil-rank rule the
/// serving layer has always used for its latency p50/p95/p99). Returns
/// 0.0 on an empty set.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[percentile_index(sorted.len(), p)]
}

/// [`percentile_sorted`] for integer samples (e.g. latency nanoseconds).
pub fn percentile_sorted_u64(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    sorted[percentile_index(sorted.len(), p)]
}

fn percentile_index(len: usize, p: f64) -> usize {
    ((len as f64 * p).ceil() as usize).clamp(1, len) - 1
}

/// One closed (or still-open, snapshotted-as-now) host phase span.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanSnapshot {
    /// Phase label the span was opened with.
    pub name: String,
    /// Wall-clock ns since the recorder was created.
    pub start_ns: u64,
    /// Close time (or snapshot time for a still-open span), ns.
    pub end_ns: u64,
    /// Nesting depth at open time (0 = top level).
    pub depth: u32,
}

impl SpanSnapshot {
    /// Span length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A monotonically incremented named counter, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CounterSnapshot {
    /// The counter's name.
    pub name: String,
    /// Its value at snapshot time.
    pub value: u64,
}

/// A last-write-wins named gauge, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GaugeSnapshot {
    /// The gauge's name.
    pub name: String,
    /// Its last written value.
    pub value: f64,
}

/// Summary statistics of a named sample distribution, frozen.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HistogramSnapshot {
    /// The histogram's name.
    pub name: String,
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: f64,
    /// Smallest sample (0 when empty).
    pub min: f64,
    /// Largest sample (0 when empty).
    pub max: f64,
    /// Ceil-rank percentiles over the recorded samples (0 when empty);
    /// see [`percentile_sorted`].
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything a [`crate::Telemetry`] recorded, frozen at snapshot time.
#[derive(Debug, Clone, Default, Serialize)]
pub struct MetricsSnapshot {
    /// Closed and still-open phase spans, in open order.
    pub spans: Vec<SpanSnapshot>,
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnapshot>,
    /// All gauges, sorted by name.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
    /// Pipeline-overlap attribution, when a kernel trace was ingested.
    pub pipeline: Option<PipelineMetrics>,
    /// Host worker-pool attribution, when the run was wrapped in
    /// `mgg_runtime::profile::collect` and attached via
    /// [`crate::Telemetry::attach_runtime_profile`].
    pub runtime: Option<RuntimeProfile>,
}

impl MetricsSnapshot {
    /// Pretty-printed JSON (the `--metrics-out` format).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
    }

    /// The human-readable profile report: per-phase breakdown, derived
    /// pipeline metrics, counters, gauges, histograms.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("== engine phases ==\n");
        if self.spans.is_empty() {
            out.push_str("(no spans recorded)\n");
        }
        let top_total: u64 =
            self.spans.iter().filter(|s| s.depth == 0).map(SpanSnapshot::duration_ns).sum();
        for s in &self.spans {
            let ms = s.duration_ns() as f64 / 1e6;
            let share = if top_total == 0 || s.depth != 0 {
                String::new()
            } else {
                format!("  {:5.1}%", 100.0 * s.duration_ns() as f64 / top_total as f64)
            };
            out.push_str(&format!(
                "{:indent$}{:24} {:>10.3} ms{}\n",
                "",
                s.name,
                ms,
                share,
                indent = 2 * s.depth as usize
            ));
        }
        if let Some(p) = &self.pipeline {
            out.push_str("\n== pipeline ==\n");
            out.push_str(&format!("makespan             {:>12} ns\n", p.makespan_ns));
            out.push_str(&format!("achieved occupancy   {:>12.4}\n", p.achieved_occupancy));
            out.push_str(&format!("sm utilization       {:>12.4}\n", p.sm_utilization));
            out.push_str(&format!("overlap efficiency   {:>12.4}\n", p.overlap_efficiency));
            out.push_str(&format!(
                "comm hidden/total    {:>12} / {} ns\n",
                p.hidden_comm_ns, p.comm_ns
            ));
            out.push_str(&format!("compute              {:>12} ns\n", p.compute_ns));
            out.push_str(&format!("wait-remote          {:>12} ns\n", p.wait_ns));
            out.push_str(&format!("barrier skew         {:>12} ns\n", p.barrier_skew_ns));
            out.push_str(&format!(
                "remote traffic       {:>12} B in {} requests\n",
                p.remote_bytes, p.remote_requests
            ));
            if !p.pair_traffic.is_empty() {
                out.push_str("per-pair traffic (src -> dst):\n");
                for t in &p.pair_traffic {
                    out.push_str(&format!(
                        "  gpu{:<2} -> gpu{:<2} {:>12} B {:>8} reqs\n",
                        t.src, t.dst, t.bytes, t.requests
                    ));
                }
            }
            let r = &p.recovery;
            if *r != Default::default() {
                out.push_str(&format!(
                    "recovery: {} retried gets, {} dropped completions, {} degraded transfers, \
                     {} replans, {} uvm fallbacks, {} ns latency\n",
                    r.retried_gets,
                    r.dropped_completions,
                    r.degraded_transfers,
                    r.replans,
                    r.uvm_fallbacks,
                    r.recovery_latency_ns
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("\n== counters ==\n");
            for c in &self.counters {
                out.push_str(&format!("{:32} {:>14}\n", c.name, c.value));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("\n== gauges ==\n");
            for g in &self.gauges {
                out.push_str(&format!("{:32} {:>14.4}\n", g.name, g.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("\n== histograms ==\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "{:32} n={} mean={:.1} min={:.1} p50={:.1} p95={:.1} p99={:.1} max={:.1}\n",
                    h.name,
                    h.count,
                    h.mean(),
                    h.min,
                    h.p50,
                    h.p95,
                    h.p99,
                    h.max
                ));
            }
        }
        if let Some(rt) = &self.runtime {
            out.push_str("\n== host worker pool ==\n");
            let b = rt.breakdown();
            let lane_total = b.exec_ns + b.overhead_ns();
            let pct = |ns: u64| {
                if lane_total == 0 {
                    0.0
                } else {
                    100.0 * ns as f64 / lane_total as f64
                }
            };
            for (name, ns) in [
                ("task-exec (on-cpu)", b.exec_ns),
                ("contended-exec", b.contended_exec_ns),
                ("spawn", b.spawn_ns),
                ("idle", b.idle_ns),
                ("ordered-merge-wait", b.merge_wait_ns),
            ] {
                out.push_str(&format!(
                    "{:32} {:>10.3} ms {:>6.1}%\n",
                    name,
                    ns as f64 / 1e6,
                    pct(ns)
                ));
            }
            for r in &rt.regions {
                out.push_str(&format!(
                    "  region {:24} {:>5} jobs x {:<2} workers  wall {:>9.3} ms\n",
                    r.name,
                    r.jobs,
                    r.workers,
                    r.wall_ns as f64 / 1e6
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_helpers_use_ceil_rank() {
        let f: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile_sorted(&f, 0.50), 50.0);
        assert_eq!(percentile_sorted(&f, 0.95), 95.0);
        assert_eq!(percentile_sorted(&f, 0.99), 99.0);
        assert_eq!(percentile_sorted(&[], 0.5), 0.0);
        assert_eq!(percentile_sorted_u64(&[], 0.5), 0);
        assert_eq!(percentile_sorted_u64(&[7], 0.99), 7);
        assert_eq!(percentile_sorted_u64(&[10, 20, 30], 0.50), 20);
        assert_eq!(percentile_sorted_u64(&[10, 20, 30], 1.0), 30);
    }

    #[test]
    fn empty_snapshot_renders_and_serializes() {
        let snap = MetricsSnapshot::default();
        let text = snap.render_text();
        assert!(text.contains("no spans recorded"));
        let json = snap.to_json();
        let v: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(v.get("spans").is_some());
    }

    #[test]
    fn render_text_shows_phases_and_pipeline() {
        let snap = MetricsSnapshot {
            spans: vec![
                SpanSnapshot { name: "aggregate".into(), start_ns: 0, end_ns: 2_000_000, depth: 0 },
                SpanSnapshot { name: "launch".into(), start_ns: 0, end_ns: 500_000, depth: 1 },
            ],
            counters: vec![CounterSnapshot { name: "shmem.gets".into(), value: 42 }],
            gauges: vec![],
            histograms: vec![HistogramSnapshot {
                name: "probe_ns".into(),
                count: 2,
                sum: 10.0,
                min: 4.0,
                max: 6.0,
                p50: 4.0,
                p95: 6.0,
                p99: 6.0,
            }],
            pipeline: Some(PipelineMetrics {
                makespan_ns: 1234,
                overlap_efficiency: 0.75,
                ..Default::default()
            }),
            runtime: None,
        };
        let text = snap.render_text();
        assert!(text.contains("aggregate"));
        assert!(text.contains("  launch"));
        assert!(text.contains("overlap efficiency"));
        assert!(text.contains("0.7500"));
        assert!(text.contains("shmem.gets"));
        assert!(text.contains("mean=5.0"));
    }

    #[test]
    fn json_contains_pipeline_fields() {
        let snap = MetricsSnapshot {
            pipeline: Some(PipelineMetrics {
                overlap_efficiency: 0.5,
                remote_bytes: 100,
                ..Default::default()
            }),
            ..Default::default()
        };
        let v: serde_json::Value = serde_json::from_str(&snap.to_json()).unwrap();
        let p = v.get("pipeline").unwrap();
        assert_eq!(p.get("overlap_efficiency").and_then(|x| x.as_f64()), Some(0.5));
        assert_eq!(p.get("remote_bytes").and_then(|x| x.as_u64()), Some(100));
        assert!(p.get("recovery").is_some());
        assert!(p.get("pair_traffic").is_some());
    }
}
