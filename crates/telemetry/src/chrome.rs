//! Chrome-trace-format exporter (the JSON consumed by `chrome://tracing`
//! and [Perfetto](https://ui.perfetto.dev)).
//!
//! One timeline merges two clock domains:
//!
//! * **pid 0 "host"** — the engine's wall-clock phase spans
//!   (partition/plan/launch/aggregate/barrier/recover), one row per
//!   nesting depth.
//! * **pid 1+g "gpuN"** — GPU `g`'s simulated warp events, one thread row
//!   per SM, in simulated nanoseconds.
//!
//! Both use complete events (`ph: "X"`) with microsecond `ts`/`dur`, plus
//! `M` metadata records naming the processes and threads. The two domains
//! share an origin at 0 but tick different clocks; the trace is for
//! structure (what overlapped what within a domain), not for comparing
//! host time to sim time.

use crate::snapshot::SpanSnapshot;
use mgg_runtime::profile::RuntimeProfile;
use mgg_sim::TraceEvent;
use serde_json::Value;
use std::collections::BTreeSet;

const NS_PER_US: f64 = 1000.0;

/// Renders host spans + warp events as a Chrome-trace JSON document.
///
/// When a [`RuntimeProfile`] is given, each profiled parallel region also
/// emits one row per worker on pid 0 (tid `1 + worker`) with the worker's
/// spawn → exec → idle → merge-wait lifecycle laid out as contiguous
/// segments inside the region window. The per-category *durations* are
/// measured; their *placement* within the region is schematic (the pool
/// records aggregates, not per-job intervals).
pub fn chrome_trace_json_with_runtime(
    spans: &[SpanSnapshot],
    events: &[TraceEvent],
    runtime: Option<&RuntimeProfile>,
) -> String {
    let mut out: Vec<Value> = Vec::new();

    let has_lanes = runtime.is_some_and(|rt| rt.regions.iter().any(|r| !r.lanes.is_empty()));
    if !spans.is_empty() || has_lanes {
        out.push(meta("process_name", 0, 0, "host"));
    }
    if !spans.is_empty() {
        out.push(meta("thread_name", 0, 0, "engine phases"));
    }
    if let Some(rt) = runtime {
        let max_workers =
            rt.regions.iter().map(|r| r.lanes.len()).max().unwrap_or(0);
        for w in 0..max_workers {
            out.push(meta("thread_name", 0, 1 + w as u64, &format!("pool worker{w}")));
        }
        for region in &rt.regions {
            for lane in &region.lanes {
                let tid = 1 + lane.worker;
                let mut cursor = region.start_ns;
                // `exec` spans cover in-job wall time; the descheduled
                // share is reported as a separate `contended` span so the
                // track still tiles `spawn + exec + idle + merge == wall`.
                for (name, dur) in [
                    ("spawn", lane.spawn_delay_ns),
                    ("exec", lane.exec_ns.saturating_sub(lane.contended_exec_ns)),
                    ("contended", lane.contended_exec_ns),
                    ("idle", lane.idle_ns),
                    ("merge-wait", lane.merge_wait_ns),
                ] {
                    if dur > 0 {
                        out.push(complete(
                            &format!("{}:{}", region.name, name),
                            "host-pool",
                            0,
                            tid,
                            cursor as f64 / NS_PER_US,
                            dur as f64 / NS_PER_US,
                            vec![("jobs".to_string(), Value::UInt(lane.jobs))],
                        ));
                    }
                    cursor += dur;
                }
            }
        }
    }
    for s in spans {
        out.push(complete(
            &s.name,
            "phase",
            0,
            0,
            s.start_ns as f64 / NS_PER_US,
            s.duration_ns() as f64 / NS_PER_US,
            vec![("depth".to_string(), Value::UInt(u64::from(s.depth)))],
        ));
    }

    // One process per GPU, one thread per SM; name each exactly once.
    let tracks: BTreeSet<(u16, u16)> = events.iter().map(|e| (e.gpu, e.sm)).collect();
    let gpus: BTreeSet<u16> = tracks.iter().map(|&(g, _)| g).collect();
    for &g in &gpus {
        out.push(meta("process_name", pid_of(g), 0, &format!("gpu{g}")));
    }
    for &(g, sm) in &tracks {
        out.push(meta("thread_name", pid_of(g), u64::from(sm), &format!("sm{sm}")));
    }
    for e in events {
        out.push(complete(
            kind_name(e),
            "warp",
            pid_of(e.gpu),
            u64::from(e.sm),
            e.start as f64 / NS_PER_US,
            e.duration() as f64 / NS_PER_US,
            vec![("warp".to_string(), Value::UInt(u64::from(e.warp)))],
        ));
    }

    let doc = Value::Object(vec![
        ("traceEvents".to_string(), Value::Array(out)),
        ("displayTimeUnit".to_string(), Value::Str("ns".to_string())),
    ]);
    serde_json::to_string_pretty(&doc).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
}

/// Host spans live in pid 0; GPU `g`'s warp events in pid `1 + g`.
fn pid_of(gpu: u16) -> u64 {
    1 + u64::from(gpu)
}

fn kind_name(e: &TraceEvent) -> &'static str {
    use mgg_sim::TraceKind::*;
    match e.kind {
        Compute => "Compute",
        GlobalRead => "GlobalRead",
        RemoteIssue => "RemoteIssue",
        RemoteWire => "RemoteWire",
        WaitRemote => "WaitRemote",
        PageAccess => "PageAccess",
        CacheHit => "CacheHit",
    }
}

fn complete(
    name: &str,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, Value)>,
) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("cat".to_string(), Value::Str(cat.to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::Float(ts_us)),
        ("dur".to_string(), Value::Float(dur_us)),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("args".to_string(), Value::Object(args)),
    ])
}

fn meta(name: &str, pid: u64, tid: u64, label: &str) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(name.to_string())),
        ("ph".to_string(), Value::Str("M".to_string())),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        (
            "args".to_string(),
            Value::Object(vec![("name".to_string(), Value::Str(label.to_string()))]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_sim::TraceKind;

    fn ev(gpu: u16, sm: u16, warp: u32, kind: TraceKind, start: u64, end: u64) -> TraceEvent {
        TraceEvent { gpu, sm, warp, kind, start, end }
    }

    fn events_of(doc: &Value) -> &Vec<Value> {
        doc.get("traceEvents").and_then(Value::as_array).unwrap()
    }

    #[test]
    fn empty_inputs_still_produce_a_valid_document() {
        let json = chrome_trace_json_with_runtime(&[], &[], None);
        let doc: Value = serde_json::from_str(&json).unwrap();
        assert!(events_of(&doc).is_empty());
    }

    #[test]
    fn spans_and_events_land_on_separate_pids() {
        let spans = vec![SpanSnapshot {
            name: "aggregate".into(),
            start_ns: 1000,
            end_ns: 5000,
            depth: 0,
        }];
        let events = vec![
            ev(0, 2, 7, TraceKind::Compute, 0, 300),
            ev(1, 0, 0, TraceKind::RemoteWire, 100, 900),
        ];
        let json = chrome_trace_json_with_runtime(&spans, &events, None);
        let doc: Value = serde_json::from_str(&json).unwrap();
        let items = events_of(&doc);

        // Every record has the mandatory fields.
        for it in items {
            assert!(it.get("name").is_some());
            assert!(it.get("ph").is_some());
            assert!(it.get("pid").is_some());
        }
        // Host span on pid 0.
        let host: Vec<_> = items
            .iter()
            .filter(|it| {
                it.get("ph").and_then(Value::as_str) == Some("X")
                    && it.get("pid").and_then(Value::as_u64) == Some(0)
            })
            .collect();
        assert_eq!(host.len(), 1);
        assert_eq!(host[0].get("name").and_then(Value::as_str), Some("aggregate"));
        assert_eq!(host[0].get("ts").and_then(Value::as_f64), Some(1.0));
        assert_eq!(host[0].get("dur").and_then(Value::as_f64), Some(4.0));

        // Warp events: gpu0 -> pid 1 tid 2, gpu1 -> pid 2 tid 0.
        let warp0: Vec<_> = items
            .iter()
            .filter(|it| {
                it.get("ph").and_then(Value::as_str) == Some("X")
                    && it.get("pid").and_then(Value::as_u64) == Some(1)
            })
            .collect();
        assert_eq!(warp0.len(), 1);
        assert_eq!(warp0[0].get("tid").and_then(Value::as_u64), Some(2));
        assert_eq!(warp0[0].get("name").and_then(Value::as_str), Some("Compute"));
        assert_eq!(
            warp0[0].get("args").and_then(|a| a.get("warp")).and_then(Value::as_u64),
            Some(7)
        );

        // Metadata names each process and SM thread.
        let metas: Vec<_> = items
            .iter()
            .filter(|it| it.get("ph").and_then(Value::as_str) == Some("M"))
            .collect();
        let labels: Vec<&str> = metas
            .iter()
            .filter_map(|m| m.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(labels.contains(&"host"));
        assert!(labels.contains(&"gpu0"));
        assert!(labels.contains(&"gpu1"));
        assert!(labels.contains(&"sm2"));
    }

    #[test]
    fn runtime_profile_adds_worker_tracks_on_host_pid() {
        let ((), profile) = mgg_runtime::profile::collect(|| {
            mgg_runtime::with_threads(3, || {
                mgg_runtime::par_map_indexed(9, |i| std::hint::black_box(i * i));
            })
        });
        let json = chrome_trace_json_with_runtime(&[], &[], Some(&profile));
        let doc: Value = serde_json::from_str(&json).unwrap();
        let items = events_of(&doc);
        let pool: Vec<_> = items
            .iter()
            .filter(|it| it.get("cat").and_then(Value::as_str) == Some("host-pool"))
            .collect();
        assert!(!pool.is_empty());
        // All pool events on pid 0, worker tids start at 1.
        for it in &pool {
            assert_eq!(it.get("pid").and_then(Value::as_u64), Some(0));
            assert!(it.get("tid").and_then(Value::as_u64).unwrap() >= 1);
        }
        let labels: Vec<&str> = items
            .iter()
            .filter(|it| it.get("ph").and_then(Value::as_str) == Some("M"))
            .filter_map(|m| m.get("args").and_then(|a| a.get("name")).and_then(Value::as_str))
            .collect();
        assert!(labels.contains(&"pool worker0"));
        assert!(labels.contains(&"pool worker2"));
    }

    #[test]
    fn every_gpu_present_in_events_gets_events_in_the_trace() {
        let events: Vec<TraceEvent> =
            (0..4).map(|g| ev(g, 0, 0, TraceKind::Compute, 0, 10)).collect();
        let json = chrome_trace_json_with_runtime(&[], &events, None);
        let doc: Value = serde_json::from_str(&json).unwrap();
        for g in 0..4u64 {
            let n = events_of(&doc)
                .iter()
                .filter(|it| {
                    it.get("ph").and_then(Value::as_str) == Some("X")
                        && it.get("pid").and_then(Value::as_u64) == Some(1 + g)
                })
                .count();
            assert_eq!(n, 1, "gpu {g} missing from trace");
        }
    }
}
