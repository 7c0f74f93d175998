//! Zero-cost-when-disabled telemetry for the MGG engine stack.
//!
//! MGG's whole contribution is a *scheduling* effect — remote GET latency
//! hidden under local aggregation (paper Fig. 7, §5.1) — which is invisible
//! without a timeline. This crate provides the one instrumentation surface
//! every layer reports through:
//!
//! * **Spans** — hierarchical wall-clock phases of the host-side engine
//!   (`partition → plan → launch → aggregate → barrier → recover`), closed
//!   RAII-style by [`SpanGuard`].
//! * **Counters / gauges / histograms** — monotonic event counts (GETs,
//!   retries, probes), point-in-time values, and latency distributions.
//! * **Warp trace adoption** — the simulator's [`TraceEvent`] stream
//!   (sim-time, per-warp) is attached verbatim via
//!   [`Telemetry::add_trace_events`] and merged with host spans by the
//!   Chrome-trace exporter ([`chrome_trace_json_with_runtime`]).
//! * **Derived pipeline metrics** — [`PipelineMetrics::derive`] turns a
//!   `KernelStats` + trace into overlap efficiency, per-GPU-pair traffic,
//!   occupancy, and recovery overhead.
//!
//! The handle is a single `Option<Arc<Mutex<..>>>`: a disabled [`Telemetry`]
//! is one `None` branch per call site, records nothing, and allocates
//! nothing, so instrumented hot paths stay bit-identical to uninstrumented
//! ones (a property the engine tests assert on `KernelStats`).

#![deny(missing_docs)]

pub mod chrome;
pub mod pipeline;
pub mod snapshot;

pub use chrome::chrome_trace_json_with_runtime;
pub use pipeline::{overlap_efficiency, PairTraffic, PipelineMetrics};
pub use snapshot::{
    percentile_sorted, percentile_sorted_u64, CounterSnapshot, GaugeSnapshot, HistogramSnapshot,
    MetricsSnapshot, SpanSnapshot,
};

use mgg_sim::TraceEvent;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// A cheap, cloneable telemetry handle.
///
/// [`Telemetry::disabled`] (also the `Default`) is a `None` that makes every
/// recording call a no-op; [`Telemetry::enabled`] allocates one shared
/// recorder. Clones alias the same recorder, so an engine and the caller
/// that attached the handle report into one snapshot.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<Mutex<Recorder>>>);

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if self.is_enabled() { "Telemetry(enabled)" } else { "Telemetry(disabled)" })
    }
}

impl Telemetry {
    /// A no-op handle: records nothing, allocates nothing.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// A live handle backed by a fresh shared recorder.
    pub fn enabled() -> Self {
        Telemetry(Some(Arc::new(Mutex::new(Recorder::new()))))
    }

    /// True when this handle actually records (non-disabled).
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    fn lock(&self) -> Option<MutexGuard<'_, Recorder>> {
        self.0.as_ref().map(|m| lock_recorder(m))
    }

    /// Opens a phase span, closed when the returned guard drops. Nesting
    /// depth is derived from the spans still open at entry.
    pub fn span(&self, name: &str) -> SpanGuard {
        let Some(rec) = self.0.as_ref() else {
            return SpanGuard(None);
        };
        let idx = {
            let mut r = lock_recorder(rec);
            let start_ns = r.now_ns();
            let depth = r.open.len() as u32;
            r.spans.push(SpanRecord { name: name.to_string(), start_ns, end_ns: None, depth });
            let idx = r.spans.len() - 1;
            r.open.push(idx);
            idx
        };
        SpanGuard(Some((Arc::clone(rec), idx)))
    }

    /// Adds `delta` to the named monotonic counter.
    pub fn counter_add(&self, name: &str, delta: u64) {
        if let Some(mut r) = self.lock() {
            *r.counters.entry(name.to_string()).or_insert(0) += delta;
        }
    }

    /// Sets the named gauge to `value` (last write wins).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(mut r) = self.lock() {
            r.gauges.insert(name.to_string(), value);
        }
    }

    /// Records one observation into the named histogram.
    pub fn histogram_record(&self, name: &str, value: f64) {
        if let Some(mut r) = self.lock() {
            r.histograms.entry(name.to_string()).or_default().record(value);
        }
    }

    /// Current value of a counter (0 if never written or disabled).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.lock().and_then(|r| r.counters.get(name).copied()).unwrap_or(0)
    }

    /// Attaches simulator warp events (sim-time domain; kept separate from
    /// the wall-clock host spans until export).
    pub fn add_trace_events(&self, events: &[TraceEvent]) {
        if let Some(mut r) = self.lock() {
            r.trace_events.extend_from_slice(events);
        }
    }

    /// Records the derived pipeline metrics for the latest simulated kernel.
    pub fn set_pipeline(&self, metrics: PipelineMetrics) {
        if let Some(mut r) = self.lock() {
            r.pipeline = Some(metrics);
        }
    }

    /// All warp events attached so far.
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.lock().map(|r| r.trace_events.clone()).unwrap_or_default()
    }

    /// A point-in-time copy of everything recorded. Still-open spans are
    /// snapshotted as ending now.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let Some(r) = self.lock() else {
            return MetricsSnapshot::default();
        };
        let now = r.now_ns();
        MetricsSnapshot {
            spans: r
                .spans
                .iter()
                .map(|s| SpanSnapshot {
                    name: s.name.clone(),
                    start_ns: s.start_ns,
                    end_ns: s.end_ns.unwrap_or(now),
                    depth: s.depth,
                })
                .collect(),
            counters: r
                .counters
                .iter()
                .map(|(name, &value)| CounterSnapshot { name: name.clone(), value })
                .collect(),
            gauges: r
                .gauges
                .iter()
                .map(|(name, &value)| GaugeSnapshot { name: name.clone(), value })
                .collect(),
            histograms: r
                .histograms
                .iter()
                .map(|(name, h)| {
                    let mut sorted = h.samples.clone();
                    sorted.sort_by(f64::total_cmp);
                    HistogramSnapshot {
                        name: name.clone(),
                        count: h.count,
                        sum: h.sum,
                        min: if h.count == 0 { 0.0 } else { h.min },
                        max: if h.count == 0 { 0.0 } else { h.max },
                        p50: snapshot::percentile_sorted(&sorted, 0.50),
                        p95: snapshot::percentile_sorted(&sorted, 0.95),
                        p99: snapshot::percentile_sorted(&sorted, 0.99),
                    }
                })
                .collect(),
            pipeline: r.pipeline.clone(),
            runtime: r.runtime.clone(),
        }
    }

    /// Chrome-trace JSON of host spans merged with attached warp events
    /// (plus per-worker host-pool tracks when a runtime profile is
    /// attached).
    pub fn chrome_trace(&self) -> String {
        let snap = self.snapshot();
        chrome::chrome_trace_json_with_runtime(
            &snap.spans,
            &self.trace_events(),
            snap.runtime.as_ref(),
        )
    }

    /// Attaches a host-pool attribution profile (from
    /// `mgg_runtime::profile::collect`) so it travels with the snapshot
    /// (JSON `--metrics-out`, text report, Chrome trace worker tracks).
    pub fn attach_runtime_profile(&self, profile: mgg_runtime::profile::RuntimeProfile) {
        if let Some(mut r) = self.lock() {
            r.runtime = Some(profile);
        }
    }
}

/// Locks a recorder, tolerating poison: a panicked recording thread
/// leaves the recorder usable, never the process wedged.
fn lock_recorder(m: &Mutex<Recorder>) -> MutexGuard<'_, Recorder> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// RAII span handle; dropping it closes the span.
pub struct SpanGuard(Option<(Arc<Mutex<Recorder>>, usize)>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some((rec, idx)) = self.0.take() {
            let mut r = lock_recorder(&rec);
            let now = r.now_ns();
            if let Some(span) = r.spans.get_mut(idx) {
                span.end_ns = Some(now);
            }
            r.open.retain(|&i| i != idx);
        }
    }
}

struct SpanRecord {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    depth: u32,
}

/// Min/max/sum/count summary of a stream of observations. Raw samples
/// are retained for the snapshot's percentiles.
#[derive(Default)]
struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    samples: Vec<f64>,
}

impl Histogram {
    fn record(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.samples.push(value);
    }
}

/// The shared state behind an enabled handle. `BTreeMap`s keep snapshot
/// ordering deterministic regardless of insertion order.
struct Recorder {
    epoch: Instant,
    spans: Vec<SpanRecord>,
    /// Indices into `spans` of spans not yet closed (a stack).
    open: Vec<usize>,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    trace_events: Vec<TraceEvent>,
    pipeline: Option<PipelineMetrics>,
    runtime: Option<mgg_runtime::profile::RuntimeProfile>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            gauges: BTreeMap::new(),
            histograms: BTreeMap::new(),
            trace_events: Vec::new(),
            pipeline: None,
            runtime: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_sim::{TraceEvent, TraceKind};

    fn ev(gpu: u16, warp: u32, kind: TraceKind, start: u64, end: u64) -> TraceEvent {
        TraceEvent { gpu, sm: 0, warp, kind, start, end }
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        let _s = t.span("phase");
        t.counter_add("c", 5);
        t.gauge_set("g", 1.0);
        t.histogram_record("h", 2.0);
        t.add_trace_events(&[ev(0, 0, TraceKind::Compute, 0, 10)]);
        let snap = t.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
        assert!(snap.histograms.is_empty());
        assert!(snap.pipeline.is_none());
        assert!(t.trace_events().is_empty());
        assert_eq!(t.counter_value("c"), 0);
    }

    #[test]
    fn spans_nest_and_close() {
        let t = Telemetry::enabled();
        {
            let _outer = t.span("outer");
            {
                let _inner = t.span("inner");
            }
            let _sibling = t.span("sibling");
        }
        let snap = t.snapshot();
        assert_eq!(snap.spans.len(), 3);
        assert_eq!(snap.spans[0].name, "outer");
        assert_eq!(snap.spans[0].depth, 0);
        assert_eq!(snap.spans[1].name, "inner");
        assert_eq!(snap.spans[1].depth, 1);
        assert_eq!(snap.spans[2].name, "sibling");
        assert_eq!(snap.spans[2].depth, 1);
        for s in &snap.spans {
            assert!(s.end_ns >= s.start_ns);
        }
        // inner closed before sibling opened
        assert!(snap.spans[1].end_ns <= snap.spans[2].start_ns);
    }

    #[test]
    fn counters_gauges_histograms_accumulate() {
        let t = Telemetry::enabled();
        t.counter_add("gets", 3);
        t.counter_add("gets", 4);
        t.gauge_set("occ", 0.5);
        t.gauge_set("occ", 0.75);
        t.histogram_record("lat", 10.0);
        t.histogram_record("lat", 2.0);
        t.histogram_record("lat", 6.0);
        assert_eq!(t.counter_value("gets"), 7);
        let snap = t.snapshot();
        assert_eq!(snap.counters, vec![CounterSnapshot { name: "gets".into(), value: 7 }]);
        assert_eq!(snap.gauges[0].value, 0.75);
        let h = &snap.histograms[0];
        assert_eq!((h.count, h.sum, h.min, h.max), (3, 18.0, 2.0, 10.0));
    }

    #[test]
    fn clones_share_one_recorder() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.counter_add("x", 1);
        t2.counter_add("x", 2);
        assert_eq!(t.counter_value("x"), 3);
        assert_eq!(t2.counter_value("x"), 3);
    }

    #[test]
    fn snapshot_ordering_is_name_sorted() {
        let t = Telemetry::enabled();
        t.counter_add("zeta", 1);
        t.counter_add("alpha", 1);
        t.counter_add("mid", 1);
        let names: Vec<_> = t.snapshot().counters.into_iter().map(|c| c.name).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn snapshot_histograms_carry_percentiles() {
        let t = Telemetry::enabled();
        for i in 1..=100 {
            t.histogram_record("lat", i as f64);
        }
        let h = &t.snapshot().histograms[0];
        assert_eq!((h.p50, h.p95, h.p99), (50.0, 95.0, 99.0));
    }

    #[test]
    fn runtime_profile_attaches_and_snapshots() {
        let t = Telemetry::enabled();
        assert!(t.snapshot().runtime.is_none());
        let ((), profile) = mgg_runtime::profile::collect(|| {
            mgg_runtime::with_threads(2, || {
                mgg_runtime::par_map_indexed(4, |i| i);
            })
        });
        t.attach_runtime_profile(profile.clone());
        let snap = t.snapshot();
        assert_eq!(snap.runtime, Some(profile));
        assert!(snap.render_text().contains("host worker pool"));
    }

    #[test]
    fn trace_events_round_trip() {
        let t = Telemetry::enabled();
        let events = vec![
            ev(0, 0, TraceKind::Compute, 0, 10),
            ev(1, 3, TraceKind::RemoteWire, 5, 25),
        ];
        t.add_trace_events(&events);
        assert_eq!(t.trace_events(), events);
    }
}
