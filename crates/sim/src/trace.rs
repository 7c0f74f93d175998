//! Optional per-operation execution traces.
//!
//! When a kernel runs via [`crate::GpuSim::run_traced`], every warp
//! operation's time span is recorded. This is the simulator's analogue of
//! an NSight timeline: it lets callers *see* the Figure-7 pipelining —
//! which spans overlap, where a warp stalls, how the async gets hide
//! behind local aggregation.

use serde::Serialize;

use crate::time::SimTime;

/// What a span represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceKind {
    /// A compute burst occupying a scheduler slot.
    Compute,
    /// A blocking local device-memory read.
    GlobalRead,
    /// The SM-side issue of a non-blocking remote GET.
    RemoteIssue,
    /// A remote transfer in flight (issue to arrival).
    RemoteWire,
    /// The warp blocked in `WaitRemote` for outstanding transfers.
    WaitRemote,
    /// A unified-memory page access (including any fault handling).
    PageAccess,
    /// A remote-row request served from the local embedding cache (HBM
    /// read, no fabric traffic).
    CacheHit,
}

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct TraceEvent {
    /// The GPU (PE) the warp ran on.
    pub gpu: u16,
    /// SM the warp was resident on (a timeline track for exporters).
    pub sm: u16,
    /// Global warp id (block * warps_per_block + warp).
    pub warp: u32,
    /// What kind of operation the span covers.
    pub kind: TraceKind,
    /// Span start, in simulated nanoseconds.
    pub start: SimTime,
    /// Span end, in simulated nanoseconds.
    pub end: SimTime,
}

impl TraceEvent {
    /// Span length.
    pub fn duration(&self) -> SimTime {
        self.end.saturating_sub(self.start)
    }
}

/// Renders the spans of one warp as an ASCII Gantt chart with one lane
/// per [`TraceKind`], `width` characters wide.
///
/// `width` is clamped to at least 2 columns; zero-duration spans still
/// paint one cell so instantaneous events stay visible.
pub fn render_warp_gantt(events: &[TraceEvent], gpu: u16, warp: u32, width: usize) -> String {
    let width = width.max(2);
    let spans: Vec<&TraceEvent> =
        events.iter().filter(|e| e.gpu == gpu && e.warp == warp).collect();
    let Some(t_end) = spans.iter().map(|e| e.end).max() else {
        return String::from("(no events for this warp)\n");
    };
    let t_start = spans.iter().map(|e| e.start).min().unwrap_or(0);
    let range = (t_end - t_start).max(1) as f64;
    let lanes = [
        (TraceKind::Compute, "compute    ", '#'),
        (TraceKind::GlobalRead, "local read ", '='),
        (TraceKind::RemoteIssue, "get issue  ", 'i'),
        (TraceKind::RemoteWire, "remote wire", '~'),
        (TraceKind::WaitRemote, "wait       ", '.'),
        (TraceKind::PageAccess, "page access", 'p'),
        (TraceKind::CacheHit, "cache hit  ", 'c'),
    ];
    let mut out = String::new();
    for (kind, label, ch) in lanes {
        let mut row = vec![' '; width];
        let mut any = false;
        for e in spans.iter().filter(|e| e.kind == kind) {
            any = true;
            let a = (((e.start - t_start) as f64 / range) * width as f64) as usize;
            let b = (((e.end - t_start) as f64 / range) * width as f64).ceil() as usize;
            // Clamp into the row and guarantee at least one painted cell,
            // so zero-duration spans (a == b) and right-edge rounding both
            // stay visible instead of rendering nothing or indexing past
            // the end.
            let a = a.min(width - 1);
            let b = b.clamp(a + 1, width);
            for c in row.iter_mut().take(b).skip(a) {
                *c = ch;
            }
        }
        if any {
            out.push_str(label);
            out.push('|');
            out.extend(row);
            out.push_str("|\n");
        }
    }
    out.push_str(&format!(
        "{:11}|0{:>width$}|\n",
        "ns",
        t_end - t_start,
        width = width - 1
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: TraceKind, start: u64, end: u64) -> TraceEvent {
        TraceEvent { gpu: 0, sm: 0, warp: 0, kind, start, end }
    }

    #[test]
    fn duration_saturates() {
        assert_eq!(ev(TraceKind::Compute, 5, 9).duration(), 4);
        assert_eq!(ev(TraceKind::Compute, 9, 9).duration(), 0);
    }

    #[test]
    fn gantt_renders_lanes() {
        let events = vec![
            ev(TraceKind::RemoteWire, 0, 50),
            ev(TraceKind::Compute, 0, 30),
            ev(TraceKind::WaitRemote, 30, 50),
        ];
        let s = render_warp_gantt(&events, 0, 0, 40);
        assert!(s.contains("compute"));
        assert!(s.contains("remote wire"));
        assert!(s.contains('#'));
        assert!(s.contains('~'));
        // The compute lane ends before the wire lane does.
        assert!(!s.contains("page access"));
    }

    #[test]
    fn gantt_handles_missing_warp() {
        let s = render_warp_gantt(&[], 0, 7, 20);
        assert!(s.contains("no events"));
    }

    #[test]
    fn gantt_zero_duration_span_paints_a_cell() {
        // A zero-length issue span amid a longer trace must still render.
        let events = vec![
            ev(TraceKind::Compute, 0, 100),
            ev(TraceKind::RemoteIssue, 40, 40),
        ];
        let s = render_warp_gantt(&events, 0, 0, 20);
        assert!(s.contains("get issue"));
        assert!(s.contains('i'), "zero-duration span rendered nothing:\n{s}");
    }

    #[test]
    fn gantt_all_zero_duration_trace_renders() {
        // Degenerate trace where every span is instantaneous at t=0.
        let events = vec![ev(TraceKind::Compute, 0, 0)];
        let s = render_warp_gantt(&events, 0, 0, 30);
        assert!(s.contains('#'));
        assert!(s.contains("ns"));
    }

    #[test]
    fn gantt_tiny_widths_do_not_panic() {
        let events = vec![
            ev(TraceKind::Compute, 0, 30),
            ev(TraceKind::RemoteWire, 10, 50),
        ];
        for width in 0..4 {
            let s = render_warp_gantt(&events, 0, 0, width);
            assert!(s.contains('#'), "width {width} lost the compute lane:\n{s}");
            assert!(s.contains('~'), "width {width} lost the wire lane:\n{s}");
        }
    }

    #[test]
    fn gantt_span_at_right_edge_stays_in_bounds() {
        // A span ending exactly at t_end must not write past the row.
        let events = vec![
            ev(TraceKind::Compute, 0, 64),
            ev(TraceKind::WaitRemote, 63, 64),
        ];
        let s = render_warp_gantt(&events, 0, 0, 7);
        assert!(s.contains('.'));
        for line in s.lines().filter(|l| l.contains('|')) {
            let inner: usize =
                line.split('|').nth(1).map(|seg| seg.chars().count()).unwrap_or(0);
            assert!(inner <= 7, "row wider than requested: {line}");
        }
    }
}
