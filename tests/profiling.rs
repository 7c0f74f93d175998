//! Cross-crate observability: the telemetry layer must expose the paper's
//! pipeline story end to end — MGG's non-blocking GETs hide wire time
//! under compute (Figure 7(b)), the blocking UVM baseline's page faults
//! hide nothing — and the Chrome-trace export must be a valid document
//! with every GPU represented.

use mgg::baselines::UvmGnnEngine;
use mgg::core::{MggConfig, MggEngine};
use mgg::gnn::reference::AggregateMode;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::sim::ClusterSpec;
use mgg::telemetry::{overlap_efficiency, Telemetry};

const GPUS: usize = 4;
const DIM: usize = 32;

fn graph() -> mgg::graph::CsrGraph {
    rmat(&RmatConfig::graph500(9, 5_000, 7))
}

#[test]
fn mgg_hides_more_communication_than_uvm() {
    let g = graph();
    let mgg_tel = Telemetry::enabled();
    let mut mgg = MggEngine::try_new_with_telemetry(
        &g,
        ClusterSpec::dgx_a100(GPUS),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
        mgg_tel.clone(),
    )
    .unwrap();
    mgg.simulate_aggregation(DIM).unwrap();

    let uvm_tel = Telemetry::enabled();
    let mut uvm = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(GPUS), AggregateMode::Sum);
    uvm.set_telemetry(uvm_tel.clone());
    uvm.simulate_aggregation(DIM);

    let mgg_overlap = overlap_efficiency(&mgg_tel.trace_events());
    let uvm_overlap = overlap_efficiency(&uvm_tel.trace_events());
    assert!((0.0..=1.0).contains(&mgg_overlap));
    assert!((0.0..=1.0).contains(&uvm_overlap));
    assert!(
        mgg_overlap > uvm_overlap,
        "pipelined MGG must hide more wire time: mgg={mgg_overlap} uvm={uvm_overlap}"
    );
    assert!(mgg_overlap > 0.0, "non-blocking GETs must overlap compute");
}

#[test]
fn chrome_trace_is_valid_and_covers_every_gpu() {
    let g = graph();
    let tel = Telemetry::enabled();
    let mut e = MggEngine::try_new_with_telemetry(
        &g,
        ClusterSpec::dgx_a100(GPUS),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
        tel.clone(),
    )
    .unwrap();
    e.simulate_aggregation(DIM).unwrap();

    let doc: serde_json::Value = serde_json::from_str(&tel.chrome_trace()).unwrap();
    let events = doc.get("traceEvents").and_then(|v| v.as_array()).expect("traceEvents");
    assert!(!events.is_empty());
    // Host phase spans live on pid 0; every GPU owns pid 1+g.
    assert!(events.iter().any(|e| {
        e.get("pid").and_then(|p| p.as_u64()) == Some(0)
            && e.get("ph").and_then(|p| p.as_str()) == Some("X")
    }));
    for gpu in 0..GPUS as u64 {
        assert!(
            events.iter().any(|e| {
                e.get("pid").and_then(|p| p.as_u64()) == Some(1 + gpu)
                    && e.get("ph").and_then(|p| p.as_str()) == Some("X")
            }),
            "no complete events for gpu {gpu}"
        );
    }

    // The snapshot carries the pipeline section the profiler prints.
    let snap = tel.snapshot();
    let pipeline = snap.pipeline.clone().expect("pipeline derived");
    assert!(pipeline.makespan_ns > 0);
    assert!(!pipeline.pair_traffic.is_empty(), "remote traffic must be attributed to pairs");
    let text = snap.render_text();
    for needle in ["partition", "plan", "launch", "aggregate", "barrier", "overlap"] {
        assert!(text.contains(needle), "missing {needle} in:\n{text}");
    }
}
