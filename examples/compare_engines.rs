//! All four execution engines side by side on one dataset: MGG, the UVM
//! design, direct NVSHMEM, and the DGCL-like allgather design — the full
//! cast of the paper's evaluation, with kernel metrics.
//!
//! ```sh
//! cargo run --release --example compare_engines
//! ```

use mgg::baselines::{DgclEngine, DirectNvshmemEngine, UvmGnnEngine};
use mgg::core::{MggConfig, MggEngine};
use mgg::gnn::reference::{aggregate, AggregateMode};
use mgg::gnn::Matrix;
use mgg::graph::datasets::DatasetSpec;
use mgg::sim::{ClusterSpec, KernelStats};

/// One table row: simulated time (kernel plus launch), occupancy and SM
/// utilization, then `tail`.
fn row(engine: &str, stats: &KernelStats, launch_ns: u64, tail: &str) {
    println!(
        "{:<16} {:>12.3} {:>9.1}% {:>9.1}% {tail}",
        engine,
        (stats.makespan_ns() + launch_ns) as f64 / 1e6,
        100.0 * stats.achieved_occupancy(),
        100.0 * stats.sm_utilization(),
    );
}

fn main() {
    let d = DatasetSpec::orkt().build(0.5);
    let dim = d.spec.dim;
    let gpus = 8;
    let spec = ClusterSpec::dgx_a100(gpus);
    let launch_ns = spec.kernel_launch_ns;
    let x = Matrix::glorot(d.graph.num_nodes(), dim, 3);
    let reference = aggregate(&d.graph, &x, AggregateMode::Sum);
    println!(
        "com-orkut stand-in: {} nodes, {} edges, dim {dim}, {gpus} GPUs\n",
        d.graph.num_nodes(),
        d.graph.num_edges()
    );
    println!(
        "{:<16} {:>12} {:>10} {:>10} {:>12}",
        "engine", "time (ms)", "occ", "SM util", "max |err|"
    );

    // MGG: the one engine whose data plane computes values.
    let mut mgg =
        MggEngine::new(&d.graph, spec.clone(), MggConfig::default_fixed(), AggregateMode::Sum);
    let err = mgg.aggregate_values(&x).max_abs_diff(&reference);
    let stats = mgg.simulate_aggregation(dim).expect("valid MGG launch");
    row("MGG", &stats, launch_ns, &format!("{err:>12.2e}"));

    // UVM design.
    let mut uvm = UvmGnnEngine::new(&d.graph, spec.clone(), AggregateMode::Sum);
    let stats = uvm.simulate_aggregation(dim);
    let faults = uvm.last_uvm_stats.as_ref().unwrap().total_faults();
    row("UVM", &stats, launch_ns, &format!("{:>12}   ({faults} page faults)", "-"));

    // Direct NVSHMEM.
    let mut direct = DirectNvshmemEngine::new(&d.graph, spec.clone());
    let stats = direct.simulate_aggregation(dim);
    row("direct NVSHMEM", &stats, launch_ns, &format!("{:>12}", "-"));

    // DGCL-like.
    let (mut dgcl, prep) = DgclEngine::new(&d.graph, spec);
    let ns = dgcl.simulate_aggregation_ns(dim);
    println!(
        "{:<16} {:>12.3} {:>10} {:>10} {:>12}   (+{:.0} ms preprocessing)",
        "DGCL-like",
        ns as f64 / 1e6,
        "-",
        "-",
        "-",
        prep.dgcl_wall_ns as f64 / 1e6
    );

    println!(
        "\nOnly MGG's symmetric-heap data plane computes values (checked against the \
         CPU reference); the other engines are timing models."
    );
}
