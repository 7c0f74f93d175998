//! MGG-rs: a Rust reproduction of **MGG — Accelerating Graph Neural
//! Networks with Fine-Grained Intra-Kernel Communication-Computation
//! Pipelining on Multi-GPU Platforms** (OSDI 2023).
//!
//! The paper's system is CUDA + NVSHMEM on a DGX-A100; this reproduction
//! rebuilds every layer of it in Rust on a deterministic discrete-event
//! multi-GPU simulator, so the algorithms, the pipelining, and the whole
//! evaluation run anywhere. See `DESIGN.md` for the system inventory and
//! the per-experiment index, and `EXPERIMENTS.md` for paper-vs-measured
//! results.
//!
//! # Crate map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`sim`] | `mgg-sim` | multi-GPU platform simulator (SMs, warps, HBM/NVLink/NVSwitch/PCIe) |
//! | [`fault`] | `mgg-fault` | deterministic seed-derived fault schedules (link degradation, stragglers, dropped one-sided ops, permanent GPU/link failures) |
//! | [`failover`] | `mgg-failover` | elastic failover: heartbeat health monitoring, route planning around dead links, checkpoint/resume |
//! | [`graph`] | `mgg-graph` | CSR graphs, generators, Table-3 dataset stand-ins, partitioning |
//! | [`runtime`] | `mgg-runtime` | deterministic parallel runtime (ordered-merge `par_map`, disjoint-slice workers) |
//! | [`shmem`] | `mgg-shmem` | NVSHMEM-like symmetric heap (PGAS) |
//! | [`uvm`] | `mgg-uvm` | unified-virtual-memory substrate (page faults, migration) |
//! | [`collective`] | `mgg-collective` | NCCL-like host-initiated collectives |
//! | [`gnn`] | `mgg-gnn` | tensors, GCN/GIN models, reference aggregation, training |
//! | [`core`] | `mgg-core` | **the MGG system**: workload management, placement, pipelined kernel, model, tuner |
//! | [`telemetry`] | `mgg-telemetry` | spans/counters/histograms, derived pipeline metrics, Chrome-trace export |
//! | [`baselines`] | `mgg-baselines` | UVM / direct-NVSHMEM / DGCL / PUT / NCCL-ring comparison engines (timing models) |
//!
//! # Quickstart
//!
//! ```
//! use mgg::core::{MggConfig, MggEngine};
//! use mgg::gnn::reference::{aggregate, AggregateMode};
//! use mgg::gnn::Matrix;
//! use mgg::graph::generators::rmat::{rmat, RmatConfig};
//! use mgg::sim::ClusterSpec;
//!
//! // A power-law graph and node features.
//! let graph = rmat(&RmatConfig::graph500(10, 8_000, 42));
//! let x = Matrix::glorot(graph.num_nodes(), 64, 7);
//!
//! // MGG on a simulated 4-GPU DGX-A100.
//! let mut engine = MggEngine::new(
//!     &graph,
//!     ClusterSpec::dgx_a100(4),
//!     MggConfig::default_fixed(),
//!     AggregateMode::GcnNorm,
//! );
//! let out = engine.aggregate_values(&x);
//! let simulated_ns = engine.simulate_aggregation_ns(64).unwrap();
//!
//! // Distributed result equals the single-machine reference.
//! let reference = aggregate(&graph, &x, AggregateMode::GcnNorm);
//! assert!(out.max_abs_diff(&reference) < 1e-3);
//! assert!(simulated_ns > 0);
//! ```

#![deny(missing_docs)]

pub use mgg_baselines as baselines;
pub use mgg_cache as cache;
pub use mgg_churn as churn;
pub use mgg_collective as collective;
pub use mgg_core as core;
pub use mgg_failover as failover;
pub use mgg_fault as fault;
pub use mgg_gnn as gnn;
pub use mgg_graph as graph;
pub use mgg_runtime as runtime;
pub use mgg_serve as serve;
pub use mgg_shmem as shmem;
pub use mgg_sim as sim;
pub use mgg_telemetry as telemetry;
pub use mgg_uvm as uvm;
