//! The MGG system: fine-grained intra-kernel communication-computation
//! pipelining for multi-GPU GNNs.
//!
//! This crate is the paper's primary contribution, structured after its §3
//! and §4:
//!
//! * [`config`] — the three tunable knobs: neighbor-partition size `ps`,
//!   interleaving distance `dist`, warps per block `wpb`, with the paper's
//!   search bounds (`ps ∈ [1,32]`, `dist ∈ [1,16]`, `wpb ∈ [1,16]`).
//! * [`placement`] — **hybrid GNN data placement** (§3.2): node embeddings
//!   in the NVSHMEM symmetric heap partitioned by the edge-balanced node
//!   split; graph topology in per-GPU private memory with remote ids
//!   pre-translated to `(owner, offset)`.
//! * [`workload`] — **pipeline-aware workload management** (§3.1):
//!   composes the node split, locality split and neighbor split into
//!   per-GPU lists of local/remote neighbor partitions.
//! * [`mapping`] — **warp-based mapping & interleaving** (§3.3): assigns
//!   `dist` local and `dist` remote partitions to each warp so every warp
//!   can overlap communication with computation, and so SMs receive a mix
//!   of both workload types.
//! * [`kernel`] — the **pipeline-centric kernel** (§3.3–§3.4): per-warp
//!   operation traces implementing the asynchronous Figure-7(b) pipeline
//!   (issue non-blocking remote gets, aggregate local neighbors while data
//!   flies, then aggregate the landed remote data), the synchronous
//!   Figure-7(a) variant for ablation, and the Listing-2 shared-memory
//!   layout.
//! * [`model`] — **analytical modeling** (§4, Equations 1–3): workload per
//!   warp, shared memory per block, warp/block/SM counts, and hardware
//!   constraint checks.
//! * [`tuner`] — **cross-iteration optimization** (§4): the greedy
//!   `ps → dist → wpb` coordinate search with the "retreat ps" rule,
//!   top-3 stopping criterion and a configuration lookup table.
//! * [`executor`] — the end-to-end engine: implements
//!   [`mgg_gnn::Aggregator`] so GCN/GIN forward passes run on MGG, with
//!   functional outputs equal to the CPU reference and simulated timing
//!   from `mgg-sim`.
//!
//! # Quick start
//!
//! ```
//! use mgg_core::{CacheConfig, MggConfig, MggEngine};
//! use mgg_gnn::reference::AggregateMode;
//! use mgg_gnn::Matrix;
//! use mgg_graph::generators::rmat::{rmat, RmatConfig};
//! use mgg_sim::ClusterSpec;
//!
//! let graph = rmat(&RmatConfig::graph500(8, 2_000, 42));
//! let x = Matrix::glorot(graph.num_nodes(), 16, 7);
//!
//! // MGG on a simulated 4-GPU DGX-A100 slice.
//! let mut engine = MggEngine::new(
//!     &graph,
//!     ClusterSpec::dgx_a100(4),
//!     MggConfig::default_fixed(),
//!     AggregateMode::Sum,
//! );
//! let values = engine.aggregate_values(&x); // real f32 numbers
//! assert_eq!(values.rows(), graph.num_nodes());
//!
//! let nanos = engine.simulate_aggregation_ns(16)?; // simulated time
//! assert!(nanos > 0);
//!
//! // Opt into the remote-embedding cache: fewer fabric round-trips in
//! // simulated time, counted by the kernel planner; values stay
//! // bit-identical.
//! engine.set_cache(Some(CacheConfig::from_mb(16)));
//! let stats = engine.simulate_aggregation(16)?.cache;
//! assert!(stats.hits + stats.misses > 0);
//! assert_eq!(engine.aggregate_values(&x).data(), values.data());
//! # Ok::<(), mgg_core::MggError>(())
//! ```

#![deny(missing_docs)]

pub mod config;
pub mod error;
pub mod executor;
pub mod kernel;
pub mod mapping;
pub mod model;
pub mod placement;
pub mod replicated;
pub mod tuner;
pub mod workload;

pub use config::MggConfig;
pub use error::MggError;
pub use mgg_cache::{CacheConfig, CachePolicy, CacheStats};
pub use executor::{DeltaReport, MggEngine, RecoveryAction, RecoveryReport};
pub use kernel::{KernelVariant, MggKernel};
pub use model::AnalyticalModel;
pub use replicated::ReplicatedEngine;
pub use tuner::{TuneResult, Tuner};
pub use workload::WorkPlan;
