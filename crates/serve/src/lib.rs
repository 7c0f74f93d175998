//! Overload-robust serving layer for MGG inference.
//!
//! The MGG engine pipelines communication and computation *inside* one
//! aggregation launch; this crate handles what happens *between* launches
//! when node-inference queries arrive faster than the engine drains them.
//! It reproduces the serving disciplines a production multi-GPU GNN
//! system needs, on the same deterministic simulator the rest of the
//! workspace runs on:
//!
//! * **Deterministic workloads** ([`workload`]) — seeded Poisson, bursty
//!   and ramp arrival processes with Zipf-skewed query mixes over hot
//!   nodes. A [`WorkloadSpec`] fully determines the query stream.
//! * **Admission control** ([`Server`]) — a bounded admission queue with
//!   a deterministic reject-newest shed policy (typed
//!   [`ServeError::Overloaded`]), behind a token-bucket rate limiter
//!   calibrated from the engine's measured launch throughput.
//! * **Deadline-aware batching** — per-shard batches close when the size
//!   cap is reached, when the oldest member's slack would otherwise be
//!   burned (`deadline - service_estimate - 2 µs safety`), or when the
//!   batch has lingered 50 µs (so sub-saturation load is not held until
//!   its deadline just to fill batches).
//! * **Graceful degradation** ([`breaker`]) — per-shard circuit breakers
//!   consume the failover plane's phi-accrual health signals to route
//!   around degraded or dead shards: a shard slowed 1.5x or more trips
//!   at its first poll and probes again after 200 µs. A batch dispatched
//!   at a service scale of 1.5x or more is hedged on a healthy peer;
//!   with the breaker tripping at the same scale, only a re-joined
//!   shard's warm-up penalty can reach it. Capacity loss beyond what
//!   routing absorbs falls back to the engine's recovery ladder
//!   (re-split / UVM degrade).
//! * **Live mutation & elastic membership** ([`Server::run_scenario`]) —
//!   replays an `mgg-churn` schedule inside the same event loop: epoch
//!   fences stall in-rotation shards for the apply transaction, drains
//!   and leaves retire shards loss-free (pending work migrates at the
//!   relay surcharge), joins pass the failover plane's health gate and
//!   warm up at a decaying service penalty, and the admission token rate
//!   tracks the live member count.
//! * **Priority-weighted shedding** ([`workload::PriorityMix`]) — gold /
//!   silver / bronze classes gate on graduated token reserves and queue
//!   shares, so churn-induced capacity dips shed bronze first while gold
//!   p99 holds.
//! * **Observability** — admissions, sheds by cause, batch sizes,
//!   latencies and breaker transitions thread through `mgg-telemetry`;
//!   [`snapshot_digest`] fingerprints the deterministic slice of a
//!   metrics snapshot (counters + histograms, never wall-clock spans).
//!
//! Determinism is the design axis: the serving loop is a single-threaded
//! discrete-event replay in (time, sequence) order with no wall clock and
//! no ambient randomness, so a `(workload seed, fault spec)` pair is a
//! complete, replayable description of an overload incident. Host
//! parallelism only fans out *across* independent scenario runs
//! ([`Server::run_sweep`] on the `mgg-runtime` ordered-merge pool).
//!
//! # Example
//!
//! ```
//! use mgg_core::{MggConfig, MggEngine};
//! use mgg_fault::FaultSchedule;
//! use mgg_gnn::reference::AggregateMode;
//! use mgg_graph::generators::rmat::{rmat, RmatConfig};
//! use mgg_serve::{Server, ServeConfig, WorkloadSpec};
//! use mgg_sim::ClusterSpec;
//! use mgg_telemetry::Telemetry;
//!
//! let g = rmat(&RmatConfig::graph500(9, 4_000, 7));
//! let mut engine = MggEngine::new(
//!     &g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), AggregateMode::Sum);
//! let server = Server::new(&mut engine, 64, ServeConfig::default()).unwrap();
//!
//! // Offer 1.5x the calibrated saturation rate for 2 ms of simulated time.
//! let qps = server.calibration().saturation_qps * 1.5;
//! let spec = WorkloadSpec::poisson(42, qps, g.num_nodes());
//! let out = server.run(&spec, &FaultSchedule::quiet(4), &Telemetry::disabled());
//! assert!(out.summary.shed_fraction > 0.0, "overload must engage shedding");
//! assert_eq!(out.summary.routing_violations, 0);
//! ```

#![deny(missing_docs)]

pub mod breaker;
mod server;
pub mod workload;

pub use breaker::{Breaker, BreakerState, BreakerTransition};
pub use server::{
    snapshot_digest, Calibration, ChurnStats, ClassStats, Decision, QueryRecord, ServeConfig,
    ServeError, ServeOutcome, ServeSummary, Server,
};
pub use workload::{generate, ArrivalKind, Priority, PriorityMix, Query, WorkloadSpec};
