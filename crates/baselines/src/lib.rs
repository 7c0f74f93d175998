//! Baseline multi-GPU GNN engines.
//!
//! The comparison systems of the paper's evaluation, each built on the
//! same substrates as MGG so differences come from the *designs*. They
//! are timing models: the paper compares them with MGG on time, and only
//! MGG's symmetric-heap data plane computes values. The UVM engine alone
//! also implements `Aggregator`, returning the reference aggregation (one
//! address space computes exactly that), so GNN models and the trainer
//! can run on it.
//!
//! * [`uvm_gnn`] — the Unified-Virtual-Memory design of §5.1: one flat
//!   address space, page-fault-driven residency, no hybrid placement.
//! * [`direct_nvshmem`] — the §2.3 strawman: NVSHMEM gets issued
//!   on-demand, blocking, one warp per node, no workload management.
//! * [`dgcl`] — the DGCL-like design of §5.2: expensive
//!   communication-minimizing preprocessing, then allgather-then-aggregate
//!   execution with no communication-computation overlap.
//! * [`nccl_ring`] — the Figure-2 NCCL study: ring forwarding of
//!   embedding shards with kernel-boundary serialization.
//! * [`put_based`] — §3.3's rejected PUT-based communication variant
//!   (staging + barrier + receiver-side polling), measurable against the
//!   GET pipeline.

#![deny(missing_docs)]

pub mod dgcl;
pub mod direct_nvshmem;
pub mod nccl_ring;
pub mod put_based;
pub mod uvm_gnn;

pub use dgcl::{DgclEngine, DgclPreprocessReport};
pub use direct_nvshmem::DirectNvshmemEngine;
pub use nccl_ring::{nccl_ring_study, NcclRingReport};
pub use put_based::PutBasedEngine;
pub use uvm_gnn::UvmGnnEngine;
