//! GNN substrate: tensors, models, reference aggregation, sampling and
//! training.
//!
//! The paper evaluates two models (§5): a 2-layer GCN with 16 hidden
//! dimensions (Equation 4) and a 5-layer GIN with 64 hidden dimensions
//! (Equation 5). This crate implements both, plus:
//!
//! * [`tensor`] — a minimal dense `f32` kernel set (GEMM, ReLU, softmax,
//!   cross-entropy) standing in for cuBLAS/cuDNN's dense side;
//! * [`mod@reference`] — single-address-space CPU aggregation, the ground
//!   truth every distributed engine must match bit-for-bit up to FP
//!   reassociation;
//! * [`sampling`] — uniform neighbor sampling (the "GNN w/ sampling"
//!   column of Table 5);
//! * [`train`] — full-batch GCN training with hand-derived gradients and
//!   Adam, used to measure the accuracy-latency tradeoff of Table 5, and
//!   [`train::train_gcn_on_engine`], which runs every aggregation of the
//!   same loop on a distributed engine;
//! * [`gat`] — a 2-layer single-head GAT forward pass whose attention and
//!   weighted aggregation run on any [`gat::GatBackend`];
//! * [`features`] — label-correlated synthetic node features so the
//!   classification task is learnable on the synthetic graphs.

#![deny(missing_docs)]

pub mod features;
pub mod gat;
pub mod models;
pub mod reference;
pub mod sampling;
pub mod tensor;
pub mod train;

pub use models::{Aggregator, DenseCostModel, Gcn, Gin, LayerTiming, ModelKind};
pub use reference::{aggregate, AggregateMode, ReferenceAggregator};
pub use tensor::Matrix;
