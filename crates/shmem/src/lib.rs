//! Host-initiated collectives over the simulated cluster.
//!
//! NVSHMEM (paper §2.3, Listing 1) exposes a *symmetric heap*: the same
//! allocation call on every PE yields one region per GPU, any of which is
//! addressable from kernels on any GPU by `(PE id, offset)`. MGG's device
//! side of that model lives with its kernel: `mgg-core` places embeddings
//! by `(PE, row)` and charges each remote access as a
//! [`mgg_sim::WarpOp::RemoteGet`] in the warp traces, while its value plane
//! translates the same addresses back to rows of the feature matrix.
//!
//! What remains here is the host side, priced by advancing the cluster
//! channels directly on a byte count:
//!
//! * NVSHMEM's [`barrier_all`] and [`sum_reduce_all`], run between kernels;
//! * NCCL's [`ring_allreduce`] and [`ring_allgather`], which the
//!   comparison engines launch as their own kernels, each paying
//!   [`COLLECTIVE_LAUNCH_NS`].

#![deny(missing_docs)]

pub mod collectives;

pub use collectives::{
    barrier_all, ring_allgather, ring_allreduce, sum_reduce_all, COLLECTIVE_LAUNCH_NS,
};
