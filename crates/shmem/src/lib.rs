//! NVSHMEM-like partitioned global address space (PGAS) over the simulated
//! cluster.
//!
//! NVSHMEM (paper §2.3, Listing 1) exposes a *symmetric heap*: the same
//! allocation call on every PE yields one region per GPU, any of which is
//! addressable from kernels on any GPU by `(PE id, offset)`. This crate
//! reproduces that model in two planes:
//!
//! * **Data plane** — [`SymmetricRegion`] holds real `f32` rows per PE,
//!   read by `(PE, row)`. It is what MGG's value plane aggregates from, so
//!   MGG produces real embedding values.
//! * **Timing plane** — remote accesses are *charged* by emitting
//!   [`mgg_sim::WarpOp::RemoteGet`] operations inside kernel traces (done
//!   by the engine crates) or, for the host-initiated collectives
//!   [`barrier_all`] and [`sum_reduce_all`] (a ring priced on a byte
//!   count), by advancing the cluster channels directly.
//!
//! The split keeps values exact and timing deterministic without simulating
//! data movement byte by byte. Injected faults follow the same split:
//! `mgg-sim` prices their retries and timeouts into the kernel's recovery
//! counters, and the data plane never sees them.

#![deny(missing_docs)]

pub mod collectives;
pub mod region;

pub use collectives::{barrier_all, sum_reduce_all};
pub use region::SymmetricRegion;
