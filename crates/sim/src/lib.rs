//! Deterministic discrete-event simulator of a multi-GPU platform.
//!
//! This crate is the hardware substrate for the MGG reproduction. The paper
//! evaluates on an NVIDIA DGX-A100 (8×A100 connected by NVSwitch); this
//! environment has no GPUs, so we model the platform at the granularity that
//! matters for MGG's claims:
//!
//! * **SMs and warp schedulers** — compute operations occupy one of a small
//!   number of scheduler slots per SM; memory operations are issued and then
//!   proceed in the memory system, so *other* warps can issue while one warp
//!   waits. This is exactly the latency-hiding mechanism that MGG's workload
//!   interleaving exploits (§3.3 of the paper).
//! * **Resident-block limits** — a block becomes resident on an SM only if
//!   warp slots and shared-memory capacity allow it, which is what the
//!   analytical model of §4 reasons about.
//! * **Bandwidth-latency channels** — HBM, per-GPU NVSwitch ports, NVLink
//!   pairs and the shared host/PCIe path are pipes with a fixed latency plus
//!   a serialized `bytes / bandwidth` occupancy, so concurrent transfers
//!   contend realistically.
//!
//! The simulator is *functionally inert*: it advances virtual time for a set
//! of per-warp operation traces. The GNN engines in the higher-level crates
//! compute real floating-point results separately and use this crate only to
//! attribute time.
//!
//! Everything is deterministic: identical inputs produce identical virtual
//! timings on every run and platform.

#![deny(missing_docs)]

pub mod channel;
pub mod cluster;
pub mod engine;
pub mod gpu;
pub mod kernel;
pub mod metrics;
pub mod spec;
pub mod time;
pub mod trace;
pub mod warp;

pub use channel::BandwidthChannel;
pub use cluster::{Cluster, Interconnect, NoPaging, PageAccessOutcome, PageHandler};
pub use engine::{EventQueue, MultiServerQueue};
pub use gpu::GpuSim;
pub use kernel::{
    GpuKernelStats, KernelLaunch, KernelProgram, KernelStats, LaunchError, RecoveryStats,
};
pub use metrics::{ChannelStats, PairStats, TrafficStats};
pub use spec::{ClusterSpec, GpuSpec, LinkSpec, Topology};
pub use time::{cycles_to_ns, ns_to_ms, SimTime, NS_PER_US, US};
pub use trace::{render_warp_gantt, TraceEvent, TraceKind};
pub use warp::WarpOp;
