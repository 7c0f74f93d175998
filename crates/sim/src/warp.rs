//! The per-warp operation "ISA" that kernels are traced into.
//!
//! Higher-level crates lower their GPU kernels (MGG's pipelined aggregation,
//! the UVM baseline, the direct-NVSHMEM strawman, ...) into a flat sequence
//! of these operations per warp. The simulator replays the sequences against
//! the platform model to attribute time.

/// One dynamic operation executed by a warp.
///
/// Shared-memory traffic is folded into [`WarpOp::Compute`] cycles by the
/// kernel builders (shared memory is an on-SM resource whose cost is
/// throughput-like, not a contended off-chip channel).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarpOp {
    /// Occupies one SM scheduler slot for `cycles` core cycles.
    Compute {
        /// Core cycles the scheduler slot is held for.
        cycles: u32,
    },
    /// Reads `bytes` from the local GPU's device memory (HBM).
    ///
    /// The warp blocks until the data arrives; the SM scheduler is *not*
    /// occupied meanwhile, so other resident warps can issue — this is the
    /// latency-hiding slack MGG's interleaving fills (§3.3).
    GlobalRead {
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Writes `bytes` to the local GPU's device memory.
    ///
    /// Writes are fire-and-forget (posted): the warp pays only the channel
    /// issue serialization, not the full round trip.
    GlobalWrite {
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Fetches `bytes` from `peer`'s device memory through the interconnect
    /// (an NVSHMEM-style one-sided GET).
    ///
    /// With `nbi` (non-blocking-implicit, mirroring `nvshmem_..._nbi`), the
    /// warp continues after the SM-side issue cost and the transfer
    /// completes in the background; a later [`WarpOp::WaitRemote`] joins it.
    /// Without `nbi` the warp stalls until the data arrives.
    RemoteGet {
        /// The GPU whose memory is read.
        peer: u16,
        /// Payload size in bytes.
        bytes: u32,
        /// Non-blocking (`_nbi`) issue: continue after the SM-side cost.
        nbi: bool,
    },
    /// Pushes `bytes` to `peer`'s device memory (one-sided PUT, posted).
    RemotePut {
        /// The GPU whose memory is written.
        peer: u16,
        /// Payload size in bytes.
        bytes: u32,
    },
    /// Blocks until every outstanding `nbi` transfer of this warp is done
    /// (mirrors `nvshmem_quiet` at warp scope).
    WaitRemote,
    /// Reads `bytes` of remote rows that the embedding cache already holds
    /// in local HBM — the request never touches the fabric. Kept as a
    /// distinct op so traces attribute cache hits separately.
    ///
    /// With `nbi` the warp pays only the async-copy issue cost and the HBM
    /// read lands in the background for a later [`WarpOp::WaitRemote`] —
    /// the pipelined kernel treats a hit like a GET that happens to be
    /// local, so it overlaps local aggregation instead of stalling through
    /// the (often deeply queued) HBM FIFO. Without `nbi` it is a blocking
    /// HBM read like [`WarpOp::GlobalRead`], which the synchronous ablation
    /// uses.
    CacheHit {
        /// Payload size in bytes (the cached rows re-read from HBM).
        bytes: u32,
        /// Async-copy form: land in the background, join at `WaitRemote`.
        nbi: bool,
    },
    /// Writes `bytes` of freshly landed remote rows into the local HBM
    /// cache (fill after a miss, displacing evicted rows). Posted like
    /// [`WarpOp::GlobalWrite`]: the eviction/fill bandwidth is charged to
    /// the HBM channel but the warp does not stall on it.
    CacheFill {
        /// Payload size in bytes (the freshly landed rows written back).
        bytes: u32,
    },
    /// Touches `bytes` at unified-memory `page`; if the page is not
    /// resident on this GPU a fault + migration is simulated by the
    /// installed [`crate::cluster::PageHandler`].
    PageAccess {
        /// Unified-memory page id being touched.
        page: u64,
        /// Payload size in bytes.
        bytes: u32,
    },
}

impl WarpOp {
    /// Convenience constructor for a compute op.
    pub fn compute(cycles: u32) -> Self {
        WarpOp::Compute { cycles }
    }
}
