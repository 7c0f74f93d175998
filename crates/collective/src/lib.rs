//! NCCL-like collective communication substrate.
//!
//! Reproduces the properties of host-initiated collectives that §2.1 of the
//! paper analyzes:
//!
//! * Operations are launched from the host and run as their own GPU
//!   kernels, so they **cannot overlap** an application kernel — callers
//!   pay a launch overhead per call and must serialize phases (the
//!   "non-trivial transitioning costs between communication and
//!   computation").
//! * Ring algorithms move bulk, *regular* traffic efficiently; they are a
//!   bad fit for fine-grained irregular neighbor access, which is exactly
//!   the mismatch Figure 2 demonstrates.
//!
//! All functions return simulated durations (the data plane stays with the
//! callers, who hold the real embedding matrices).

#![deny(missing_docs)]

use mgg_sim::{Cluster, SimTime};

/// Per-call host launch overhead of a collective (kernel launch + stream
/// synchronization on the way out).
pub const COLLECTIVE_LAUNCH_NS: u64 = 14_000;

/// Simulated duration of a ring all-reduce of `bytes` per GPU.
///
/// Classic two-phase ring: `2(n-1)` steps, each moving `bytes / n` along
/// every ring edge concurrently.
pub fn ring_allreduce(cluster: &mut Cluster, bytes: u64) -> SimTime {
    let n = cluster.num_gpus();
    if n <= 1 || bytes == 0 {
        return COLLECTIVE_LAUNCH_NS;
    }
    let shard = bytes.div_ceil(n as u64);
    let mut t = 0;
    for _ in 0..2 * (n - 1) {
        t = ring_step(cluster, t, shard);
    }
    t + COLLECTIVE_LAUNCH_NS
}

/// Simulated duration of a ring all-gather where GPU `i` contributes
/// `contrib[i]` bytes and every GPU ends with all contributions.
///
/// `n - 1` steps; in step `s`, GPU `i` forwards the shard that originated
/// at GPU `(i - s) mod n` to its successor.
pub fn ring_allgather(cluster: &mut Cluster, contrib: &[u64]) -> SimTime {
    let n = cluster.num_gpus();
    assert_eq!(contrib.len(), n, "one contribution per GPU");
    if n <= 1 {
        return COLLECTIVE_LAUNCH_NS;
    }
    let mut t = 0;
    for s in 0..n - 1 {
        let mut step_end = t;
        for pe in 0..n {
            let origin = (pe + n - s) % n;
            let bytes = contrib[origin];
            if bytes > 0 {
                let done = cluster.ic.bulk_link_transfer(t, pe, (pe + 1) % n, bytes);
                step_end = step_end.max(done);
            }
        }
        t = step_end;
    }
    t + COLLECTIVE_LAUNCH_NS
}

/// Simulated duration of one point-to-point bulk send.
pub fn sendrecv(cluster: &mut Cluster, from: usize, to: usize, bytes: u64) -> SimTime {
    if from == to || bytes == 0 {
        return COLLECTIVE_LAUNCH_NS;
    }
    cluster.ic.bulk_link_transfer(0, from, to, bytes) + COLLECTIVE_LAUNCH_NS
}

/// One step of ring shard rotation (every GPU sends `shard` bytes to its
/// successor starting at `t`); returns the step's completion time.
///
/// Exposed for the Figure-2 NCCL GNN study, which alternates rotation
/// steps with aggregation kernels.
pub fn ring_step(cluster: &mut Cluster, t: SimTime, shard: u64) -> SimTime {
    let n = cluster.num_gpus();
    let mut step_end = t;
    for pe in 0..n {
        let done = cluster.ic.bulk_link_transfer(t, pe, (pe + 1) % n, shard);
        step_end = step_end.max(done);
    }
    step_end
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_sim::ClusterSpec;

    #[test]
    fn allreduce_scales_with_bytes() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(4));
        let small = ring_allreduce(&mut c, 1 << 20);
        c.reset();
        let big = ring_allreduce(&mut c, 64 << 20);
        assert!(big > 4 * small, "big={big} small={small}");
    }

    #[test]
    fn allreduce_single_gpu_is_launch_only() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(1));
        assert_eq!(ring_allreduce(&mut c, 1 << 20), COLLECTIVE_LAUNCH_NS);
    }

    #[test]
    fn allgather_duration_dominated_by_total_volume() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(4));
        let even = ring_allgather(&mut c, &[8 << 20; 4]);
        c.reset();
        let skewed = ring_allgather(&mut c, &[32 << 20, 0, 0, 0]);
        // The skewed gather moves the same total bytes but serializes on
        // the single origin's shard each step, so it must not be faster.
        assert!(skewed >= even, "skewed={skewed} even={even}");
    }

    #[test]
    #[should_panic(expected = "one contribution per GPU")]
    fn allgather_checks_lengths() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(4));
        let _ = ring_allgather(&mut c, &[1, 2]);
    }

    #[test]
    fn sendrecv_pays_wire_time() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(2));
        let t = sendrecv(&mut c, 0, 1, 256 << 20);
        // 256 MiB over ~255 GB/s is ~1.05 ms.
        assert!(t > 900_000, "t={t}");
    }

    #[test]
    fn deterministic() {
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(8));
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(8));
        assert_eq!(ring_allreduce(&mut c1, 3 << 20), ring_allreduce(&mut c2, 3 << 20));
    }
}

/// Simulated duration of a ring broadcast of `bytes` from `root` to all
/// GPUs (pipelined chunking: `n - 1` hops, chunks overlap across hops).
pub fn broadcast(cluster: &mut Cluster, root: usize, bytes: u64) -> SimTime {
    let n = cluster.num_gpus();
    assert!(root < n, "root must be a valid GPU");
    if n <= 1 || bytes == 0 {
        return COLLECTIVE_LAUNCH_NS;
    }
    // Pipeline in 1 MiB chunks around the ring.
    let chunk = bytes.min(1 << 20);
    let chunks = bytes.div_ceil(chunk);
    let mut t_hop_start = vec![0u64; n]; // time chunk stream reaches GPU i
    let mut done = 0;
    for c in 0..chunks {
        let sz = if c + 1 == chunks { bytes - c * chunk } else { chunk };
        let mut t = t_hop_start[root];
        for hop in 0..n - 1 {
            let from = (root + hop) % n;
            let to = (root + hop + 1) % n;
            t = cluster.ic.bulk_link_transfer(t, from, to, sz);
            t_hop_start[to] = t_hop_start[to].max(t);
            done = done.max(t);
        }
    }
    done + COLLECTIVE_LAUNCH_NS
}

/// Simulated duration of a ring reduce-scatter of `bytes` per GPU
/// (`n - 1` steps of `bytes / n` shards, the first phase of the classic
/// two-phase all-reduce).
pub fn reduce_scatter(cluster: &mut Cluster, bytes: u64) -> SimTime {
    let n = cluster.num_gpus();
    if n <= 1 || bytes == 0 {
        return COLLECTIVE_LAUNCH_NS;
    }
    let shard = bytes.div_ceil(n as u64);
    let mut t = 0;
    for _ in 0..n - 1 {
        t = ring_step(cluster, t, shard);
    }
    t + COLLECTIVE_LAUNCH_NS
}

#[cfg(test)]
mod extra_tests {
    use super::*;
    use mgg_sim::ClusterSpec;

    #[test]
    fn broadcast_scales_with_bytes_and_gpus() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(4));
        let small = broadcast(&mut c, 0, 1 << 20);
        c.reset();
        let big = broadcast(&mut c, 0, 32 << 20);
        assert!(big > 4 * small, "big={big} small={small}");
        let mut c8 = Cluster::new(ClusterSpec::dgx_a100(8));
        let more_hops = broadcast(&mut c8, 0, 1 << 20);
        assert!(more_hops > small);
    }

    #[test]
    fn broadcast_root_position_is_irrelevant_on_a_ring() {
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(4));
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(4));
        assert_eq!(broadcast(&mut c1, 0, 4 << 20), broadcast(&mut c2, 2, 4 << 20));
    }

    #[test]
    #[should_panic(expected = "root must be a valid GPU")]
    fn broadcast_rejects_bad_root() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(2));
        let _ = broadcast(&mut c, 5, 1024);
    }

    #[test]
    fn reduce_scatter_is_half_an_allreduce() {
        let bytes = 16 << 20;
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(8));
        let rs = reduce_scatter(&mut c1, bytes);
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(8));
        let ar = ring_allreduce(&mut c2, bytes);
        // All-reduce = reduce-scatter + all-gather: roughly double the
        // wire time (launch overheads aside).
        let rs_wire = rs - COLLECTIVE_LAUNCH_NS;
        let ar_wire = ar - COLLECTIVE_LAUNCH_NS;
        assert!(ar_wire > rs_wire * 3 / 2, "ar={ar_wire} rs={rs_wire}");
    }

    #[test]
    fn single_gpu_collectives_are_launch_only() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(1));
        assert_eq!(broadcast(&mut c, 0, 1 << 20), COLLECTIVE_LAUNCH_NS);
        assert_eq!(reduce_scatter(&mut c, 1 << 20), COLLECTIVE_LAUNCH_NS);
    }
}
