//! Host-initiated collectives: NVSHMEM's barrier and sum-reduce, and
//! NCCL's ring all-reduce and all-gather.
//!
//! `barrier_all` and `sum_reduce_all` are the `nvshmem_barrier_all` /
//! `nvshmem_float_sum_reduce` operations the paper uses between kernels
//! (Listing 1) and proposes for workload-driven partition replicas (§6).
//! `ring_allreduce` and `ring_allgather` are the NCCL collectives §2.1
//! analyzes: launched from the host as their own kernels, they **cannot
//! overlap** an application kernel, so callers pay a launch overhead per
//! call and must serialize phases; and their ring algorithms move bulk,
//! *regular* traffic well but fit fine-grained irregular neighbor access
//! badly — the mismatch Figure 2 demonstrates.
//!
//! All are timing models: their simulated duration is derived from the
//! cluster's channels, and the data plane stays with the callers.

use mgg_sim::{Cluster, SimTime};

/// Software overhead of one barrier round on the host+driver path.
const BARRIER_SW_NS: u64 = 4_000;

/// Per-call host launch overhead of an NCCL collective (kernel launch +
/// stream synchronization on the way out).
pub const COLLECTIVE_LAUNCH_NS: u64 = 14_000;

/// Simulated duration of `nvshmem_barrier_all`: a dissemination barrier
/// over the interconnect, `ceil(log2 n)` rounds of tiny messages.
pub fn barrier_all(cluster: &mut Cluster) -> SimTime {
    let n = cluster.num_gpus();
    if n <= 1 {
        return BARRIER_SW_NS;
    }
    let rounds = (usize::BITS - (n - 1).leading_zeros()) as u64;
    let mut t = 0;
    for r in 0..rounds {
        let mut round_end = t;
        for pe in 0..n {
            let peer = (pe + (1 << r)) % n;
            if peer != pe {
                let done = cluster.ic.bulk_link_transfer(t, pe, peer, 8);
                round_end = round_end.max(done);
            }
        }
        t = round_end;
    }
    t + BARRIER_SW_NS
}

/// Simulated duration of a ring all-reduce (sum) over a buffer of `bytes`
/// replicated on every PE, plus one barrier's software overhead. This is
/// the §6 "workload-driven partitioning" consistency case, where every GPU
/// holds a replica of the output.
pub fn sum_reduce_all(cluster: &mut Cluster, bytes: u64) -> SimTime {
    if cluster.num_gpus() <= 1 {
        return BARRIER_SW_NS;
    }
    ring_reduce(cluster, bytes) + BARRIER_SW_NS
}

/// Simulated duration of an NCCL ring all-reduce of `bytes` per GPU, plus
/// the collective's launch overhead.
pub fn ring_allreduce(cluster: &mut Cluster, bytes: u64) -> SimTime {
    if cluster.num_gpus() <= 1 || bytes == 0 {
        return COLLECTIVE_LAUNCH_NS;
    }
    ring_reduce(cluster, bytes) + COLLECTIVE_LAUNCH_NS
}

/// The classic two-phase ring over `n >= 2` PEs: `2(n-1)` steps, each
/// moving a `bytes / n` shard along every ring edge concurrently. Returns
/// the time the last step lands.
fn ring_reduce(cluster: &mut Cluster, bytes: u64) -> SimTime {
    let n = cluster.num_gpus();
    let shard = bytes.div_ceil(n as u64);
    let mut t = 0;
    for _ in 0..2 * (n - 1) {
        let mut step_end = t;
        for pe in 0..n {
            let done = cluster.ic.bulk_link_transfer(t, pe, (pe + 1) % n, shard);
            step_end = step_end.max(done);
        }
        t = step_end;
    }
    t
}

/// Simulated duration of an NCCL ring all-gather where GPU `i` contributes
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

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_sim::ClusterSpec;

    #[test]
    fn barrier_grows_with_gpu_count() {
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(2));
        let mut c8 = Cluster::new(ClusterSpec::dgx_a100(8));
        let t2 = barrier_all(&mut c2);
        let t8 = barrier_all(&mut c8);
        assert!(t8 > t2, "t8={t8} t2={t2}");
    }

    #[test]
    fn barrier_single_gpu_is_cheap() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(1));
        assert_eq!(barrier_all(&mut c), BARRIER_SW_NS);
    }

    #[test]
    fn sum_reduce_is_priced_on_bytes() {
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(1));
        assert_eq!(sum_reduce_all(&mut c1, 1 << 20), BARRIER_SW_NS);
        let mut c4 = Cluster::new(ClusterSpec::dgx_a100(4));
        let small = sum_reduce_all(&mut c4, 1 << 10);
        c4.reset();
        let big = sum_reduce_all(&mut c4, 1 << 24);
        assert!(small > BARRIER_SW_NS, "a ring step costs fabric time: {small}");
        assert!(big > small, "more bytes take longer: big={big} small={small}");
    }

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
    fn deterministic() {
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(8));
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(8));
        assert_eq!(ring_allreduce(&mut c1, 3 << 20), ring_allreduce(&mut c2, 3 << 20));
    }
}
