//! Host-initiated NVSHMEM collectives: barrier and sum-reduce.
//!
//! These are the `nvshmem_barrier_all` / `nvshmem_float_sum_reduce`
//! operations the paper uses between kernels (Listing 1) and proposes for
//! workload-driven partition replicas (§6). Both are timing models: their
//! simulated duration is derived from the cluster's channels.

use mgg_sim::{Cluster, SimTime};

/// Software overhead of one barrier round on the host+driver path.
const BARRIER_SW_NS: u64 = 4_000;

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
/// replicated on every PE: 2(n-1) steps, each moving a `bytes / n` shard
/// to the next PE, plus one barrier's software overhead. This is the §6
/// "workload-driven partitioning" consistency case, where every GPU holds
/// a replica of the output.
pub fn sum_reduce_all(cluster: &mut Cluster, bytes: u64) -> SimTime {
    let n = cluster.num_gpus();
    if n <= 1 {
        return BARRIER_SW_NS;
    }
    let shard = bytes.div_ceil(n as u64);
    let mut t = 0;
    for _step in 0..(2 * (n - 1)) {
        let mut step_end = t;
        for pe in 0..n {
            let done = cluster.ic.bulk_link_transfer(t, pe, (pe + 1) % n, shard);
            step_end = step_end.max(done);
        }
        t = step_end;
    }
    t + BARRIER_SW_NS
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
}
