//! Host-initiated NVSHMEM collectives: barrier and sum-reduce.
//!
//! These are the `nvshmem_barrier_all` / `nvshmem_float_sum_reduce`
//! operations the paper uses between kernels (Listing 1) and proposes for
//! workload-driven partition replicas (§6). Both plane roles are covered:
//! the functional effect acts on a [`SymmetricRegion`], and the simulated
//! duration is derived from the cluster's channels.

use mgg_sim::{Cluster, SimTime};

use crate::region::SymmetricRegion;

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

/// All-reduce (sum) over every PE's copy of a replicated region:
/// functionally sums the per-PE buffers element-wise and writes the result
/// back to all PEs; returns the simulated duration of a ring all-reduce on
/// the same byte volume.
///
/// All PEs must hold the same number of rows (a replicated buffer, the §6
/// "workload-driven partitioning" consistency case).
pub fn sum_reduce_all(cluster: &mut Cluster, region: &mut SymmetricRegion) -> SimTime {
    let n = region.num_pes();
    assert_eq!(n, cluster.num_gpus(), "region PEs must match the cluster");
    let rows = region.rows_on(0);
    for pe in 1..n {
        assert_eq!(region.rows_on(pe), rows, "sum_reduce_all needs a replicated region");
    }
    // Functional: elementwise sum, broadcast back.
    let len = rows * region.dim();
    let mut acc = vec![0.0f32; len];
    for pe in 0..n {
        for (a, &x) in acc.iter_mut().zip(region.pe_buf(pe)) {
            *a += x;
        }
    }
    for pe in 0..n {
        region.pe_buf_mut(pe).copy_from_slice(&acc);
    }
    if n <= 1 {
        return BARRIER_SW_NS;
    }
    // Timing: ring all-reduce, 2(n-1) steps of `len/n` elements each.
    let bytes = (len * std::mem::size_of::<f32>()) as u64;
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
    fn sum_reduce_sums_and_broadcasts() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(3));
        let mut r = SymmetricRegion::zeros(&[2, 2, 2], 2);
        for pe in 0..3 {
            r.row_mut(pe, 0)[0] = (pe + 1) as f32;
        }
        let t = sum_reduce_all(&mut c, &mut r);
        assert!(t > 0);
        for pe in 0..3 {
            assert_eq!(r.row(pe, 0)[0], 6.0);
            assert_eq!(r.row(pe, 1)[1], 0.0);
        }
    }

    #[test]
    #[should_panic(expected = "replicated region")]
    fn sum_reduce_rejects_uneven_regions() {
        let mut c = Cluster::new(ClusterSpec::dgx_a100(2));
        let mut r = SymmetricRegion::zeros(&[2, 3], 2);
        let _ = sum_reduce_all(&mut c, &mut r);
    }
}
