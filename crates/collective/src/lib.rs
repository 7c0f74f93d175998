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

/// One step of ring shard rotation (every GPU sends `shard` bytes to its
/// successor starting at `t`); returns the step's completion time.
fn ring_step(cluster: &mut Cluster, t: SimTime, shard: u64) -> SimTime {
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
    fn deterministic() {
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(8));
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(8));
        assert_eq!(ring_allreduce(&mut c1, 3 << 20), ring_allreduce(&mut c2, 3 << 20));
    }
}
