//! Property tests for the derived pipeline metrics: every ratio the
//! profiler reports must stay in `[0, 1]` for *any* kernel the simulator
//! can run, and deriving metrics must not perturb the simulation.

use mgg_sim::{
    Cluster, ClusterSpec, GpuSim, KernelLaunch, KernelProgram, NoPaging, WarpOp,
};
use mgg_telemetry::{overlap_efficiency, PipelineMetrics};
use proptest::prelude::*;

/// A kernel whose warps run arbitrary (sanitized) op traces.
struct FuzzKernel {
    launch: KernelLaunch,
    traces: Vec<Vec<WarpOp>>,
}

impl KernelProgram for FuzzKernel {
    fn launch(&self, _pe: usize) -> KernelLaunch {
        self.launch
    }
    fn warp_ops(&self, pe: usize, block: u32, warp: u32, out: &mut Vec<WarpOp>) {
        let idx = (block * self.launch.warps_per_block + warp) as usize;
        let Some(trace) = self.traces.get(idx % self.traces.len().max(1)) else { return };
        out.extend(trace.iter().map(|&op| match op {
            // A PE never GETs from itself.
            WarpOp::RemoteGet { peer, bytes, nbi } if peer as usize == pe => {
                WarpOp::RemoteGet { peer: (peer + 1) % 3, bytes, nbi }
            }
            WarpOp::RemotePut { peer, bytes } if peer as usize == pe => {
                WarpOp::RemotePut { peer: (peer + 1) % 3, bytes }
            }
            other => other,
        }));
    }
}

fn arb_op() -> impl Strategy<Value = WarpOp> {
    prop_oneof![
        (1u32..5_000).prop_map(|cycles| WarpOp::Compute { cycles }),
        (1u32..100_000).prop_map(|bytes| WarpOp::GlobalRead { bytes }),
        (0u16..3, 1u32..10_000, proptest::bool::ANY)
            .prop_map(|(peer, bytes, nbi)| WarpOp::RemoteGet { peer, bytes, nbi }),
        Just(WarpOp::WaitRemote),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Occupancy, utilization, and overlap efficiency derived from any
    /// random kernel all lie in [0, 1], and the hidden communication time
    /// never exceeds the total.
    #[test]
    fn derived_metrics_stay_in_unit_range(
        traces in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 0..12), 1..6),
        blocks in 0u32..16,
        wpb in 1u32..8,
    ) {
        let kernel = FuzzKernel {
            launch: KernelLaunch { blocks, warps_per_block: wpb, smem_per_block: 256 },
            traces,
        };
        let mut cluster = Cluster::new(ClusterSpec::dgx_a100(3));
        let (stats, events) =
            GpuSim::run_traced(&mut cluster, &kernel, &mut NoPaging).expect("valid launch");
        let m = PipelineMetrics::derive(&stats, &events);
        prop_assert!((0.0..=1.0).contains(&m.achieved_occupancy), "occ {}", m.achieved_occupancy);
        prop_assert!((0.0..=1.0).contains(&m.sm_utilization), "util {}", m.sm_utilization);
        prop_assert!(
            (0.0..=1.0).contains(&m.overlap_efficiency),
            "overlap {}",
            m.overlap_efficiency
        );
        prop_assert_eq!(m.overlap_efficiency, overlap_efficiency(&events));
        prop_assert!(m.hidden_comm_ns <= m.comm_ns, "{} > {}", m.hidden_comm_ns, m.comm_ns);
        prop_assert_eq!(m.makespan_ns, stats.makespan_ns());
        // Pair traffic totals agree with the aggregate fabric counters.
        let pair_bytes: u64 = m.pair_traffic.iter().map(|p| p.bytes).sum();
        prop_assert_eq!(pair_bytes, m.remote_bytes);
    }

    /// Deriving metrics is a pure function of the run's outputs: the
    /// traced run's stats equal the untraced run's stats.
    #[test]
    fn deriving_metrics_does_not_perturb_stats(
        traces in proptest::collection::vec(
            proptest::collection::vec(arb_op(), 0..10), 1..4),
        blocks in 0u32..10,
        wpb in 1u32..6,
    ) {
        let kernel = FuzzKernel {
            launch: KernelLaunch { blocks, warps_per_block: wpb, smem_per_block: 256 },
            traces,
        };
        let mut c1 = Cluster::new(ClusterSpec::dgx_a100(3));
        let plain = GpuSim::run(&mut c1, &kernel, &mut NoPaging).expect("valid launch");
        let mut c2 = Cluster::new(ClusterSpec::dgx_a100(3));
        let (traced, events) =
            GpuSim::run_traced(&mut c2, &kernel, &mut NoPaging).expect("valid launch");
        let _ = PipelineMetrics::derive(&traced, &events);
        prop_assert_eq!(plain, traced);
    }
}
