//! Hardware specifications for simulated GPUs, links and clusters.
//!
//! The presets mirror the paper's two evaluation platforms (§5 "Platforms &
//! Tools"): an NVIDIA DGX-A100 (8×A100, NVSwitch all-to-all) and a DGX-1
//! (4×V100, NVLink). Constants are drawn from public datasheets; effective
//! bandwidths are derated from peak the way sustained achievable bandwidth
//! usually is (~80% of peak for HBM, ~85% for NVLink-class links).

use serde::{Deserialize, Serialize};

/// Per-GPU microarchitectural and memory parameters.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct GpuSpec {
    /// Marketing name, for reports.
    pub name: &'static str,
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Maximum resident warps per SM.
    pub warp_slots_per_sm: u32,
    /// Warp schedulers per SM; each can have one compute op in flight.
    pub schedulers_per_sm: u32,
    /// Shared memory capacity per SM, in bytes.
    pub smem_per_sm: u32,
    /// Maximum resident thread blocks per SM (hardware cap).
    pub max_blocks_per_sm: u32,
    /// Core clock in GHz; compute-op cycle counts convert to time with this.
    pub clock_ghz: f64,
    /// Device memory capacity in bytes.
    pub dram_bytes: u64,
    /// Sustained device-memory bandwidth in bytes per nanosecond (== GB/s).
    pub dram_bw_gbps: f64,
    /// Device-memory access latency in nanoseconds.
    pub dram_latency_ns: u64,
}

impl GpuSpec {
    /// NVIDIA A100-SXM4-40GB, as in the DGX-A100 used by the paper.
    pub fn a100() -> Self {
        GpuSpec {
            name: "A100",
            num_sms: 108,
            warp_slots_per_sm: 64,
            schedulers_per_sm: 4,
            smem_per_sm: 164 * 1024,
            max_blocks_per_sm: 32,
            clock_ghz: 1.41,
            dram_bytes: 40 * (1 << 30),
            dram_bw_gbps: 1555.0 * 0.8,
            dram_latency_ns: 400,
        }
    }

    /// NVIDIA Tesla V100-SXM2, as in the DGX-1 modeling-study platform.
    pub fn v100() -> Self {
        GpuSpec {
            name: "V100",
            num_sms: 80,
            warp_slots_per_sm: 64,
            schedulers_per_sm: 4,
            smem_per_sm: 96 * 1024,
            max_blocks_per_sm: 32,
            clock_ghz: 1.38,
            dram_bytes: 16 * (1 << 30),
            dram_bw_gbps: 900.0 * 0.8,
            dram_latency_ns: 450,
        }
    }

    /// Converts a cycle count on this GPU to nanoseconds.
    #[inline]
    pub fn cycles_to_ns(&self, cycles: u64) -> u64 {
        crate::time::cycles_to_ns(cycles, self.clock_ghz)
    }
}

/// Parameters of one inter-GPU (or GPU-host) link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Sustained bandwidth in GB/s (== bytes per nanosecond).
    pub bw_gbps: f64,
    /// One-way latency in nanoseconds.
    pub latency_ns: u64,
    /// Fixed per-request software/initiation overhead in nanoseconds.
    ///
    /// For NVSHMEM-style fine-grained remote access this is the dominant
    /// cost of small transfers (§2.3: "many separated NVSHMEM requests ...
    /// non-trivial overheads").
    pub request_overhead_ns: u64,
}

impl LinkSpec {
    /// NVSwitch port of a DGX-A100: 600 GB/s bidirectional per GPU, so
    /// 300 GB/s per direction, derated to sustained.
    pub fn nvswitch_a100() -> Self {
        LinkSpec { bw_gbps: 300.0 * 0.85, latency_ns: 700, request_overhead_ns: 150 }
    }

    /// A V100 NVLink2 point-to-point connection (single brick pair,
    /// 50 GB/s per direction, derated).
    pub fn nvlink_v100() -> Self {
        LinkSpec { bw_gbps: 50.0 * 0.85, latency_ns: 900, request_overhead_ns: 250 }
    }

    /// Host PCIe 4.0 x16 path (shared by all GPUs for host-staged transfers).
    pub fn pcie4_host() -> Self {
        LinkSpec { bw_gbps: 25.0 * 0.8, latency_ns: 1_500, request_overhead_ns: 0 }
    }
}

/// Inter-GPU wiring of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Topology {
    /// All-to-all through a switch: each GPU has one ingress and one egress
    /// port; any pair communicates at full port bandwidth with no NUMA
    /// effect (DGX-A100, §3.1).
    NvSwitch,
    /// Dedicated point-to-point links between every GPU pair (a DGX-1
    /// quad, where the four GPUs are fully connected).
    NvLinkPairs,
    /// The DGX-1V 8-GPU hybrid cube-mesh: each V100's six NVLink bricks
    /// reach only a subset of peers; unconnected pairs relay through a
    /// common neighbor (two hops, both charged).
    HybridCubeMesh,
}

/// The whole simulated platform.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClusterSpec {
    /// Per-GPU microarchitecture (SMs, clocks, HBM).
    pub gpu: GpuSpec,
    /// Number of GPUs in the cluster.
    pub num_gpus: usize,
    /// How the GPUs are wired together.
    pub topology: Topology,
    /// The GPU-to-GPU link (NVLink class).
    pub link: LinkSpec,
    /// The GPU-to-host link (PCIe class).
    pub host_link: LinkSpec,
    /// Host-side kernel launch overhead in nanoseconds (per launch).
    pub kernel_launch_ns: u64,
}

impl ClusterSpec {
    /// `n`-GPU slice of a DGX-A100.
    pub fn dgx_a100(num_gpus: usize) -> Self {
        assert!((1..=8).contains(&num_gpus), "DGX-A100 has 8 GPUs");
        ClusterSpec {
            gpu: GpuSpec::a100(),
            num_gpus,
            topology: Topology::NvSwitch,
            link: LinkSpec::nvswitch_a100(),
            host_link: LinkSpec::pcie4_host(),
            kernel_launch_ns: 6_000,
        }
    }

    /// `n`-GPU slice of a DGX-1 with V100s.
    pub fn dgx1_v100(num_gpus: usize) -> Self {
        assert!((1..=8).contains(&num_gpus), "DGX-1 has 8 GPUs");
        ClusterSpec {
            gpu: GpuSpec::v100(),
            num_gpus,
            // Up to four GPUs form a fully connected quad; the full eight
            // wire up as the hybrid cube-mesh.
            topology: if num_gpus > 4 {
                Topology::HybridCubeMesh
            } else {
                Topology::NvLinkPairs
            },
            link: LinkSpec::nvlink_v100(),
            host_link: LinkSpec::pcie4_host(),
            kernel_launch_ns: 6_500,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a100_matches_datasheet_shape() {
        let g = GpuSpec::a100();
        assert_eq!(g.num_sms, 108);
        assert_eq!(g.smem_per_sm, 164 * 1024);
        assert!(g.dram_bw_gbps > 1_000.0);
    }

    #[test]
    fn link_bandwidth_gap_matches_paper_observation() {
        // §2.1: "huge bandwidth gap between the high-speed global memory
        // (around 1TB/s) and inter-GPU connections (around 100GB/s)".
        let g = GpuSpec::a100();
        let l = LinkSpec::nvswitch_a100();
        assert!(g.dram_bw_gbps / l.bw_gbps > 3.0);
    }

    #[test]
    #[should_panic(expected = "DGX-A100 has 8 GPUs")]
    fn dgx_rejects_oversized() {
        let _ = ClusterSpec::dgx_a100(9);
    }

    #[test]
    fn cycle_conversion_uses_clock() {
        let g = GpuSpec::a100();
        assert_eq!(g.cycles_to_ns(1_410), 1_000);
    }
}

impl ClusterSpec {
    /// A PCIe-only multi-GPU box: all-to-all through the PCIe switch with
    /// no NVLink. This is the platform class prior GNN systems targeted
    /// (§2.4: they "tailor their design for the low-bandwidth PCIe with
    /// naturally high communication cost"); comparing against it shows how
    /// much of MGG's win rides on the fast fabric.
    pub fn pcie_box(num_gpus: usize) -> Self {
        assert!((1..=8).contains(&num_gpus), "PCIe box supports up to 8 GPUs");
        ClusterSpec {
            gpu: GpuSpec::a100(),
            num_gpus,
            topology: Topology::NvSwitch,
            link: LinkSpec { bw_gbps: 12.0, latency_ns: 1_900, request_overhead_ns: 400 },
            host_link: LinkSpec::pcie4_host(),
            kernel_launch_ns: 6_000,
        }
    }
}

#[cfg(test)]
mod pcie_tests {
    use super::*;

    #[test]
    fn pcie_box_is_much_slower_fabric() {
        let fast = ClusterSpec::dgx_a100(4);
        let slow = ClusterSpec::pcie_box(4);
        assert!(fast.link.bw_gbps > 10.0 * slow.link.bw_gbps);
        assert!(slow.link.latency_ns > fast.link.latency_ns);
    }
}

impl GpuSpec {
    /// A multi-core CPU socket modeled in the same terms (§6 "Hardware
    /// Generality": the kernel becomes plain functions over OpenSHMEM, and
    /// parallelism comes from threads instead of warps). One "SM" is one
    /// core with a single issue slot and two hardware threads; "shared
    /// memory" stands in for the core-private L2.
    pub fn cpu_socket() -> Self {
        GpuSpec {
            name: "CPU-socket",
            num_sms: 64,
            warp_slots_per_sm: 2,
            schedulers_per_sm: 1,
            smem_per_sm: 1024 * 1024,
            max_blocks_per_sm: 2,
            clock_ghz: 2.25,
            dram_bytes: 256 * (1 << 30),
            dram_bw_gbps: 180.0,
            dram_latency_ns: 90,
        }
    }
}

impl ClusterSpec {
    /// A multi-CPU OpenSHMEM cluster: sockets connected by a commodity
    /// RDMA network (much higher latency and per-request cost than
    /// NVLink). The §6 point this enables: the pipelining *pattern*
    /// transfers, but the overlap window (interleaving distance) must be
    /// retuned for the platform's very different latency/compute ratio.
    pub fn cpu_cluster(num_nodes: usize) -> Self {
        assert!((1..=16).contains(&num_nodes), "1-16 CPU nodes supported");
        ClusterSpec {
            gpu: GpuSpec::cpu_socket(),
            num_gpus: num_nodes,
            topology: Topology::NvSwitch,
            link: LinkSpec { bw_gbps: 24.0, latency_ns: 2_500, request_overhead_ns: 600 },
            host_link: LinkSpec::pcie4_host(),
            kernel_launch_ns: 2_000,
        }
    }
}

#[cfg(test)]
mod cpu_tests {
    use super::*;

    #[test]
    fn cpu_cluster_has_cpu_character() {
        let c = ClusterSpec::cpu_cluster(4);
        assert_eq!(c.gpu.schedulers_per_sm, 1, "one issue slot per core");
        assert!(c.link.latency_ns > ClusterSpec::dgx_a100(4).link.latency_ns);
        assert!(c.gpu.dram_bw_gbps < GpuSpec::a100().dram_bw_gbps / 5.0);
    }
}
