//! The simulated multi-GPU platform: channels, interconnect and paging hook.

use mgg_fault::FaultSchedule;

use crate::channel::BandwidthChannel;
use crate::metrics::{ChannelStats, PairStats, TrafficStats};
use crate::spec::{ClusterSpec, Topology};
use crate::time::SimTime;

/// NVLink wiring of the DGX-1V hybrid cube-mesh (link per unordered GPU
/// pair; double bricks are modeled as one link of brick bandwidth, which
/// is conservative for the doubled pairs).
const CUBE_MESH_LINKS: [(u16, u16); 16] = [
    (0, 1), (0, 2), (0, 3), (0, 4),
    (1, 2), (1, 3), (1, 5),
    (2, 3), (2, 6),
    (3, 7),
    (4, 5), (4, 6), (4, 7),
    (5, 6), (5, 7),
    (6, 7),
];

/// Relay GPU for a 2-hop route between cube-mesh peers lacking a direct
/// link: the lowest-id common neighbor (deterministic).
fn cube_mesh_relay(a: u16, b: u16) -> u16 {
    let connected = |x: u16, y: u16| {
        let key = (x.min(y), x.max(y));
        CUBE_MESH_LINKS.contains(&key)
    };
    (0..8u16)
        .find(|&r| r != a && r != b && connected(a, r) && connected(r, b))
        .expect("cube mesh is 2-hop connected")
}

/// All contended transfer resources of the platform.
///
/// * One HBM channel per GPU.
/// * Interconnect: with [`Topology::NvSwitch`], one ingress and one egress
///   port channel per GPU (any pair communicates, contending only on the
///   endpoints' ports — no NUMA effect, as on DGX-A100). With
///   [`Topology::NvLinkPairs`], one channel per unordered GPU pair.
/// * One shared host (PCIe) channel for transfers staged through host
///   memory (a dead link with no relay route, or the UVM degrade); it is
///   shared because the CPU side serializes host data management (§2.2's
///   "relatively low-speed CPU processor for host data management").
#[derive(Debug)]
pub struct Interconnect {
    topology: Topology,
    /// Warp-side issue cost of one remote request, charged by the GPU model.
    pub request_overhead_ns: u64,
    hbm: Vec<BandwidthChannel>,
    port_in: Vec<BandwidthChannel>,
    port_out: Vec<BandwidthChannel>,
    /// Per-unordered-pair link channels, flattened `lo * n + hi` (only
    /// `lo < hi` slots populated). Dense so the fabric hot path indexes
    /// instead of hashing; `None` marks pairs without a direct link.
    pair_links: Vec<Option<BandwidthChannel>>,
    host: BandwidthChannel,
    /// Ordered-pair fabric traffic, flattened `from * n + to`. Bumped once
    /// per transfer at the fabric entry points (not inside the cube-mesh
    /// relay recursion), so a 2-hop route counts as one `(src, dst)` entry.
    pair_bytes: Vec<u64>,
    pair_requests: Vec<u64>,
    /// Permanent link failures, flattened `lo * n + hi`: the instant the
    /// link died. Transfers starting at or after that instant cannot use
    /// the pair.
    link_down: Vec<Option<SimTime>>,
    /// Engine-installed relay routes around dead links, flattened
    /// `lo * n + hi`: intermediate hops (excluding the endpoints).
    route_overrides: Vec<Option<Vec<u16>>>,
    /// When set, *all* fabric traffic is staged through host memory: the
    /// executed form of MGG->UVM degradation (embeddings live in host
    /// memory; every remote access crosses PCIe).
    uvm_degraded: bool,
    /// Transfers that took a relay route around a dead link.
    rerouted: u64,
    /// Transfers staged through host memory (dead link with no surviving
    /// route, or UVM degradation).
    host_staged: u64,
}

impl Interconnect {
    /// Builds the wiring described by `spec`.
    pub fn new(spec: &ClusterSpec) -> Self {
        let n = spec.num_gpus;
        // DRAM transaction overhead: a scattered small access costs far
        // more than its bytes/bandwidth share (row activation, command
        // bus). 2 ns per transaction bounds effective small-access
        // bandwidth at ~0.5 G transactions/s, in line with measured
        // random-access DRAM behaviour.
        const DRAM_REQUEST_NS: f64 = 2.0;
        // Fabric packet overhead: headers + flow control, charged as the
        // wire time of ~128 extra bytes per message.
        const PACKET_OVERHEAD_BYTES: f64 = 128.0;
        let hbm = (0..n)
            .map(|_| {
                BandwidthChannel::new(spec.gpu.dram_bw_gbps, spec.gpu.dram_latency_ns)
                    .with_request_cost(DRAM_REQUEST_NS)
            })
            .collect();
        // Port channels each carry half the link latency so that a transfer
        // crossing egress + ingress pays one full link latency in total.
        let half_lat = spec.link.latency_ns / 2;
        let port_req = PACKET_OVERHEAD_BYTES / spec.link.bw_gbps;
        let mk_port =
            || BandwidthChannel::new(spec.link.bw_gbps, half_lat).with_request_cost(port_req);
        let mk_link = || {
            BandwidthChannel::new(spec.link.bw_gbps, spec.link.latency_ns)
                .with_request_cost(port_req)
        };
        let (port_in, port_out, pair_links) = match spec.topology {
            Topology::NvSwitch => {
                let pin = (0..n).map(|_| mk_port()).collect();
                let pout = (0..n).map(|_| mk_port()).collect();
                (pin, pout, vec![None; n * n])
            }
            Topology::NvLinkPairs => {
                let mut links: Vec<Option<BandwidthChannel>> = vec![None; n * n];
                for a in 0..n {
                    for b in (a + 1)..n {
                        links[a * n + b] = Some(mk_link());
                    }
                }
                (Vec::new(), Vec::new(), links)
            }
            Topology::HybridCubeMesh => {
                assert!(n <= 8, "the cube mesh wires 8 GPUs");
                let mut links: Vec<Option<BandwidthChannel>> = vec![None; n * n];
                for &(a, b) in CUBE_MESH_LINKS.iter() {
                    if (a as usize) < n && (b as usize) < n {
                        links[a as usize * n + b as usize] = Some(mk_link());
                    }
                }
                (Vec::new(), Vec::new(), links)
            }
        };
        Interconnect {
            topology: spec.topology,
            request_overhead_ns: spec.link.request_overhead_ns,
            hbm,
            port_in,
            port_out,
            pair_links,
            host: BandwidthChannel::from_link(&spec.host_link),
            pair_bytes: vec![0; n * n],
            pair_requests: vec![0; n * n],
            link_down: vec![None; n * n],
            route_overrides: vec![None; n * n],
            uvm_degraded: false,
            rerouted: 0,
            host_staged: 0,
        }
    }

    /// Accounts one fabric transfer against its ordered endpoint pair.
    fn note_pair(&mut self, from: usize, to: usize, bytes: u64) {
        let n = self.hbm.len();
        self.pair_bytes[from * n + to] += bytes;
        self.pair_requests[from * n + to] += 1;
    }

    /// Flattened index of the unordered pair `(a, b)` in the dense
    /// `lo * n + hi` tables.
    #[inline]
    fn pair_idx(&self, a: usize, b: usize) -> usize {
        a.min(b) * self.hbm.len() + a.max(b)
    }

    /// Number of GPUs wired up.
    pub fn num_gpus(&self) -> usize {
        self.hbm.len()
    }

    /// Local device-memory transfer on `gpu`; returns completion time.
    pub fn hbm_transfer(&mut self, now: SimTime, gpu: usize, bytes: u64) -> SimTime {
        self.hbm[gpu].transfer(now, bytes)
    }

    /// Moves `bytes` from `from` GPU's memory to `to` GPU; returns the
    /// arrival time. Also charges the source GPU's HBM for the read-out.
    pub fn remote_transfer(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        debug_assert_ne!(from, to, "remote transfer to self");
        self.note_pair(from, to, bytes);
        let src_ready = self.hbm[from].transfer(now, bytes);
        self.fabric_transfer(src_ready, from, to, bytes)
    }

    /// Routes one fabric transfer, honoring permanent link failures: the
    /// direct path when it survives, an engine-installed relay route
    /// otherwise, host staging as the last resort. `uvm_degraded` forces
    /// everything through the host path.
    fn fabric_transfer(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        if self.uvm_degraded {
            self.host_staged += 1;
            return self.host_stage(now, bytes);
        }
        let idx = self.pair_idx(from, to);
        let down = matches!(self.link_down[idx], Some(at) if now >= at);
        if !down {
            return self.direct_leg(now, from, to, bytes);
        }
        if let Some(hops) = self.route_overrides[idx].clone() {
            self.rerouted += 1;
            // Relay legs in endpoint order: reverse the hop list when the
            // transfer travels against the installed direction.
            let ordered: Vec<usize> = if from < to {
                hops.iter().map(|&h| h as usize).collect()
            } else {
                hops.iter().rev().map(|&h| h as usize).collect()
            };
            let mut t = now;
            let mut cur = from;
            for hop in ordered.into_iter().chain(std::iter::once(to)) {
                t = self.direct_leg(t, cur, hop, bytes);
                cur = hop;
            }
            return t;
        }
        // No surviving fabric route installed: stage through host memory
        // (source flushes over PCIe, destination pulls over PCIe).
        self.host_staged += 1;
        self.host_stage(now, bytes)
    }

    /// One hop over the healthy fabric (the pre-failover transfer path).
    fn direct_leg(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        match self.topology {
            Topology::NvSwitch => {
                // Cut-through switching: occupancy contends on both the
                // source egress and destination ingress ports in parallel,
                // and the data pays the full link latency once (each port
                // channel carries half of it).
                let t_out = self.port_out[from].transfer(now, bytes);
                let t_in = self.port_in[to].transfer(now, bytes);
                let half_lat = self.port_in[to].latency_ns();
                t_out.max(t_in) + half_lat
            }
            Topology::NvLinkPairs | Topology::HybridCubeMesh => {
                self.pair_route(now, from, to, bytes)
            }
        }
    }

    /// Host-memory staging: the payload crosses the shared PCIe channel
    /// twice (down to host, back up to the destination), serialized.
    fn host_stage(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let down = self.host.transfer(now, bytes);
        self.host.transfer(down, bytes)
    }

    /// Sends over a direct pair link, or relays through the cube mesh's
    /// 2-hop route when no direct link exists.
    fn pair_route(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        let idx = self.pair_idx(from, to);
        if let Some(link) = self.pair_links[idx].as_mut() {
            return link.transfer(now, bytes);
        }
        debug_assert_eq!(
            self.topology,
            Topology::HybridCubeMesh,
            "only the cube mesh has unlinked pairs"
        );
        let relay = cube_mesh_relay(from as u16, to as u16) as usize;
        let mid = self.pair_route(now, from, relay, bytes);
        self.pair_route(mid, relay, to, bytes)
    }

    /// Direct GPU↔GPU bulk copy (used by collectives); same path as
    /// [`Interconnect::remote_transfer`] but without charging source HBM
    /// (collectives pipeline the read-out behind the wire).
    pub fn bulk_link_transfer(&mut self, now: SimTime, from: usize, to: usize, bytes: u64) -> SimTime {
        self.note_pair(from, to, bytes);
        self.fabric_transfer(now, from, to, bytes)
    }

    /// Wires a fault schedule's link-degradation windows onto the affected
    /// channels: on NVSwitch, a GPU's windows degrade its ingress and
    /// egress ports; on pair topologies, every link incident to the GPU.
    /// Permanent link failures (including those implied by a GPU death)
    /// are recorded so transfers after the failure instant re-route.
    pub fn install_faults(&mut self, sched: &FaultSchedule) {
        let n = self.num_gpus();
        if sched.has_permanent() {
            for a in 0..n {
                for b in a + 1..n {
                    if let Some(at) = sched.link_dead_at(a, b) {
                        self.link_down[a * n + b] = Some(at);
                    }
                }
            }
        }
        for gpu in 0..n {
            let windows = sched.link_windows(gpu);
            if windows.is_empty() {
                continue;
            }
            match self.topology {
                Topology::NvSwitch => {
                    self.port_in[gpu].install_faults(windows);
                    self.port_out[gpu].install_faults(windows);
                }
                Topology::NvLinkPairs | Topology::HybridCubeMesh => {
                    for (i, ch) in self.pair_links.iter_mut().enumerate() {
                        if let Some(ch) = ch {
                            if i / n == gpu || i % n == gpu {
                                ch.install_faults(windows);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Removes all installed fault windows from every channel, plus any
    /// permanent-failure state and recovery routing.
    pub fn clear_faults(&mut self) {
        self.hbm.iter_mut().for_each(BandwidthChannel::clear_faults);
        self.port_in.iter_mut().for_each(BandwidthChannel::clear_faults);
        self.port_out.iter_mut().for_each(BandwidthChannel::clear_faults);
        self.pair_links.iter_mut().flatten().for_each(BandwidthChannel::clear_faults);
        self.host.clear_faults();
        self.link_down.iter_mut().for_each(|d| *d = None);
        self.route_overrides.iter_mut().for_each(|r| *r = None);
        self.uvm_degraded = false;
    }

    /// Installs a relay route for the unordered `(a, b)` pair: transfers
    /// between the pair travel via `hops` (in `a -> b` order, excluding the
    /// endpoints) once the direct link is down. Replaces any prior route.
    pub fn install_route(&mut self, a: usize, b: usize, hops: Vec<u16>) {
        assert!(a != b && a < self.num_gpus() && b < self.num_gpus(), "bad pair ({a}, {b})");
        let idx = self.pair_idx(a, b);
        self.route_overrides[idx] = Some(hops);
    }

    /// Forces (or lifts) UVM degradation: when on, every fabric transfer is
    /// staged through host memory.
    pub fn set_uvm_degraded(&mut self, degraded: bool) {
        self.uvm_degraded = degraded;
    }

    /// Whether the interconnect is operating in degraded UVM mode.
    pub fn uvm_degraded(&self) -> bool {
        self.uvm_degraded
    }

    /// Transfers that took a relay route around a dead link since reset.
    pub fn rerouted_transfers(&self) -> u64 {
        self.rerouted
    }

    /// Transfers staged through host memory since reset.
    pub fn host_staged_transfers(&self) -> u64 {
        self.host_staged
    }

    /// Transfers that started inside a degradation window, summed over all
    /// channels, since the last reset.
    pub fn degraded_requests(&self) -> u64 {
        self.hbm.iter().map(BandwidthChannel::degraded_requests).sum::<u64>()
            + self.port_in.iter().map(BandwidthChannel::degraded_requests).sum::<u64>()
            + self.port_out.iter().map(BandwidthChannel::degraded_requests).sum::<u64>()
            + self.pair_links.iter().flatten().map(BandwidthChannel::degraded_requests).sum::<u64>()
            + self.host.degraded_requests()
    }

    /// Captures all channel counters.
    pub fn traffic(&self) -> TrafficStats {
        TrafficStats {
            hbm: self.hbm.iter().map(ChannelStats::snapshot).collect(),
            link_in: match self.topology {
                Topology::NvSwitch => self.port_in.iter().map(ChannelStats::snapshot).collect(),
                Topology::NvLinkPairs | Topology::HybridCubeMesh => {
                    // Attribute each pair link to its lower-numbered end for
                    // reporting purposes.
                    let n = self.num_gpus();
                    let mut v = vec![ChannelStats::default(); n];
                    for (i, ch) in self.pair_links.iter().enumerate() {
                        if let Some(ch) = ch {
                            let s = ChannelStats::snapshot(ch);
                            v[i / n].bytes += s.bytes;
                            v[i / n].requests += s.requests;
                            v[i / n].busy_ns += s.busy_ns;
                        }
                    }
                    v
                }
            },
            link_out: match self.topology {
                Topology::NvSwitch => self.port_out.iter().map(ChannelStats::snapshot).collect(),
                Topology::NvLinkPairs | Topology::HybridCubeMesh => {
                    vec![ChannelStats::default(); self.num_gpus()]
                }
            },
            host: ChannelStats::snapshot(&self.host),
            pairs: {
                let n = self.num_gpus();
                let mut pairs = Vec::new();
                for from in 0..n {
                    for to in 0..n {
                        let i = from * n + to;
                        if self.pair_requests[i] > 0 {
                            pairs.push(PairStats {
                                src: from as u16,
                                dst: to as u16,
                                bytes: self.pair_bytes[i],
                                requests: self.pair_requests[i],
                            });
                        }
                    }
                }
                pairs
            },
        }
    }

    /// Resets all queueing state and counters. Fault wiring (degradation
    /// windows, permanent failures, recovery routes) survives a reset,
    /// mirroring the channels' behaviour.
    pub fn reset(&mut self) {
        self.hbm.iter_mut().for_each(BandwidthChannel::reset);
        self.port_in.iter_mut().for_each(BandwidthChannel::reset);
        self.port_out.iter_mut().for_each(BandwidthChannel::reset);
        self.pair_links.iter_mut().flatten().for_each(BandwidthChannel::reset);
        self.host.reset();
        self.pair_bytes.iter_mut().for_each(|b| *b = 0);
        self.pair_requests.iter_mut().for_each(|r| *r = 0);
        self.rerouted = 0;
        self.host_staged = 0;
    }
}

/// Outcome of a unified-memory page access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageAccessOutcome {
    /// Time at which the page is resident and the access may proceed.
    pub ready_at: SimTime,
    /// True when the page was already resident (no fault).
    pub hit: bool,
}

/// Unified-virtual-memory hook installed by the `mgg-uvm` crate.
///
/// The simulator calls this for every [`crate::warp::WarpOp::PageAccess`];
/// the handler decides whether the access hits a resident page or triggers a
/// fault plus migration (using the cluster's host channel for the transfer).
pub trait PageHandler {
    /// Resolves an access by `gpu` to `page` at `now`.
    fn access(
        &mut self,
        now: SimTime,
        gpu: usize,
        page: u64,
        ic: &mut Interconnect,
    ) -> PageAccessOutcome;
}

/// Page handler for kernels that must not touch unified memory.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoPaging;

impl PageHandler for NoPaging {
    fn access(&mut self, _: SimTime, _: usize, page: u64, _: &mut Interconnect) -> PageAccessOutcome {
        panic!("kernel issued PageAccess({page}) but no page handler is installed");
    }
}

/// The simulated platform: a spec plus live channel state.
#[derive(Debug)]
pub struct Cluster {
    /// The static platform description the channels were built from.
    pub spec: ClusterSpec,
    /// Live bandwidth/latency channel state (HBM, fabric, host links).
    pub ic: Interconnect,
    /// Installed fault scenario, if any. `None` — the default — keeps every
    /// simulation bit-identical to a build without the fault layer.
    faults: Option<FaultSchedule>,
}

impl Cluster {
    /// Builds a cluster from `spec`.
    pub fn new(spec: ClusterSpec) -> Self {
        let ic = Interconnect::new(&spec);
        Cluster { spec, ic, faults: None }
    }

    /// Number of GPUs.
    pub fn num_gpus(&self) -> usize {
        self.spec.num_gpus
    }

    /// Installs a fault scenario: link windows are wired onto the affected
    /// channels and the schedule is kept for the per-operation queries the
    /// GPU model makes (straggler scaling, transient drops). Replaces any
    /// previously installed scenario.
    pub fn install_faults(&mut self, sched: FaultSchedule) {
        assert_eq!(
            sched.num_gpus(),
            self.num_gpus(),
            "fault schedule GPU count must match the cluster"
        );
        self.ic.clear_faults();
        self.ic.install_faults(&sched);
        self.faults = Some(sched);
    }

    /// Removes any installed fault scenario.
    pub fn clear_faults(&mut self) {
        self.ic.clear_faults();
        self.faults = None;
    }

    /// The installed fault scenario, if any.
    pub fn faults(&self) -> Option<&FaultSchedule> {
        self.faults.as_ref()
    }

    /// Resets channel state between independent measurements.
    pub fn reset(&mut self) {
        self.ic.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

    #[test]
    fn nvswitch_remote_pays_link_latency() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        let done = ic.remote_transfer(0, 1, 0, 4_096);
        // Must pay at least source HBM latency + full link latency.
        assert!(done >= spec.gpu.dram_latency_ns + spec.link.latency_ns);
    }

    #[test]
    fn nvlink_pairs_have_per_pair_channels() {
        let spec = ClusterSpec::dgx1_v100(4);
        let mut ic = Interconnect::new(&spec);
        // Saturate pair (0,1); pair (2,3) must be unaffected.
        for _ in 0..100 {
            let _ = ic.bulk_link_transfer(0, 0, 1, 1 << 20);
        }
        let busy = ic.bulk_link_transfer(0, 0, 1, 1 << 20);
        let idle = ic.bulk_link_transfer(0, 2, 3, 1 << 20);
        assert!(busy > idle);
    }

    #[test]
    fn nvswitch_ports_contend_per_gpu() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        // Two different sources to the same destination contend on the
        // destination ingress port.
        let d1 = ic.bulk_link_transfer(0, 1, 0, 1 << 20);
        let d2 = ic.bulk_link_transfer(0, 2, 0, 1 << 20);
        assert!(d2 > d1);
    }

    #[test]
    fn traffic_snapshot_counts() {
        let spec = ClusterSpec::dgx_a100(2);
        let mut ic = Interconnect::new(&spec);
        let _ = ic.remote_transfer(0, 1, 0, 1_000);
        let t = ic.traffic();
        assert_eq!(t.remote_bytes(), 1_000);
        assert_eq!(t.remote_requests(), 1);
        assert_eq!(t.pairs, vec![PairStats { src: 1, dst: 0, bytes: 1_000, requests: 1 }]);
    }

    #[test]
    fn pair_traffic_is_attributed_to_ordered_endpoints() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        let _ = ic.remote_transfer(0, 1, 0, 1_000);
        let _ = ic.remote_transfer(0, 1, 0, 500);
        let _ = ic.remote_transfer(0, 0, 1, 64);
        let _ = ic.bulk_link_transfer(0, 2, 3, 256);
        let t = ic.traffic();
        assert_eq!(
            t.pairs,
            vec![
                PairStats { src: 0, dst: 1, bytes: 64, requests: 1 },
                PairStats { src: 1, dst: 0, bytes: 1_500, requests: 2 },
                PairStats { src: 2, dst: 3, bytes: 256, requests: 1 },
            ]
        );
        ic.reset();
        assert!(ic.traffic().pairs.is_empty());
    }

    #[test]
    fn dead_link_host_stages_without_a_route() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        ic.install_faults(&FaultSchedule::link_down(4, 0, 1, 1_000));
        // Before the failure instant: normal fabric path.
        let before = ic.remote_transfer(0, 1, 0, 4_096);
        assert_eq!(ic.host_staged_transfers(), 0);
        // After: no route installed -> host staging, clearly slower.
        let after = ic.remote_transfer(2_000, 1, 0, 4_096) - 2_000;
        assert_eq!(ic.host_staged_transfers(), 1);
        assert!(after > before, "host staging ({after}) must cost more than fabric ({before})");
        // Unrelated pairs unaffected.
        let _ = ic.remote_transfer(2_000, 2, 3, 4_096);
        assert_eq!(ic.host_staged_transfers(), 1);
    }

    #[test]
    fn installed_route_relays_around_dead_link() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        ic.install_faults(&FaultSchedule::link_down(4, 0, 2, 0));
        ic.install_route(0, 2, vec![1]);
        let relayed = ic.remote_transfer(0, 0, 2, 4_096);
        assert_eq!(ic.rerouted_transfers(), 1);
        assert_eq!(ic.host_staged_transfers(), 0);
        // The reverse direction uses the same route, reversed.
        let _ = ic.remote_transfer(relayed, 2, 0, 4_096);
        assert_eq!(ic.rerouted_transfers(), 2);
        // Relay costs more than a healthy direct transfer.
        let mut healthy = Interconnect::new(&spec);
        let direct = healthy.remote_transfer(0, 0, 2, 4_096);
        assert!(relayed > direct);
    }

    #[test]
    fn uvm_degraded_forces_host_path() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        ic.set_uvm_degraded(true);
        assert!(ic.uvm_degraded());
        let _ = ic.remote_transfer(0, 0, 1, 1_024);
        let _ = ic.bulk_link_transfer(0, 2, 3, 1_024);
        assert_eq!(ic.host_staged_transfers(), 2);
        let t = ic.traffic();
        assert!(t.host.bytes >= 4 * 1_024, "payload crosses PCIe twice per transfer");
    }

    #[test]
    fn clear_faults_restores_direct_paths() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        ic.install_faults(&FaultSchedule::link_down(4, 0, 1, 0));
        ic.install_route(0, 1, vec![2]);
        ic.set_uvm_degraded(true);
        ic.clear_faults();
        ic.reset();
        assert!(!ic.uvm_degraded());
        let _ = ic.remote_transfer(0, 0, 1, 1_024);
        assert_eq!(ic.rerouted_transfers(), 0);
        assert_eq!(ic.host_staged_transfers(), 0);
    }

    #[test]
    fn gpu_death_downs_incident_links() {
        let spec = ClusterSpec::dgx_a100(4);
        let mut ic = Interconnect::new(&spec);
        ic.install_faults(&FaultSchedule::gpu_failure(4, 3, 500));
        let _ = ic.remote_transfer(1_000, 0, 3, 256);
        assert_eq!(ic.host_staged_transfers(), 1);
        let _ = ic.remote_transfer(1_000, 0, 1, 256);
        assert_eq!(ic.host_staged_transfers(), 1);
    }

    #[test]
    #[should_panic(expected = "no page handler")]
    fn no_paging_panics() {
        let spec = ClusterSpec::dgx_a100(2);
        let mut ic = Interconnect::new(&spec);
        let _ = NoPaging.access(0, 0, 7, &mut ic);
    }
}

#[cfg(test)]
mod cube_mesh_tests {
    use super::*;
    use crate::spec::ClusterSpec;

    #[test]
    fn eight_v100s_use_the_cube_mesh() {
        let spec = ClusterSpec::dgx1_v100(8);
        assert_eq!(spec.topology, Topology::HybridCubeMesh);
        let spec4 = ClusterSpec::dgx1_v100(4);
        assert_eq!(spec4.topology, Topology::NvLinkPairs);
    }

    #[test]
    fn unlinked_pairs_relay_and_cost_more() {
        // (0, 7) has no direct brick; (0, 1) does.
        let spec = ClusterSpec::dgx1_v100(8);
        let mut direct_ic = Interconnect::new(&spec);
        let direct = direct_ic.bulk_link_transfer(0, 0, 1, 1 << 20);
        let mut relay_ic = Interconnect::new(&spec);
        let relayed = relay_ic.bulk_link_transfer(0, 0, 7, 1 << 20);
        assert!(
            relayed > direct + spec.link.latency_ns / 2,
            "2-hop route ({relayed}) must cost clearly more than direct ({direct})"
        );
    }

    #[test]
    fn every_pair_is_reachable() {
        let spec = ClusterSpec::dgx1_v100(8);
        let mut ic = Interconnect::new(&spec);
        for a in 0..8 {
            for b in 0..8 {
                if a != b {
                    let done = ic.bulk_link_transfer(0, a, b, 64);
                    assert!(done > 0, "({a},{b}) unreachable");
                }
            }
        }
    }

    #[test]
    fn relay_choice_is_a_real_common_neighbor() {
        // Exhaustively check the relay picked for every unlinked pair.
        let linked = |x: u16, y: u16| {
            let key = (x.min(y), x.max(y));
            CUBE_MESH_LINKS.contains(&key)
        };
        for a in 0..8u16 {
            for b in 0..8u16 {
                if a != b && !linked(a, b) {
                    let r = cube_mesh_relay(a, b);
                    assert!(linked(a, r) && linked(r, b), "bad relay {r} for ({a},{b})");
                }
            }
        }
    }

    #[test]
    fn relayed_transfer_counts_one_pair_entry() {
        // A 2-hop cube-mesh route is still one logical transfer: the pair
        // table must show (0, 7), not the relay legs.
        let spec = ClusterSpec::dgx1_v100(8);
        let mut ic = Interconnect::new(&spec);
        let _ = ic.bulk_link_transfer(0, 0, 7, 1 << 10);
        let t = ic.traffic();
        assert_eq!(
            t.pairs,
            vec![crate::metrics::PairStats { src: 0, dst: 7, bytes: 1 << 10, requests: 1 }]
        );
    }

    #[test]
    fn mgg_runs_on_the_full_dgx1() {
        // End-to-end smoke: the topology plugs into the whole stack.
        use crate::gpu::GpuSim;
        use crate::kernel::{KernelLaunch, KernelProgram};
        use crate::warp::WarpOp;
        struct K;
        impl KernelProgram for K {
            fn launch(&self, _pe: usize) -> KernelLaunch {
                KernelLaunch { blocks: 4, warps_per_block: 2, smem_per_block: 0 }
            }
            fn warp_ops(&self, pe: usize, _b: u32, _w: u32, out: &mut Vec<WarpOp>) {
                out.extend([
                    WarpOp::RemoteGet { peer: ((pe + 5) % 8) as u16, bytes: 256, nbi: true },
                    WarpOp::compute(500),
                    WarpOp::WaitRemote,
                ]);
            }
        }
        let mut cluster = Cluster::new(ClusterSpec::dgx1_v100(8));
        let stats = GpuSim::run(&mut cluster, &K, &mut NoPaging).unwrap();
        assert!(stats.makespan_ns() > 0);
        assert!(stats.traffic.remote_bytes() > 0);
    }
}
