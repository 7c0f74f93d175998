//! Elastic failover for the MGG engine.
//!
//! Permanent GPU and link failures (modeled by [`mgg_fault::PermanentFault`])
//! must never take the whole job down. This crate supplies the control-plane
//! half of recovery:
//!
//! 1. **Detection** — a [`HealthMonitor`] replays the deterministic heartbeat
//!    history implied by a fault schedule and scores each GPU with a
//!    phi-accrual-style suspicion value against fixed suspect and dead
//!    thresholds. [`HealthMonitor::status`] classifies one GPU;
//!    [`HealthMonitor::observe`] yields a [`ClusterView`] of alive,
//!    suspected, and dead GPUs plus the set of still-usable links.
//! 2. **Routing** — [`plan_route`] finds a surviving path around a dead
//!    NVLink (shortest hop-count over `usable_links`), falling back to
//!    host/PCIe staging when the fabric is partitioned.
//! 3. **Checkpointing** — the [`checkpoint`] module captures epoch-boundary
//!    partition state + aggregated features in a checksummed snapshot so a
//!    run interrupted mid-epoch resumes from the last epoch boundary
//!    instead of restarting.
//!
//! Everything here is deterministic: given the same fault schedule and
//! horizon, the monitor produces bit-identical cluster views, so recovery
//! decisions replay exactly.
//!
//! The execution half — halting dead warps, charging timeout latencies,
//! re-splitting the graph over survivors — lives in `mgg-sim` and
//! `mgg-core`; this crate is dependency-light (`mgg-fault` + serde) so both
//! can use it without cycles.

#![deny(missing_docs)]

pub mod checkpoint;

use mgg_fault::{FaultSchedule, HEARTBEAT_PERIOD_NS};

// Thresholds of the phi-accrual-style failure detector. Classic
// phi-accrual estimates `phi = -log10 P(heartbeat still pending)` from an
// inter-arrival distribution. The simulator's heartbeats are perfectly
// periodic (one every `HEARTBEAT_PERIOD_NS`), so the distribution
// degenerates and phi reduces to a linear ramp: each missed period adds
// `PHI_PER_MISS`. The suspect/dead thresholds keep the classic two-stage
// shape (suspicion before declaration) with deterministic crossing times.

/// Suspicion added per fully missed heartbeat period.
const PHI_PER_MISS: f64 = 0.8;
/// Phi at which a GPU becomes suspected (excluded from new work, still
/// counted as reachable).
const SUSPECT_PHI: f64 = 1.0;
/// Phi at which a GPU is declared dead (triggers evacuation).
const DEAD_PHI: f64 = 3.0;

/// Liveness class of one GPU at a horizon: where its phi sits against the
/// suspect and dead thresholds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GpuStatus {
    /// Below the suspect threshold: heartbeats current.
    Alive,
    /// Between the suspect and dead thresholds: excluded from new work,
    /// still counted as reachable.
    Suspected,
    /// Past the dead threshold: the shard must be evacuated.
    Dead,
}

/// Deterministic snapshot of cluster health at a given horizon.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterView {
    /// GPUs with current heartbeats, ascending.
    pub alive: Vec<usize>,
    /// GPUs between the suspect and dead thresholds, ascending.
    pub suspected: Vec<usize>,
    /// GPUs past the dead threshold, ascending.
    pub dead: Vec<usize>,
    /// Unordered pairs `(a, b)`, `a < b`, whose direct link is still up and
    /// whose endpoints are both undead.
    pub usable_links: Vec<(usize, usize)>,
}

impl ClusterView {
    /// Total GPUs covered by this view.
    pub fn num_gpus(&self) -> usize {
        self.alive.len() + self.suspected.len() + self.dead.len()
    }

    /// Whether `gpu` is declared dead.
    pub fn is_dead(&self, gpu: usize) -> bool {
        self.dead.binary_search(&gpu).is_ok()
    }

    /// Whether the direct `(a, b)` link is usable.
    pub fn link_usable(&self, a: usize, b: usize) -> bool {
        let key = (a.min(b), a.max(b));
        self.usable_links.binary_search(&key).is_ok()
    }

    /// Survivor GPUs (alive + suspected), ascending: the set a recovery
    /// re-split distributes shards over.
    pub fn survivors(&self) -> Vec<usize> {
        let mut s: Vec<usize> =
            self.alive.iter().chain(self.suspected.iter()).copied().collect();
        s.sort_unstable();
        s
    }
}

/// Heartbeat-driven failure detector.
///
/// The monitor does not run inside the discrete-event simulation; it replays
/// the heartbeat outcomes the schedule *implies* (a probe of GPU `g` at time
/// `t` succeeds iff `g` has not died by `t`), which is equivalent to probing
/// over the fabric in the simulator but keeps detection free of event
/// interleaving — the view is a pure function of `(schedule, horizon)`.
#[derive(Debug, Clone)]
pub struct HealthMonitor {
    num_gpus: usize,
}

impl HealthMonitor {
    /// A monitor for `num_gpus` peers (panics on zero).
    pub fn new(num_gpus: usize) -> Self {
        assert!(num_gpus >= 1, "need at least one GPU");
        HealthMonitor { num_gpus }
    }

    /// Time from a GPU's death to its phi crossing the dead threshold:
    /// the detection latency charged by the failover path.
    pub fn detection_delay_ns(&self) -> u64 {
        let misses = (DEAD_PHI / PHI_PER_MISS).ceil().max(1.0) as u64;
        misses * HEARTBEAT_PERIOD_NS
    }

    /// Suspicion score of `gpu` at `horizon_ns` under `sched`.
    ///
    /// The last heartbeat received from a GPU that dies at `d` is the last
    /// probe at or before `d`; phi then ramps by `PHI_PER_MISS` per elapsed
    /// period. A live GPU's last heartbeat is the most recent probe, so its
    /// phi never reaches one full miss.
    pub fn phi(&self, sched: &FaultSchedule, gpu: usize, horizon_ns: u64) -> f64 {
        let hb = HEARTBEAT_PERIOD_NS;
        let last_beat = match sched.gpu_dead_at(gpu) {
            Some(d) if d <= horizon_ns => (d / hb) * hb,
            _ => (horizon_ns / hb) * hb,
        };
        let missed = (horizon_ns - last_beat) / hb;
        missed as f64 * PHI_PER_MISS
    }

    /// Classifies one GPU at `horizon_ns`: the only place its phi is
    /// compared with the suspect and dead thresholds. Costs one phi, so a
    /// caller that needs one GPU's class need not [`observe`](Self::observe)
    /// the whole cluster.
    pub fn status(&self, sched: &FaultSchedule, gpu: usize, horizon_ns: u64) -> GpuStatus {
        let phi = self.phi(sched, gpu, horizon_ns);
        if phi >= DEAD_PHI {
            GpuStatus::Dead
        } else if phi >= SUSPECT_PHI {
            GpuStatus::Suspected
        } else {
            GpuStatus::Alive
        }
    }

    /// Classifies every GPU and link at `horizon_ns`.
    pub fn observe(&self, sched: &FaultSchedule, horizon_ns: u64) -> ClusterView {
        let (mut alive, mut suspected, mut dead) = (Vec::new(), Vec::new(), Vec::new());
        for g in 0..self.num_gpus {
            match self.status(sched, g, horizon_ns) {
                GpuStatus::Alive => alive.push(g),
                GpuStatus::Suspected => suspected.push(g),
                GpuStatus::Dead => dead.push(g),
            }
        }
        let mut usable_links = Vec::new();
        for a in 0..self.num_gpus {
            for b in a + 1..self.num_gpus {
                let endpoint_dead =
                    dead.binary_search(&a).is_ok() || dead.binary_search(&b).is_ok();
                let link_down = matches!(
                    sched.link_dead_at(a, b),
                    Some(at) if at <= horizon_ns
                );
                if !endpoint_dead && !link_down {
                    usable_links.push((a, b));
                }
            }
        }
        ClusterView { alive, suspected, dead, usable_links }
    }

    /// Whether `gpu` passes the health gate for (re-)joining the serving
    /// rotation at `horizon_ns`: its suspicion score must sit strictly
    /// below the suspect threshold. A suspected shard may still be alive,
    /// but admitting it would route traffic onto a member the monitor is
    /// about to evict — joins are the one transition that can afford to
    /// wait for a clean bill of health.
    pub fn join_admissible(&self, sched: &FaultSchedule, gpu: usize, horizon_ns: u64) -> bool {
        self.status(sched, gpu, horizon_ns) == GpuStatus::Alive
    }

    /// The earliest horizon at which every permanent fault in `sched` has
    /// been *detected* (each dead GPU's phi has crossed `DEAD_PHI`). Link
    /// failures are observed immediately by the endpoint's transfer error,
    /// so only GPU deaths contribute detection delay.
    pub fn detection_horizon_ns(&self, sched: &FaultSchedule) -> Option<u64> {
        let last_fault = sched.permanent().iter().map(|f| f.at_ns()).max()?;
        let gpu_delay = if sched.dead_gpus().is_empty() { 0 } else { self.detection_delay_ns() };
        Some(last_fault + gpu_delay)
    }
}

/// A communication path between two undead GPUs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Route {
    /// The direct link is up.
    Direct,
    /// Relay through the listed intermediate GPUs (in order, excluding
    /// the endpoints), all hops over usable links.
    Relay(Vec<usize>),
    /// No fabric path survives; stage through host memory over PCIe.
    HostStaged,
}

/// Plans a path from `src` to `dst` over the view's usable links:
/// direct if up, otherwise the shortest relay (BFS, deterministic
/// lowest-id tie-break), otherwise host staging. Returns `None` when either
/// endpoint is dead (no route can help; the shard must be evacuated).
pub fn plan_route(view: &ClusterView, src: usize, dst: usize) -> Option<Route> {
    if view.is_dead(src) || view.is_dead(dst) {
        return None;
    }
    if src == dst {
        return Some(Route::Direct);
    }
    if view.link_usable(src, dst) {
        return Some(Route::Direct);
    }
    // BFS over usable links; neighbors visited in ascending id order, so
    // the first path found is the deterministic shortest route.
    let n = view.num_gpus();
    let mut prev: Vec<Option<usize>> = vec![None; n];
    let mut visited = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    visited[src] = true;
    queue.push_back(src);
    'bfs: while let Some(u) = queue.pop_front() {
        for v in 0..n {
            if u != v && !visited[v] && view.link_usable(u, v) {
                visited[v] = true;
                prev[v] = Some(u);
                if v == dst {
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
    }
    if visited[dst] {
        let mut hops = Vec::new();
        let mut cur = dst;
        while let Some(p) = prev[cur] {
            if p != src {
                hops.push(p);
            }
            cur = p;
        }
        hops.reverse();
        return Some(Route::Relay(hops));
    }
    Some(Route::HostStaged)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_fault::FaultSpec;

    #[test]
    fn healthy_cluster_is_all_alive() {
        let m = HealthMonitor::new(4);
        let sched = FaultSchedule::quiet(4);
        let view = m.observe(&sched, 100_000);
        assert_eq!(view.alive, vec![0, 1, 2, 3]);
        assert!(view.dead.is_empty() && view.suspected.is_empty());
        assert_eq!(view.usable_links.len(), 6);
        assert_eq!(m.detection_horizon_ns(&sched), None);
    }

    #[test]
    fn dead_gpu_crosses_thresholds_in_order() {
        let m = HealthMonitor::new(4);
        let sched = FaultSchedule::gpu_failure(4, 2, 2_000);
        // Right at death: still alive (no misses yet).
        let v = m.observe(&sched, 2_000);
        assert!(!v.is_dead(2));
        // After two missed periods: phi = 1.6 -> suspected.
        let v = m.observe(&sched, 4_000);
        assert_eq!(v.suspected, vec![2]);
        // After the detection delay: dead.
        let at = 2_000 + m.detection_delay_ns();
        let v = m.observe(&sched, at);
        assert_eq!(v.dead, vec![2]);
        assert_eq!(v.survivors(), vec![0, 1, 3]);
        // All links touching 2 are unusable.
        for other in [0usize, 1, 3] {
            assert!(!v.link_usable(2, other));
        }
        assert_eq!(v.usable_links.len(), 3);
        assert_eq!(m.detection_horizon_ns(&sched), Some(at));
    }

    #[test]
    fn phi_is_deterministic_and_monotone() {
        let m = HealthMonitor::new(2);
        let sched = FaultSchedule::gpu_failure(2, 1, 1_500);
        let mut last = 0.0;
        for t in (2_000..10_000).step_by(500) {
            let phi = m.phi(&sched, 1, t);
            assert_eq!(phi, m.phi(&sched, 1, t), "phi must be deterministic");
            assert!(phi >= last, "phi must not decrease");
            last = phi;
        }
        assert_eq!(m.phi(&sched, 0, 10_000), 0.0, "live GPU stays at zero");
    }

    #[test]
    fn link_down_excluded_but_endpoints_alive() {
        let m = HealthMonitor::new(4);
        let sched = FaultSchedule::link_down(4, 0, 2, 1_000);
        let v = m.observe(&sched, 5_000);
        assert_eq!(v.alive, vec![0, 1, 2, 3]);
        assert!(!v.link_usable(0, 2));
        assert!(v.link_usable(0, 1) && v.link_usable(2, 3));
        assert_eq!(v.usable_links.len(), 5);
        // Before the failure instant the link is still usable.
        assert!(m.observe(&sched, 500).link_usable(0, 2));
    }

    #[test]
    fn routes_direct_relay_and_host_staged() {
        let m = HealthMonitor::new(4);
        // One link down: relay around it.
        let sched = FaultSchedule::link_down(4, 0, 2, 0);
        let v = m.observe(&sched, 1_000);
        assert_eq!(plan_route(&v, 0, 1), Some(Route::Direct));
        assert_eq!(plan_route(&v, 0, 2), Some(Route::Relay(vec![1])));
        assert_eq!(plan_route(&v, 2, 0), Some(Route::Relay(vec![1])));
        // GPU 3 fully cut off from 0: all its links down -> host staging.
        let sched = FaultSchedule::link_down(4, 0, 3, 0)
            .with_permanent(mgg_fault::PermanentFault::LinkDown { src: 1, dst: 3, at_ns: 0 })
            .with_permanent(mgg_fault::PermanentFault::LinkDown { src: 2, dst: 3, at_ns: 0 });
        let v = m.observe(&sched, 1_000);
        assert_eq!(plan_route(&v, 0, 3), Some(Route::HostStaged));
        // Dead endpoint: no route.
        let sched = FaultSchedule::gpu_failure(4, 3, 0);
        let v = m.observe(&sched, 100_000);
        assert_eq!(plan_route(&v, 0, 3), None);
        assert_eq!(plan_route(&v, 0, 1), Some(Route::Direct));
    }

    #[test]
    fn observe_is_pure() {
        let m = HealthMonitor::new(8);
        let spec = FaultSpec { seed: 77, gpu_failures: 2, link_failures: 3, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 8);
        let a = m.observe(&sched, 50_000);
        let b = m.observe(&sched, 50_000);
        assert_eq!(a, b);
    }

    /// `status` and `observe` classify every GPU alike, and a dying GPU's
    /// class changes exactly at the policy's crossing instants. Schedules
    /// with GPU deaths, link failures and stragglers are sampled on a
    /// half-heartbeat grid that covers each suspect and dead crossing.
    #[test]
    fn status_agrees_with_observe_and_crosses_on_time() {
        let hb = HEARTBEAT_PERIOD_NS;
        let m = HealthMonitor::new(8);
        let suspect_misses = (SUSPECT_PHI / PHI_PER_MISS).ceil() as u64;
        for seed in [3u64, 77, 1009, 31415] {
            let spec = FaultSpec {
                seed,
                gpu_failures: 2,
                link_failures: 3,
                straggler: 3.0,
                ..FaultSpec::quiet()
            };
            let sched = FaultSchedule::derive(&spec, 8);
            let dying = sched.dead_gpus();
            assert_eq!(dying.len(), 2, "seed {seed}");
            assert!(!sched.impaired_gpus().is_empty(), "seed {seed}: no straggler");
            let end = m.detection_horizon_ns(&sched).expect("permanent faults") + 2 * hb;
            let mut suspected_samples = 0;
            for h in (0..=end).step_by((hb / 2) as usize) {
                let view = m.observe(&sched, h);
                for g in 0..8 {
                    let got = m.status(&sched, g, h);
                    let in_view = if view.dead.contains(&g) {
                        GpuStatus::Dead
                    } else if view.suspected.contains(&g) {
                        GpuStatus::Suspected
                    } else {
                        assert!(view.alive.contains(&g), "seed {seed}: gpu {g} unclassified");
                        GpuStatus::Alive
                    };
                    assert_eq!(got, in_view, "seed {seed}: gpu {g} at {h} ns");
                    let want = match sched.gpu_dead_at(g) {
                        Some(d) => {
                            let last_beat = d / hb * hb;
                            if h >= last_beat + m.detection_delay_ns() {
                                GpuStatus::Dead
                            } else if h >= last_beat + suspect_misses * hb {
                                GpuStatus::Suspected
                            } else {
                                GpuStatus::Alive
                            }
                        }
                        None => GpuStatus::Alive,
                    };
                    assert_eq!(got, want, "seed {seed}: gpu {g} at {h} ns");
                    assert_eq!(m.join_admissible(&sched, g, h), got == GpuStatus::Alive);
                    suspected_samples += usize::from(want == GpuStatus::Suspected);
                }
            }
            // Two dying GPUs, each suspected for two heartbeat periods.
            assert!(suspected_samples >= 8, "seed {seed}: grid missed a crossing");
        }
    }

    #[test]
    fn detection_delay_matches_policy_math() {
        // ceil(3.0 / 0.8) = 4 missed periods.
        assert_eq!(HealthMonitor::new(1).detection_delay_ns(), 4 * HEARTBEAT_PERIOD_NS);
    }

    #[test]
    fn join_gate_tracks_the_suspect_threshold() {
        let m = HealthMonitor::new(4);
        let quiet = FaultSchedule::quiet(4);
        for g in 0..4 {
            assert!(m.join_admissible(&quiet, g, 1_000_000));
        }
        let sched = FaultSchedule::gpu_failure(4, 2, 2_000);
        // At the death instant no heartbeat has been missed yet.
        assert!(m.join_admissible(&sched, 2, 2_000));
        // Once observe() would classify it suspected, the join gate closes
        // at exactly the same horizon.
        let suspect_at = 4_000;
        assert_eq!(m.observe(&sched, suspect_at).suspected, vec![2]);
        assert!(!m.join_admissible(&sched, 2, suspect_at));
        // Healthy peers remain admissible throughout.
        assert!(m.join_admissible(&sched, 0, suspect_at));
    }
}
