//! Deterministic churn schedules: seeded graph-delta streams batched at
//! epoch fences, merged with scripted shard-membership events.
//!
//! The same reproducibility contract as `mgg_serve::workload`: every
//! stochastic choice comes from one `StdRng` seeded from
//! [`ChurnSpec::seed`], so a spec fully determines the churn stream. The
//! derived [`ChurnSchedule`] is a `(time, seq)`-ordered event list the
//! serving loop merges with query arrivals and shard timers — replaying
//! it is bit-identical at any host thread count.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::delta::GraphDelta;

/// Each delta kind's share of [`ChurnSpec::deltas_per_sec`], in draw
/// order: edge insert, edge remove, feature update, node insert, node
/// remove.
const KIND_SHARES: [f64; 5] = [0.40, 0.25, 0.25, 0.05, 0.05];

/// How a shard's membership changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The shard stops accepting *new* work but finishes what it holds;
    /// capacity planning treats it as on its way out.
    Drain,
    /// The shard leaves the fleet: remaining queued work migrates to the
    /// surviving shards (cost-charged, loss-free).
    Leave,
    /// The shard (re)joins the fleet and starts a cache warm-up window
    /// before it pulls its full share of load.
    Join,
}

impl MembershipChange {
    /// Lower-case name used by CLI flags and JSON reports.
    pub fn name(&self) -> &'static str {
        match self {
            MembershipChange::Drain => "drain",
            MembershipChange::Leave => "leave",
            MembershipChange::Join => "join",
        }
    }
}

/// One scripted membership event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Affected shard.
    pub shard: u16,
    /// Instant the change takes effect, in simulated nanoseconds.
    pub at_ns: u64,
    /// What happens to the shard.
    pub change: MembershipChange,
}

/// Optional burst window: the delta rate is multiplied by `mult`
/// inside `[start_ns, end_ns)` — the "mutation burst" of the churn
/// drills.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstWindow {
    /// Burst start (inclusive), simulated nanoseconds.
    pub start_ns: u64,
    /// Burst end (exclusive), simulated nanoseconds.
    pub end_ns: u64,
    /// Rate multiplier inside the window (≥ 0).
    pub mult: f64,
}

/// Full description of one churn plane. Two equal specs always derive
/// identical schedules.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSpec {
    /// Seed of every stochastic decision in the delta stream.
    pub seed: u64,
    /// Length of the churn window in simulated nanoseconds.
    pub duration_ns: u64,
    /// Epoch-fence cadence: deltas arriving in `((k-1)·f, k·f]` apply
    /// together at the fence instant `k·f`.
    pub fence_interval_ns: u64,
    /// Mean graph deltas per simulated second, split across the delta
    /// kinds 40% edge-insert / 25% edge-remove / 25% feature-update / 5%
    /// node-insert / 5% node-remove.
    pub deltas_per_sec: f64,
    /// Optional mutation-burst window multiplying the delta rate.
    pub burst: Option<BurstWindow>,
    /// Scripted shard join/drain/leave events.
    pub membership: Vec<MembershipEvent>,
    /// Cache warm-up window a joining shard serves at reduced efficiency.
    pub warmup_ns: u64,
}

impl ChurnSpec {
    /// A schedule with no deltas and no membership events — the identity
    /// churn plane every pre-churn scenario implicitly runs under.
    pub fn quiet(duration_ns: u64) -> Self {
        ChurnSpec {
            seed: 0,
            duration_ns,
            fence_interval_ns: 250_000,
            deltas_per_sec: 0.0,
            burst: None,
            membership: Vec::new(),
            warmup_ns: 200_000,
        }
    }

    /// A mutation stream at `deltas_per_sec` — the base spec the CLI and
    /// bench drills mutate.
    pub fn steady(seed: u64, duration_ns: u64, deltas_per_sec: f64) -> Self {
        ChurnSpec { seed, deltas_per_sec, ..ChurnSpec::quiet(duration_ns) }
    }

    /// True when the spec derives an empty schedule.
    pub fn is_quiet(&self) -> bool {
        self.total_rate() <= 0.0 && self.membership.is_empty()
    }

    /// Mean deltas per simulated second of delta kind `kind`.
    fn kind_rate(&self, kind: usize) -> f64 {
        self.deltas_per_sec * KIND_SHARES[kind]
    }

    fn total_rate(&self) -> f64 {
        (0..KIND_SHARES.len()).fold(0.0, |acc, kind| acc + self.kind_rate(kind))
    }

    fn burst_mult(&self, t_ns: u64) -> f64 {
        match self.burst {
            Some(b) if t_ns >= b.start_ns && t_ns < b.end_ns => b.mult.max(0.0),
            _ => 1.0,
        }
    }
}

/// What happens at one churn instant.
#[derive(Debug, Clone, PartialEq)]
pub enum ChurnEventKind {
    /// A membership change; ordered *before* a fence at the same instant
    /// so capacity changes take effect before the fence's apply stall.
    Membership(MembershipEvent),
    /// An epoch fence carrying every delta that arrived since the
    /// previous fence, in arrival order.
    Fence {
        /// Batched deltas, in generation (timestamp) order.
        deltas: Vec<GraphDelta>,
    },
}

/// One entry of the derived `(time, seq)`-ordered churn event list.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnEvent {
    /// Instant the event fires, simulated nanoseconds.
    pub at_ns: u64,
    /// Total order tiebreaker within the schedule.
    pub seq: u64,
    /// The event payload.
    pub kind: ChurnEventKind,
}

/// A fully derived churn plane: the `(time, seq)`-ordered event list the
/// serving loop replays.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnSchedule {
    spec: ChurnSpec,
    events: Vec<ChurnEvent>,
    num_deltas: u64,
}

impl ChurnSchedule {
    /// Derives the schedule of `spec` over a graph of `num_nodes` nodes.
    ///
    /// Delta timestamps come from a merged Poisson process at the summed
    /// rate (time-rescaled through the burst window, exactly like the
    /// workload generator's non-homogeneous arrivals); each event's kind
    /// is then drawn proportionally to the kind shares and its node
    /// targets uniformly over `0..num_nodes`. Deltas are batched into the
    /// next fence at `⌈t / fence⌉ · fence` (clamped to the duration) and
    /// merged with the scripted membership events into one ordered list.
    pub fn derive(spec: &ChurnSpec, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "churn needs a non-empty graph");
        let fence = spec.fence_interval_ns.max(1);
        let mut rng = StdRng::seed_from_u64(spec.seed);
        let mut stamped: Vec<(u64, GraphDelta)> = Vec::new();
        let total = spec.total_rate();
        if total > 0.0 {
            let base_rate_per_ns = total / 1e9;
            let mut t = 0u64;
            loop {
                let mut mult = spec.burst_mult(t);
                while mult <= 0.0 {
                    // Jump past a zero-rate burst window analytically.
                    t = spec.burst.map(|b| b.end_ns).unwrap_or(t + 1_000).max(t + 1);
                    if t >= spec.duration_ns {
                        break;
                    }
                    mult = spec.burst_mult(t);
                }
                if t >= spec.duration_ns {
                    break;
                }
                let rate = base_rate_per_ns * mult;
                let u: f64 = rng.random::<f64>();
                let gap = (-(1.0 - u).ln() / rate).ceil().max(1.0);
                if gap > spec.duration_ns as f64 {
                    break;
                }
                t = t.saturating_add(gap as u64);
                if t >= spec.duration_ns {
                    break;
                }
                stamped.push((t, draw_delta(spec, &mut rng, num_nodes)));
            }
        }

        // Batch deltas into fences: everything stamped in ((k-1)f, kf]
        // applies at kf (the final fence clamps to the duration so late
        // deltas still land inside the window).
        let mut events: Vec<(u64, u8, usize, ChurnEventKind)> = Vec::new();
        let mut i = 0usize;
        let num_deltas = stamped.len() as u64;
        while i < stamped.len() {
            let fence_at = (stamped[i].0.div_ceil(fence) * fence).min(spec.duration_ns);
            let mut deltas = Vec::new();
            while i < stamped.len()
                && (stamped[i].0.div_ceil(fence) * fence).min(spec.duration_ns) == fence_at
            {
                deltas.push(stamped[i].1.clone());
                i += 1;
            }
            events.push((fence_at, 1, events.len(), ChurnEventKind::Fence { deltas }));
        }
        for (j, m) in spec.membership.iter().enumerate() {
            events.push((m.at_ns, 0, j, ChurnEventKind::Membership(*m)));
        }
        // Total order: time, then membership-before-fence, then original
        // position — a pure function of the spec.
        events.sort_by_key(|a| (a.0, a.1, a.2));
        let events = events
            .into_iter()
            .enumerate()
            .map(|(seq, (at_ns, _, _, kind))| ChurnEvent { at_ns, seq: seq as u64, kind })
            .collect();
        ChurnSchedule { spec: spec.clone(), events, num_deltas }
    }

    /// A schedule with no events.
    pub fn quiet(duration_ns: u64) -> Self {
        ChurnSchedule { spec: ChurnSpec::quiet(duration_ns), events: Vec::new(), num_deltas: 0 }
    }

    /// The spec this schedule was derived from.
    pub fn spec(&self) -> &ChurnSpec {
        &self.spec
    }

    /// The `(time, seq)`-ordered event list.
    pub fn events(&self) -> &[ChurnEvent] {
        &self.events
    }

    /// Total number of graph deltas across all fences.
    pub fn num_deltas(&self) -> u64 {
        self.num_deltas
    }

    /// True when the schedule carries no events.
    pub fn is_quiet(&self) -> bool {
        self.events.is_empty()
    }
}

fn uniform_node(rng: &mut StdRng, num_nodes: usize) -> u32 {
    ((rng.random::<f64>() * num_nodes as f64) as usize).min(num_nodes - 1) as u32
}

fn draw_delta(spec: &ChurnSpec, rng: &mut StdRng, num_nodes: usize) -> GraphDelta {
    // Kind drawn proportionally to the kind shares; node targets drawn
    // afterwards so the RNG consumption order is fixed per kind.
    let pick = rng.random::<f64>() * spec.total_rate();
    let mut acc = 0.0;
    let last = KIND_SHARES.len() - 1;
    let kind = (0..last)
        .find(|&kind| {
            acc += spec.kind_rate(kind);
            pick < acc
        })
        .unwrap_or(last);
    match kind {
        0 => {
            let src = uniform_node(rng, num_nodes);
            let dst = uniform_node(rng, num_nodes);
            GraphDelta::EdgeInsert { src, dst }
        }
        1 => {
            let src = uniform_node(rng, num_nodes);
            let dst = uniform_node(rng, num_nodes);
            GraphDelta::EdgeRemove { src, dst }
        }
        2 => GraphDelta::FeatureUpdate { node: uniform_node(rng, num_nodes) },
        3 => {
            let fanout = 1 + (rng.random::<f64>() * 3.0) as usize;
            let neighbors = (0..fanout).map(|_| uniform_node(rng, num_nodes)).collect();
            GraphDelta::NodeInsert { neighbors }
        }
        _ => GraphDelta::NodeRemove { node: uniform_node(rng, num_nodes) },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(seed: u64) -> ChurnSpec {
        ChurnSpec::steady(seed, 2_000_000, 5_000_000.0) // ~10k deltas over 2 ms
    }

    #[test]
    fn same_spec_same_schedule() {
        let spec = base(11);
        let a = ChurnSchedule::derive(&spec, 1024);
        let b = ChurnSchedule::derive(&spec, 1024);
        assert_eq!(a, b);
        let c = ChurnSchedule::derive(&base(12), 1024);
        assert_ne!(a, c, "different seeds must diverge");
    }

    #[test]
    fn events_are_time_seq_ordered_and_fence_aligned() {
        let mut spec = base(3);
        spec.membership.push(MembershipEvent {
            shard: 1,
            at_ns: 700_000,
            change: MembershipChange::Drain,
        });
        let sched = ChurnSchedule::derive(&spec, 512);
        assert!(!sched.is_quiet());
        for w in sched.events().windows(2) {
            assert!((w[0].at_ns, w[0].seq) < (w[1].at_ns, w[1].seq));
        }
        for ev in sched.events() {
            assert!(ev.at_ns <= spec.duration_ns);
            if let ChurnEventKind::Fence { deltas } = &ev.kind {
                assert!(!deltas.is_empty(), "fences only exist to carry deltas");
                assert!(
                    ev.at_ns % spec.fence_interval_ns == 0 || ev.at_ns == spec.duration_ns,
                    "fence at {} not aligned to {}",
                    ev.at_ns,
                    spec.fence_interval_ns
                );
            }
        }
    }

    #[test]
    fn delta_volume_tracks_the_rate() {
        let mut spec = base(5);
        spec.duration_ns = 10_000_000;
        spec.deltas_per_sec = 2_000_000.0;
        let sched = ChurnSchedule::derive(&spec, 256);
        let expected = 2_000_000.0 * 10_000_000.0 / 1e9; // 20k
        let got = sched.num_deltas() as f64;
        assert!(
            (got - expected).abs() / expected < 0.6,
            "got {got} deltas, expected ~{expected}"
        );
    }

    #[test]
    fn delta_kinds_follow_the_shares() {
        let mut spec = base(13);
        spec.duration_ns = 10_000_000;
        spec.deltas_per_sec = 2_000_000.0; // ~20k deltas
        let sched = ChurnSchedule::derive(&spec, 4096);
        let mut counts = [0u64; 5];
        for ev in sched.events() {
            if let ChurnEventKind::Fence { deltas } = &ev.kind {
                for d in deltas {
                    counts[match d {
                        GraphDelta::EdgeInsert { .. } => 0,
                        GraphDelta::EdgeRemove { .. } => 1,
                        GraphDelta::FeatureUpdate { .. } => 2,
                        GraphDelta::NodeInsert { .. } => 3,
                        GraphDelta::NodeRemove { .. } => 4,
                    }] += 1;
                }
            }
        }
        let total = sched.num_deltas() as f64;
        for (kind, (&n, share)) in counts.iter().zip(KIND_SHARES).enumerate() {
            let frac = n as f64 / total;
            assert!((frac - share).abs() < 0.02, "kind {kind}: {frac:.3} of deltas, share {share}");
        }
    }

    #[test]
    fn burst_concentrates_deltas() {
        let mut spec = base(9);
        spec.duration_ns = 4_000_000;
        spec.burst = Some(BurstWindow { start_ns: 1_000_000, end_ns: 2_000_000, mult: 8.0 });
        let sched = ChurnSchedule::derive(&spec, 512);
        let mut in_burst = 0u64;
        let mut outside = 0u64;
        for ev in sched.events() {
            if let ChurnEventKind::Fence { deltas } = &ev.kind {
                // Fence instants trail their deltas by < one interval.
                if ev.at_ns > 1_000_000 && ev.at_ns <= 2_000_000 + spec.fence_interval_ns {
                    in_burst += deltas.len() as u64;
                } else {
                    outside += deltas.len() as u64;
                }
            }
        }
        assert!(
            in_burst > outside,
            "8x burst must dominate the stream ({in_burst} in vs {outside} out)"
        );
    }

    #[test]
    fn membership_orders_before_a_same_instant_fence() {
        let mut spec = base(7);
        // Force a membership event onto a fence instant.
        spec.membership.push(MembershipEvent {
            shard: 0,
            at_ns: spec.fence_interval_ns,
            change: MembershipChange::Join,
        });
        let sched = ChurnSchedule::derive(&spec, 512);
        let at = spec.fence_interval_ns;
        let same: Vec<_> = sched.events().iter().filter(|e| e.at_ns == at).collect();
        if same.len() == 2 {
            assert!(matches!(same[0].kind, ChurnEventKind::Membership(_)));
            assert!(matches!(same[1].kind, ChurnEventKind::Fence { .. }));
        }
    }

    #[test]
    fn quiet_spec_quiet_schedule() {
        let spec = ChurnSpec::quiet(1_000_000);
        assert!(spec.is_quiet());
        let sched = ChurnSchedule::derive(&spec, 64);
        assert!(sched.is_quiet());
        assert_eq!(sched.events().len(), 0);
        assert_eq!(ChurnSchedule::quiet(1_000_000).events().len(), 0);
    }
}
