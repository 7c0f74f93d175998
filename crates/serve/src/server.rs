//! The deterministic serving loop: admission control, deadline-aware
//! batching, breaker-guarded routing, and hedged re-dispatch.
//!
//! The server runs in *simulated* time, like everything else in this
//! workspace: query arrivals come from a seeded [`crate::workload`]
//! stream, launch costs come from a calibration pass over the real
//! [`MggEngine`] timing plane, and fault effects come from the installed
//! [`FaultSchedule`]. Decisions are made by a single-threaded event loop
//! in (time, sequence) order, so the full decision trace — admissions,
//! sheds, batch compositions, breaker transitions, completions — is a
//! pure function of `(engine topology, calibration, workload spec, fault
//! schedule)` and replays bit-identically at any host thread count.
//! Host-side parallelism is applied only *across* independent runs
//! ([`Server::run_sweep`] via `mgg_runtime::par_map`), never inside the
//! decision loop.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mgg_churn::{ChurnEventKind, ChurnSchedule, MembershipChange, MembershipEvent};
use mgg_core::{MggEngine, MggError};
use mgg_failover::HealthMonitor;
use mgg_fault::FaultSchedule;
use mgg_telemetry::{MetricsSnapshot, Telemetry};
use serde::Serialize;

use crate::breaker::{Breaker, BreakerTransition};
use crate::workload::{generate, Priority, Query, WorkloadSpec};

/// Why a query was refused at admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue is full: the newest query is rejected
    /// (deterministic reject-newest shed policy).
    Overloaded {
        /// Queries in the system when the rejection happened.
        queued: usize,
        /// The configured bound.
        cap: usize,
    },
    /// The token-bucket rate limiter is empty: offered load exceeds the
    /// calibrated sustainable rate.
    RateLimited,
    /// No dispatchable shard could complete the query inside its deadline
    /// budget (admitting it would only manufacture a violation).
    DeadlineInfeasible,
    /// Every candidate shard's circuit breaker is open.
    Unavailable,
}

impl ServeError {
    /// Stable small code used in the decision digest and JSON.
    fn code(&self) -> u8 {
        match self {
            ServeError::Overloaded { .. } => 1,
            ServeError::RateLimited => 2,
            ServeError::DeadlineInfeasible => 3,
            ServeError::Unavailable => 4,
        }
    }

    /// Counter-name suffix for telemetry.
    fn name(&self) -> &'static str {
        match self {
            ServeError::Overloaded { .. } => "queue",
            ServeError::RateLimited => "rate",
            ServeError::DeadlineInfeasible => "infeasible",
            ServeError::Unavailable => "unavailable",
        }
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, cap } => {
                write!(f, "admission queue full ({queued}/{cap}): query shed")
            }
            ServeError::RateLimited => write!(f, "token bucket empty: query shed"),
            ServeError::DeadlineInfeasible => {
                write!(f, "no shard can meet the deadline: query shed")
            }
            ServeError::Unavailable => write!(f, "all shard breakers open: query shed"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Tunables of the serving loop. The defaults are sized for the DGX-class
/// simulated clusters the bench suite uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct ServeConfig {
    /// Maximum queries grouped into one aggregation launch.
    pub batch_cap: usize,
    /// Bound on queries in the system (admitted, not yet completed);
    /// arrivals beyond it are shed newest-first. Sized well above
    /// `shards x batch_cap` so it binds on queueing backlog, not on
    /// healthy in-flight work.
    pub queue_cap: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig { batch_cap: 32, queue_cap: 2_048 }
    }
}

/// Launch-cost model measured from the engine's timing plane.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Calibration {
    /// Host launch overhead per batch (from the cluster spec).
    pub launch_ns: u64,
    /// Amortised per-query aggregation cost on one shard, in ns (the
    /// cluster-wide per-node cost scaled by the shard count, since one
    /// shard owns `1/num_shards` of the cluster's throughput).
    pub per_query_ns: f64,
    /// Shards (= GPUs) serving queries.
    pub num_shards: usize,
    /// Sustainable cluster throughput at full healthy batches, in
    /// queries per second.
    pub saturation_qps: f64,
}

impl Calibration {
    /// Service time of a batch of `units` query-units on a shard slowed
    /// by `scale` (1.0 = healthy).
    fn service_ns(&self, units: f64, scale: f64) -> u64 {
        self.launch_ns + (units * self.per_query_ns * scale).ceil() as u64
    }
}

/// Relay surcharge of a rerouted (or hedged) query, in query-units: the
/// fallback shard must pull the home shard's rows over the fabric, which
/// the calibration prices at about one extra query of work.
const REROUTE_UNITS: f64 = 0.5;

/// Cost of one pending query in query-units: 1.0 on its home shard, plus
/// the relay surcharge once when it runs elsewhere.
fn query_units(rerouted: bool) -> f64 {
    if rerouted {
        1.0 + REROUTE_UNITS
    } else {
        1.0
    }
}

/// Token-bucket reserve per priority class, indexed by [`Priority::code`].
/// A class admits only while at least this many tokens remain, so as the
/// bucket drains under a capacity dip bronze stops admitting first, then
/// silver, and gold keeps the last token. Gold's floor of 1.0 is exactly
/// the legacy single-class gate.
const TOKEN_FLOOR: [f64; 3] = [1.0, 2.0, 4.0];

/// Fraction of the admission-queue bound each class may fill, indexed by
/// [`Priority::code`]. Backlog sheds bronze at half the bound while gold
/// still has the full queue. Gold's 1.0 is the legacy gate.
const QUEUE_FRAC: [f64; 3] = [1.0, 0.75, 0.5];

/// Cold-cache service penalty of a freshly joined shard: service starts
/// `1 + WARMUP_PENALTY` times slower and decays linearly to healthy over
/// the churn spec's warm-up window (cache warm-up accounting).
const WARMUP_PENALTY: f64 = 0.5;

/// Per-delta epoch-fence apply cost, in query-units per in-rotation
/// shard: the transactional cache invalidation and split re-extension
/// stall every member briefly, priced well below a full query.
const FENCE_STALL_UNITS: f64 = 0.25;

/// Slack margin subtracted when computing a batch's latest-safe-close
/// instant, and required between a query's estimated completion and its
/// deadline at admission.
const SAFETY_NS: u64 = 2_000;

/// Longest a batch may stay open past its first member's arrival.
/// Deadline slack alone would hold sub-saturation batches until just
/// before their deadline to fill them; the linger cap bounds that
/// low-load latency tax.
const LINGER_NS: u64 = 50_000;

/// Open-state dwell time of the per-shard circuit breakers.
const BREAKER_COOLDOWN_NS: u64 = 200_000;

/// Straggler compute scale at which a shard's breaker trips.
const BREAKER_TRIP_SCALE: f64 = 1.5;

/// Service scale (straggler compute scale times warm-up penalty) at which
/// a dispatched batch is hedged on a healthy peer. It equals
/// `BREAKER_TRIP_SCALE`, so a straggler at or above it never has a batch
/// to dispatch (its breaker opens at the first poll): only a join's
/// warm-up penalty can lift a smaller straggle to it.
const HEDGE_SCALE: f64 = 1.5;

/// Token-bucket burst, in queries.
const TOKEN_BURST: f64 = 64.0;

/// Elastic-membership phase of one shard.
#[derive(Debug, Clone, Copy, PartialEq)]
enum MemberPhase {
    /// In rotation, serving at full weight.
    Active,
    /// Administratively draining: finishes in-flight work, admits nothing
    /// new. The planned half of the evacuation ladder — loss-free.
    Draining,
    /// Departed: holds no rows, takes no traffic.
    Left,
    /// Re-joined and warming its caches until the given instant; takes
    /// traffic at a decaying service penalty.
    Warming {
        /// Instant the shard reaches healthy service time.
        until: u64,
    },
}

/// Whether a shard in `phase` takes new admissions.
fn in_rotation(phase: MemberPhase) -> bool {
    matches!(phase, MemberPhase::Active | MemberPhase::Warming { .. })
}

/// Warm-up service-time multiplier of a shard in `phase` at `now`.
fn warm_mult(phase: MemberPhase, warmup_ns: u64, now: u64) -> f64 {
    match phase {
        MemberPhase::Warming { until } if now < until && warmup_ns > 0 => {
            1.0 + WARMUP_PENALTY * (until - now).min(warmup_ns) as f64 / warmup_ns as f64
        }
        _ => 1.0,
    }
}

/// How a query left the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Admitted and dispatched.
    Admitted,
    /// Shed at admission.
    Shed(ServeError),
}

/// Full per-query outcome (the decision trace the digest pins).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    /// Workload query id.
    pub id: u64,
    /// Arrival instant (from the workload stream).
    pub arrival_ns: u64,
    /// Admission outcome.
    pub decision: Decision,
    /// Shard the query executed on (post-routing), if admitted.
    pub shard: Option<u16>,
    /// Completion instant, if admitted.
    pub completion_ns: Option<u64>,
    /// Whether completion beat the absolute deadline.
    pub deadline_met: bool,
    /// True when the query ran on a shard other than its home shard.
    pub rerouted: bool,
    /// True when the dispatch was hedged on a second shard.
    pub hedged: bool,
    /// Service class of the query.
    pub class: Priority,
}

/// Per-priority-class slice of one run's outcome.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ClassStats {
    /// Class name (`gold` / `silver` / `bronze`).
    pub class: String,
    /// Queries of this class offered by the workload.
    pub offered: u64,
    /// Admitted and executed.
    pub admitted: u64,
    /// Shed at admission (any cause).
    pub shed: u64,
    /// Admitted queries that completed inside their deadline.
    pub completed_in_deadline: u64,
    /// Admitted queries that missed their deadline.
    pub deadline_violations: u64,
    /// 99th percentile latency of admitted queries of this class, ns.
    pub p99_ns: u64,
}

/// Churn-plane activity the serving loop replayed during one run. All
/// zeros for a quiet schedule (the legacy static-graph path).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct ChurnStats {
    /// Epoch fences applied.
    pub fences: u64,
    /// Graph deltas carried by those fences.
    pub deltas_applied: u64,
    /// Membership events processed (accepted or rejected).
    pub membership_events: u64,
    /// Shards that entered the draining phase.
    pub drains: u64,
    /// Shards that left the rotation.
    pub leaves: u64,
    /// Join events admitted through the health gate.
    pub joins: u64,
    /// Join events refused (unhealthy shard, or not absent).
    pub join_rejections: u64,
    /// Pending queries migrated off a leaving shard (loss-free, with the
    /// relay surcharge charged).
    pub migrated_queries: u64,
    /// Total fence apply-stall charged across shards, ns.
    pub fence_stall_ns: u64,
}

/// Aggregate figures of one serving run (the JSON-facing summary).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ServeSummary {
    /// Queries offered by the workload.
    pub offered: u64,
    /// Queries admitted and executed.
    pub admitted: u64,
    /// Sheds by cause.
    pub shed_queue: u64,
    /// Token-bucket sheds.
    pub shed_rate: u64,
    /// Deadline-infeasible sheds.
    pub shed_infeasible: u64,
    /// All-breakers-open sheds.
    pub shed_unavailable: u64,
    /// Admitted queries that completed inside their deadline.
    pub completed_in_deadline: u64,
    /// Admitted queries that missed their deadline.
    pub deadline_violations: u64,
    /// Deadline misses among *rerouted* queries — violations attributable
    /// to routing around an unhealthy shard. Must stay zero: the
    /// feasibility check refuses reroutes that cannot make the budget.
    pub routing_violations: u64,
    /// Queries executed away from their home shard.
    pub rerouted: u64,
    /// Batches dispatched twice for straggler hedging.
    pub hedges: u64,
    /// Aggregation launches issued.
    pub batches: u64,
    /// Mean queries per launch.
    pub mean_batch: f64,
    /// Latency percentiles of admitted queries, ns.
    pub p50_ns: u64,
    /// 95th percentile latency, ns.
    pub p95_ns: u64,
    /// 99th percentile latency, ns.
    pub p99_ns: u64,
    /// In-deadline completions per second of workload window.
    pub goodput_qps: f64,
    /// Offered arrival rate over the window.
    pub offered_qps: f64,
    /// Calibrated sustainable throughput.
    pub saturation_qps: f64,
    /// Shed fraction of offered load.
    pub shed_fraction: f64,
    /// Per-class breakdown, gold first. The gold row of a gold-only run
    /// equals the overall figures.
    pub per_class: Vec<ClassStats>,
    /// Churn-plane activity (all zeros for a quiet schedule).
    pub churn: ChurnStats,
    /// FNV-1a digest of the whole decision trace (queries, breaker
    /// transitions, churn activity) — the replay-identity fingerprint.
    pub digest: String,
}

/// Everything one serving run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    /// Per-query decision trace, in query-id order.
    pub records: Vec<QueryRecord>,
    /// Breaker transitions, in event order.
    pub transitions: Vec<BreakerTransition>,
    /// Aggregate summary.
    pub summary: ServeSummary,
}

/// The serving front-end: calibrated against one engine, then able to
/// replay any number of workload/fault scenarios deterministically.
#[derive(Debug, Clone)]
pub struct Server {
    cal: Calibration,
    cfg: ServeConfig,
    /// Node-split boundaries: shard of node `v` is the partition whose
    /// `[bounds[s], bounds[s+1])` range contains `v`.
    bounds: Vec<u32>,
    monitor: HealthMonitor,
}

/// Per-shard mutable serving state.
struct ShardState {
    /// Open batch, in admission order.
    pending: Vec<(Query, bool)>, // (query, rerouted)
    /// Arrival instant of the open batch's first member (linger anchor).
    open_at: u64,
    /// Scheduled close instant of the open batch (`u64::MAX` when empty).
    close_at: u64,
    /// Timer-event sequence the scheduled close belongs to (stale-timer
    /// invalidation).
    close_seq: u64,
    /// Executor serialization: next batch starts no earlier than this.
    busy_until: u64,
    breaker: Breaker,
    /// Elastic-membership phase.
    phase: MemberPhase,
}

impl Server {
    /// Calibrates a server against `engine`'s timing plane at embedding
    /// dimension `dim`. Run this on the healthy engine: capacity is what
    /// the *unfaulted* cluster sustains; scenarios then degrade from it.
    pub fn new(engine: &mut MggEngine, dim: usize, cfg: ServeConfig) -> Result<Self, MggError> {
        assert!(cfg.batch_cap > 0, "batch_cap must be positive");
        assert!(cfg.queue_cap > 0, "queue_cap must be positive");
        let launch_ns = engine.cluster.spec.kernel_launch_ns;
        let full_ns = engine.simulate_aggregation_ns(dim)?;
        let bounds: Vec<u32> = engine.placement.split.bounds().to_vec();
        let num_shards = engine.placement.split.num_parts();
        let num_nodes = *bounds.last().expect("non-empty split") as usize;
        let per_node_cluster = (full_ns.saturating_sub(launch_ns)) as f64 / num_nodes.max(1) as f64;
        let per_query_ns = (per_node_cluster * num_shards as f64).max(1.0);
        let batch_units = cfg.batch_cap as f64;
        let batch_ns = launch_ns as f64 + batch_units * per_query_ns;
        let saturation_qps = num_shards as f64 * batch_units / batch_ns * 1e9;
        Ok(Server {
            cal: Calibration { launch_ns, per_query_ns, num_shards, saturation_qps },
            cfg,
            bounds,
            monitor: HealthMonitor::new(num_shards),
        })
    }

    /// The measured launch-cost model.
    pub fn calibration(&self) -> Calibration {
        self.cal
    }

    /// Home shard of `node`.
    pub fn shard_of(&self, node: u32) -> usize {
        debug_assert!(node < *self.bounds.last().unwrap());
        self.bounds.partition_point(|&b| b <= node).saturating_sub(1).min(self.cal.num_shards - 1)
    }

    /// Runs the workload of `spec` against the fault scenario `sched`,
    /// recording counters and latency histograms into `telemetry`.
    /// Equivalent to [`Server::run_scenario`] with a quiet churn schedule.
    pub fn run(&self, spec: &WorkloadSpec, sched: &FaultSchedule, telemetry: &Telemetry) -> ServeOutcome {
        self.run_scenario(spec, sched, &ChurnSchedule::quiet(spec.duration_ns), telemetry)
    }

    /// Runs the workload of `spec` against the fault scenario `sched`
    /// while replaying the live-mutation and membership events of
    /// `churn`: epoch fences stall in-rotation shards for the apply
    /// transaction, drains/leaves retire shards loss-free (pending work
    /// migrates with the relay surcharge), joins pass a health gate and
    /// warm up at a decaying service penalty, and admission capacity
    /// tracks the live member count. A quiet schedule replays the legacy
    /// static-graph loop bit-identically.
    pub fn run_scenario(
        &self,
        spec: &WorkloadSpec,
        sched: &FaultSchedule,
        churn: &ChurnSchedule,
        telemetry: &Telemetry,
    ) -> ServeOutcome {
        Replay::new(self, sched, churn, telemetry).run(&generate(spec), spec)
    }

    /// Runs several independent `(workload, fault, churn)` scenarios
    /// concurrently on the deterministic worker pool; results merge in
    /// input order, so the output is bit-identical to a sequential loop at
    /// any thread count. A scenario without churn passes
    /// `ChurnSchedule::quiet(spec.duration_ns)`, which replays
    /// [`Server::run`] bit for bit.
    pub fn run_sweep(
        &self,
        specs: &[(WorkloadSpec, FaultSchedule, ChurnSchedule)],
    ) -> Vec<ServeOutcome> {
        mgg_runtime::profile::labeled("serve.sweep", || {
            mgg_runtime::par_map(specs, |(spec, sched, churn)| {
                self.run_scenario(spec, sched, churn, &Telemetry::disabled())
            })
        })
    }
}

/// One serving run: the replay's mutable state, borrowing what stays
/// fixed, with one handler per event kind. [`Replay::dispatch`] is the
/// only place a batch is priced.
struct Replay<'a> {
    server: &'a Server,
    sched: &'a FaultSchedule,
    churn: &'a ChurnSchedule,
    telemetry: &'a Telemetry,
    /// Warm-up window of a re-joined shard (from the churn spec).
    warmup_ns: u64,
    shards: Vec<ShardState>,
    records: Vec<QueryRecord>,
    transitions: Vec<BreakerTransition>,
    /// Scheduled batch closes: `Reverse((t, shard, seq))`.
    timers: BinaryHeap<Reverse<(u64, usize, u64)>>,
    timer_seq: u64,
    /// Completion instants of admitted queries (lazy in-system count).
    completions: BinaryHeap<Reverse<u64>>,
    /// Token bucket: level, instant of the last settle, and refill rate.
    /// The rate follows the live member count: every drain/leave/join
    /// rescales it to `live / n_shards` of the calibrated rate, so
    /// admission capacity tracks real capacity.
    tokens: f64,
    tokens_at: u64,
    refill_per_ns: f64,
    batches: u64,
    batched_queries: u64,
    hedges: u64,
    churn_stats: ChurnStats,
}

impl<'a> Replay<'a> {
    fn new(
        server: &'a Server,
        sched: &'a FaultSchedule,
        churn: &'a ChurnSchedule,
        telemetry: &'a Telemetry,
    ) -> Self {
        let shards = (0..server.cal.num_shards)
            .map(|s| ShardState {
                pending: Vec::new(),
                open_at: 0,
                close_at: u64::MAX,
                close_seq: 0,
                busy_until: 0,
                breaker: Breaker::new(s, BREAKER_COOLDOWN_NS, BREAKER_TRIP_SCALE),
                phase: MemberPhase::Active,
            })
            .collect();
        Replay {
            server,
            sched,
            churn,
            telemetry,
            warmup_ns: churn.spec().warmup_ns,
            shards,
            records: Vec::new(),
            transitions: Vec::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            completions: BinaryHeap::new(),
            tokens: TOKEN_BURST,
            tokens_at: 0,
            refill_per_ns: server.cal.saturation_qps / 1e9,
            batches: 0,
            batched_queries: 0,
            hedges: 0,
            churn_stats: ChurnStats::default(),
        }
    }

    /// Replays `queries` (in arrival order) with the churn events, then
    /// dispatches the batches still open when the window of `spec` ends.
    fn run(mut self, queries: &[Query], spec: &WorkloadSpec) -> ServeOutcome {
        self.records.reserve(queries.len());
        let events = self.churn.events();
        let (mut qi, mut ci) = (0usize, 0usize);
        loop {
            // Next event: earliest of (pending timer, churn event, next
            // arrival). Ties at one instant order timers first (close the
            // batch the old world promised), then churn (capacity and
            // fence effects land before new work), then arrivals.
            let next = [
                (self.timers.peek().map(|Reverse((t, ..))| *t), 0u8),
                (events.get(ci).map(|e| e.at_ns), 1),
                (queries.get(qi).map(|q| q.arrival_ns), 2),
            ]
            .into_iter()
            .filter_map(|(t, kind)| Some((t?, kind)))
            .min();
            let Some((now, kind)) = next else { break };
            match kind {
                0 => self.timer(),
                1 => {
                    let ev = &events[ci];
                    ci += 1;
                    // Settle the token bucket at the old rate before any
                    // capacity change (the refill is piecewise linear).
                    self.refill(now);
                    match &ev.kind {
                        ChurnEventKind::Membership(m) => self.membership(*m, now),
                        ChurnEventKind::Fence { deltas } => self.fence(deltas.len(), now),
                    }
                }
                _ => {
                    self.arrival(queries[qi], now);
                    qi += 1;
                }
            }
        }

        // Drain still-open batches (workload window ended).
        for s in 0..self.shards.len() {
            if !self.shards[s].pending.is_empty() {
                let at = self.shards[s].close_at.min(spec.duration_ns);
                self.dispatch(s, at);
            }
        }

        self.records.sort_by_key(|r| r.id);
        for t in &self.transitions {
            self.telemetry.counter_add(&format!("serve.breaker.{}", t.to.name()), 1);
        }
        let summary = self.summarize(spec);
        ServeOutcome { records: self.records, transitions: self.transitions, summary }
    }

    /// A scheduled batch close fires. A stale timer is skipped: the batch
    /// it was set for already dispatched (full) or was superseded by a
    /// tighter close.
    fn timer(&mut self) {
        let Reverse((t, s, seq)) = self.timers.pop().expect("peeked");
        if self.shards[s].close_seq == seq && self.shards[s].close_at == t {
            self.dispatch(s, t);
        }
    }

    /// A drain, leave or join of one shard; admission capacity then
    /// follows the live member count.
    fn membership(&mut self, m: MembershipEvent, now: u64) {
        self.churn_stats.membership_events += 1;
        let n = self.shards.len();
        let s = m.shard as usize;
        if s >= n {
            self.churn_stats.join_rejections += 1;
        } else {
            match m.change {
                MembershipChange::Drain => {
                    if in_rotation(self.shards[s].phase) {
                        // Flush the open batch before the shard stops
                        // taking traffic.
                        self.dispatch(s, now);
                        self.shards[s].phase = MemberPhase::Draining;
                        self.churn_stats.drains += 1;
                        self.telemetry.counter_add("serve.churn.drains", 1);
                    }
                }
                MembershipChange::Leave => {
                    if self.shards[s].phase != MemberPhase::Left {
                        self.leave(s, now);
                    }
                }
                MembershipChange::Join => {
                    let absent =
                        matches!(self.shards[s].phase, MemberPhase::Draining | MemberPhase::Left);
                    if absent && self.server.monitor.join_admissible(self.sched, s, now) {
                        self.shards[s].phase = MemberPhase::Warming { until: now + self.warmup_ns };
                        self.churn_stats.joins += 1;
                        self.telemetry.counter_add("serve.churn.joins", 1);
                    } else {
                        self.churn_stats.join_rejections += 1;
                        self.telemetry.counter_add("serve.churn.join_rejections", 1);
                    }
                }
            }
        }
        let live = self.shards.iter().filter(|st| in_rotation(st.phase)).count();
        self.refill_per_ns = self.server.cal.saturation_qps / 1e9 * live as f64 / n as f64;
    }

    /// Loss-free departure of shard `s`: each pending query migrates to
    /// the least-loaded in-rotation peer at one relay surcharge (however
    /// often it has moved, it pulls its rows from home once), or as plain
    /// home work when that peer is its home shard; with no peer left it
    /// executes here before the shard goes.
    fn leave(&mut self, s: usize, now: u64) {
        let orphans = std::mem::take(&mut self.shards[s].pending);
        self.shards[s].close_at = u64::MAX;
        self.shards[s].phase = MemberPhase::Left;
        self.churn_stats.leaves += 1;
        self.telemetry.counter_add("serve.churn.leaves", 1);
        let mut migrated = 0;
        for (q, rerouted) in orphans {
            if let Some(p) = self.peer(s, now, false) {
                migrated += 1;
                self.enqueue(p, q, p != self.server.shard_of(q.node), now);
            } else {
                self.shards[s].pending.push((q, rerouted));
            }
        }
        if !self.shards[s].pending.is_empty() {
            self.dispatch(s, now);
        }
        if migrated > 0 {
            self.churn_stats.migrated_queries += migrated;
            self.telemetry.counter_add("serve.churn.migrated", migrated);
        }
    }

    /// Epoch-fence apply transaction over `deltas` graph deltas: every
    /// member that still holds rows stalls for the targeted cache
    /// invalidation and split re-extension.
    fn fence(&mut self, deltas: usize, now: u64) {
        self.churn_stats.fences += 1;
        self.churn_stats.deltas_applied += deltas as u64;
        self.telemetry.counter_add("serve.churn.fences", 1);
        self.telemetry.counter_add("serve.churn.deltas", deltas as u64);
        let cal = &self.server.cal;
        let stall =
            cal.launch_ns + (deltas as f64 * cal.per_query_ns * FENCE_STALL_UNITS).ceil() as u64;
        for st in self.shards.iter_mut() {
            if st.phase != MemberPhase::Left {
                st.busy_until = st.busy_until.max(now) + stall;
                self.churn_stats.fence_stall_ns += stall;
            }
        }
    }

    /// A query arrives: completed queries leave the system, the token
    /// bucket settles, and the query is admitted into a batch or shed.
    fn arrival(&mut self, q: Query, now: u64) {
        while self.completions.peek().is_some_and(|Reverse(t)| *t <= now) {
            self.completions.pop();
        }
        self.refill(now);
        match self.admit(q, now) {
            Ok((shard, rerouted)) => {
                self.telemetry.counter_add("serve.admitted", 1);
                self.enqueue(shard, q, rerouted, now);
            }
            Err(err) => {
                self.telemetry.counter_add(&format!("serve.shed.{}", err.name()), 1);
                self.records.push(QueryRecord {
                    id: q.id,
                    arrival_ns: q.arrival_ns,
                    decision: Decision::Shed(err),
                    shard: None,
                    completion_ns: None,
                    deadline_met: false,
                    rerouted: false,
                    hedged: false,
                    class: q.class,
                });
            }
        }
    }

    /// Settles the token bucket up to `now` at the current refill rate.
    fn refill(&mut self, now: u64) {
        self.tokens =
            (self.tokens + (now - self.tokens_at) as f64 * self.refill_per_ns).min(TOKEN_BURST);
        self.tokens_at = now;
    }

    /// Admission pipeline: class-weighted token bucket → class-weighted
    /// queue bound → breaker-guarded routing over in-rotation members →
    /// deadline feasibility. Returns the target shard and whether the
    /// query was rerouted off its home shard.
    ///
    /// The class weighting is a reserve, not a price: bronze admits only
    /// while the bucket holds ≥ 4 tokens (silver ≥ 2) and may fill only
    /// half the queue bound, but an admitted query of any class spends
    /// exactly one token. Gold's gates are the legacy single-class gates.
    fn admit(&mut self, q: Query, now: u64) -> Result<(usize, bool), ServeError> {
        let class = q.class.code() as usize;
        if self.tokens < TOKEN_FLOOR[class] {
            return Err(ServeError::RateLimited);
        }
        let in_system =
            self.completions.len() + self.shards.iter().map(|s| s.pending.len()).sum::<usize>();
        let class_cap = (self.server.cfg.queue_cap as f64 * QUEUE_FRAC[class]) as usize;
        if in_system >= class_cap {
            return Err(ServeError::Overloaded { queued: in_system, cap: class_cap });
        }
        // Route to the breaker-admitting shard with the earliest estimated
        // completion. The home shard is costed at 1.0 query-units while
        // peers carry the relay surcharge (every replica holds the full
        // graph in the symmetric heap, so any healthy shard can serve a
        // foreign node at that price), so locality wins whenever backlogs
        // are comparable, a Zipf-hot shard's overflow spills onto idle
        // peers, and a tripped breaker drops its shard out of the
        // candidate scan entirely. Ties break toward the home-first scan
        // order. (Permanent capacity loss beyond what rerouting absorbs
        // falls back to the engine's recovery ladder — evacuation re-split
        // or UVM degrade — outside the serving fast path.)
        let home = self.server.shard_of(q.node);
        let n = self.shards.len();
        let mut best: Option<(u64, usize)> = None;
        for step in 0..n {
            let s = (home + step) % n;
            if !in_rotation(self.shards[s].phase) || !self.poll(s, now) {
                continue;
            }
            let units = query_units(step != 0);
            let service =
                self.server.cal.service_ns(self.pending_units(s) + units, self.scale(s, now));
            let est = now.max(self.shards[s].busy_until) + service;
            if best.is_none_or(|(b, _)| est < b) {
                best = Some((est, s));
            }
        }
        let Some((earliest_done, shard)) = best else {
            return Err(ServeError::Unavailable);
        };
        // Feasibility: joining the best shard's open batch must still make
        // the deadline even if the batch closes immediately after this
        // query.
        if earliest_done + SAFETY_NS > q.deadline_ns {
            return Err(ServeError::DeadlineInfeasible);
        }
        self.tokens -= 1.0;
        Ok((shard, shard != home))
    }

    /// Adds `q` to shard `s`'s open batch, opening the batch at `now` if
    /// it was empty. A full batch dispatches at once; otherwise its close
    /// is rescheduled for the new size.
    fn enqueue(&mut self, s: usize, q: Query, rerouted: bool, now: u64) {
        let st = &mut self.shards[s];
        if st.pending.is_empty() {
            st.open_at = now;
        }
        st.pending.push((q, rerouted));
        if st.pending.len() >= self.server.cfg.batch_cap {
            self.dispatch(s, now);
        } else {
            self.schedule_close(s, now);
        }
    }

    /// Deadline-aware close (re)scheduling of `s`'s open batch: the
    /// latest instant at which the batch at its current size still makes
    /// every member's deadline, bounded by the linger cap.
    fn schedule_close(&mut self, s: usize, now: u64) {
        let service = self.server.cal.service_ns(self.pending_units(s), self.scale(s, now));
        let st = &self.shards[s];
        let mut close = u64::MAX;
        for (m, ..) in &st.pending {
            close = close.min(m.deadline_ns.saturating_sub(service + SAFETY_NS));
        }
        let close = close.min(st.open_at + LINGER_NS).max(now);
        self.timer_seq += 1;
        let st = &mut self.shards[s];
        st.close_at = close;
        st.close_seq = self.timer_seq;
        self.timers.push(Reverse((close, s, self.timer_seq)));
    }

    /// Dispatches shard `s`'s open batch at `now`: the one place a
    /// batch's service time is computed. The batch starts when the
    /// shard's executor frees up and runs for the calibrated service time
    /// at the shard's scale. At a scale of `HEDGE_SCALE` or more it is
    /// duplicated on the least-loaded healthy peer and completes at the
    /// earlier finish.
    fn dispatch(&mut self, s: usize, now: u64) {
        let batch = std::mem::take(&mut self.shards[s].pending);
        self.shards[s].close_at = u64::MAX;
        if batch.is_empty() {
            return;
        }
        let cal = self.server.cal;
        let units: f64 = batch.iter().map(|&(_, r)| query_units(r)).sum();
        let scale = self.scale(s, now);
        let start = now.max(self.shards[s].busy_until);
        let mut completion = start + cal.service_ns(units, scale);
        self.shards[s].busy_until = completion;
        let mut hedged = false;
        if scale >= HEDGE_SCALE {
            if let Some(peer) = self.peer(s, now, true) {
                let peer_units = units + batch.len() as f64 * REROUTE_UNITS;
                let peer_start = now.max(self.shards[peer].busy_until);
                let peer_done = peer_start + cal.service_ns(peer_units, self.scale(peer, now));
                self.shards[peer].busy_until = peer_done;
                completion = completion.min(peer_done);
                hedged = true;
                self.hedges += 1;
            }
        }
        self.batches += 1;
        self.batched_queries += batch.len() as u64;
        self.telemetry.histogram_record("serve.batch_size", batch.len() as f64);
        for (q, rerouted) in &batch {
            self.telemetry
                .histogram_record("serve.latency_us", (completion - q.arrival_ns) as f64 / 1e3);
            self.completions.push(Reverse(completion));
            self.records.push(QueryRecord {
                id: q.id,
                arrival_ns: q.arrival_ns,
                decision: Decision::Admitted,
                shard: Some(s as u16),
                completion_ns: Some(completion),
                deadline_met: completion <= q.deadline_ns,
                rerouted: *rerouted,
                hedged,
                class: q.class,
            });
        }
    }

    /// The in-rotation peer of `home` whose breaker admits at `now` with
    /// the earliest `busy_until` (ties to the lower index). With `hedge`
    /// set it also passes over stragglers at or above `HEDGE_SCALE`
    /// before polling their breakers, so a hedge logs no transition for
    /// them.
    fn peer(&mut self, home: usize, now: u64, hedge: bool) -> Option<usize> {
        let n = self.shards.len();
        let mut best: Option<(u64, usize)> = None;
        for step in 1..n {
            let s = (home + step) % n;
            if !in_rotation(self.shards[s].phase)
                || (hedge && self.sched.compute_scale(s) >= HEDGE_SCALE)
                || !self.poll(s, now)
            {
                continue;
            }
            let key = (self.shards[s].busy_until, s);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, s)| s)
    }

    /// Polls shard `s`'s breaker at `now`, logging any transition.
    fn poll(&mut self, s: usize, now: u64) -> bool {
        self.shards[s].breaker.poll(&self.server.monitor, self.sched, now, &mut self.transitions)
    }

    /// Service-time scale of shard `s` at `now`: its straggler compute
    /// scale times its warm-up penalty.
    fn scale(&self, s: usize, now: u64) -> f64 {
        self.sched.compute_scale(s) * warm_mult(self.shards[s].phase, self.warmup_ns, now)
    }

    /// Query-units waiting in shard `s`'s open batch.
    fn pending_units(&self, s: usize) -> f64 {
        self.shards[s].pending.iter().map(|&(_, r)| query_units(r)).sum()
    }

    fn summarize(&self, spec: &WorkloadSpec) -> ServeSummary {
        let records = &self.records;
        let offered = records.len() as u64;
        let mut admitted = 0u64;
        let (mut shed_queue, mut shed_rate, mut shed_infeasible, mut shed_unavailable) =
            (0u64, 0u64, 0u64, 0u64);
        let mut in_deadline = 0u64;
        let mut violations = 0u64;
        let mut routing_violations = 0u64;
        let mut rerouted = 0u64;
        let mut latencies: Vec<u64> = Vec::new();
        for r in records {
            match r.decision {
                Decision::Admitted => {
                    admitted += 1;
                    if r.deadline_met {
                        in_deadline += 1;
                    } else {
                        violations += 1;
                        if r.rerouted {
                            routing_violations += 1;
                        }
                    }
                    if r.rerouted {
                        rerouted += 1;
                    }
                }
                Decision::Shed(e) => match e {
                    ServeError::Overloaded { .. } => shed_queue += 1,
                    ServeError::RateLimited => shed_rate += 1,
                    ServeError::DeadlineInfeasible => shed_infeasible += 1,
                    ServeError::Unavailable => shed_unavailable += 1,
                },
            }
        }
        let window_s = spec.duration_ns as f64 / 1e9;
        for r in records {
            if let (Decision::Admitted, Some(c)) = (r.decision, r.completion_ns) {
                latencies.push(c.saturating_sub(r.arrival_ns));
            }
        }
        latencies.sort_unstable();
        let pct = |p: f64| mgg_telemetry::percentile_sorted_u64(&latencies, p);
        let per_class = Priority::ALL
            .iter()
            .map(|&c| {
                let mut cs = ClassStats {
                    class: c.name().to_string(),
                    offered: 0,
                    admitted: 0,
                    shed: 0,
                    completed_in_deadline: 0,
                    deadline_violations: 0,
                    p99_ns: 0,
                };
                let mut lats: Vec<u64> = Vec::new();
                for r in records.iter().filter(|r| r.class == c) {
                    cs.offered += 1;
                    match r.decision {
                        Decision::Admitted => {
                            cs.admitted += 1;
                            if r.deadline_met {
                                cs.completed_in_deadline += 1;
                            } else {
                                cs.deadline_violations += 1;
                            }
                            if let Some(done) = r.completion_ns {
                                lats.push(done.saturating_sub(r.arrival_ns));
                            }
                        }
                        Decision::Shed(_) => cs.shed += 1,
                    }
                }
                lats.sort_unstable();
                cs.p99_ns = mgg_telemetry::percentile_sorted_u64(&lats, 0.99);
                cs
            })
            .collect();
        let batches = self.batches;
        ServeSummary {
            offered,
            admitted,
            shed_queue,
            shed_rate,
            shed_infeasible,
            shed_unavailable,
            completed_in_deadline: in_deadline,
            deadline_violations: violations,
            routing_violations,
            rerouted,
            hedges: self.hedges,
            batches,
            mean_batch: if batches == 0 { 0.0 } else { self.batched_queries as f64 / batches as f64 },
            p50_ns: pct(0.50),
            p95_ns: pct(0.95),
            p99_ns: pct(0.99),
            goodput_qps: in_deadline as f64 / window_s,
            offered_qps: offered as f64 / window_s,
            saturation_qps: self.server.cal.saturation_qps,
            shed_fraction: if offered == 0 {
                0.0
            } else {
                (shed_queue + shed_rate + shed_infeasible + shed_unavailable) as f64 / offered as f64
            },
            per_class,
            churn: self.churn_stats.clone(),
            digest: format!("{:016x}", self.digest()),
        }
    }

    /// FNV-1a over the full decision trace: the run's replay fingerprint.
    /// Churn activity is folded in only when present, so static-graph
    /// digests match the values pinned by committed baselines.
    fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        for r in &self.records {
            h.u64(r.id);
            match r.decision {
                Decision::Admitted => h.u8(0),
                Decision::Shed(e) => h.u8(e.code()),
            }
            h.u64(r.shard.map_or(u64::MAX, |s| s as u64));
            h.u64(r.completion_ns.unwrap_or(u64::MAX));
            h.u8(u8::from(r.deadline_met)
                | (u8::from(r.rerouted) << 1)
                | (u8::from(r.hedged) << 2)
                | (r.class.code() << 3));
        }
        let churn_stats = &self.churn_stats;
        if *churn_stats != ChurnStats::default() {
            for v in [
                churn_stats.fences,
                churn_stats.deltas_applied,
                churn_stats.membership_events,
                churn_stats.drains,
                churn_stats.leaves,
                churn_stats.joins,
                churn_stats.join_rejections,
                churn_stats.migrated_queries,
                churn_stats.fence_stall_ns,
            ] {
                h.u64(v);
            }
        }
        for t in &self.transitions {
            h.u64(t.at_ns);
            h.u64(t.shard as u64);
            h.u8(t.from.name().len() as u8);
            h.u8(t.to.name().len() as u8);
        }
        h.finish()
    }
}

/// Digest of the deterministic slice of a [`MetricsSnapshot`]: counters
/// and histograms (spans are host wall-clock and excluded by design).
pub fn snapshot_digest(snap: &MetricsSnapshot) -> u64 {
    let mut h = Fnv::new();
    let mut counters = snap.counters.clone();
    counters.sort_by(|a, b| a.name.cmp(&b.name));
    for c in &counters {
        h.bytes(c.name.as_bytes());
        h.u64(c.value);
    }
    let mut hists = snap.histograms.clone();
    hists.sort_by(|a, b| a.name.cmp(&b.name));
    for hist in &hists {
        h.bytes(hist.name.as_bytes());
        h.u64(hist.count);
        h.u64(hist.sum.to_bits());
        h.u64(hist.min.to_bits());
        h.u64(hist.max.to_bits());
    }
    h.finish()
}

/// Minimal FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x1000_0000_01b3);
    }
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.u8(b);
        }
    }
    fn bytes(&mut self, bs: &[u8]) {
        for &b in bs {
            self.u8(b);
        }
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::ArrivalKind;
    use mgg_core::MggConfig;
    use mgg_fault::FaultSpec;
    use mgg_gnn::reference::AggregateMode;
    use mgg_graph::generators::rmat::{rmat, RmatConfig};
    use mgg_sim::ClusterSpec;

    fn server(gpus: usize, cfg: ServeConfig) -> (Server, usize) {
        let g = rmat(&RmatConfig::graph500(10, 10_000, 23));
        let mut engine = MggEngine::new(
            &g,
            ClusterSpec::dgx_a100(gpus),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let n = g.num_nodes();
        (Server::new(&mut engine, 64, cfg).unwrap(), n)
    }

    fn spec_at(server: &Server, nodes: usize, mult: f64, seed: u64) -> WorkloadSpec {
        WorkloadSpec::poisson(seed, server.calibration().saturation_qps * mult, nodes)
    }

    #[test]
    fn calibration_is_sane() {
        let (s, _) = server(4, ServeConfig::default());
        let c = s.calibration();
        assert_eq!(c.num_shards, 4);
        assert!(c.per_query_ns >= 1.0);
        assert!(c.saturation_qps > 0.0);
        assert_eq!(c.launch_ns, ClusterSpec::dgx_a100(4).kernel_launch_ns);
    }

    #[test]
    fn shard_of_covers_every_node() {
        let (s, nodes) = server(4, ServeConfig::default());
        for v in 0..nodes as u32 {
            assert!(s.shard_of(v) < 4);
        }
        // Boundary nodes land in the owning range.
        for g in 0..4 {
            let lo = s.bounds[g];
            if lo < s.bounds[g + 1] {
                assert_eq!(s.shard_of(lo), g);
            }
        }
    }

    #[test]
    fn underload_admits_everything_within_deadline() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 0.5, 11);
        let out = s.run(&spec, &FaultSchedule::quiet(4), &Telemetry::disabled());
        let sum = &out.summary;
        assert!(sum.offered > 100, "need a real stream, got {}", sum.offered);
        assert_eq!(sum.admitted, sum.offered, "no shedding under 0.5x load");
        assert_eq!(sum.deadline_violations, 0, "all deadlines met at 0.5x load");
        assert!(sum.p99_ns <= spec.deadline_ns);
        assert!(sum.batches > 0 && sum.mean_batch >= 1.0);
    }

    #[test]
    fn overload_sheds_and_sustains_goodput() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 2.0, 12);
        let out = s.run(&spec, &FaultSchedule::quiet(4), &Telemetry::disabled());
        let sum = &out.summary;
        assert!(sum.shed_fraction > 0.0, "2x overload must shed");
        assert!(
            sum.goodput_qps >= 0.9 * sum.saturation_qps,
            "goodput {} must stay >= 0.9x saturation {}",
            sum.goodput_qps,
            sum.saturation_qps
        );
        // Admitted queries still meet their deadlines: shedding, not
        // queue collapse.
        assert!(sum.p99_ns <= spec.deadline_ns, "p99 {} > deadline", sum.p99_ns);
        assert_eq!(sum.routing_violations, 0);
    }

    #[test]
    fn degraded_gpu_opens_breaker_and_reroutes_cleanly() {
        let (s, nodes) = server(4, ServeConfig::default());
        let fault = FaultSpec { seed: 5, straggler: 4.0, ..FaultSpec::default() };
        let sched = FaultSchedule::derive(&fault, 4);
        let impaired = sched.impaired_gpus();
        assert!(!impaired.is_empty(), "straggler spec must impair a shard");
        let spec = spec_at(&s, nodes, 1.0, 13);
        let out = s.run(&spec, &sched, &Telemetry::disabled());
        let sum = &out.summary;
        assert!(
            out.transitions
                .iter()
                .any(|t| impaired.contains(&t.shard) && t.to == crate::BreakerState::Open),
            "breaker must open on the degraded shard"
        );
        assert!(sum.rerouted > 0, "queries owned by the degraded shard must reroute");
        assert_eq!(
            sum.routing_violations, 0,
            "rerouting must never manufacture deadline violations"
        );
        // No admitted query may have executed on the impaired shard after
        // its breaker opened (the trace proves route-around).
        let first_open = out
            .transitions
            .iter()
            .find(|t| impaired.contains(&t.shard) && t.to == crate::BreakerState::Open)
            .map(|t| t.at_ns)
            .unwrap();
        for r in &out.records {
            if let (Some(shard), Some(c)) = (r.shard, r.completion_ns) {
                if impaired.contains(&(shard as usize)) {
                    assert!(
                        r.arrival_ns <= first_open || c < first_open,
                        "query {} dispatched to open-breaker shard {}",
                        r.id,
                        shard
                    );
                }
            }
        }
    }

    #[test]
    fn straggler_below_trip_threshold_gets_hedged() {
        // A 1.2x straggler stays below the breaker's trip scale (1.5), and
        // its health 1/1.2 = 0.83 above 1/1.5, so its breaker stays closed
        // and its own scale never reaches HEDGE_SCALE. After it drains,
        // leaves and re-joins, the warm-up penalty (up to x1.5, decaying)
        // lifts it to at least 1.2 x 1.25 = 1.5 for the first half of the
        // warm-up window: the batches it dispatches there are hedged.
        let (s, nodes) = server(4, ServeConfig::default());
        let fault = FaultSpec { seed: 9, straggler: 1.2, ..FaultSpec::default() };
        let sched = FaultSchedule::derive(&fault, 4);
        let impaired = sched.impaired_gpus();
        assert_eq!(impaired.len(), 1, "one straggler among 4 GPUs");
        let k = impaired[0];
        let spec = spec_at(&s, nodes, 1.0, 14);
        let join_at = 1_000_000u64;
        let mut cspec = ChurnSpec::quiet(spec.duration_ns);
        cspec.membership = vec![
            MembershipEvent { shard: k as u16, at_ns: 400_000, change: MembershipChange::Drain },
            MembershipEvent { shard: k as u16, at_ns: 600_000, change: MembershipChange::Leave },
            MembershipEvent { shard: k as u16, at_ns: join_at, change: MembershipChange::Join },
        ];
        let warmup_ns = cspec.warmup_ns;
        let churn = ChurnSchedule::derive(&cspec, nodes);
        let out = s.run_scenario(&spec, &sched, &churn, &Telemetry::disabled());
        assert_eq!(out.summary.churn.joins, 1, "the straggler re-joins");
        assert!(
            out.transitions.iter().all(|t| t.shard != k),
            "the 1.2x straggler's breaker must stay closed"
        );
        assert!(out.summary.hedges > 0, "warming straggler's batches must be hedged");
        assert!(out.records.iter().any(|r| r.hedged));
        for r in out.records.iter().filter(|r| r.hedged) {
            assert_eq!(r.shard, Some(k as u16), "query {} hedged off another shard", r.id);
            assert!(
                r.arrival_ns >= join_at && r.arrival_ns < join_at + warmup_ns,
                "query {} hedged outside the warm-up window",
                r.id
            );
        }
    }

    #[test]
    fn runs_replay_bit_identically() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 1.5, 15);
        let sched = FaultSchedule::derive(
            &FaultSpec { seed: 2, straggler: 3.0, ..FaultSpec::default() },
            4,
        );
        let a = s.run(&spec, &sched, &Telemetry::disabled());
        let b = s.run(&spec, &sched, &Telemetry::disabled());
        assert_eq!(a, b, "identical inputs must produce identical outcomes");
        assert_eq!(a.summary.digest, b.summary.digest);
    }

    #[test]
    fn sweep_is_thread_count_invariant() {
        let (s, nodes) = server(4, ServeConfig::default());
        let scenarios: Vec<(WorkloadSpec, FaultSchedule, ChurnSchedule)> = (0..6)
            .map(|i| {
                let mut spec = spec_at(&s, nodes, 0.8 + 0.3 * i as f64, 20 + i);
                if i % 2 == 1 {
                    spec.arrival = ArrivalKind::Bursty { period_ns: 400_000, duty_pct: 25 };
                }
                let quiet = ChurnSchedule::quiet(spec.duration_ns);
                (spec, FaultSchedule::quiet(4), quiet)
            })
            .collect();
        let seq = mgg_runtime::with_threads(1, || s.run_sweep(&scenarios));
        let par = mgg_runtime::with_threads(4, || s.run_sweep(&scenarios));
        assert_eq!(seq, par, "sweep must merge in input order at any thread count");
    }

    #[test]
    fn telemetry_counters_match_summary_and_digest_ignores_spans() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 2.0, 16);
        let tel = Telemetry::enabled();
        let out = s.run(&spec, &FaultSchedule::quiet(4), &tel);
        let snap = tel.snapshot();
        assert_eq!(tel.counter_value("serve.admitted"), out.summary.admitted);
        assert_eq!(tel.counter_value("serve.shed.rate"), out.summary.shed_rate);
        let d1 = snapshot_digest(&snap);
        // Span noise must not perturb the digest.
        {
            let _g = tel.span("wall-clock-noise");
        }
        let d2 = snapshot_digest(&tel.snapshot());
        assert_eq!(d1, d2, "snapshot digest must cover only counters + histograms");
    }

    #[test]
    fn typed_shed_errors_render() {
        let e = ServeError::Overloaded { queued: 256, cap: 256 };
        assert!(e.to_string().contains("queue full"));
        assert_eq!(e.code(), 1);
        assert_eq!(ServeError::RateLimited.name(), "rate");
    }

    use crate::workload::PriorityMix;
    use mgg_churn::ChurnSpec;

    #[test]
    fn quiet_churn_scenario_matches_legacy_run_bitwise() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 1.5, 31);
        let sched = FaultSchedule::quiet(4);
        let legacy = s.run(&spec, &sched, &Telemetry::disabled());
        let quiet = ChurnSchedule::quiet(spec.duration_ns);
        let scenario = s.run_scenario(&spec, &sched, &quiet, &Telemetry::disabled());
        assert_eq!(legacy, scenario, "quiet churn must replay the static-graph loop");
        assert_eq!(scenario.summary.churn, ChurnStats::default());
        // The gold row of a gold-only run is the whole run.
        let gold = &scenario.summary.per_class[0];
        assert_eq!(gold.offered, scenario.summary.offered);
        assert_eq!(gold.admitted, scenario.summary.admitted);
        assert_eq!(gold.p99_ns, scenario.summary.p99_ns);
    }

    #[test]
    fn overload_sheds_bronze_first_and_gold_p99_holds() {
        let (s, nodes) = server(4, ServeConfig::default());
        let mut spec = spec_at(&s, nodes, 2.0, 32);
        spec.mix = PriorityMix::new(0.2, 0.3, 0.5);
        let out = s.run(&spec, &FaultSchedule::quiet(4), &Telemetry::disabled());
        let cls = &out.summary.per_class;
        let shed_frac = |c: &ClassStats| c.shed as f64 / c.offered.max(1) as f64;
        assert!(cls.iter().all(|c| c.offered > 50), "every class needs a real sample");
        assert!(
            shed_frac(&cls[2]) > shed_frac(&cls[0]),
            "bronze ({:.3}) must shed harder than gold ({:.3}) at 2x load",
            shed_frac(&cls[2]),
            shed_frac(&cls[0])
        );
        let miss = |c: &ClassStats| c.deadline_violations as f64 / c.admitted.max(1) as f64;
        let overall =
            out.summary.deadline_violations as f64 / out.summary.admitted.max(1) as f64;
        assert!(miss(&cls[0]) <= overall, "gold may not miss more than the blend");
        assert!(cls[0].p99_ns <= spec.deadline_ns, "gold p99 must hold under overload");
    }

    #[test]
    fn drain_leave_join_cycle_is_loss_free_and_respects_membership() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 1.0, 33);
        let (drain_at, leave_at, join_at) = (500_000u64, 1_000_000u64, 1_500_000u64);
        let mut cspec = ChurnSpec::quiet(spec.duration_ns);
        cspec.membership = vec![
            MembershipEvent { shard: 1, at_ns: drain_at, change: MembershipChange::Drain },
            MembershipEvent { shard: 1, at_ns: leave_at, change: MembershipChange::Leave },
            MembershipEvent { shard: 1, at_ns: join_at, change: MembershipChange::Join },
        ];
        let churn = ChurnSchedule::derive(&cspec, nodes);
        let sched = FaultSchedule::quiet(4);
        let out = s.run_scenario(&spec, &sched, &churn, &Telemetry::disabled());
        let c = &out.summary.churn;
        assert_eq!((c.drains, c.leaves, c.joins, c.join_rejections), (1, 1, 1, 0));
        // Loss-free: every offered query is either admitted or explicitly
        // shed, and every admitted one completed.
        assert_eq!(out.summary.offered, out.records.len() as u64);
        for r in &out.records {
            if r.decision == Decision::Admitted {
                assert!(r.completion_ns.is_some(), "query {} lost in the cycle", r.id);
            }
        }
        assert_eq!(out.summary.routing_violations, 0);
        // No arrival in the out-of-rotation window may execute on shard 1.
        for r in &out.records {
            if r.arrival_ns > drain_at && r.arrival_ns < join_at {
                assert_ne!(r.shard, Some(1), "query {} admitted to an absent shard", r.id);
            }
        }
        // The shard serves again after re-joining.
        assert!(
            out.records
                .iter()
                .any(|r| r.arrival_ns > join_at && r.shard == Some(1)),
            "re-joined shard must take traffic again"
        );
        // Replays bit-identically.
        let again = s.run_scenario(&spec, &sched, &churn, &Telemetry::disabled());
        assert_eq!(out, again);
    }

    #[test]
    fn migrated_counter_counts_each_leave_once() {
        // Two undrained leaves: the counter takes each leave's own
        // migrations, so it ends equal to the run's total.
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 1.5, 33);
        let mut cspec = ChurnSpec::quiet(spec.duration_ns);
        cspec.membership = vec![
            MembershipEvent { shard: 1, at_ns: 510_000, change: MembershipChange::Leave },
            MembershipEvent { shard: 2, at_ns: 1_010_000, change: MembershipChange::Leave },
        ];
        let churn = ChurnSchedule::derive(&cspec, nodes);
        let tel = Telemetry::enabled();
        let out = s.run_scenario(&spec, &FaultSchedule::quiet(4), &churn, &tel);
        assert_eq!(out.summary.churn.leaves, 2);
        assert_eq!(out.summary.churn.migrated_queries, 34);
        assert_eq!(tel.counter_value("serve.churn.migrated"), 34);
    }

    #[test]
    fn orphans_of_the_last_shard_keep_their_reroute_flag() {
        // Shard 0 drains, so shard 1 serves shard 0's nodes as reroutes;
        // when shard 1 then leaves with no peer in rotation, its pending
        // queries run there and must stay flagged as rerouted.
        let (s, nodes) = server(2, ServeConfig::default());
        let spec = spec_at(&s, nodes, 0.8, 35);
        let queries = generate(&spec);
        for leave_at in [710_000, 730_000, 740_000] {
            let mut cspec = ChurnSpec::quiet(spec.duration_ns);
            cspec.membership = vec![
                MembershipEvent { shard: 0, at_ns: 500_000, change: MembershipChange::Drain },
                MembershipEvent { shard: 1, at_ns: leave_at, change: MembershipChange::Leave },
            ];
            let churn = ChurnSchedule::derive(&cspec, nodes);
            let out = s.run_scenario(&spec, &FaultSchedule::quiet(2), &churn, &Telemetry::disabled());
            let mut off_home = 0;
            for r in out.records.iter().filter(|r| r.decision == Decision::Admitted) {
                let home = s.shard_of(queries[r.id as usize].node) as u16;
                if r.shard != Some(home) {
                    off_home += 1;
                    assert!(r.rerouted, "query {} ran off its home shard unflagged", r.id);
                }
            }
            assert!(off_home > 0, "the drain must reroute shard 0's queries");
            assert_eq!(out.summary.rerouted, off_home);
        }
    }

    #[test]
    fn orphans_migrated_home_are_not_rerouted() {
        // Shards 1 and 2 leave undrained; their pending queries include
        // reroutes homed on the surviving peers, and one migrated back to
        // its home shard runs there as home work.
        let (s, nodes) = server(4, ServeConfig::default());
        for seed in 31..=39 {
            let spec = spec_at(&s, nodes, 1.5, seed);
            let queries = generate(&spec);
            let mut cspec = ChurnSpec::quiet(spec.duration_ns);
            cspec.membership = vec![
                MembershipEvent { shard: 1, at_ns: 510_000, change: MembershipChange::Leave },
                MembershipEvent { shard: 2, at_ns: 1_010_000, change: MembershipChange::Leave },
            ];
            let churn = ChurnSchedule::derive(&cspec, nodes);
            let out =
                s.run_scenario(&spec, &FaultSchedule::quiet(4), &churn, &Telemetry::disabled());
            assert!(out.summary.churn.migrated_queries > 0, "seed {seed}: the leaves must migrate");
            let mut off_home = 0;
            for r in out.records.iter().filter(|r| r.decision == Decision::Admitted) {
                let home = s.shard_of(queries[r.id as usize].node) as u16;
                if r.shard == Some(home) {
                    assert!(!r.rerouted, "seed {seed}: query {} at home flagged rerouted", r.id);
                } else {
                    off_home += 1;
                }
            }
            assert_eq!(out.summary.rerouted, off_home, "seed {seed}");
        }
    }

    #[test]
    fn a_rerouted_orphan_pays_the_relay_surcharge_once() {
        // Shard 0 is out of rotation, so its query waits on shard 1 as a
        // reroute; shard 1 then leaves undrained and the only peer left,
        // shard 2, is not the query's home either.
        let (s, _) = server(3, ServeConfig::default());
        let sched = FaultSchedule::quiet(3);
        let churn = ChurnSchedule::quiet(1_000_000);
        let tel = Telemetry::disabled();
        let mut replay = Replay::new(&s, &sched, &churn, &tel);
        replay.shards[0].phase = MemberPhase::Left;
        let q =
            Query { id: 0, arrival_ns: 0, node: 0, deadline_ns: 1_000_000, class: Priority::Gold };
        assert_eq!(s.shard_of(q.node), 0);
        replay.enqueue(1, q, true, 0);
        assert_eq!(replay.pending_units(1), 1.5);
        replay.leave(1, 10);
        assert_eq!(replay.pending_units(2), 1.5);
    }

    #[test]
    fn join_health_gate_refuses_a_dead_shard() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 0.8, 34);
        let mut cspec = ChurnSpec::quiet(spec.duration_ns);
        cspec.membership = vec![
            MembershipEvent { shard: 1, at_ns: 100_000, change: MembershipChange::Drain },
            MembershipEvent { shard: 1, at_ns: 200_000, change: MembershipChange::Leave },
            MembershipEvent { shard: 1, at_ns: 1_500_000, change: MembershipChange::Join },
        ];
        let churn = ChurnSchedule::derive(&cspec, nodes);
        let sched = FaultSchedule::gpu_failure(4, 1, 0);
        let out = s.run_scenario(&spec, &sched, &churn, &Telemetry::disabled());
        let c = &out.summary.churn;
        assert_eq!(c.joins, 0, "a dead shard must not pass the join gate");
        assert_eq!(c.join_rejections, 1);
        assert!(
            out.records.iter().all(|r| r.shard != Some(1) || r.arrival_ns <= 100_000),
            "no traffic may land on the dead, departed shard"
        );
    }

    #[test]
    fn fences_stall_shards_and_pin_the_digest() {
        let (s, nodes) = server(4, ServeConfig::default());
        let spec = spec_at(&s, nodes, 1.0, 35);
        let cspec = ChurnSpec::steady(7, spec.duration_ns, 500_000.0);
        let churn = ChurnSchedule::derive(&cspec, nodes);
        let sched = FaultSchedule::quiet(4);
        let out = s.run_scenario(&spec, &sched, &churn, &Telemetry::disabled());
        let c = &out.summary.churn;
        assert!(c.fences > 0 && c.deltas_applied > 0, "steady churn must fence");
        assert!(c.fence_stall_ns > 0, "fences must charge an apply stall");
        // The churn plane is part of the replay identity.
        let baseline = s.run(&spec, &sched, &Telemetry::disabled());
        assert_ne!(out.summary.digest, baseline.summary.digest);
        assert_eq!(
            out,
            s.run_scenario(&spec, &sched, &churn, &Telemetry::disabled()),
            "churn runs must replay bit-identically"
        );
    }

    #[test]
    fn churn_sweep_is_thread_count_invariant() {
        let (s, nodes) = server(4, ServeConfig::default());
        let scenarios: Vec<(WorkloadSpec, FaultSchedule, ChurnSchedule)> = (0..5)
            .map(|i| {
                let mut spec = spec_at(&s, nodes, 0.9 + 0.3 * i as f64, 40 + i);
                spec.mix = PriorityMix::new(0.3, 0.3, 0.4);
                let mut cspec = ChurnSpec::steady(50 + i, spec.duration_ns, 200_000.0);
                cspec.membership = vec![
                    MembershipEvent {
                        shard: (i % 4) as u16,
                        at_ns: 400_000,
                        change: MembershipChange::Drain,
                    },
                    MembershipEvent {
                        shard: (i % 4) as u16,
                        at_ns: 1_200_000,
                        change: MembershipChange::Join,
                    },
                ];
                (spec, FaultSchedule::quiet(4), ChurnSchedule::derive(&cspec, nodes))
            })
            .collect();
        let seq = mgg_runtime::with_threads(1, || s.run_sweep(&scenarios));
        let par = mgg_runtime::with_threads(4, || s.run_sweep(&scenarios));
        assert_eq!(seq, par, "churn sweep must merge in input order at any thread count");
    }
}

