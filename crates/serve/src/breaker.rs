//! Per-shard circuit breakers driven by phi-accrual health signals.
//!
//! A breaker guards one shard (one GPU's node range). It consumes the
//! same deterministic signals the failover plane derives from the
//! installed [`mgg_fault::FaultSchedule`] — phi suspicion for dead GPUs,
//! compute-scale for stragglers — so its state transitions replay
//! bit-identically for a given schedule and probe stream. No wall clock,
//! no randomness: the breaker is a pure function of (schedule, probe
//! times).

use mgg_failover::{GpuStatus, HealthMonitor};
use mgg_fault::FaultSchedule;
use serde::Serialize;

/// Breaker state, the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum BreakerState {
    /// Healthy: dispatch to this shard normally.
    Closed,
    /// Tripped: route around this shard until the cooldown expires.
    Open,
    /// Cooldown expired: the next dispatch probes the shard; recovery
    /// closes the breaker, continued impairment re-opens it.
    HalfOpen,
}

impl BreakerState {
    /// Lower-case name used in telemetry counters and JSON reports.
    pub fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// One recorded state transition.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct BreakerTransition {
    /// Simulated instant of the transition.
    pub at_ns: u64,
    /// Shard whose breaker moved.
    pub shard: usize,
    /// State before.
    pub from: BreakerState,
    /// State after.
    pub to: BreakerState,
}

/// Health verdict the breaker derives for its shard at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Verdict {
    Healthy,
    /// Straggling past the trip threshold, or phi-suspected.
    Impaired,
    Dead,
}

/// Circuit breaker for one shard.
#[derive(Debug, Clone)]
pub struct Breaker {
    shard: usize,
    state: BreakerState,
    /// Instant the breaker may leave `Open` for `HalfOpen`.
    reopen_at_ns: u64,
    /// Cooldown between tripping and the next probe.
    cooldown_ns: u64,
    /// Compute-scale at or above which a straggling shard trips the
    /// breaker (capacity below `1 / trip_scale`).
    trip_scale: f64,
}

impl Breaker {
    /// A closed breaker for `shard`. `cooldown_ns` is the open-state dwell
    /// time; `trip_scale` the straggler slowdown that trips it.
    pub fn new(shard: usize, cooldown_ns: u64, trip_scale: f64) -> Self {
        Breaker {
            shard,
            state: BreakerState::Closed,
            reopen_at_ns: 0,
            cooldown_ns,
            trip_scale,
        }
    }

    /// Current state (without advancing it).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    fn verdict(&self, monitor: &HealthMonitor, sched: &FaultSchedule, now_ns: u64) -> Verdict {
        // Phi-accrual liveness first: a dead shard is not probeable at all.
        match monitor.status(sched, self.shard, now_ns) {
            GpuStatus::Dead => return Verdict::Dead,
            GpuStatus::Suspected => return Verdict::Impaired,
            GpuStatus::Alive => {}
        }
        if sched.compute_scale(self.shard) >= self.trip_scale || sched.health(self.shard) < 1.0 / self.trip_scale {
            Verdict::Impaired
        } else {
            Verdict::Healthy
        }
    }

    /// Advances the state machine at `now_ns` and says whether the shard
    /// may be dispatched to. Records any transition into `log`.
    ///
    /// `Closed` + healthy → dispatch. `Closed` + impaired/dead → trip to
    /// `Open`, no dispatch. `Open` before cooldown → no dispatch; after →
    /// `HalfOpen`. `HalfOpen` + healthy → `Closed`, dispatch (the probe
    /// succeeded — with a deterministic schedule the health signal *is*
    /// the probe outcome). `HalfOpen` + impaired → back to `Open`.
    pub fn poll(
        &mut self,
        monitor: &HealthMonitor,
        sched: &FaultSchedule,
        now_ns: u64,
        log: &mut Vec<BreakerTransition>,
    ) -> bool {
        let verdict = self.verdict(monitor, sched, now_ns);
        self.step(verdict, now_ns, log)
    }

    fn step(&mut self, verdict: Verdict, now_ns: u64, log: &mut Vec<BreakerTransition>) -> bool {
        match self.state {
            BreakerState::Closed => {
                if verdict == Verdict::Healthy {
                    true
                } else {
                    self.transition(BreakerState::Open, now_ns, log);
                    self.reopen_at_ns = now_ns + self.cooldown_ns;
                    false
                }
            }
            BreakerState::Open => {
                if now_ns < self.reopen_at_ns {
                    return false;
                }
                self.transition(BreakerState::HalfOpen, now_ns, log);
                self.probe(verdict, now_ns, log)
            }
            BreakerState::HalfOpen => self.probe(verdict, now_ns, log),
        }
    }

    fn probe(&mut self, verdict: Verdict, now_ns: u64, log: &mut Vec<BreakerTransition>) -> bool {
        if verdict == Verdict::Healthy {
            self.transition(BreakerState::Closed, now_ns, log);
            true
        } else {
            self.transition(BreakerState::Open, now_ns, log);
            self.reopen_at_ns = now_ns + self.cooldown_ns;
            false
        }
    }

    fn transition(&mut self, to: BreakerState, at_ns: u64, log: &mut Vec<BreakerTransition>) {
        if self.state == to {
            return;
        }
        log.push(BreakerTransition { at_ns, shard: self.shard, from: self.state, to });
        self.state = to;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgg_fault::FaultSpec;

    fn straggler_sched(gpus: usize, factor: f64) -> FaultSchedule {
        FaultSchedule::derive(
            &FaultSpec { seed: 11, straggler: factor, ..FaultSpec::default() },
            gpus,
        )
    }

    #[test]
    fn healthy_shard_stays_closed() {
        let sched = FaultSchedule::quiet(4);
        let monitor = HealthMonitor::new(4);
        let mut log = Vec::new();
        let mut b = Breaker::new(2, 100_000, 1.5);
        for t in [0u64, 50_000, 1_000_000] {
            assert!(b.poll(&monitor, &sched, t, &mut log));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(log.is_empty());
    }

    #[test]
    fn straggler_trips_and_recovers_through_half_open() {
        let sched = straggler_sched(4, 4.0);
        let monitor = HealthMonitor::new(4);
        let shard = *sched.impaired_gpus().first().expect("straggler derived");
        let mut log = Vec::new();
        let mut b = Breaker::new(shard, 100_000, 1.5);
        assert!(!b.poll(&monitor, &sched, 10, &mut log), "straggling shard must trip");
        assert_eq!(b.state(), BreakerState::Open);
        assert!(!b.poll(&monitor, &sched, 50_000, &mut log), "open before cooldown");
        // Still impaired at probe time: re-opens.
        assert!(!b.poll(&monitor, &sched, 150_000, &mut log));
        assert_eq!(b.state(), BreakerState::Open);
        let kinds: Vec<(BreakerState, BreakerState)> =
            log.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            kinds,
            vec![
                (BreakerState::Closed, BreakerState::Open),
                (BreakerState::Open, BreakerState::HalfOpen),
                (BreakerState::HalfOpen, BreakerState::Open),
            ]
        );
    }

    #[test]
    fn dead_gpu_opens_breaker_after_detection() {
        let sched = FaultSchedule::derive(
            &FaultSpec { seed: 3, gpu_failures: 1, ..FaultSpec::default() },
            4,
        );
        let dead = *sched.dead_gpus().first().expect("one permanent failure");
        let fail_at = sched.first_failure_ns().expect("failure instant");
        let monitor = HealthMonitor::new(4);
        let horizon = fail_at + monitor.detection_delay_ns() + 1;
        let mut log = Vec::new();
        let mut b = Breaker::new(dead, 100_000, 1.5);
        assert!(b.poll(&monitor, &sched, fail_at.saturating_sub(1), &mut log));
        assert!(!b.poll(&monitor, &sched, horizon, &mut log));
        assert_eq!(b.state(), BreakerState::Open);
    }

    /// The verdict as it was built before `HealthMonitor::status`: from the
    /// whole cluster's view. Kept as an oracle for the one-shard verdict.
    fn observe_verdict(
        b: &Breaker,
        monitor: &HealthMonitor,
        sched: &FaultSchedule,
        now_ns: u64,
    ) -> Verdict {
        let view = monitor.observe(sched, now_ns);
        if view.is_dead(b.shard) {
            return Verdict::Dead;
        }
        if view.suspected.binary_search(&b.shard).is_ok() {
            return Verdict::Impaired;
        }
        if sched.compute_scale(b.shard) >= b.trip_scale
            || sched.health(b.shard) < 1.0 / b.trip_scale
        {
            Verdict::Impaired
        } else {
            Verdict::Healthy
        }
    }

    /// Breakers on every shard, polled on a half-heartbeat grid across GPU
    /// deaths, link failures and stragglers, give the same verdicts and
    /// the same transition log as breakers driven by the oracle.
    #[test]
    fn one_shard_verdict_replays_the_cluster_view_verdict() {
        let monitor = HealthMonitor::new(8);
        let half_beat = (mgg_fault::HEARTBEAT_PERIOD_NS / 2) as usize;
        for seed in [3u64, 77, 1009, 31415] {
            let spec = FaultSpec {
                seed,
                gpu_failures: 2,
                link_failures: 3,
                straggler: 3.0,
                ..FaultSpec::quiet()
            };
            let sched = FaultSchedule::derive(&spec, 8);
            let end = monitor.detection_horizon_ns(&sched).expect("permanent faults") + 20_000;
            let mut fast: Vec<Breaker> = (0..8).map(|s| Breaker::new(s, 2_000, 1.5)).collect();
            let mut slow = fast.clone();
            let (mut fast_log, mut slow_log) = (Vec::new(), Vec::new());
            for t in (0..=end).step_by(half_beat) {
                for (f, o) in fast.iter_mut().zip(&mut slow) {
                    let want = observe_verdict(o, &monitor, &sched, t);
                    assert_eq!(f.verdict(&monitor, &sched, t), want, "seed {seed} t {t}");
                    let dispatch = f.poll(&monitor, &sched, t, &mut fast_log);
                    assert_eq!(dispatch, o.step(want, t, &mut slow_log), "seed {seed} t {t}");
                }
            }
            assert_eq!(fast_log, slow_log, "seed {seed}");
            for g in sched.dead_gpus() {
                let opened = fast_log.iter().any(|tr| tr.shard == g && tr.to == BreakerState::Open);
                assert!(opened, "seed {seed}: dead shard {g}'s breaker never opened");
            }
        }
    }

    #[test]
    fn transitions_replay_identically() {
        let sched = straggler_sched(6, 3.0);
        let monitor = HealthMonitor::new(6);
        let run = || {
            let mut log = Vec::new();
            let mut breakers: Vec<Breaker> =
                (0..6).map(|s| Breaker::new(s, 50_000, 1.5)).collect();
            for t in (0..2_000_000u64).step_by(10_000) {
                for b in &mut breakers {
                    b.poll(&monitor, &sched, t, &mut log);
                }
            }
            log
        };
        assert_eq!(run(), run());
    }
}
