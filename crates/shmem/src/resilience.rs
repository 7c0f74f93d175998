//! Resilient one-sided operations: retry, timeout and completion checking.
//!
//! The plain [`crate::SymmetricRegion`] assumes a perfect
//! fabric: every GET returns and every non-blocking operation eventually
//! signals completion. Under an injected [`FaultSchedule`] that is no longer
//! true — a GET can be transiently dropped, an `_nbi` completion flag can be
//! lost. This module wraps the region with the recovery protocol a real
//! NVSHMEM-level resilience layer would implement:
//!
//! * dropped GETs are re-issued up to [`RetryPolicy::max_attempts`] times
//!   with a fixed backoff, then reported as [`ShmemError::GetFailed`];
//! * outstanding `_nbi` operations are tracked per PE and settled by
//!   [`ResilientRegion::quiet`], which detects lost completion signals by
//!   timeout instead of hanging;
//! * a permanently failed PE surfaces as [`ShmemError::PeDead`] within the
//!   bounded [`RetryPolicy::deadline_ns`] budget — total retry wall-time is
//!   capped by the deadline, not just by the attempt count, so no GET can
//!   wait on a dead peer forever.
//!
//! Everything is deterministic: the drop decisions come from the schedule's
//! stateless hash of (PE, serial), so the timing simulator in `mgg-sim` and
//! this functional layer make the same decision for a PE's `k`-th GET
//! without sharing state.

use std::fmt;

use mgg_fault::{FaultSchedule, COMPLETION_TIMEOUT_NS, PEER_DEATH_TIMEOUT_NS, RETRY_BACKOFF_NS};
use mgg_telemetry::Telemetry;

use crate::region::SymmetricRegion;

/// Failure of a resilient one-sided operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmemError {
    /// A GET kept being dropped past the retry budget.
    GetFailed {
        /// Source PE the GET targeted.
        pe: usize,
        /// Row within the source PE's region.
        row: u32,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// A row address outside the region.
    RowOutOfBounds {
        /// PE that was addressed.
        pe: usize,
        /// Requested row.
        row: u32,
        /// Rows the PE actually holds.
        rows: usize,
    },
    /// `quiet` found operations that could not be settled.
    IncompleteNbi {
        /// Issuing PE whose batch failed to drain.
        pe: usize,
        /// Operations still outstanding at the deadline.
        outstanding: u64,
    },
    /// The target PE failed permanently; the operation was abandoned after
    /// waiting out the bounded peer-death budget instead of retrying
    /// forever.
    PeDead {
        /// The dead PE.
        pe: usize,
        /// Simulated time spent waiting before abandoning.
        waited_ns: u64,
    },
}

impl fmt::Display for ShmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShmemError::GetFailed { pe, row, attempts } => {
                write!(f, "one-sided GET of row {row} from PE {pe} failed after {attempts} attempts")
            }
            ShmemError::RowOutOfBounds { pe, row, rows } => {
                write!(f, "row {row} out of bounds on PE {pe} (has {rows} rows)")
            }
            ShmemError::IncompleteNbi { pe, outstanding } => {
                write!(f, "{outstanding} non-blocking operations on PE {pe} never completed")
            }
            ShmemError::PeDead { pe, waited_ns } => {
                write!(f, "PE {pe} is permanently dead (abandoned after {waited_ns} ns)")
            }
        }
    }
}

impl std::error::Error for ShmemError {}

/// Retry/timeout budget of the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per GET (first try included).
    pub max_attempts: u32,
    /// Simulated backoff charged per retry, in nanoseconds.
    pub backoff_ns: u64,
    /// Deadline after which a lost `_nbi` completion is declared done.
    pub timeout_ns: u64,
    /// Hard cap on the *total* simulated wall-time one GET may spend in
    /// retry backoff. A permanently dead PE (or an attempt budget large
    /// enough to act like one) surfaces as [`ShmemError::PeDead`] within
    /// this budget instead of burning the whole attempt budget.
    pub deadline_ns: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            backoff_ns: RETRY_BACKOFF_NS,
            timeout_ns: COMPLETION_TIMEOUT_NS,
            deadline_ns: PEER_DEATH_TIMEOUT_NS,
        }
    }
}

/// Counters of what the resilience layer had to do.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// GETs issued through the layer.
    pub gets: u64,
    /// Re-issues after a transient drop.
    pub retries: u64,
    /// GETs that needed at least one retry but ultimately succeeded.
    pub recovered_gets: u64,
    /// Lost `_nbi` completions settled by timeout in `quiet`.
    pub timed_out_completions: u64,
    /// GETs abandoned with [`ShmemError::PeDead`] — either the target PE
    /// had a permanent failure scheduled, or retries hit the deadline.
    pub dead_peer_gets: u64,
    /// Simulated nanoseconds spent on backoff and timeouts.
    pub penalty_ns: u64,
}

/// A [`SymmetricRegion`] view whose one-sided operations survive the
/// transient failures of an installed [`FaultSchedule`].
///
/// With no schedule (or a quiet one) every operation degenerates to the
/// plain region call — same data, zero stats — so wrapping is free for
/// healthy runs.
///
/// ```
/// use mgg_fault::{FaultSchedule, FaultSpec};
/// use mgg_shmem::{ResilientRegion, SymmetricRegion};
///
/// // Two PEs, four rows each, two floats per row; one row of payload.
/// let mut region = SymmetricRegion::zeros(&[4, 4], 2);
/// region.put(&[1.0, 2.0], 1, 3);
///
/// // A lossy fabric: 20% of one-sided GETs are transiently dropped.
/// let spec = FaultSpec { seed: 7, drop_rate: 0.2, ..FaultSpec::quiet() };
/// let schedule = FaultSchedule::derive(&spec, 2);
/// let mut resilient = ResilientRegion::new(&region, Some(&schedule));
///
/// // The GET retries dropped attempts transparently; data is always exact.
/// let mut dst = [0.0f32; 2];
/// let attempts = resilient.get(&mut dst, 0, 1, 3)?;
/// assert_eq!(dst, [1.0, 2.0]);
/// assert!(attempts >= 1);
/// assert_eq!(resilient.stats().gets, 1);
/// # Ok::<(), mgg_shmem::ShmemError>(())
/// ```
#[derive(Debug)]
pub struct ResilientRegion<'a> {
    region: &'a SymmetricRegion,
    faults: Option<&'a FaultSchedule>,
    policy: RetryPolicy,
    /// Per-PE serial counter of issued GETs. Drop decisions are a pure
    /// function of (PE, serial), so a plane that issues as many GETs per PE
    /// as the simulator drops as *many* — not the same operations: the
    /// simulator numbers GETs in simulated issue order, the engine's value
    /// plane in edge order.
    serial: Vec<u64>,
    /// Per-PE outstanding `_nbi` completions awaiting `quiet`, with their
    /// drop decision.
    outstanding: Vec<Vec<bool>>,
    stats: ResilienceStats,
    telemetry: Telemetry,
    /// Watermark of what `stats` looked like at the last telemetry flush;
    /// per-op paths never touch the recorder lock, [`Self::flush_telemetry`]
    /// pushes the delta in one batched acquisition.
    flushed: ResilienceStats,
    /// GETs that exhausted the attempt budget (`shmem.failed_gets`); not
    /// part of [`ResilienceStats`], so tracked beside it.
    failed_gets: u64,
    flushed_failed_gets: u64,
}

impl<'a> ResilientRegion<'a> {
    /// Wraps `region`, consulting `faults` for drop decisions.
    pub fn new(region: &'a SymmetricRegion, faults: Option<&'a FaultSchedule>) -> Self {
        Self::with_policy(region, faults, RetryPolicy::default())
    }

    /// Wraps with an explicit retry budget.
    pub fn with_policy(
        region: &'a SymmetricRegion,
        faults: Option<&'a FaultSchedule>,
        policy: RetryPolicy,
    ) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        let pes = region.num_pes();
        ResilientRegion {
            region,
            faults,
            policy,
            serial: vec![0; pes],
            outstanding: vec![Vec::new(); pes],
            stats: ResilienceStats::default(),
            telemetry: Telemetry::disabled(),
            flushed: ResilienceStats::default(),
            failed_gets: 0,
            flushed_failed_gets: 0,
        }
    }

    /// Attaches a telemetry sink: GET/retry/timeout accounting flows into
    /// its counters (`shmem.*`) alongside the local stats. Counters are
    /// flushed as batched deltas at [`ResilientRegion::quiet`] /
    /// [`ResilientRegion::flush_telemetry`] / drop rather than per
    /// operation, so the per-remote-edge hot path never contends on the
    /// recorder mutex; final counter values are identical either way
    /// (counter addition is commutative).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Pushes the stats delta accumulated since the last flush into the
    /// attached telemetry under a single recorder lock. Called
    /// automatically by [`ResilientRegion::quiet`] and on drop.
    pub fn flush_telemetry(&mut self) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let d = |now: u64, then: u64| now - then;
        let mut batch = self.telemetry.batch();
        for (name, now, then) in [
            ("shmem.gets", self.stats.gets, self.flushed.gets),
            ("shmem.retries", self.stats.retries, self.flushed.retries),
            ("shmem.timeouts", self.stats.timed_out_completions, self.flushed.timed_out_completions),
            ("shmem.dead_peer_gets", self.stats.dead_peer_gets, self.flushed.dead_peer_gets),
            ("shmem.penalty_ns", self.stats.penalty_ns, self.flushed.penalty_ns),
            ("shmem.failed_gets", self.failed_gets, self.flushed_failed_gets),
        ] {
            if d(now, then) > 0 {
                batch.counter_add(name, d(now, then));
            }
        }
        batch.flush();
        self.flushed = self.stats;
        self.flushed_failed_gets = self.failed_gets;
    }

    /// Blocking resilient GET: copies row `(src_pe, src_row)` into `dst`,
    /// retrying transient drops. Returns the number of attempts used.
    pub fn get(
        &mut self,
        dst: &mut [f32],
        issuing_pe: usize,
        src_pe: usize,
        src_row: u32,
    ) -> Result<u32, ShmemError> {
        self.check_row(src_pe, src_row)?;
        self.stats.gets += 1;
        if self.pe_dead(src_pe) {
            return Err(self.abandon_dead(src_pe, self.policy.deadline_ns));
        }
        let mut attempts = 0;
        let mut waited_ns = 0u64;
        while attempts < self.policy.max_attempts {
            let dropped = self.next_drop(issuing_pe).0;
            attempts += 1;
            if !dropped {
                if attempts > 1 {
                    self.stats.recovered_gets += 1;
                }
                self.region.get(dst, src_pe, src_row);
                return Ok(attempts);
            }
            self.stats.retries += 1;
            self.stats.penalty_ns += self.policy.backoff_ns;
            waited_ns += self.policy.backoff_ns;
            if waited_ns >= self.policy.deadline_ns {
                // The attempt budget alone would keep retrying; past the
                // wall-time deadline an unresponsive PE is declared dead
                // rather than distinguished from an unlucky drop streak.
                return Err(self.abandon_dead(src_pe, waited_ns));
            }
        }
        self.failed_gets += 1;
        Err(ShmemError::GetFailed { pe: src_pe, row: src_row, attempts })
    }

    /// Non-blocking resilient GET: the copy happens immediately (the data
    /// plane is functional), but completion is only guaranteed after
    /// [`ResilientRegion::quiet`] settles it.
    pub fn get_nbi(
        &mut self,
        dst: &mut [f32],
        issuing_pe: usize,
        src_pe: usize,
        src_row: u32,
    ) -> Result<(), ShmemError> {
        self.check_row(src_pe, src_row)?;
        self.stats.gets += 1;
        if self.pe_dead(src_pe) {
            return Err(self.abandon_dead(src_pe, self.policy.deadline_ns));
        }
        let (dropped, completion_lost) = self.next_drop(issuing_pe);
        if dropped {
            // A dropped nbi GET is re-issued inline (one-sided ops have no
            // target-side state to clean up).
            self.stats.retries += 1;
            self.stats.recovered_gets += 1;
            self.stats.penalty_ns += self.policy.backoff_ns;
        }
        self.region.get(dst, src_pe, src_row);
        self.outstanding[issuing_pe].push(completion_lost);
        Ok(())
    }

    /// Settles all outstanding non-blocking operations of `issuing_pe`
    /// (mirrors `nvshmem_quiet`). Lost completion signals are detected by
    /// timeout and charged to the penalty counter.
    pub fn quiet(&mut self, issuing_pe: usize) -> Result<(), ShmemError> {
        for completion_lost in self.outstanding[issuing_pe].drain(..) {
            if completion_lost {
                self.stats.timed_out_completions += 1;
                self.stats.penalty_ns += self.policy.timeout_ns;
            }
        }
        self.flush_telemetry();
        Ok(())
    }

    /// Outstanding non-blocking operations of `pe` not yet settled.
    pub fn outstanding(&self, pe: usize) -> usize {
        self.outstanding[pe].len()
    }

    /// What the layer has done so far.
    pub fn stats(&self) -> ResilienceStats {
        self.stats
    }

    fn check_row(&self, pe: usize, row: u32) -> Result<(), ShmemError> {
        let rows = self.region.rows_on(pe);
        if (row as usize) < rows {
            Ok(())
        } else {
            Err(ShmemError::RowOutOfBounds { pe, row, rows })
        }
    }

    /// Whether `pe` has a permanent failure scheduled. The functional data
    /// plane is timeless, so a PE that dies at *any* point of the run serves
    /// no data here — the timing plane decides which in-flight operations
    /// beat the failure; this plane guarantees none of them hangs.
    fn pe_dead(&self, pe: usize) -> bool {
        self.faults.is_some_and(|s| s.gpu_dead_at(pe).is_some())
    }

    /// Records the bounded abandonment of an operation on a dead PE and
    /// builds the error for it.
    fn abandon_dead(&mut self, pe: usize, waited_ns: u64) -> ShmemError {
        self.stats.dead_peer_gets += 1;
        self.stats.penalty_ns += waited_ns;
        ShmemError::PeDead { pe, waited_ns }
    }

    /// Advances `pe`'s serial counter and returns (get dropped, completion
    /// lost) for that serial.
    fn next_drop(&mut self, pe: usize) -> (bool, bool) {
        let Some(s) = self.faults else { return (false, false) };
        let serial = self.serial[pe];
        self.serial[pe] += 1;
        (s.drops_get(pe, serial), s.drops_completion(pe, serial))
    }
}

impl Drop for ResilientRegion<'_> {
    /// Final telemetry flush: error paths that never reach `quiet` (failed
    /// or abandoned GETs) still land in the counters.
    fn drop(&mut self) {
        self.flush_telemetry();
    }
}

#[cfg(test)]
mod tests {
    use mgg_fault::FaultSpec;

    use super::*;

    fn region() -> SymmetricRegion {
        let matrix: Vec<f32> = (0..16).map(|x| x as f32).collect();
        SymmetricRegion::scatter_rows(&matrix, &[2, 2], 4)
    }

    #[test]
    fn no_faults_is_a_plain_get() {
        let r = region();
        let mut res = ResilientRegion::new(&r, None);
        let mut dst = [0.0f32; 4];
        let attempts = res.get(&mut dst, 0, 1, 0).unwrap();
        assert_eq!(attempts, 1);
        assert_eq!(dst, [8.0, 9.0, 10.0, 11.0]);
        assert_eq!(res.stats(), ResilienceStats { gets: 1, ..Default::default() });
    }

    #[test]
    fn drops_are_retried_and_data_is_exact() {
        let r = region();
        let spec = FaultSpec { seed: 123, drop_rate: 0.4, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let mut res = ResilientRegion::new(&r, Some(&sched));
        let mut dst = [0.0f32; 4];
        // Enough GETs that a 40% drop rate must force retries.
        for i in 0..64 {
            let row = i % 2;
            res.get(&mut dst, 0, 1, row).unwrap();
            assert_eq!(dst[0], (8 + 4 * row) as f32, "retried GET must return true data");
        }
        let s = res.stats();
        assert!(s.retries > 0, "40% drop rate over 64 GETs must retry");
        assert_eq!(s.gets, 64);
        assert!(s.recovered_gets > 0 && s.recovered_gets <= s.retries);
        assert!(s.penalty_ns >= s.retries * RETRY_BACKOFF_NS);
    }

    #[test]
    fn retry_budget_exhaustion_reports() {
        let r = region();
        // drop_rate just below 1.0: with 2 attempts some GET fails fast.
        let spec = FaultSpec { seed: 7, drop_rate: 0.99, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let policy = RetryPolicy { max_attempts: 2, ..RetryPolicy::default() };
        let mut res = ResilientRegion::with_policy(&r, Some(&sched), policy);
        let mut dst = [0.0f32; 4];
        let mut failed = false;
        for _ in 0..32 {
            if let Err(ShmemError::GetFailed { pe, attempts, .. }) = res.get(&mut dst, 0, 1, 0) {
                assert_eq!(pe, 1);
                assert_eq!(attempts, 2);
                failed = true;
                break;
            }
        }
        assert!(failed, "a 99% drop rate must exhaust a 2-attempt budget");
    }

    #[test]
    fn nbi_completions_settle_in_quiet() {
        let r = region();
        let spec = FaultSpec { seed: 99, drop_rate: 0.5, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let mut res = ResilientRegion::new(&r, Some(&sched));
        let mut dst = [0.0f32; 4];
        for i in 0..32 {
            res.get_nbi(&mut dst, 0, 1, i % 2).unwrap();
        }
        assert_eq!(res.outstanding(0), 32);
        res.quiet(0).unwrap();
        assert_eq!(res.outstanding(0), 0);
        let s = res.stats();
        assert!(s.timed_out_completions > 0, "50% completion loss must time out");
        assert!(s.penalty_ns > 0);
    }

    #[test]
    fn dead_pe_surfaces_within_the_deadline_budget() {
        let r = region();
        // PE 1 fails permanently mid-run; the data plane abandons every GET
        // targeting it after exactly the peer-death budget — never a hang.
        let sched = FaultSchedule::gpu_failure(2, 1, 2_000);
        let mut res = ResilientRegion::new(&r, Some(&sched));
        let mut dst = [0.0f32; 4];
        assert_eq!(
            res.get(&mut dst, 0, 1, 0),
            Err(ShmemError::PeDead { pe: 1, waited_ns: PEER_DEATH_TIMEOUT_NS })
        );
        assert_eq!(
            res.get_nbi(&mut dst, 0, 1, 0),
            Err(ShmemError::PeDead { pe: 1, waited_ns: PEER_DEATH_TIMEOUT_NS })
        );
        assert_eq!(res.outstanding(0), 0, "an abandoned nbi GET must not await quiet");
        let s = res.stats();
        assert_eq!(s.dead_peer_gets, 2);
        assert_eq!(s.penalty_ns, 2 * PEER_DEATH_TIMEOUT_NS);
        // The surviving PE still serves data normally.
        let attempts = res.get(&mut dst, 1, 0, 0).unwrap();
        assert_eq!(attempts, 1);
        assert_eq!(dst, [0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn retry_wall_time_is_capped_by_the_deadline() {
        let r = region();
        let spec = FaultSpec { seed: 7, drop_rate: 0.99, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        // A huge attempt budget that would act like an infinite loop on a
        // dead peer: the wall-time deadline must cut it off first.
        let policy = RetryPolicy {
            max_attempts: 1_000,
            backoff_ns: 500,
            deadline_ns: 2_000,
            ..RetryPolicy::default()
        };
        let mut res = ResilientRegion::with_policy(&r, Some(&sched), policy);
        let mut dst = [0.0f32; 4];
        let mut abandoned = false;
        for _ in 0..32 {
            if let Err(ShmemError::PeDead { pe, waited_ns }) = res.get(&mut dst, 0, 1, 0) {
                assert_eq!(pe, 1);
                assert!(
                    waited_ns >= policy.deadline_ns
                        && waited_ns < policy.deadline_ns + policy.backoff_ns,
                    "abandonment must land on the first backoff past the deadline, \
                     got {waited_ns}"
                );
                abandoned = true;
                break;
            }
        }
        assert!(abandoned, "a 99% drop rate must hit the wall-time deadline");
    }

    #[test]
    fn telemetry_counters_mirror_stats() {
        let r = region();
        let spec = FaultSpec { seed: 123, drop_rate: 0.4, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let tel = Telemetry::enabled();
        let mut res = ResilientRegion::new(&r, Some(&sched)).with_telemetry(tel.clone());
        let mut dst = [0.0f32; 4];
        for i in 0..32 {
            let _ = res.get(&mut dst, 0, 1, i % 2);
            res.get_nbi(&mut dst, 0, 1, i % 2).unwrap();
        }
        res.quiet(0).unwrap();
        let s = res.stats();
        assert_eq!(tel.counter_value("shmem.gets"), s.gets);
        assert_eq!(tel.counter_value("shmem.retries"), s.retries);
        assert_eq!(tel.counter_value("shmem.timeouts"), s.timed_out_completions);
        assert_eq!(tel.counter_value("shmem.penalty_ns"), s.penalty_ns);
        // A second flush with no new activity adds nothing (delta is 0).
        res.flush_telemetry();
        assert_eq!(tel.counter_value("shmem.gets"), s.gets);
    }

    #[test]
    fn drop_flushes_counters_without_quiet() {
        let r = region();
        let spec = FaultSpec { seed: 9, drop_rate: 0.3, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 2);
        let tel = Telemetry::enabled();
        let expected = {
            let mut res = ResilientRegion::new(&r, Some(&sched)).with_telemetry(tel.clone());
            let mut dst = [0.0f32; 4];
            for i in 0..16 {
                let _ = res.get(&mut dst, 0, 1, i % 2);
            }
            // No quiet(): the hot path has not touched the recorder yet.
            assert_eq!(tel.counter_value("shmem.gets"), 0);
            res.stats()
        };
        assert_eq!(tel.counter_value("shmem.gets"), expected.gets);
        assert_eq!(tel.counter_value("shmem.retries"), expected.retries);
        assert_eq!(tel.counter_value("shmem.penalty_ns"), expected.penalty_ns);
    }

    #[test]
    fn out_of_bounds_is_an_error_not_a_panic() {
        let r = region();
        let mut res = ResilientRegion::new(&r, None);
        let mut dst = [0.0f32; 4];
        assert_eq!(
            res.get(&mut dst, 0, 1, 9),
            Err(ShmemError::RowOutOfBounds { pe: 1, row: 9, rows: 2 })
        );
    }

    #[test]
    fn errors_display() {
        let e = ShmemError::GetFailed { pe: 1, row: 3, attempts: 4 };
        assert!(e.to_string().contains("after 4 attempts"));
        let e = ShmemError::IncompleteNbi { pe: 0, outstanding: 7 };
        assert!(e.to_string().contains("7 non-blocking"));
        let e = ShmemError::PeDead { pe: 2, waited_ns: 5_000 };
        assert!(e.to_string().contains("permanently dead"));
    }
}

#[cfg(test)]
mod proptests {
    use mgg_fault::FaultSpec;
    use proptest::prelude::*;

    use super::*;

    proptest! {
        /// Whatever the fault scenario, a successful resilient GET returns
        /// exactly the plain region's data: faults perturb timing and
        /// effort, never values.
        #[test]
        fn recovered_data_is_bit_exact(
            seed in 0u64..500,
            drop_rate in 0.0f64..0.6,
            dim in 1usize..8,
            rows in 1u32..6,
        ) {
            let pes = 3usize;
            let total = pes * rows as usize;
            let matrix: Vec<f32> = (0..total * dim).map(|i| i as f32 * 0.25).collect();
            let region = SymmetricRegion::scatter_rows(&matrix, &vec![rows as usize; pes], dim);
            let spec = FaultSpec { seed, drop_rate, ..FaultSpec::quiet() };
            let sched = FaultSchedule::derive(&spec, pes);
            let mut res = ResilientRegion::new(&region, Some(&sched));
            let mut dst = vec![0.0f32; dim];
            for pe in 0..pes {
                for row in 0..rows {
                    if res.get(&mut dst, (pe + 1) % pes, pe, row).is_ok() {
                        prop_assert_eq!(&dst[..], region.row(pe, row));
                    }
                }
            }
        }
    }
}
