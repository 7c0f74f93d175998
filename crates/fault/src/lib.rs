//! Seed-driven deterministic fault injection for the MGG simulator.
//!
//! Real multi-GPU platforms degrade in ways the paper's evaluation machines
//! did not: NVLink lanes drop to half rate after a correctable-error storm,
//! one GPU is thermally throttled, a one-sided GET is victim to a transient
//! fabric fault and must be retried. This crate models those failure classes
//! *deterministically*: a [`FaultSpec`] (four scalar knobs plus a `u64`
//! seed) expands into a concrete [`FaultSchedule`] — per-GPU link
//! degradation windows, per-GPU compute slowdowns, and a stateless
//! drop-decision function for one-sided operations — derived purely from
//! the seed, so every run replays identically.
//!
//! Faults perturb *timing only*. The functional data plane (what values an
//! aggregation produces) is never corrupted; a dropped GET is re-issued and
//! the retry returns the true data, it just arrives later. This keeps the
//! simulator's core invariant: identical inputs give identical outputs.
//!
//! The crate is dependency-free (`serde` aside) so that `mgg-sim` can take
//! it as a dependency without cycles.

#![deny(missing_docs)]

use serde::Serialize;

/// Backoff charged before re-issuing a dropped one-sided GET, in
/// nanoseconds. Models the detection + re-issue path of a resilient
/// communication layer (sequence-number check plus a fresh descriptor).
pub const RETRY_BACKOFF_NS: u64 = 500;

/// Time after which an un-signalled non-blocking operation is declared
/// complete by timeout, in nanoseconds. Models a `quiet`/`wait_until`
/// deadline on a lost completion flag.
pub const COMPLETION_TIMEOUT_NS: u64 = 2_000;

/// Period of the failover health monitor's simulated heartbeat probes, in
/// nanoseconds. Each GPU is probed over the fabric once per period.
pub const HEARTBEAT_PERIOD_NS: u64 = 1_000;

/// Deadline after which an operation targeting a permanently dead peer is
/// abandoned instead of retried, in nanoseconds. Bounds the detection cost
/// of any single GET: a dead PE surfaces as an error within this budget,
/// never as a hang.
pub const PEER_DEATH_TIMEOUT_NS: u64 = 5_000;

/// User-facing fault knobs. All default to the "quiet" values, under which
/// the derived schedule injects nothing and the simulation is bit-identical
/// to a run without any fault layer installed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FaultSpec {
    /// Seed from which every schedule decision is derived.
    pub seed: u64,
    /// Bandwidth multiplier applied to degraded links during fault windows,
    /// in `(0, 1]`. `1.0` disables link degradation.
    pub link_degrade: f64,
    /// Compute slowdown factor of straggler GPUs, `>= 1.0`. `1.0` disables
    /// stragglers.
    pub straggler: f64,
    /// Probability that a one-sided GET (or its completion signal) is
    /// transiently dropped, in `[0, 1)`. `0.0` disables drops.
    pub drop_rate: f64,
    /// Number of GPUs that fail permanently at a seed-derived instant
    /// (clamped to the cluster size at derivation). `0` disables.
    pub gpu_failures: u32,
    /// Number of links that go down permanently at a seed-derived instant
    /// (clamped to the number of unordered pairs). `0` disables.
    pub link_failures: u32,
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec {
            seed: 0,
            link_degrade: 1.0,
            straggler: 1.0,
            drop_rate: 0.0,
            gpu_failures: 0,
            link_failures: 0,
        }
    }
}

impl FaultSpec {
    /// The no-fault spec (same as `Default`).
    pub fn quiet() -> Self {
        Self::default()
    }

    /// True when no fault class is enabled.
    pub fn is_quiet(&self) -> bool {
        self.link_degrade >= 1.0
            && self.straggler <= 1.0
            && self.drop_rate <= 0.0
            && self.gpu_failures == 0
            && self.link_failures == 0
    }

    /// Checks the knobs are inside their documented domains.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.link_degrade > 0.0 && self.link_degrade <= 1.0) {
            return Err(format!(
                "link_degrade must be in (0, 1], got {}",
                self.link_degrade
            ));
        }
        if self.straggler < 1.0 || self.straggler.is_nan() {
            return Err(format!("straggler must be >= 1.0, got {}", self.straggler));
        }
        if !(0.0..1.0).contains(&self.drop_rate) {
            return Err(format!("drop_rate must be in [0, 1), got {}", self.drop_rate));
        }
        Ok(())
    }
}

/// One interval during which a link's bandwidth is degraded and its
/// latency jitters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct LinkFaultWindow {
    /// Window start (inclusive), in simulated nanoseconds.
    pub start_ns: u64,
    /// Window end (exclusive), in simulated nanoseconds.
    pub end_ns: u64,
    /// Bandwidth multiplier in `(0, 1]` while the window is active.
    pub bw_multiplier: f64,
    /// Extra per-transfer latency while the window is active.
    pub jitter_ns: u64,
}

/// A failure with no recovery window: the component stays down for the
/// rest of the run. Unlike [`LinkFaultWindow`] degradation (which ends),
/// permanent faults can only be handled by re-routing, evacuating the
/// dead GPU's shard, or degrading to the UVM path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PermanentFault {
    /// GPU `gpu` dies at `at_ns`: its warps halt, its memory becomes
    /// unreachable, and operations targeting it fail after a bounded
    /// detection timeout.
    GpuFailure {
        /// The GPU that dies.
        gpu: usize,
        /// Simulated time of death in nanoseconds.
        at_ns: u64,
    },
    /// The (unordered) link between `src` and `dst` goes down at `at_ns`;
    /// traffic between the pair must be re-routed or host-staged.
    LinkDown {
        /// One endpoint of the dead link.
        src: usize,
        /// The other endpoint.
        dst: usize,
        /// Simulated time the link drops, in nanoseconds.
        at_ns: u64,
    },
}

impl PermanentFault {
    /// The instant the component fails, in simulated nanoseconds.
    pub fn at_ns(&self) -> u64 {
        match *self {
            PermanentFault::GpuFailure { at_ns, .. } => at_ns,
            PermanentFault::LinkDown { at_ns, .. } => at_ns,
        }
    }
}

// Distinct stream constants decorrelate the schedule's sub-decisions, so
// turning one knob never shifts another knob's draws.
const STREAM_LINK: u64 = 0x6c69_6e6b_6465_6772; // "linkdegr"
const STREAM_STRAGGLER: u64 = 0x7374_7261_6767_6c65; // "straggle"
const STREAM_DROP_GET: u64 = 0x6472_6f70_5f67_6574; // "drop_get"
const STREAM_DROP_NBI: u64 = 0x6472_6f70_5f6e_6269; // "drop_nbi"
const STREAM_GPU_FAIL: u64 = 0x6770_755f_6661_696c; // "gpu_fail"
const STREAM_LINK_FAIL: u64 = 0x6c69_6e6b_6661_696c; // "linkfail"

/// SplitMix64 step: advances `state` and returns the next draw.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    mix64(*state)
}

/// The SplitMix64 output finalizer, also used as a stateless hash.
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws a uniform value in `[0, n)` (multiply-shift; `n` is tiny here so
/// the modulo bias of simpler schemes would be negligible anyway).
fn below(state: &mut u64, n: u64) -> u64 {
    ((splitmix64(state) as u128 * n as u128) >> 64) as u64
}

/// Maps a hash to a uniform `f64` in `[0, 1)` using its top 53 bits.
fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// A concrete, fully materialized fault scenario for `num_gpus` GPUs.
///
/// Derived from a [`FaultSpec`] by [`FaultSchedule::derive`], or built
/// manually (e.g. [`FaultSchedule::link_outage`]) for pinned test
/// scenarios. Timing hooks in `mgg-sim` query it, and its drop decisions
/// are pure functions, so a test can replay exactly *which* operations
/// failed without running the simulator.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    spec: FaultSpec,
    /// Per-GPU link degradation windows (empty for healthy GPUs).
    link_windows: Vec<Vec<LinkFaultWindow>>,
    /// Per-GPU compute slowdown (1.0 for non-stragglers).
    compute_scale: Vec<f64>,
    /// Permanent GPU and link failures (empty for recoverable scenarios).
    permanent: Vec<PermanentFault>,
}

impl FaultSchedule {
    /// Expands `spec` into a concrete schedule for `num_gpus` GPUs. The
    /// same `(spec, num_gpus)` always yields the same schedule.
    pub fn derive(spec: &FaultSpec, num_gpus: usize) -> Self {
        let mut sched = Self::quiet_for(*spec, num_gpus);
        if num_gpus == 0 {
            return sched;
        }
        if spec.link_degrade < 1.0 {
            let mut st = spec.seed ^ STREAM_LINK;
            // A quarter of the GPUs (at least one) see degraded links.
            let degraded = pick_distinct(&mut st, num_gpus, (num_gpus / 4).max(1));
            for gpu in degraded {
                let mut windows = Vec::with_capacity(2);
                let start = below(&mut st, 2_048);
                let dur = 8_192 + below(&mut st, 24_576);
                let jitter = below(&mut st, 33);
                windows.push(LinkFaultWindow {
                    start_ns: start,
                    end_ns: start + dur,
                    bw_multiplier: spec.link_degrade,
                    jitter_ns: jitter,
                });
                // A second flap later on, so long kernels see recurrence.
                let gap = 4_096 + below(&mut st, 12_288);
                let start2 = start + dur + gap;
                let dur2 = 8_192 + below(&mut st, 24_576);
                windows.push(LinkFaultWindow {
                    start_ns: start2,
                    end_ns: start2 + dur2,
                    bw_multiplier: spec.link_degrade,
                    jitter_ns: jitter,
                });
                sched.link_windows[gpu] = windows;
            }
        }
        if spec.straggler > 1.0 {
            let mut st = spec.seed ^ STREAM_STRAGGLER;
            for gpu in pick_distinct(&mut st, num_gpus, (num_gpus / 8).max(1)) {
                sched.compute_scale[gpu] = spec.straggler;
            }
        }
        if spec.gpu_failures > 0 {
            let mut st = spec.seed ^ STREAM_GPU_FAIL;
            let k = (spec.gpu_failures as usize).min(num_gpus);
            for gpu in pick_distinct(&mut st, num_gpus, k) {
                let at_ns = 1_000 + below(&mut st, 14_336);
                sched.permanent.push(PermanentFault::GpuFailure { gpu, at_ns });
            }
        }
        if spec.link_failures > 0 && num_gpus >= 2 {
            let mut st = spec.seed ^ STREAM_LINK_FAIL;
            let pairs = num_gpus * (num_gpus - 1) / 2;
            let k = (spec.link_failures as usize).min(pairs);
            for idx in pick_distinct(&mut st, pairs, k) {
                let (src, dst) = unordered_pair(idx, num_gpus);
                let at_ns = 500 + below(&mut st, 14_336);
                sched.permanent.push(PermanentFault::LinkDown { src, dst, at_ns });
            }
        }
        sched
    }

    /// A schedule that injects nothing (used when faults are disabled but a
    /// schedule object is structurally required).
    pub fn quiet(num_gpus: usize) -> Self {
        Self::quiet_for(FaultSpec::quiet(), num_gpus)
    }

    fn quiet_for(spec: FaultSpec, num_gpus: usize) -> Self {
        FaultSchedule {
            spec,
            link_windows: vec![Vec::new(); num_gpus],
            compute_scale: vec![1.0; num_gpus],
            permanent: Vec::new(),
        }
    }

    /// Builds a pinned scenario: one GPU's links degraded over one fixed
    /// window, nothing else. Used by golden tests so recovery counters are
    /// reproducible independent of the seed-derivation policy.
    pub fn link_outage(
        num_gpus: usize,
        gpu: usize,
        window: LinkFaultWindow,
    ) -> Self {
        assert!(gpu < num_gpus, "GPU {gpu} out of range for {num_gpus} GPUs");
        let mut spec = FaultSpec::quiet();
        spec.link_degrade = window.bw_multiplier;
        let mut sched = Self::quiet_for(spec, num_gpus);
        sched.link_windows[gpu] = vec![window];
        sched
    }

    /// Builds a pinned scenario: one GPU fails permanently at `at_ns`,
    /// nothing else. Used by failover goldens and the CLI's
    /// `--fault-gpu-fail` flag.
    pub fn gpu_failure(num_gpus: usize, gpu: usize, at_ns: u64) -> Self {
        assert!(gpu < num_gpus, "GPU {gpu} out of range for {num_gpus} GPUs");
        let mut spec = FaultSpec::quiet();
        spec.gpu_failures = 1;
        let mut sched = Self::quiet_for(spec, num_gpus);
        sched.permanent.push(PermanentFault::GpuFailure { gpu, at_ns });
        sched
    }

    /// Builds a pinned scenario: the `(src, dst)` link goes down
    /// permanently at `at_ns`, nothing else.
    pub fn link_down(num_gpus: usize, src: usize, dst: usize, at_ns: u64) -> Self {
        assert!(src < num_gpus && dst < num_gpus && src != dst, "bad link ({src}, {dst})");
        let mut spec = FaultSpec::quiet();
        spec.link_failures = 1;
        let mut sched = Self::quiet_for(spec, num_gpus);
        sched.permanent.push(PermanentFault::LinkDown { src, dst, at_ns });
        sched
    }

    /// Appends a permanent fault to the schedule (chainable; used by the
    /// CLI to combine pinned failures with seed-derived transients).
    pub fn with_permanent(mut self, fault: PermanentFault) -> Self {
        match fault {
            PermanentFault::GpuFailure { gpu, .. } => {
                assert!(gpu < self.num_gpus(), "GPU {gpu} out of range");
            }
            PermanentFault::LinkDown { src, dst, .. } => {
                assert!(
                    src < self.num_gpus() && dst < self.num_gpus() && src != dst,
                    "bad link ({src}, {dst})"
                );
            }
        }
        self.permanent.push(fault);
        self
    }

    /// The spec this schedule was derived from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Number of GPUs the schedule covers.
    pub fn num_gpus(&self) -> usize {
        self.compute_scale.len()
    }

    /// True when the schedule injects nothing at all.
    pub fn is_quiet(&self) -> bool {
        self.spec.drop_rate <= 0.0
            && self.link_windows.iter().all(Vec::is_empty)
            && self.compute_scale.iter().all(|&s| s == 1.0)
            && self.permanent.is_empty()
    }

    /// All permanent faults of this schedule, in derivation order.
    pub fn permanent(&self) -> &[PermanentFault] {
        &self.permanent
    }

    /// True when the schedule contains any permanent GPU or link failure.
    pub fn has_permanent(&self) -> bool {
        !self.permanent.is_empty()
    }

    /// When `gpu` dies permanently, if ever (earliest failure wins).
    pub fn gpu_dead_at(&self, gpu: usize) -> Option<u64> {
        self.permanent
            .iter()
            .filter_map(|f| match *f {
                PermanentFault::GpuFailure { gpu: g, at_ns } if g == gpu => Some(at_ns),
                _ => None,
            })
            .min()
    }

    /// When the unordered link `(a, b)` goes down permanently, if ever.
    /// A link also counts as down once either endpoint GPU has died.
    pub fn link_dead_at(&self, a: usize, b: usize) -> Option<u64> {
        self.permanent
            .iter()
            .filter_map(|f| match *f {
                PermanentFault::LinkDown { src, dst, at_ns }
                    if (src, dst) == (a, b) || (src, dst) == (b, a) =>
                {
                    Some(at_ns)
                }
                PermanentFault::GpuFailure { gpu, at_ns } if gpu == a || gpu == b => {
                    Some(at_ns)
                }
                _ => None,
            })
            .min()
    }

    /// GPUs that die permanently at some point, in ascending order.
    pub fn dead_gpus(&self) -> Vec<usize> {
        let mut dead: Vec<usize> = self
            .permanent
            .iter()
            .filter_map(|f| match *f {
                PermanentFault::GpuFailure { gpu, .. } => Some(gpu),
                _ => None,
            })
            .collect();
        dead.sort_unstable();
        dead.dedup();
        dead
    }

    /// The earliest permanent failure instant, if any.
    pub fn first_failure_ns(&self) -> Option<u64> {
        self.permanent.iter().map(PermanentFault::at_ns).min()
    }

    /// Link degradation windows of `gpu` (empty when healthy).
    pub fn link_windows(&self, gpu: usize) -> &[LinkFaultWindow] {
        &self.link_windows[gpu]
    }

    /// Compute slowdown of `gpu` (1.0 when not a straggler).
    pub fn compute_scale(&self, gpu: usize) -> f64 {
        self.compute_scale[gpu]
    }

    /// Whether the `serial`-th one-sided GET issued by `pe` is transiently
    /// dropped. Stateless: the (seed, pe, serial) triple fully determines
    /// the outcome, so anyone holding the schedule can replay the timing
    /// simulator's decisions without sharing its state.
    pub fn drops_get(&self, pe: usize, serial: u64) -> bool {
        self.drops(STREAM_DROP_GET, pe, serial)
    }

    /// Whether the completion signal of the `serial`-th non-blocking GET
    /// issued by `pe` is lost (the data arrives; the flag does not).
    pub fn drops_completion(&self, pe: usize, serial: u64) -> bool {
        self.drops(STREAM_DROP_NBI, pe, serial)
    }

    fn drops(&self, stream: u64, pe: usize, serial: u64) -> bool {
        if self.spec.drop_rate <= 0.0 {
            return false;
        }
        let h = mix64(
            self.spec.seed ^ stream ^ mix64((pe as u64) << 32 ^ serial),
        );
        unit_f64(h) < self.spec.drop_rate
    }

    /// Effective health of `gpu` in `(0, 1]`: the product of its worst
    /// link multiplier and the inverse of its compute slowdown. Used by
    /// the engine as a re-planning capacity weight.
    pub fn health(&self, gpu: usize) -> f64 {
        let link = self.link_windows[gpu]
            .iter()
            .map(|w| w.bw_multiplier)
            .fold(1.0_f64, f64::min);
        link / self.compute_scale[gpu]
    }

    /// GPUs whose health is below 1.0, i.e. touched by any fault class
    /// other than transient drops.
    pub fn impaired_gpus(&self) -> Vec<usize> {
        (0..self.num_gpus()).filter(|&g| self.health(g) < 1.0).collect()
    }
}

/// Decodes pair index `idx` into the `idx`-th unordered pair `(a, b)` with
/// `a < b` of `0..n` in lexicographic order: (0,1), (0,2), .., (1,2), ..
fn unordered_pair(idx: usize, n: usize) -> (usize, usize) {
    debug_assert!(n >= 2 && idx < n * (n - 1) / 2);
    let mut remaining = idx;
    for a in 0..n - 1 {
        let row = n - 1 - a;
        if remaining < row {
            return (a, a + 1 + remaining);
        }
        remaining -= row;
    }
    unreachable!("pair index {idx} out of range for {n} GPUs")
}

/// Picks `k` distinct values from `0..n`, deterministically from `state`
/// (partial Fisher-Yates).
fn pick_distinct(state: &mut u64, n: usize, k: usize) -> Vec<usize> {
    let mut pool: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = i + below(state, (n - i) as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(k);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_spec_derives_quiet_schedule() {
        let sched = FaultSchedule::derive(&FaultSpec::quiet(), 8);
        assert!(sched.is_quiet());
        for g in 0..8 {
            assert!(sched.link_windows(g).is_empty());
            assert_eq!(sched.compute_scale(g), 1.0);
            assert_eq!(sched.health(g), 1.0);
            assert!(!sched.drops_get(g, 0));
            assert!(!sched.drops_completion(g, 0));
        }
        assert!(sched.impaired_gpus().is_empty());
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = FaultSpec {
            seed: 42,
            link_degrade: 0.5,
            straggler: 2.0,
            drop_rate: 0.1,
            ..FaultSpec::quiet()
        };
        let a = FaultSchedule::derive(&spec, 8);
        let b = FaultSchedule::derive(&spec, 8);
        assert_eq!(a, b);
        for pe in 0..8 {
            for serial in 0..64 {
                assert_eq!(a.drops_get(pe, serial), b.drops_get(pe, serial));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mk = |seed| {
            FaultSchedule::derive(
                &FaultSpec { seed, link_degrade: 0.5, ..FaultSpec::quiet() },
                8,
            )
        };
        // Window placement is seed-driven, so some seed pair must differ.
        assert!((1..10).any(|s| mk(s) != mk(0)));
    }

    #[test]
    fn link_degrade_touches_at_least_one_gpu() {
        let spec = FaultSpec { seed: 7, link_degrade: 0.25, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 4);
        let touched: Vec<_> =
            (0..4).filter(|&g| !sched.link_windows(g).is_empty()).collect();
        assert_eq!(touched.len(), 1, "4 GPUs -> one degraded");
        let g = touched[0];
        for w in sched.link_windows(g) {
            assert!(w.start_ns < w.end_ns);
            assert_eq!(w.bw_multiplier, 0.25);
        }
        assert_eq!(sched.health(g), 0.25);
        assert_eq!(sched.impaired_gpus(), vec![g]);
    }

    #[test]
    fn straggler_slows_exactly_the_chosen_gpus() {
        let spec = FaultSpec { seed: 3, straggler: 2.5, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 8);
        let slow: Vec<_> = (0..8).filter(|&g| sched.compute_scale(g) > 1.0).collect();
        assert_eq!(slow.len(), 1);
        assert_eq!(sched.compute_scale(slow[0]), 2.5);
        assert!((sched.health(slow[0]) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn drop_rate_is_roughly_honored() {
        let spec = FaultSpec { seed: 11, drop_rate: 0.2, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 4);
        let n = 10_000;
        let dropped = (0..n).filter(|&s| sched.drops_get(1, s)).count();
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate={rate}");
        // GET and completion streams are decorrelated.
        let both = (0..n)
            .filter(|&s| sched.drops_get(1, s) && sched.drops_completion(1, s))
            .count();
        assert!((both as f64 / n as f64) < 0.08);
    }

    #[test]
    fn validate_rejects_bad_knobs() {
        let ok = FaultSpec {
            link_degrade: 0.5,
            straggler: 1.5,
            drop_rate: 0.1,
            ..FaultSpec::quiet()
        };
        assert!(ok.validate().is_ok());
        assert!(FaultSpec { link_degrade: 0.0, ..ok }.validate().is_err());
        assert!(FaultSpec { link_degrade: 1.5, ..ok }.validate().is_err());
        assert!(FaultSpec { straggler: 0.5, ..ok }.validate().is_err());
        assert!(FaultSpec { drop_rate: 1.0, ..ok }.validate().is_err());
        assert!(FaultSpec { drop_rate: -0.1, ..ok }.validate().is_err());
    }

    #[test]
    fn link_outage_is_pinned() {
        let w = LinkFaultWindow {
            start_ns: 1_000,
            end_ns: 9_000,
            bw_multiplier: 0.5,
            jitter_ns: 10,
        };
        let sched = FaultSchedule::link_outage(4, 2, w);
        assert_eq!(sched.link_windows(2), &[w]);
        assert!(sched.link_windows(0).is_empty());
        assert_eq!(sched.health(2), 0.5);
        assert!(!sched.drops_get(2, 0));
    }

    #[test]
    fn gpu_failures_derive_deterministically() {
        let spec = FaultSpec { seed: 5, gpu_failures: 2, ..FaultSpec::quiet() };
        let a = FaultSchedule::derive(&spec, 8);
        let b = FaultSchedule::derive(&spec, 8);
        assert_eq!(a, b);
        assert!(a.has_permanent());
        assert!(!a.is_quiet());
        assert_eq!(a.dead_gpus().len(), 2);
        for &g in &a.dead_gpus() {
            let at = a.gpu_dead_at(g).unwrap();
            assert!(at >= 1_000, "failure instant {at} before warmup");
        }
        assert!(a.first_failure_ns().is_some());
    }

    #[test]
    fn link_failures_derive_valid_pairs() {
        let spec = FaultSpec { seed: 9, link_failures: 3, ..FaultSpec::quiet() };
        let sched = FaultSchedule::derive(&spec, 4);
        let links: Vec<_> = sched
            .permanent()
            .iter()
            .filter_map(|f| match *f {
                PermanentFault::LinkDown { src, dst, at_ns } => Some((src, dst, at_ns)),
                _ => None,
            })
            .collect();
        assert_eq!(links.len(), 3);
        for &(src, dst, at_ns) in &links {
            assert!(src < dst && dst < 4, "bad pair ({src}, {dst})");
            assert!(at_ns >= 500);
            assert_eq!(sched.link_dead_at(src, dst), Some(at_ns));
            assert_eq!(sched.link_dead_at(dst, src), Some(at_ns));
        }
        // Distinct pairs.
        let mut pairs: Vec<_> = links.iter().map(|&(s, d, _)| (s, d)).collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 3);
        assert!(sched.dead_gpus().is_empty());
    }

    #[test]
    fn pinned_gpu_failure_builder() {
        let sched = FaultSchedule::gpu_failure(4, 2, 2_000);
        assert_eq!(sched.gpu_dead_at(2), Some(2_000));
        assert_eq!(sched.gpu_dead_at(0), None);
        assert_eq!(sched.dead_gpus(), vec![2]);
        // Links touching the dead GPU count as down from its death.
        assert_eq!(sched.link_dead_at(2, 3), Some(2_000));
        assert_eq!(sched.link_dead_at(0, 1), None);
        assert!(!sched.is_quiet());
        assert!(!sched.spec().is_quiet());
    }

    #[test]
    fn pinned_link_down_builder() {
        let sched = FaultSchedule::link_down(4, 0, 3, 1_500);
        assert_eq!(sched.link_dead_at(0, 3), Some(1_500));
        assert_eq!(sched.link_dead_at(3, 0), Some(1_500));
        assert_eq!(sched.link_dead_at(0, 1), None);
        assert!(sched.dead_gpus().is_empty());
        assert_eq!(sched.first_failure_ns(), Some(1_500));
    }

    #[test]
    fn with_permanent_chains() {
        let sched = FaultSchedule::gpu_failure(4, 1, 2_000)
            .with_permanent(PermanentFault::LinkDown { src: 2, dst: 3, at_ns: 3_000 });
        assert_eq!(sched.permanent().len(), 2);
        assert_eq!(sched.first_failure_ns(), Some(2_000));
        assert_eq!(sched.link_dead_at(2, 3), Some(3_000));
    }

    #[test]
    fn unordered_pair_enumerates_lexicographically() {
        let expected = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
        for (idx, &pair) in expected.iter().enumerate() {
            assert_eq!(unordered_pair(idx, 4), pair);
        }
    }

    #[test]
    fn pick_distinct_is_distinct_and_in_range() {
        let mut st = 99u64;
        let picked = pick_distinct(&mut st, 8, 3);
        assert_eq!(picked.len(), 3);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        assert!(picked.iter().all(|&g| g < 8));
    }
}

#[cfg(test)]
mod proptests {
    use proptest::prelude::*;

    use super::*;

    fn arb_spec() -> impl Strategy<Value = FaultSpec> {
        (0u64..1_000, 0.1f64..1.0, 1.0f64..4.0, 0.0f64..0.5, 0u32..3, 0u32..3).prop_map(
            |(seed, link_degrade, straggler, drop_rate, gpu_failures, link_failures)| {
                FaultSpec {
                    seed,
                    link_degrade,
                    straggler,
                    drop_rate,
                    gpu_failures,
                    link_failures,
                }
            },
        )
    }

    proptest! {
        #[test]
        fn derivation_is_deterministic(spec in arb_spec(), n in 1usize..16) {
            let a = FaultSchedule::derive(&spec, n);
            let b = FaultSchedule::derive(&spec, n);
            prop_assert_eq!(a, b);
        }

        #[test]
        fn windows_are_well_formed(spec in arb_spec(), n in 1usize..16) {
            let sched = FaultSchedule::derive(&spec, n);
            for g in 0..n {
                for w in sched.link_windows(g) {
                    prop_assert!(w.start_ns < w.end_ns);
                    prop_assert!(w.bw_multiplier > 0.0 && w.bw_multiplier <= 1.0);
                }
                let h = sched.health(g);
                prop_assert!(h > 0.0 && h <= 1.0);
                let s = sched.compute_scale(g);
                prop_assert!(s >= 1.0);
            }
        }
    }
}
