//! Host-side attribution profiler for the worker pool.
//!
//! `ext_hostperf` showed the deterministic runtime losing wall-clock at
//! 2–8 threads while producing bit-identical results — a loss that was
//! unattributable because telemetry only saw engine phases, never the
//! workers. This module answers "where did the speedup go" by accounting
//! every nanosecond of every worker lane in a parallel region to one of a
//! small set of named categories:
//!
//! * **exec** — running claimed jobs (the only useful time),
//! * **contended-exec** — the slice of in-job wall time the thread was
//!   *not* on a CPU (wall minus `CLOCK_THREAD_CPUTIME_ID` per job):
//!   scheduler preemption from oversubscription, allocator stalls, page
//!   faults. This is the category that used to be smeared into exec and
//!   made per-lane exec appear to inflate linearly with thread count,
//! * **spawn** — from region entry until the worker claims its first job
//!   (pool dispatch/wake latency),
//! * **merge-wait** — from the worker's last job finishing until the
//!   region joins (the price of the ordered merge: finished workers park
//!   while stragglers run),
//! * **idle** — the remainder (claim-counter gaps, scheduler preemption
//!   between jobs).
//!
//! Per worker and per region, `spawn + exec + idle + merge_wait == wall`
//! exactly (idle is defined as the remainder, and exec splits internally
//! into on-CPU exec + contended-exec), so the attribution always covers
//! 100% of the parallel-vs-ideal gap.
//!
//! # Determinism contract
//!
//! Profiling records wall-clock timing *around* jobs and never feeds
//! anything back into them, so results are bit-identical whether the
//! profiler is on or off (pinned by `tests/host_profile.rs`). It is also
//! zero-cost when disabled: the pool checks one thread-local per region
//! (not per job).
//!
//! # Scoping
//!
//! Collection is scoped, not global: [`collect`] installs a collector on
//! the calling thread, the pool propagates it into its workers for the
//! duration of each region, and concurrently running code (other tests,
//! other sessions) is never observed.

use serde::Serialize;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Number of buckets in the unit-time histogram.
pub const HIST_BUCKETS: usize = 8;

/// Upper bounds (ns, inclusive) of the histogram buckets; the last bucket
/// is open-ended.
pub const HIST_BOUNDS_NS: [u64; HIST_BUCKETS] =
    [250, 1_000, 4_000, 16_000, 64_000, 256_000, 1_000_000, u64::MAX];

fn bucket_of(ns: u64) -> usize {
    HIST_BOUNDS_NS.iter().position(|&b| ns <= b).unwrap_or(HIST_BUCKETS - 1)
}

/// One worker lane of one parallel region. The four categories tile the
/// region wall exactly: `spawn_delay + exec + idle + merge_wait == wall`.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct WorkerLane {
    /// Worker index within the region (0-based).
    pub worker: u64,
    /// Jobs this worker claimed and executed.
    pub jobs: u64,
    /// Wall time spent executing claimed jobs, ns.
    pub exec_ns: u64,
    /// Portion of `exec_ns` the thread was descheduled (wall minus thread
    /// CPU time per job), ns — contention/oversubscription inside jobs.
    pub contended_exec_ns: u64,
    /// Region entry → first claim attempt, ns (pool dispatch latency).
    pub spawn_delay_ns: u64,
    /// Last job finished → region join, ns (ordered-merge parking).
    pub merge_wait_ns: u64,
    /// Remainder: wall − spawn − exec − merge_wait, ns.
    pub idle_ns: u64,
}

/// Histogram of per-job execution times — the work-unit size distribution
/// that decides whether the pool's claim granularity is too fine.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct UnitHistogram {
    /// Number of jobs observed.
    pub count: u64,
    /// Total execution time across all jobs, ns.
    pub sum_ns: u64,
    /// Fastest job, ns.
    pub min_ns: u64,
    /// Slowest job, ns.
    pub max_ns: u64,
    /// Counts per bucket; bounds are [`HIST_BOUNDS_NS`].
    pub buckets: Vec<u64>,
}

impl UnitHistogram {
    fn new() -> Self {
        UnitHistogram { buckets: vec![0; HIST_BUCKETS], ..Default::default() }
    }

    pub(crate) fn record(&mut self, ns: u64) {
        if self.buckets.len() != HIST_BUCKETS {
            self.buckets = vec![0; HIST_BUCKETS];
        }
        if self.count == 0 {
            self.min_ns = ns;
            self.max_ns = ns;
        } else {
            self.min_ns = self.min_ns.min(ns);
            self.max_ns = self.max_ns.max(ns);
        }
        self.count += 1;
        self.sum_ns += ns;
        self.buckets[bucket_of(ns)] += 1;
    }

    fn merge(&mut self, other: &UnitHistogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min_ns = other.min_ns;
            self.max_ns = other.max_ns;
        } else {
            self.min_ns = self.min_ns.min(other.min_ns);
            self.max_ns = self.max_ns.max(other.max_ns);
        }
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        for (d, s) in self.buckets.iter_mut().zip(&other.buckets) {
            *d += s;
        }
    }

    /// Mean job execution time, ns.
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// One `par_map`/`par_map_indexed`/`par_slices_mut` region.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RegionProfile {
    /// Region label (from [`labeled`], else the entry-point name).
    pub name: String,
    /// Entry point: `par_map_indexed` or `par_slices_mut`.
    pub kind: String,
    /// Region start, ns since the collector was created.
    pub start_ns: u64,
    /// Region wall-clock (entry → ordered results ready), ns.
    pub wall_ns: u64,
    /// Jobs executed in the region.
    pub jobs: u64,
    /// Worker lanes that participated (pool width at entry).
    pub workers: u64,
    /// Per-worker activity breakdown.
    pub lanes: Vec<WorkerLane>,
    /// Per-job execution-time distribution across all lanes.
    pub units: UnitHistogram,
}

/// Sum of every worker-lane category across all regions — the "where did
/// the speedup go" totals.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct OverheadBreakdown {
    /// Worker-lane *on-CPU* time running jobs, ns (the useful part; thread
    /// CPU clock, so oversubscription cannot inflate it).
    pub exec_ns: u64,
    /// In-job wall time the thread was descheduled, ns — the former
    /// "exec inflation": allocator stalls, preemption, page faults.
    pub contended_exec_ns: u64,
    /// Worker-lane time waiting to start, ns.
    pub spawn_ns: u64,
    /// Worker-lane time idle mid-region, ns.
    pub idle_ns: u64,
    /// Worker-lane time parked on the ordered merge, ns.
    pub merge_wait_ns: u64,
    /// Fraction of non-exec worker-lane time covered by the named
    /// categories (spawn/idle/merge-wait). 1.0 by construction — idle is
    /// the remainder — so anything below signals an accounting bug.
    pub attributed_fraction: f64,
}

impl OverheadBreakdown {
    /// Total worker-lane time not spent doing useful (on-CPU) job work, ns.
    pub fn overhead_ns(&self) -> u64 {
        self.contended_exec_ns + self.spawn_ns + self.idle_ns + self.merge_wait_ns
    }
}

/// Everything one [`collect`] call observed.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct RuntimeProfile {
    /// One entry per profiled parallel region, in entry order.
    pub regions: Vec<RegionProfile>,
}

impl RuntimeProfile {
    /// Sums the lane categories across all regions.
    pub fn breakdown(&self) -> OverheadBreakdown {
        let mut b = OverheadBreakdown::default();
        for r in &self.regions {
            for l in &r.lanes {
                b.exec_ns += l.exec_ns.saturating_sub(l.contended_exec_ns);
                b.contended_exec_ns += l.contended_exec_ns;
                b.spawn_ns += l.spawn_delay_ns;
                b.idle_ns += l.idle_ns;
                b.merge_wait_ns += l.merge_wait_ns;
            }
        }
        // Total lane time minus exec is the gap to attribute; spawn, idle
        // and merge-wait tile it by construction.
        let lane_total: u64 = self
            .regions
            .iter()
            .flat_map(|r| &r.lanes)
            .map(|l| l.spawn_delay_ns + l.exec_ns + l.idle_ns + l.merge_wait_ns)
            .sum();
        let gap = lane_total.saturating_sub(b.exec_ns);
        b.attributed_fraction = if gap == 0 { 1.0 } else { b.overhead_ns() as f64 / gap as f64 };
        b
    }

    /// The "where did the speedup go" table: given the sequential and
    /// parallel wall-clock of the same workload, attributes the lost time
    /// to the named categories.
    pub fn render_attribution(&self, seq_wall_ns: u64, par_wall_ns: u64) -> String {
        let b = self.breakdown();
        let jobs: u64 = self.regions.iter().map(|r| r.jobs).sum();
        let max_workers = self.regions.iter().map(|r| r.workers).max().unwrap_or(1);
        let mut out = String::new();
        out.push_str(&format!(
            "== host attribution ({} regions, {} jobs, up to {} workers) ==\n",
            self.regions.len(),
            jobs,
            max_workers
        ));
        let speedup = seq_wall_ns as f64 / par_wall_ns.max(1) as f64;
        out.push_str(&format!("sequential wall      {:>12.3} ms\n", seq_wall_ns as f64 / 1e6));
        out.push_str(&format!(
            "parallel wall        {:>12.3} ms   ({speedup:.2}x speedup)\n",
            par_wall_ns as f64 / 1e6
        ));
        let lane_total = b.exec_ns + b.overhead_ns();
        out.push_str(&format!(
            "worker-lane time     {:>12.3} ms   (exec + overhead; attributed {:.1}%)\n",
            lane_total as f64 / 1e6,
            100.0 * b.attributed_fraction
        ));
        let pct = |ns: u64| {
            if lane_total == 0 {
                0.0
            } else {
                100.0 * ns as f64 / lane_total as f64
            }
        };
        out.push_str("category                      time        % of lane-time\n");
        for (name, ns) in [
            ("task-exec (on-cpu)", b.exec_ns),
            ("contended-exec", b.contended_exec_ns),
            ("spawn", b.spawn_ns),
            ("idle", b.idle_ns),
            ("ordered-merge-wait", b.merge_wait_ns),
        ] {
            out.push_str(&format!(
                "  {:26} {:>10.3} ms {:>8.1}%\n",
                name,
                ns as f64 / 1e6,
                pct(ns)
            ));
        }
        if !self.regions.is_empty() {
            out.push_str("regions:\n");
            for r in &self.regions {
                out.push_str(&format!(
                    "  {:24} {:>4} jobs x {:<2} workers  wall {:>9.3} ms  mean unit {:>9.1} us\n",
                    r.name,
                    r.jobs,
                    r.workers,
                    r.wall_ns as f64 / 1e6,
                    r.units.mean_ns() / 1e3,
                ));
            }
        }
        out
    }
}

/// Shared collector state: the region list behind a mutex, pushed once
/// per region.
pub(crate) struct Collector {
    epoch: Instant,
    regions: Mutex<Vec<RegionProfile>>,
}

impl Collector {
    fn new() -> Self {
        Collector {
            epoch: Instant::now(),
            regions: Mutex::new(Vec::new()),
        }
    }

    pub(crate) fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub(crate) fn push_region(&self, region: RegionProfile) {
        self.regions.lock().unwrap_or_else(|p| p.into_inner()).push(region);
    }

    fn drain(&self) -> RuntimeProfile {
        let regions = std::mem::take(&mut *self.regions.lock().unwrap_or_else(|p| p.into_inner()));
        RuntimeProfile { regions }
    }
}

thread_local! {
    /// The collector this thread reports into (installed by [`collect`] on
    /// the caller, and by the pool on its workers for a region's duration).
    static COLLECTOR: std::cell::RefCell<Option<Arc<Collector>>> =
        const { std::cell::RefCell::new(None) };
    /// Label the next parallel region records under; see [`labeled`].
    static LABEL: std::cell::Cell<&'static str> = const { std::cell::Cell::new("") };
}

pub(crate) fn current_collector() -> Option<Arc<Collector>> {
    COLLECTOR.with(|c| c.borrow().clone())
}

pub(crate) fn current_label(default: &'static str) -> &'static str {
    let l = LABEL.with(|l| l.get());
    if l.is_empty() {
        default
    } else {
        l
    }
}

/// Installs `collector` on this thread until the guard drops (panic-safe);
/// used by the pool to propagate the caller's collector into workers so
/// nested regions attribute correctly.
pub(crate) struct InstallGuard(Option<Arc<Collector>>);

pub(crate) fn install(collector: Option<Arc<Collector>>) -> InstallGuard {
    let prev = COLLECTOR.with(|c| std::mem::replace(&mut *c.borrow_mut(), collector));
    InstallGuard(prev)
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        let prev = self.0.take();
        COLLECTOR.with(|c| *c.borrow_mut() = prev);
    }
}

/// Runs `f` with host profiling active on this thread and returns its
/// result together with everything the profiler observed. Parallel
/// regions entered by `f` (directly or through nested calls) record
/// per-worker attribution. Results of `f` are bit-identical to running it
/// without `collect`.
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, RuntimeProfile) {
    let collector = Arc::new(Collector::new());
    let result = {
        let _guard = install(Some(Arc::clone(&collector)));
        f()
    };
    (result, collector.drain())
}

/// Labels the parallel regions entered by `f` (e.g. `"engine.aggregate"`)
/// in the collected profile. Cheap enough to leave on unconditionally;
/// without an active collector it only sets a thread-local.
pub fn labeled<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    let _guard = region_label(name);
    f()
}

/// RAII form of [`labeled`]: parallel regions entered on this thread while
/// the guard lives are recorded under `name`. Restores the previous label
/// (panic-safe) on drop.
pub fn region_label(name: &'static str) -> LabelGuard {
    let prev = LABEL.with(|l| {
        let prev = l.get();
        l.set(name);
        prev
    });
    LabelGuard(prev)
}

/// Guard returned by [`region_label`]; restores the prior label on drop.
pub struct LabelGuard(&'static str);

impl Drop for LabelGuard {
    fn drop(&mut self) {
        LABEL.with(|l| l.set(self.0));
    }
}

/// Current thread's CPU time in ns (`CLOCK_THREAD_CPUTIME_ID`). Unlike
/// wall clocks, this does not advance while the thread is descheduled, so
/// per-job `wall − cpu` isolates contention/oversubscription from real
/// work. Returns 0 where the clock is unavailable (non-Linux fallback);
/// the lane's per-job accounting then degrades to all-wall.
pub fn thread_cpu_ns() -> u64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clk_id: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
        // SAFETY: `ts` is a valid, exclusively owned out-pointer and the
        // clock id is a compile-time constant the kernel accepts.
        if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
            return 0;
        }
        (ts.tv_sec as u64).saturating_mul(1_000_000_000).saturating_add(ts.tv_nsec as u64)
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Per-worker raw measurements taken inside the region; converted to a
/// [`WorkerLane`] once the region wall is known.
#[derive(Default)]
pub(crate) struct LaneRaw {
    pub spawn_delay_ns: u64,
    pub exec_ns: u64,
    /// On-CPU portion of `exec_ns` (thread CPU clock).
    pub exec_cpu_ns: u64,
    /// Region-relative time the worker finished its last job.
    pub done_ns: u64,
    pub jobs: u64,
    pub units: UnitHistogram,
}

impl LaneRaw {
    /// Records one executed job: `wall_ns` elapsed, `cpu_ns` of thread CPU
    /// time consumed, finishing at region-relative `done_ns`. A zero
    /// `cpu_ns` (CPU clock unavailable) counts the job as fully on-CPU so
    /// the contended category degrades to zero rather than to noise.
    pub(crate) fn note_job(&mut self, wall_ns: u64, cpu_ns: u64, done_ns: u64) {
        self.exec_ns += wall_ns;
        self.exec_cpu_ns += if cpu_ns == 0 { wall_ns } else { cpu_ns.min(wall_ns) };
        self.units.record(wall_ns);
        self.jobs += 1;
        self.done_ns = done_ns;
    }
}

/// Region-scope measurement helper used by the pool entry points.
pub(crate) struct RegionTimer {
    collector: Arc<Collector>,
    start: Instant,
    start_ns: u64,
    name: &'static str,
    kind: &'static str,
    jobs: u64,
    workers: u64,
}

impl RegionTimer {
    /// Starts timing a region, if a collector is active on this thread.
    pub(crate) fn start(kind: &'static str, jobs: usize, workers: usize) -> Option<RegionTimer> {
        let collector = current_collector()?;
        let start_ns = collector.now_ns();
        Some(RegionTimer {
            collector,
            start: Instant::now(),
            start_ns,
            name: current_label(kind),
            kind,
            jobs: jobs as u64,
            workers: workers as u64,
        })
    }

    pub(crate) fn collector(&self) -> Arc<Collector> {
        Arc::clone(&self.collector)
    }

    /// Region-relative ns since the region started.
    pub(crate) fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Closes the region: converts raw lanes (idle = remainder) and pushes
    /// the profile into the collector.
    pub(crate) fn finish(self, raw: Vec<LaneRaw>) {
        let wall_ns = self.elapsed_ns();
        let mut units = UnitHistogram::new();
        let lanes: Vec<WorkerLane> = raw
            .iter()
            .enumerate()
            .map(|(w, r)| {
                units.merge(&r.units);
                // Lanes with no jobs still waited for the join; everything
                // after spawn is merge-wait for them.
                let merge_wait_ns = wall_ns.saturating_sub(r.done_ns.max(r.spawn_delay_ns));
                let idle_ns =
                    wall_ns.saturating_sub(r.spawn_delay_ns + r.exec_ns + merge_wait_ns);
                WorkerLane {
                    worker: w as u64,
                    jobs: r.jobs,
                    exec_ns: r.exec_ns,
                    contended_exec_ns: r.exec_ns.saturating_sub(r.exec_cpu_ns),
                    spawn_delay_ns: r.spawn_delay_ns,
                    merge_wait_ns,
                    idle_ns,
                }
            })
            .collect();
        self.collector.push_region(RegionProfile {
            name: self.name.to_string(),
            kind: self.kind.to_string(),
            start_ns: self.start_ns,
            wall_ns,
            jobs: self.jobs,
            workers: self.workers,
            lanes,
            units,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collect_scopes_to_the_calling_thread() {
        let ((), profile) = collect(|| {
            assert!(current_collector().is_some());
        });
        assert!(current_collector().is_none());
        assert!(profile.regions.is_empty());
    }

    #[test]
    fn regions_record_lanes_that_tile_the_wall() {
        let ((), profile) = collect(|| {
            crate::with_threads(4, || {
                crate::par_map_indexed(16, |i| {
                    // Make jobs long enough to be visible.
                    let mut acc = i as u64;
                    for _ in 0..20_000 {
                        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                    }
                    std::hint::black_box(acc)
                });
            })
        });
        assert_eq!(profile.regions.len(), 1);
        let r = &profile.regions[0];
        assert_eq!(r.jobs, 16);
        assert_eq!(r.workers, 4);
        assert_eq!(r.lanes.len(), 4);
        assert_eq!(r.lanes.iter().map(|l| l.jobs).sum::<u64>(), 16);
        assert_eq!(r.units.count, 16);
        for l in &r.lanes {
            assert!(
                l.spawn_delay_ns + l.exec_ns + l.idle_ns + l.merge_wait_ns <= r.wall_ns,
                "lane {} exceeds region wall",
                l.worker
            );
        }
        let b = profile.breakdown();
        assert!(b.exec_ns > 0);
        assert!((b.attributed_fraction - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sequential_regions_profile_too() {
        let ((), profile) = collect(|| {
            crate::with_threads(1, || {
                crate::par_map_indexed(5, |i| std::hint::black_box(i * 2));
            })
        });
        assert_eq!(profile.regions.len(), 1);
        let r = &profile.regions[0];
        assert_eq!(r.workers, 1);
        assert_eq!(r.lanes.len(), 1);
        assert_eq!(r.lanes[0].jobs, 5);
        assert_eq!(r.units.count, 5);
    }

    #[test]
    fn labels_name_regions() {
        let ((), profile) = collect(|| {
            labeled("test.region", || {
                crate::with_threads(2, || {
                    crate::par_map_indexed(4, |i| i);
                })
            });
            crate::with_threads(2, || {
                crate::par_map_indexed(4, |i| i);
            });
        });
        assert_eq!(profile.regions.len(), 2);
        assert_eq!(profile.regions[0].name, "test.region");
        assert_eq!(profile.regions[1].name, "par_map_indexed");
    }

    #[test]
    fn attribution_table_renders() {
        let ((), profile) = collect(|| {
            crate::with_threads(2, || {
                crate::par_map_indexed(8, std::hint::black_box);
            })
        });
        let text = profile.render_attribution(2_000_000, 1_500_000);
        for needle in ["task-exec", "spawn", "idle", "ordered-merge-wait"] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
    }

    #[test]
    fn profiled_results_match_unprofiled() {
        let job = |i: usize| ((i as f64) + 0.5).sqrt().to_bits();
        let plain = crate::with_threads(4, || crate::par_map_indexed(64, job));
        let (profiled, _) =
            collect(|| crate::with_threads(4, || crate::par_map_indexed(64, job)));
        assert_eq!(plain, profiled);
    }
}
