//! `ext_hostperf`: host-side performance of the simulator and the
//! deterministic worker pool — the artifact behind the runtime overhaul.
//!
//! Three measurements:
//!
//! 1. **Sweep scaling.** Wall-clock of a dataset × dimension × GPU-count
//!    simulation sweep at 1/2/4/8 threads (best of `RUNS_PER_THREADS`
//!    timed runs), each run producing an FNV-1a digest of every simulated
//!    latency. Pool jobs are dataset-level super-cells (the dim × gpus
//!    grid runs inside one task, engines reused per GPU count) but the
//!    flattened latency order is the per-cell order, so the digest is
//!    decomposition-independent and must be identical at every thread
//!    count; `digests_match` makes that checkable in CI without
//!    wall-clock gating. The cell list is part of the report so
//!    `perfdiff` comparisons are apples-to-apples.
//! 2. **Overhead attribution.** One additional run per thread count under
//!    `mgg_runtime::profile::collect`, breaking the worker-lane time into
//!    on-CPU task-exec / contended-exec (descheduled mid-job) / spawn /
//!    idle / ordered-merge-wait — the "where did the speedup go" data.
//!    The profiled run's digest is reported separately and must equal the
//!    unprofiled one: profiling is bit-identity-preserving by contract.
//! 3. **Kernel probe.** Host throughput of one real
//!    `simulate_aggregation` (ENWIKI stand-in, 8 GPUs, dim 64): simulated
//!    warps and remote requests per host second, from the fastest of
//!    `PROBE_RUNS` runs. A real kernel keeps thousands of events pending
//!    in same-time cohorts, which a synthetic push/pop stream does not.
//!
//! Wall-clock numbers are hardware-dependent and reported for trend
//! tracking only; correctness signals (digests) are the stable part.

use mgg_core::{MggConfig, MggEngine};
use mgg_gnn::reference::AggregateMode;
use mgg_graph::datasets::Dataset;
use mgg_runtime::profile::{OverheadBreakdown, RuntimeProfile};
use mgg_sim::ClusterSpec;
use serde::Serialize;

use crate::experiments::common::datasets;
use crate::report::{fnv1a, ExperimentReport};

/// Timed (unprofiled) runs per thread count; the row reports the best.
pub const RUNS_PER_THREADS: usize = 3;

/// Timed runs of the kernel probe; its rates come from the fastest.
pub const PROBE_RUNS: usize = 15;

/// GPUs of the kernel probe.
const PROBE_GPUS: usize = 8;

/// Embedding dimension of the kernel probe.
const PROBE_DIM: usize = 64;

/// Aggregation dimensions swept per dataset, in latency order.
const DIMS: [usize; 2] = [16, 64];

/// GPU counts swept per dimension, in latency order.
const GPU_COUNTS: [usize; 2] = [4, 8];

/// One sweep cell, named so baselines can be compared cell-for-cell.
#[derive(Debug, Clone, Serialize)]
pub struct SweepCell {
    /// Dataset name.
    pub dataset: String,
    /// Embedding dimension.
    pub dim: usize,
    /// Number of GPUs.
    pub gpus: usize,
}

/// One parallel region’s attribution cell.
#[derive(Debug, Clone, Serialize)]
pub struct HostPerfRow {
    /// Worker-pool width.
    pub threads: usize,
    /// Timed runs taken at this thread count; `wall_ns` is their minimum.
    pub runs: usize,
    /// Wall, in simulated ns.
    pub wall_ns: u64,
    /// Wall-clock speedup over the 1-thread row (>= 1 when scaling works).
    pub speedup: f64,
    /// FNV-1a digest over every simulated latency, in sweep-cell order.
    pub digest: String,
    /// Digest of the profiled run — must equal `digest` (profiling is
    /// bit-identity-preserving).
    pub digest_profiled: String,
    /// Worker-lane attribution from the profiled run: where the non-exec
    /// time went, per category.
    pub overhead: OverheadBreakdown,
}

/// Host throughput of one real kernel simulation.
#[derive(Debug, Clone, Serialize)]
pub struct KernelProbe {
    /// Dataset stand-in simulated.
    pub dataset: String,
    /// Number of GPUs.
    pub gpus: usize,
    /// Embedding dimension.
    pub dim: usize,
    /// Simulated kernel makespan, ns (identical on every run).
    pub makespan_ns: u64,
    /// Warps the kernel simulated.
    pub warps: u64,
    /// Inter-GPU requests the kernel simulated.
    pub remote_requests: u64,
    /// Timed runs; the host time and rates below are the fastest run's.
    pub runs: usize,
    /// Host wall-clock of the fastest run, ns.
    pub host_ns: u64,
    /// Simulated warps per host second.
    pub warps_per_sec: f64,
    /// Simulated inter-GPU requests per host second.
    pub remote_requests_per_sec: f64,
}

/// The host-runtime attribution report.
#[derive(Debug, Clone, Serialize)]
pub struct HostPerfReport {
    /// `std::thread::available_parallelism` of the host that made the
    /// report: wall-clock speedups mean nothing without it.
    pub available_parallelism: usize,
    /// Sweep cells.
    pub sweep_cells: usize,
    /// The exact cells swept, in job order.
    pub cells: Vec<SweepCell>,
    /// Runs per thread count.
    pub runs_per_thread_count: usize,
    /// Per-cell sweep rows.
    pub rows: Vec<HostPerfRow>,
    /// True iff every thread count produced bit-identical sweep results,
    /// profiled runs included.
    pub digests_match: bool,
    /// Host throughput of one real kernel.
    pub kernel_probe: KernelProbe,
}

/// Runs the sweep once at `threads` workers, returning (wall_ns, latencies).
/// Dataset construction happens outside so the wall-clock covers only the
/// parallelizable simulation work.
///
/// Work units are dataset-level **super-cells**: one pool job per dataset
/// iterates the dim × GPU-count grid inside, reusing one engine per GPU
/// count across dimensions, so the pool dispatches |datasets| coarse tasks
/// instead of 4× as many slivers and each task builds placement/plans once
/// per GPU count instead of once per cell. The flattened latency order
/// (dataset → dim → gpus) is exactly the old per-cell job order, and the
/// simulation is a pure function of (graph, spec, dim) — engine reuse
/// resets the cluster between launches — so digests are unchanged (pinned
/// by `super_cells_match_per_cell_sweep`).
fn run_sweep(ds: &[Dataset], threads: usize) -> (u64, Vec<u64>) {
    let start = std::time::Instant::now();
    let per_ds = mgg_runtime::with_threads(threads, || {
        let _lbl = mgg_runtime::profile::region_label("bench.hostperf");
        mgg_runtime::par_map_indexed(ds.len(), |di| {
            let d = &ds[di];
            let mut engines: Vec<MggEngine> = GPU_COUNTS
                .iter()
                .map(|&gpus| {
                    MggEngine::new(
                        &d.graph,
                        ClusterSpec::dgx_a100(gpus),
                        MggConfig::default_fixed(),
                        AggregateMode::Sum,
                    )
                })
                .collect();
            let mut lats = Vec::with_capacity(DIMS.len() * GPU_COUNTS.len());
            for dim in DIMS {
                for eng in engines.iter_mut() {
                    lats.push(eng.simulate_aggregation_ns(dim).expect("valid launch"));
                }
            }
            lats
        })
    });
    (start.elapsed().as_nanos() as u64, per_ds.into_iter().flatten().collect())
}

/// [`run_sweep`] under the attribution profiler: same jobs, same digest,
/// plus the per-worker lifecycle profile.
fn run_sweep_profiled(ds: &[Dataset], threads: usize) -> (u64, Vec<u64>, RuntimeProfile) {
    let ((wall_ns, lats), profile) = mgg_runtime::profile::collect(|| run_sweep(ds, threads));
    (wall_ns, lats, profile)
}

/// Times `runs` identical `simulate_aggregation` calls of one engine on
/// `d` and reports the fastest. Engine construction is outside the timing;
/// the first call also warms this thread's recycled simulator buffers.
fn kernel_probe(d: &Dataset, runs: usize) -> KernelProbe {
    let mut eng = MggEngine::new(
        &d.graph,
        ClusterSpec::dgx_a100(PROBE_GPUS),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    let mut host_ns = u64::MAX;
    let mut stats = None;
    for _ in 0..runs {
        let start = std::time::Instant::now();
        let s = eng.simulate_aggregation(PROBE_DIM).expect("valid launch");
        host_ns = host_ns.min(start.elapsed().as_nanos() as u64);
        stats = Some(s);
    }
    let stats = stats.expect("at least one probe run");
    let warps: u64 = stats.per_gpu.iter().map(|g| g.warps).sum();
    let remote_requests = stats.traffic.remote_requests();
    let secs = host_ns.max(1) as f64 / 1e9;
    KernelProbe {
        dataset: d.spec.name.to_string(),
        gpus: PROBE_GPUS,
        dim: PROBE_DIM,
        makespan_ns: stats.makespan_ns(),
        warps,
        remote_requests,
        runs,
        host_ns,
        warps_per_sec: warps as f64 / secs,
        remote_requests_per_sec: remote_requests as f64 / secs,
    }
}

/// Runs the host-performance benchmark.
pub fn run(scale: f64) -> HostPerfReport {
    let ds = datasets(scale);
    let mut cell_names: Vec<SweepCell> = Vec::new();
    for d in ds.iter() {
        for dim in DIMS {
            for gpus in GPU_COUNTS {
                cell_names.push(SweepCell { dataset: d.spec.name.to_string(), dim, gpus });
            }
        }
    }

    let mut rows: Vec<HostPerfRow> = Vec::new();
    for threads in [1usize, 2, 4, 8] {
        let mut wall_ns = u64::MAX;
        let mut digest = String::new();
        for run in 0..RUNS_PER_THREADS {
            let (w, lats) = run_sweep(&ds, threads);
            wall_ns = wall_ns.min(w);
            if run == 0 {
                digest = fnv1a(lats.iter().copied());
            }
        }
        let (_, profiled_lats, profile) = run_sweep_profiled(&ds, threads);
        rows.push(HostPerfRow {
            threads,
            runs: RUNS_PER_THREADS,
            wall_ns,
            speedup: 0.0, // filled in below once the 1-thread row exists
            digest,
            digest_profiled: fnv1a(profiled_lats.iter().copied()),
            overhead: profile.breakdown(),
        });
    }
    let base = rows[0].wall_ns.max(1) as f64;
    for r in &mut rows {
        r.speedup = base / r.wall_ns.max(1) as f64;
    }
    let digests_match = rows
        .iter()
        .all(|r| r.digest == rows[0].digest && r.digest_profiled == rows[0].digest);

    let enwiki = ds.iter().find(|d| d.spec.name == "ENWIKI").expect("ENWIKI is a Table 3 dataset");
    let kernel_probe = kernel_probe(enwiki, PROBE_RUNS);

    HostPerfReport {
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        sweep_cells: cell_names.len(),
        cells: cell_names,
        runs_per_thread_count: RUNS_PER_THREADS,
        rows,
        digests_match,
        kernel_probe,
    }
}

impl ExperimentReport for HostPerfReport {
    fn id(&self) -> &'static str {
        "ext_hostperf"
    }

    fn print(&self) {
        println!(
            "Host performance: sweep scaling + overhead attribution \
             (available_parallelism {})",
            self.available_parallelism
        );
        println!(
            "{:<8} {:>12} {:>9}  {:>6} {:>6} {:>6} {:>6} {:>6}  digest",
            "threads", "wall (ms)", "speedup", "exec%", "cont%", "spawn%", "idle%", "merge%"
        );
        for r in &self.rows {
            let lane = r.overhead.exec_ns + r.overhead.overhead_ns();
            let pct = |ns: u64| {
                if lane == 0 {
                    0.0
                } else {
                    100.0 * ns as f64 / lane as f64
                }
            };
            println!(
                "{:<8} {:>12.1} {:>8.2}x  {:>5.1} {:>6.1} {:>6.1} {:>6.1} {:>6.1}  {}",
                r.threads,
                r.wall_ns as f64 / 1e6,
                r.speedup,
                pct(r.overhead.exec_ns),
                pct(r.overhead.contended_exec_ns),
                pct(r.overhead.spawn_ns),
                pct(r.overhead.idle_ns),
                pct(r.overhead.merge_wait_ns),
                r.digest
            );
        }
        println!(
            "sweep: {} cells x {} runs/thread-count, digests {} across thread counts \
             (profiled runs included)",
            self.sweep_cells,
            self.runs_per_thread_count,
            if self.digests_match { "IDENTICAL" } else { "DIVERGED" }
        );
        let p = &self.kernel_probe;
        println!(
            "kernel probe ({}, {} GPUs, dim {}): {:.2}M warps/sec, {:.2}M remote requests/sec \
             ({} warps, {} requests, {:.1} ms host for {:.1} us simulated, best of {})",
            p.dataset,
            p.gpus,
            p.dim,
            p.warps_per_sec / 1e6,
            p.remote_requests_per_sec / 1e6,
            p.warps,
            p.remote_requests,
            p.host_ns as f64 / 1e6,
            p.makespan_ns as f64 / 1e3,
            p.runs
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_digest_is_thread_count_invariant() {
        let ds = datasets(0.05);
        let ds = &ds[..2];
        let (_, seq) = run_sweep(ds, 1);
        for threads in [2usize, 4, 7] {
            let (_, par) = run_sweep(ds, threads);
            assert_eq!(seq, par, "sweep diverged at {threads} threads");
        }
    }

    /// Pins the super-cell refactor: one engine per GPU count reused
    /// across dimensions must produce exactly the per-cell (fresh engine
    /// per config) latencies, in the same flattened order.
    #[test]
    fn super_cells_match_per_cell_sweep() {
        let ds = datasets(0.05);
        let ds = &ds[..2];
        let (_, coarse) = run_sweep(ds, 1);
        let mut fine = Vec::new();
        for d in ds {
            for dim in DIMS {
                for gpus in GPU_COUNTS {
                    let mut eng = MggEngine::new(
                        &d.graph,
                        ClusterSpec::dgx_a100(gpus),
                        MggConfig::default_fixed(),
                        AggregateMode::Sum,
                    );
                    fine.push(eng.simulate_aggregation_ns(dim).expect("valid launch"));
                }
            }
        }
        assert_eq!(coarse, fine, "engine reuse must not perturb simulated latencies");
    }

    #[test]
    fn profiled_sweep_is_bit_identical_and_attributed() {
        let ds = datasets(0.05);
        let ds = &ds[..2];
        let (_, plain) = run_sweep(ds, 1);
        for threads in [1usize, 2, 4, 7] {
            let (_, profiled, profile) = run_sweep_profiled(ds, threads);
            assert_eq!(plain, profiled, "profiler changed results at {threads} threads");
            assert!(!profile.regions.is_empty());
            assert_eq!(profile.regions[0].name, "bench.hostperf");
            let b = profile.breakdown();
            assert!(b.exec_ns > 0);
            // The named categories tile the non-exec lane time.
            assert!(b.attributed_fraction >= 0.9, "attributed {}", b.attributed_fraction);
        }
    }

    #[test]
    fn kernel_probe_reports_the_kernels_own_counts() {
        let ds = datasets(0.05);
        let d = ds.iter().find(|d| d.spec.name == "ENWIKI").expect("ENWIKI");
        let probe = kernel_probe(d, 2);
        let mut eng = MggEngine::new(
            &d.graph,
            ClusterSpec::dgx_a100(PROBE_GPUS),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        let stats = eng.simulate_aggregation(PROBE_DIM).expect("valid launch");
        assert_eq!(probe.makespan_ns, stats.makespan_ns());
        assert_eq!(probe.warps, stats.per_gpu.iter().map(|g| g.warps).sum::<u64>());
        assert_eq!(probe.remote_requests, stats.traffic.remote_requests());
        assert!(probe.warps > 0 && probe.remote_requests > 0);
        assert!(probe.warps_per_sec > 0.0 && probe.remote_requests_per_sec > 0.0);
    }
}
