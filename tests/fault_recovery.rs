//! Fault-injection invariants and the pinned recovery golden.
//!
//! * With every fault class disabled (a zero-rate spec), installing the
//!   fault layer must be undetectable: timing statistics and functional
//!   outputs are bit-identical to an engine with no fault layer at all.
//! * Identical `(seed, spec)` pairs must derive identical schedules.
//! * A fixed scenario — one NVLink degraded to half bandwidth over a fixed
//!   window — must reproduce the locked recovery counters, so any change
//!   to the recovery path is a conscious re-lock, not drift.

use proptest::prelude::*;

use mgg::core::{CacheConfig, CachePolicy, MggConfig, MggEngine, MggError, RecoveryAction};
use mgg::fault::{FaultSchedule, FaultSpec, LinkFaultWindow};
use mgg::sim::RecoveryStats;
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::Matrix;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::graph::CsrGraph;
use mgg::sim::ClusterSpec;

fn engine(gpus: usize) -> MggEngine {
    let g = rmat(&RmatConfig::graph500(9, 5_000, 29));
    MggEngine::new(&g, ClusterSpec::dgx_a100(gpus), MggConfig::default_fixed(), AggregateMode::Sum)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A zero-rate spec (any seed, all knobs at their quiet values) must
    /// leave timing and values bit-identical to the fault-free engine.
    #[test]
    fn zero_rate_spec_is_bit_identical(seed in 0u64..u64::MAX, gpus in 2usize..6, dim in 8usize..64) {
        let mut plain = engine(gpus);
        let mut quiet = engine(gpus);
        quiet
            .install_faults(FaultSpec { seed, ..Default::default() })
            .expect("quiet spec is valid");

        let a = plain.simulate_aggregation(dim).unwrap();
        let b = quiet.simulate_aggregation(dim).unwrap();
        prop_assert_eq!(&a, &b, "KernelStats must not change under a zero-rate spec");

        let g = rmat(&RmatConfig::graph500(9, 5_000, 29));
        let x = Matrix::glorot(g.num_nodes(), dim, 3);
        let want = plain.aggregate_values(&x);
        let got = quiet.aggregate_values(&x);
        prop_assert_eq!(got.data(), want.data(), "values must not change");
        prop_assert_eq!(b.recovery.retried_gets, 0);
        prop_assert_eq!(b.recovery.dropped_completions, 0);
    }

    /// Schedule derivation is a pure function of `(seed, spec, num_gpus)`.
    #[test]
    fn identical_specs_derive_identical_schedules(
        seed in 0u64..u64::MAX,
        degrade in 0.05f64..1.0,
        straggler in 1.0f64..4.0,
        drop in 0.0f64..0.5,
        gpus in 1usize..9,
    ) {
        let spec = FaultSpec {
            seed,
            link_degrade: degrade,
            straggler,
            drop_rate: drop,
            ..FaultSpec::quiet()
        };
        let a = FaultSchedule::derive(&spec, gpus);
        let b = FaultSchedule::derive(&spec, gpus);
        prop_assert_eq!(a, b);
    }
}

/// Locked counters for the fixed link-outage scenario. Re-lock only for a
/// deliberate change to the fault or recovery model
/// (`UPDATE_GOLDEN=1 cargo test --test fault_recovery -- --nocapture`
/// prints the measured values).
const GOLDEN_GPUS: usize = 4;
const GOLDEN_DIM: usize = 64;
const GOLDEN_WINDOW: LinkFaultWindow =
    LinkFaultWindow { start_ns: 1_000, end_ns: 20_000, bw_multiplier: 0.5, jitter_ns: 0 };
const GOLDEN_DEGRADED_TRANSFERS: u64 = 1_542;
const GOLDEN_RECOVERY_LATENCY_NS: u64 = 7_424;

#[test]
fn golden_link_outage_recovery() {
    let mut e = engine(GOLDEN_GPUS);
    e.install_fault_schedule(FaultSchedule::link_outage(GOLDEN_GPUS, 1, GOLDEN_WINDOW));
    assert_eq!(e.recovery_action(), RecoveryAction::Rebalance);

    let stats = e.simulate_aggregation(GOLDEN_DIM).unwrap();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!(
            "GOLDEN_DEGRADED_TRANSFERS: u64 = {};\nGOLDEN_RECOVERY_LATENCY_NS: u64 = {};",
            stats.recovery.degraded_transfers, stats.recovery.recovery_latency_ns
        );
        return;
    }
    assert_eq!(stats.recovery.replans, 1, "one re-plan around the degraded link");
    assert_eq!(stats.recovery.uvm_fallbacks, 0, "half bandwidth is not UVM-fallback territory");
    assert_eq!(stats.recovery.retried_gets, 0, "link outages drop no GETs");
    assert_eq!(stats.recovery.degraded_transfers, GOLDEN_DEGRADED_TRANSFERS);
    assert_eq!(stats.recovery.recovery_latency_ns, GOLDEN_RECOVERY_LATENCY_NS);

    // The same scenario replays identically.
    let mut e2 = engine(GOLDEN_GPUS);
    e2.install_fault_schedule(FaultSchedule::link_outage(GOLDEN_GPUS, 1, GOLDEN_WINDOW));
    let stats2 = e2.simulate_aggregation(GOLDEN_DIM).unwrap();
    assert_eq!(stats, stats2);
}

/// Runs the chaos invariant for one fault spec: the run must either
/// terminate with values bit-identical to the fault-free run (recovery
/// succeeded) or return the typed `Unrecoverable` error — never hang,
/// never silently corrupt. Returns the recovery counters when the run
/// terminated normally.
fn chaos_check(spec: &FaultSpec) -> Option<RecoveryStats> {
    let g = rmat(&RmatConfig::graph500(9, 5_000, 29));
    let x = Matrix::glorot(g.num_nodes(), 16, 3);
    let healthy = MggEngine::new(
        &g,
        ClusterSpec::dgx_a100(4),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    )
    .aggregate_values(&x);
    let mut chaotic = MggEngine::new(
        &g,
        ClusterSpec::dgx_a100(4),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    chaotic.install_faults(*spec).expect("chaos spec is valid");
    match chaotic.simulate_aggregation(16) {
        Ok(stats) => {
            let got = chaotic.aggregate_values(&x);
            assert_eq!(
                got.data(),
                healthy.data(),
                "silent corruption after recovery under {spec:?}"
            );
            let sched = chaotic.fault_schedule().expect("faults installed");
            if !sched.dead_gpus().is_empty() {
                assert!(
                    stats.recovery.evacuations > 0 || stats.recovery.uvm_fallbacks > 0,
                    "a dead GPU must be evacuated (or degraded to UVM) under {spec:?}"
                );
                for &dead in &sched.dead_gpus() {
                    assert_eq!(
                        chaotic.placement.split.part_nodes(dead),
                        0,
                        "dead GPU {dead} still owns nodes under {spec:?}"
                    );
                }
            }
            Some(stats.recovery)
        }
        Err(MggError::Unrecoverable(_)) => None,
        Err(other) => panic!("expected recovery or Unrecoverable, got: {other} ({spec:?})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Chaos invariant over derived permanent-fault schedules, optionally
    /// mixed with transient drops: terminate bit-identical or report
    /// `Unrecoverable` — no hangs, no silent wrong answers.
    #[test]
    fn chaos_permanent_faults_recover_or_report(
        seed in 0u64..10_000,
        gpu_failures in 0u32..3,
        link_failures in 0u32..3,
    ) {
        let spec = FaultSpec {
            seed,
            gpu_failures,
            link_failures,
            ..FaultSpec::quiet()
        };
        chaos_check(&spec);
    }
}

/// CI chaos-smoke entry point: exercises the chaos invariant for the seed
/// in `CHAOS_SEED` (no-op when unset, so local `cargo test` is unaffected)
/// and appends recovery counters to the JSON-lines file named by
/// `CHAOS_METRICS` for the workflow's metrics artifact.
#[test]
fn chaos_seed_from_env() {
    let Ok(seed) = std::env::var("CHAOS_SEED") else { return };
    let seed: u64 = seed.parse().expect("CHAOS_SEED must be an unsigned integer");
    let mut lines = Vec::new();
    for (gpu_failures, link_failures) in [(1, 0), (0, 1), (1, 1), (2, 2)] {
        let spec = FaultSpec { seed, gpu_failures, link_failures, ..FaultSpec::quiet() };
        let recovery = chaos_check(&spec);
        let (r, unrecoverable) = match &recovery {
            Some(r) => (*r, false),
            None => (RecoveryStats::default(), true),
        };
        lines.push(format!(
            "{{\"seed\":{seed},\"gpu_failures\":{gpu_failures},\
             \"link_failures\":{link_failures},\"unrecoverable\":{unrecoverable},\
             \"evacuations\":{},\"rerouted_transfers\":{},\"host_staged_transfers\":{},\
             \"dead_peer_gets\":{},\"halted_warps\":{},\"recovery_latency_ns\":{}}}",
            r.evacuations,
            r.rerouted_transfers,
            r.host_staged_transfers,
            r.dead_peer_gets,
            r.halted_warps,
            r.recovery_latency_ns,
        ));
    }
    if let Ok(path) = std::env::var("CHAOS_METRICS") {
        std::fs::write(&path, lines.join("\n") + "\n").expect("write chaos metrics");
    }
}

/// Locked counters for the executed-failover scenarios. Same re-lock
/// protocol as the link-outage golden above.
const GOLDEN_EVAC_HALTED_WARPS: u64 = 84;
const GOLDEN_EVAC_DEAD_PEER_GETS: u64 = 708;
const GOLDEN_EVAC_RECOVERY_LATENCY_NS: u64 = 466_686;
const GOLDEN_REROUTED_TRANSFERS: u64 = 806;
const GOLDEN_UVM_HOST_STAGED: u64 = 4_832;

#[test]
fn golden_gpu_failure_evacuation() {
    let mut e = engine(GOLDEN_GPUS);
    e.install_fault_schedule(FaultSchedule::gpu_failure(GOLDEN_GPUS, 2, 2_000));
    assert_eq!(e.recovery_action(), RecoveryAction::Evacuate);
    let stats = e.simulate_aggregation(GOLDEN_DIM).unwrap();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!(
            "GOLDEN_EVAC_HALTED_WARPS: u64 = {};\nGOLDEN_EVAC_DEAD_PEER_GETS: u64 = {};\
             \nGOLDEN_EVAC_RECOVERY_LATENCY_NS: u64 = {};",
            stats.recovery.halted_warps,
            stats.recovery.dead_peer_gets,
            stats.recovery.recovery_latency_ns
        );
        return;
    }
    assert_eq!(stats.recovery.evacuations, 1);
    assert_eq!(stats.recovery.replans, 1);
    assert_eq!(stats.recovery.halted_warps, GOLDEN_EVAC_HALTED_WARPS);
    assert_eq!(stats.recovery.dead_peer_gets, GOLDEN_EVAC_DEAD_PEER_GETS);
    assert_eq!(stats.recovery.recovery_latency_ns, GOLDEN_EVAC_RECOVERY_LATENCY_NS);
    // The scenario replays identically.
    let mut e2 = engine(GOLDEN_GPUS);
    e2.install_fault_schedule(FaultSchedule::gpu_failure(GOLDEN_GPUS, 2, 2_000));
    assert_eq!(e2.simulate_aggregation(GOLDEN_DIM).unwrap(), stats);
}

#[test]
fn golden_link_down_reroute() {
    let mut e = engine(GOLDEN_GPUS);
    e.install_fault_schedule(FaultSchedule::link_down(GOLDEN_GPUS, 0, 1, 500));
    assert_eq!(e.recovery_action(), RecoveryAction::Reroute);
    let stats = e.simulate_aggregation(GOLDEN_DIM).unwrap();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!(
            "GOLDEN_REROUTED_TRANSFERS: u64 = {};",
            stats.recovery.rerouted_transfers
        );
        return;
    }
    assert_eq!(stats.recovery.evacuations, 0, "no GPU died");
    assert_eq!(stats.recovery.rerouted_transfers, GOLDEN_REROUTED_TRANSFERS);
    assert!(stats.recovery.rerouted_transfers > 0, "pair traffic must relay");
}

#[test]
fn golden_uvm_degrade_on_overflow() {
    let g = rmat(&RmatConfig::graph500(9, 5_000, 29));
    let mut spec = ClusterSpec::dgx_a100(GOLDEN_GPUS);
    spec.gpu.dram_bytes = 96 * 1024; // too small for 3 survivors at dim 64
    let mut e = MggEngine::new(&g, spec, MggConfig::default_fixed(), AggregateMode::Sum);
    e.install_fault_schedule(FaultSchedule::gpu_failure(GOLDEN_GPUS, 1, 1_000));
    let stats = e.simulate_aggregation(GOLDEN_DIM).unwrap();
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        println!("GOLDEN_UVM_HOST_STAGED: u64 = {};", stats.recovery.host_staged_transfers);
        return;
    }
    assert_eq!(stats.recovery.uvm_fallbacks, 1);
    assert_eq!(stats.recovery.host_staged_transfers, GOLDEN_UVM_HOST_STAGED);
    assert!(stats.recovery.host_staged_transfers > 0);
}

#[test]
fn injected_drops_recover_and_match_reference() {
    let g = rmat(&RmatConfig::graph500(9, 5_000, 29));
    let mut e = MggEngine::new(
        &g,
        ClusterSpec::dgx_a100(4),
        MggConfig::default_fixed(),
        AggregateMode::GcnNorm,
    );
    e.install_faults(FaultSpec { seed: 11, drop_rate: 0.1, ..Default::default() }).unwrap();
    let stats = e.simulate_aggregation(32).unwrap();
    assert!(stats.recovery.retried_gets > 0, "10% drop rate must retry some GETs");

    let x = Matrix::glorot(g.num_nodes(), 32, 5);
    let got = e.aggregate_values(&x);
    let want = mgg::gnn::reference::aggregate(&g, &x, AggregateMode::GcnNorm);
    assert!(got.max_abs_diff(&want) < 1e-3, "recovered outputs must match the CPU reference");
}

/// `KernelStats.recovery` is the one owner of the retry and lost-completion
/// counts, so check it against the fault schedule itself. Drop decisions
/// are a pure function of (PE, serial) and each PE numbers its GETs from 0,
/// so a PE that issues `n` GETs retries exactly the serials below `n` that
/// `drops_get` names and loses exactly those `drops_completion` names.
/// Every GET crosses the fabric once plus once per retry, so a PE's ingress
/// request count is `n` plus its drops. Without a cache `n` is the PE's
/// remote adjacency count; with one, `n` is solved from that identity and
/// the GETs must be exactly the cache misses.
#[test]
fn recovery_counters_match_the_fault_schedule() {
    let lfu_1mib = CacheConfig { capacity_bytes: 1 << 20, policy: CachePolicy::Lfu };
    for scale in [9, 10] {
        let g = rmat(&RmatConfig::graph500(scale, 10_000, 2024));
        for gpus in [2, 4, 8] {
            for drop_rate in [0.02, 0.1, 0.2] {
                for cache in [None, Some(lfu_1mib)] {
                    check_counters_against_schedule(&g, gpus, drop_rate, cache);
                }
            }
        }
    }
}

/// One cell of `recovery_counters_match_the_fault_schedule`, at dim 16.
fn check_counters_against_schedule(
    g: &CsrGraph,
    gpus: usize,
    drop_rate: f64,
    cache: Option<CacheConfig>,
) {
    let cell = format!("{} nodes, {gpus} GPUs, drop rate {drop_rate}, {cache:?}", g.num_nodes());
    let spec = FaultSpec { seed: 11, drop_rate, ..Default::default() };
    let schedule = FaultSchedule::derive(&spec, gpus);
    let (cluster, config) = (ClusterSpec::dgx_a100(gpus), MggConfig::default_fixed());
    let mut e = MggEngine::new(g, cluster, config, AggregateMode::Sum);
    e.set_cache(cache);
    e.install_faults(spec).unwrap();
    let stats = e.simulate_aggregation(16).unwrap();
    let (mut gets, mut retries, mut lost) = (0, 0, 0);
    for pe in 0..gpus {
        let requests = stats.traffic.link_in[pe].requests;
        let count = |n: u64, drops: fn(&FaultSchedule, usize, u64) -> bool| {
            (0..n).filter(|&s| drops(&schedule, pe, s)).count() as u64
        };
        let n = if cache.is_none() {
            e.placement.parts[pe].remote.num_entries() as u64
        } else {
            // `n + drops(n)` grows by 1 or 2 per GET, so at most one `n`
            // reaches `requests` exactly.
            let (mut n, mut crossed) = (0, 0);
            while crossed < requests {
                crossed += 1 + u64::from(schedule.drops_get(pe, n));
                n += 1;
            }
            n
        };
        let pe_retries = count(n, FaultSchedule::drops_get);
        assert_eq!(requests, n + pe_retries, "{cell}: PE {pe} ingress requests");
        gets += n;
        retries += pe_retries;
        lost += count(n, FaultSchedule::drops_completion);
    }
    assert!(retries > 0, "{cell}: no GET was dropped");
    assert_eq!(stats.recovery.retried_gets, retries, "{cell}: retries");
    assert_eq!(stats.recovery.dropped_completions, lost, "{cell}: lost completions");
    if cache.is_some() {
        assert_eq!(gets, stats.cache.misses, "{cell}: GETs against cache misses");
    }
}
