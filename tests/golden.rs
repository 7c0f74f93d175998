//! Golden regression tests: exact simulated values for fixed scenarios.
//!
//! The simulator is fully deterministic, so these values reproduce
//! bit-identically on every platform. They exist to catch *unintentional*
//! changes to the timing model, and (`golden_value_digests`) to the exact
//! output bits of the value plane — if you change either on purpose
//! (channel constants, scheduling rules, kernel lowering), re-run with
//! `UPDATE_GOLDEN=1 cargo test --test golden -- --nocapture` and paste the
//! printed values.

use mgg::baselines::{DirectNvshmemEngine, UvmGnnEngine};
use mgg::core::{CacheConfig, CachePolicy, MggConfig, MggEngine};
use mgg::fault::FaultSpec;
use mgg::gnn::gat::GatBackend;
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::Matrix;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::sim::ClusterSpec;

fn scenario() -> mgg::graph::CsrGraph {
    rmat(&RmatConfig::graph500(10, 10_000, 2024))
}

struct Golden {
    name: &'static str,
    got: u64,
    want: u64,
}

fn check(goldens: &[Golden]) {
    let update = std::env::var("UPDATE_GOLDEN").is_ok();
    let mut failures = Vec::new();
    for g in goldens {
        if update {
            println!("{}: {}", g.name, g.got);
        } else if g.got != g.want {
            failures.push(format!("{}: got {}, golden {}", g.name, g.got, g.want));
        }
    }
    assert!(
        failures.is_empty(),
        "timing model changed (intentional? update the goldens):\n{}",
        failures.join("\n")
    );
}

#[test]
fn golden_engine_timings() {
    let g = scenario();
    let spec = ClusterSpec::dgx_a100(4);

    let mut mgg = MggEngine::new(
        &g,
        spec.clone(),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    let mgg_16 = mgg.simulate_aggregation_ns(16).unwrap();
    let mgg_128 = mgg.simulate_aggregation_ns(128).unwrap();

    let mut uvm = UvmGnnEngine::new(&g, spec.clone(), AggregateMode::Sum);
    let uvm_128 = uvm.simulate_aggregation_ns(128);

    let mut direct = DirectNvshmemEngine::new(&g, spec, AggregateMode::Sum);
    let direct_128 = direct.simulate_aggregation_ns(128);

    check(&[
        // Locked against the in-tree `shims/rand` xoshiro256++ stream; the
        // graph generator's random inputs (and hence these timings) change
        // whenever that stream does.
        Golden { name: "mgg_dim16_ns", got: mgg_16, want: 15_146 },
        Golden { name: "mgg_dim128_ns", got: mgg_128, want: 16_931 },
        Golden { name: "uvm_dim128_ns", got: uvm_128, want: 79_443 },
        Golden { name: "direct_dim128_ns", got: direct_128, want: 308_511 },
    ]);
}

/// The cached timing plane: two back-to-back dim-16 layers with a 16 KiB
/// LFU cache per GPU, small enough to evict. Residency carries from the
/// first layer into the second, so these pin cache planning, the hit and
/// fill lowering and cross-layer reuse together.
#[test]
fn golden_cached_timings() {
    let g = scenario();
    let mut mgg = MggEngine::new(
        &g,
        ClusterSpec::dgx_a100(4),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    mgg.set_cache(Some(CacheConfig { capacity_bytes: 16 << 10, policy: CachePolicy::Lfu }));
    let first = mgg.simulate_aggregation(16).unwrap();
    let second = mgg.simulate_aggregation(16).unwrap();

    check(&[
        Golden { name: "cached_layer1_makespan_ns", got: first.makespan_ns(), want: 8_619 },
        Golden { name: "cached_layer1_hits", got: first.cache.hits, want: 8_437 },
        Golden { name: "cached_layer1_misses", got: first.cache.misses, want: 2_905 },
        Golden { name: "cached_layer1_evictions", got: first.cache.evictions, want: 1_881 },
        Golden { name: "cached_layer2_makespan_ns", got: second.makespan_ns(), want: 6_633 },
        Golden { name: "cached_layer2_hits", got: second.cache.hits, want: 9_688 },
        Golden { name: "cached_layer2_misses", got: second.cache.misses, want: 1_654 },
        Golden { name: "cached_layer2_evictions", got: second.cache.evictions, want: 1_654 },
    ]);
}

/// FNV-1a over the little-endian bytes of a stream of 64-bit words.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let bytes = words.into_iter().flat_map(u64::to_le_bytes);
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn bits(values: &[f32]) -> impl Iterator<Item = u64> + '_ {
    values.iter().map(|v| u64::from(v.to_bits()))
}

/// The value plane, bit for bit: a digest of every output float of each
/// engine aggregation path, plus a faulty engine's values and its timing-plane
/// recovery counters. The tolerance-based value tests would accept a
/// reordered float sum; these would not.
#[test]
fn golden_value_digests() {
    let g = scenario();
    let n = g.num_nodes();
    let x = Matrix::glorot(n, 16, 5);
    let engine =
        |mode| MggEngine::new(&g, ClusterSpec::dgx_a100(4), MggConfig::default_fixed(), mode);
    let values = |mode| fnv1a(bits(engine(mode).aggregate_values(&x).data()));

    let w: Vec<f32> = (0..g.num_edges()).map(|i| ((i % 11) as f32) / 10.0).collect();
    let weighted = engine(AggregateMode::Sum).aggregate_values_weighted(&x, &w);
    let s_dst: Vec<f32> = (0..n).map(|i| ((i * 7) % 13) as f32 / 13.0 - 0.5).collect();
    let s_src: Vec<f32> = (0..n).map(|i| ((i * 3) % 5) as f32 / 5.0).collect();
    let (attention, _) = engine(AggregateMode::Sum).attention(&s_dst, &s_src, 0.2);
    let mut faulty = engine(AggregateMode::Sum);
    faulty.install_faults(FaultSpec { seed: 11, drop_rate: 0.1, ..FaultSpec::quiet() }).unwrap();
    let recovery = faulty.simulate_aggregation(16).unwrap().recovery;
    let faulty_sum = fnv1a(bits(faulty.aggregate_values(&x).data()));

    let sum = values(AggregateMode::Sum);
    let mean = values(AggregateMode::Mean);
    let gcn = values(AggregateMode::GcnNorm);
    let weighted = fnv1a(bits(weighted.data()));
    let attention = fnv1a(bits(&attention));
    check(&[
        Golden { name: "values_sum", got: sum, want: 7_231_656_510_207_867_777 },
        Golden { name: "values_mean", got: mean, want: 10_336_873_387_666_600_586 },
        Golden { name: "values_gcn_norm", got: gcn, want: 9_383_458_998_183_400_342 },
        Golden { name: "values_weighted", got: weighted, want: 8_834_437_033_720_453_084 },
        Golden { name: "attention_weights", got: attention, want: 5_350_917_188_559_715_227 },
        // Faults cost retries and timeouts in the timing plane; they never
        // move a value, so the faulty engine's digest is `values_sum`.
        Golden { name: "faulty_values_sum", got: faulty_sum, want: 7_231_656_510_207_867_777 },
        Golden { name: "faulty_retried_gets", got: recovery.retried_gets, want: 1_145 },
        Golden { name: "faulty_dropped_completions", got: recovery.dropped_completions, want: 1_132 },
        Golden { name: "faulty_recovery_latency_ns", got: recovery.recovery_latency_ns, want: 4_099_428 },
    ]);
}

#[test]
fn golden_ordering_is_the_paper_ordering() {
    // Independent of exact values: MGG < UVM < direct on this scenario.
    let g = scenario();
    let spec = ClusterSpec::dgx_a100(4);
    let mut mgg = MggEngine::new(
        &g,
        spec.clone(),
        MggConfig::default_fixed(),
        AggregateMode::Sum,
    );
    let t_mgg = mgg.simulate_aggregation_ns(128).unwrap();
    let mut uvm = UvmGnnEngine::new(&g, spec.clone(), AggregateMode::Sum);
    let t_uvm = uvm.simulate_aggregation_ns(128);
    let mut direct = DirectNvshmemEngine::new(&g, spec, AggregateMode::Sum);
    let t_direct = direct.simulate_aggregation_ns(128);
    assert!(t_mgg < t_uvm, "mgg {t_mgg} vs uvm {t_uvm}");
    assert!(t_uvm < t_direct, "uvm {t_uvm} vs direct {t_direct}");
}
