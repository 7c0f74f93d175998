//! Golden regression tests: exact simulated values for fixed scenarios.
//!
//! The simulator is fully deterministic, so these values reproduce
//! bit-identically on every platform. They exist to catch *unintentional*
//! changes to the timing model — if you change the model on purpose
//! (channel constants, scheduling rules, kernel lowering), re-run with
//! `UPDATE_GOLDEN=1 cargo test --test golden -- --nocapture` and paste the
//! printed values.

use mgg::baselines::{DirectNvshmemEngine, UvmGnnEngine};
use mgg::core::{CacheConfig, CachePolicy, MggConfig, MggEngine};
use mgg::gnn::reference::AggregateMode;
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
