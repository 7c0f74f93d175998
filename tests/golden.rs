//! Golden regression tests: exact simulated values for fixed scenarios.
//!
//! The simulator is fully deterministic, so these values reproduce
//! bit-identically on every platform. They exist to catch *unintentional*
//! changes to the timing model, and (`golden_value_digests`) to the exact
//! output bits of the value plane — if you change either on purpose
//! (channel constants, scheduling rules, kernel lowering), re-run with
//! `UPDATE_GOLDEN=1 cargo test --test golden -- --nocapture` and paste the
//! printed values.

use mgg::baselines::{
    nccl_ring_study, DgclEngine, DirectNvshmemEngine, PutBasedEngine, UvmGnnEngine,
};
use mgg::churn::{
    BurstWindow, ChurnEventKind, ChurnSchedule, ChurnSpec, GraphDelta, MembershipChange,
    MembershipEvent,
};
use mgg::core::{CacheConfig, CachePolicy, MggConfig, MggEngine, ReplicatedEngine};
use mgg::fault::FaultSpec;
use mgg::gnn::features::{label_features, split_masks};
use mgg::gnn::gat::GatBackend;
use mgg::gnn::reference::AggregateMode;
use mgg::gnn::train::{train_gcn, TrainConfig};
use mgg::gnn::Matrix;
use mgg::graph::generators::random::{sbm, SbmConfig};
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

    let mut direct = DirectNvshmemEngine::new(&g, spec);
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

/// The other comparison engines' timing models on the golden scenario:
/// each one's total and its exposed phase (DGCL's allgather, the PUT
/// variant's barrier, the replicated engine's sum-reduce) at dims 16 and
/// 128, and both sides of the Figure-2 ring study at dim 64.
#[test]
fn golden_comparison_timings() {
    let g = scenario();
    let spec = ClusterSpec::dgx_a100(4);

    let (mut dgcl, _) = DgclEngine::new(&g, spec.clone());
    let dgcl_16 = dgcl.simulate_aggregation_ns(16);
    let dgcl_gather_16 = dgcl.last_allgather_ns;
    let dgcl_128 = dgcl.simulate_aggregation_ns(128);
    let dgcl_gather_128 = dgcl.last_allgather_ns;

    let mut put = PutBasedEngine::new(&g, spec.clone());
    let put_16 = put.simulate_aggregation_ns(16);
    let put_barrier_16 = put.last_barrier_ns;
    let put_128 = put.simulate_aggregation_ns(128);
    let put_barrier_128 = put.last_barrier_ns;

    let mut rep = ReplicatedEngine::new(&g, spec.clone(), 16);
    let rep_16 = rep.simulate_aggregation_ns(16);
    let rep_reduce_16 = rep.last_reduce_ns;
    let rep_128 = rep.simulate_aggregation_ns(128);
    let rep_reduce_128 = rep.last_reduce_ns;

    let ring = nccl_ring_study(&g, spec, 64);

    check(&[
        Golden { name: "dgcl_dim16_ns", got: dgcl_16, want: 176_699 },
        Golden { name: "dgcl_allgather_dim16_ns", got: dgcl_gather_16, want: 16_423 },
        Golden { name: "dgcl_dim128_ns", got: dgcl_128, want: 183_876 },
        Golden { name: "dgcl_allgather_dim128_ns", got: dgcl_gather_128, want: 18_679 },
        Golden { name: "put_dim16_ns", got: put_16, want: 33_093 },
        Golden { name: "put_barrier_dim16_ns", got: put_barrier_16, want: 12_658 },
        Golden { name: "put_dim128_ns", got: put_128, want: 43_186 },
        Golden { name: "put_barrier_dim128_ns", got: put_barrier_128, want: 19_322 },
        Golden { name: "replicated_dim16_ns", got: rep_16, want: 15_943 },
        Golden { name: "replicated_reduce_dim16_ns", got: rep_reduce_16, want: 8_588 },
        Golden { name: "replicated_dim128_ns", got: rep_128, want: 20_174 },
        Golden { name: "replicated_reduce_dim128_ns", got: rep_reduce_128, want: 11_287 },
        Golden { name: "ring_comm_dim64_ns", got: ring.comm_ns, want: 312_905 },
        Golden { name: "ring_comp_dim64_ns", got: ring.comp_ns, want: 21_317 },
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
    let mut direct = DirectNvshmemEngine::new(&g, spec);
    let t_direct = direct.simulate_aggregation_ns(128);
    assert!(t_mgg < t_uvm, "mgg {t_mgg} vs uvm {t_uvm}");
    assert!(t_uvm < t_direct, "uvm {t_uvm} vs direct {t_direct}");
}

/// The UVM baseline's fault accounting on the golden scenario: faults,
/// hits, fault-handling time and migrated bytes of every GPU, folded
/// into one digest, beside the total fault count.
#[test]
fn golden_uvm_fault_stats() {
    let g = scenario();
    let mut uvm = UvmGnnEngine::new(&g, ClusterSpec::dgx_a100(4), AggregateMode::Sum);
    uvm.simulate_aggregation(128);
    let stats = uvm.last_uvm_stats.clone().expect("stats recorded");
    let per_gpu = fnv1a(
        stats
            .per_gpu
            .iter()
            .flat_map(|s| [s.faults, s.hits, s.fault_duration_ns, s.migrated_bytes]),
    );
    check(&[
        Golden { name: "uvm_total_faults", got: stats.total_faults(), want: 41 },
        Golden { name: "uvm_per_gpu_digest", got: per_gpu, want: 17_422_336_457_166_164_966 },
    ]);
}

/// DGCL's preprocessing result: the multilevel partitioner's edge cut
/// and every node's label.
#[test]
fn golden_dgcl_partition() {
    let g = scenario();
    let (dgcl, report) = DgclEngine::new(&g, ClusterSpec::dgx_a100(4));
    let labels = fnv1a(dgcl.labels().iter().map(|&l| u64::from(l)));
    check(&[
        Golden { name: "dgcl_edge_cut", got: report.dgcl_edge_cut, want: 8_162 },
        Golden { name: "dgcl_labels", got: labels, want: 9_265_945_465_360_276_998 },
    ]);
}

/// Table 5's trainer, bit for bit: every epoch's loss and the bits of
/// both accuracies of one full-graph and one sampled run on a small
/// two-community task.
#[test]
fn golden_train_gcn() {
    let task = sbm(&SbmConfig {
        block_sizes: vec![100, 100],
        avg_degree_in: 8.0,
        avg_degree_out: 1.0,
        seed: 51,
    });
    let x = label_features(&task.labels, 2, 16, 0.7, 52);
    let (tr, va, te) = split_masks(task.graph.num_nodes(), 0.4, 0.2, 53);
    let run = |cfg: &TrainConfig| {
        let r = train_gcn(&task.graph, &x, &task.labels, 2, &tr, &va, &te, cfg);
        let losses = fnv1a(bits(&r.train_losses));
        (losses, r.val_accuracy.to_bits(), r.test_accuracy.to_bits())
    };
    let (full_loss, full_val, full_test) = run(&TrainConfig::paper(20, 54));
    let (samp_loss, samp_val, samp_test) = run(&TrainConfig::paper_sampled(20, 54, 3));
    check(&[
        Golden { name: "train_full_losses", got: full_loss, want: 17_651_622_371_581_315_583 },
        Golden { name: "train_full_val_acc", got: full_val, want: 4_607_182_418_800_017_408 },
        Golden { name: "train_full_test_acc", got: full_test, want: 4_606_967_961_674_904_527 },
        Golden { name: "train_sampled_losses", got: samp_loss, want: 5_784_964_660_830_589_923 },
        Golden { name: "train_sampled_val_acc", got: samp_val, want: 4_607_182_418_800_017_408 },
        Golden { name: "train_sampled_test_acc", got: samp_test, want: 4_606_967_961_674_904_527 },
    ]);
}

/// A steady churn stream with a burst window and scripted membership,
/// event by event: every fence instant, every delta and its targets.
#[test]
fn golden_churn_schedule() {
    let mut spec = ChurnSpec::steady(61, 3_000_000, 20_000_000.0);
    spec.burst = Some(BurstWindow { start_ns: 1_000_000, end_ns: 1_500_000, mult: 4.0 });
    spec.membership = vec![
        MembershipEvent { shard: 1, at_ns: 750_000, change: MembershipChange::Drain },
        MembershipEvent { shard: 1, at_ns: 1_250_000, change: MembershipChange::Leave },
        MembershipEvent { shard: 1, at_ns: 2_000_000, change: MembershipChange::Join },
    ];
    let sched = ChurnSchedule::derive(&spec, 2_048);
    let mut words = Vec::new();
    for ev in sched.events() {
        words.extend([ev.at_ns, ev.seq]);
        match &ev.kind {
            ChurnEventKind::Membership(m) => {
                words.extend([0, u64::from(m.shard), m.at_ns, m.change as u64]);
            }
            ChurnEventKind::Fence { deltas } => {
                words.extend([1, deltas.len() as u64]);
                for d in deltas {
                    match d {
                        GraphDelta::EdgeInsert { src, dst } => {
                            words.extend([10, u64::from(*src), u64::from(*dst)]);
                        }
                        GraphDelta::EdgeRemove { src, dst } => {
                            words.extend([11, u64::from(*src), u64::from(*dst)]);
                        }
                        GraphDelta::FeatureUpdate { node } => words.extend([12, u64::from(*node)]),
                        GraphDelta::NodeInsert { neighbors } => {
                            words.push(13);
                            words.extend(neighbors.iter().map(|&u| u64::from(u)));
                        }
                        GraphDelta::NodeRemove { node } => words.extend([14, u64::from(*node)]),
                    }
                }
            }
        }
    }
    check(&[
        Golden { name: "churn_deltas", got: sched.num_deltas(), want: 87_921 },
        Golden { name: "churn_events", got: sched.events().len() as u64, want: 15 },
        Golden { name: "churn_event_digest", got: fnv1a(words), want: 17_327_083_744_325_612_923 },
    ]);
}
