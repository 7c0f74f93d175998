//! Property-based determinism of the serving layer (proptest).
//!
//! The serving contract is replay identity: a `(workload seed, fault
//! seed, config)` triple fully determines every admission decision,
//! batch close, breaker transition, and latency percentile. Two
//! guarantees are checked over arbitrary arrival shapes, load levels,
//! skews, deadlines and transient fault scenarios:
//!
//! 1. **Run-to-run identity.** Repeating a run yields a bit-identical
//!    [`ServeOutcome`] — the full per-query decision trace, the breaker
//!    transition log, the summary (digest included) — and a bit-identical
//!    telemetry [`snapshot_digest`].
//! 2. **Thread-count invariance.** A sweep of scenarios executed on the
//!    deterministic worker pool produces identical outcomes at 1 and 4
//!    worker threads: parallelism moves wall-clock, never results.
//!
//! [`ServeOutcome`]: mgg::serve::ServeOutcome
//! [`snapshot_digest`]: mgg::serve::snapshot_digest

use std::sync::OnceLock;

use proptest::prelude::*;

use mgg::churn::ChurnSchedule;
use mgg::core::{MggConfig, MggEngine};
use mgg::fault::{FaultSchedule, FaultSpec};
use mgg::gnn::reference::AggregateMode;
use mgg::graph::generators::rmat::{rmat, RmatConfig};
use mgg::serve::{snapshot_digest, ArrivalKind, PriorityMix, ServeConfig, Server, WorkloadSpec};
use mgg::sim::ClusterSpec;
use mgg::telemetry::Telemetry;

const GPUS: usize = 4;

/// One calibrated server shared across cases: `Server::run` takes `&self`,
/// so calibration cost is paid once and every case replays against the
/// same launch-cost model.
fn server() -> &'static Server {
    static S: OnceLock<Server> = OnceLock::new();
    S.get_or_init(|| {
        let graph = rmat(&RmatConfig::graph500(9, 8_000, 23));
        let mut engine = MggEngine::new(
            &graph,
            ClusterSpec::dgx_a100(GPUS),
            MggConfig::default_fixed(),
            AggregateMode::Sum,
        );
        Server::new(&mut engine, 64, ServeConfig::default()).unwrap()
    })
}

fn arb_arrival() -> impl Strategy<Value = ArrivalKind> {
    prop_oneof![
        Just(ArrivalKind::Poisson),
        (100_000u64..800_000, 5u8..81)
            .prop_map(|(period_ns, duty_pct)| ArrivalKind::Bursty { period_ns, duty_pct }),
        (0.1f64..1.5, 0.5f64..3.0)
            .prop_map(|(from_mult, to_mult)| ArrivalKind::Ramp { from_mult, to_mult }),
    ]
}

/// Workloads from deep underload to 2.5x overload, uniform to heavily
/// skewed, with deadlines from tight (300 us) to loose (2 ms).
fn arb_spec() -> impl Strategy<Value = WorkloadSpec> {
    (0u64..1000, arb_arrival(), 0.3f64..2.5, 300_000u64..2_000_000, 0.0f64..1.5).prop_map(
        |(seed, arrival, load_mult, deadline_ns, zipf_s)| {
            let cal = server().calibration();
            WorkloadSpec {
                seed,
                arrival,
                qps: cal.saturation_qps * load_mult,
                duration_ns: 1_000_000,
                deadline_ns,
                zipf_s,
                num_nodes: 1 << 9,
                mix: PriorityMix::gold_only(),
            }
        },
    )
}

/// Quiet or transiently faulty (stragglers, degraded links, dropped
/// completions) — the scenarios the breaker and hedging react to.
fn arb_faults() -> impl Strategy<Value = FaultSchedule> {
    prop_oneof![
        Just(FaultSchedule::quiet(GPUS)),
        (0u64..500, 1.0f64..5.0, 0.4f64..1.0, 0.0f64..0.3).prop_map(
            |(seed, straggler, link_degrade, drop_rate)| {
                FaultSchedule::derive(
                    &FaultSpec { seed, straggler, link_degrade, drop_rate, ..FaultSpec::quiet() },
                    GPUS,
                )
            }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn repeated_runs_are_bit_identical(spec in arb_spec(), sched in arb_faults()) {
        let s = server();
        let tel_a = Telemetry::enabled();
        let tel_b = Telemetry::enabled();
        let a = s.run(&spec, &sched, &tel_a);
        let b = s.run(&spec, &sched, &tel_b);
        prop_assert_eq!(&a.records, &b.records);
        prop_assert_eq!(&a.transitions, &b.transitions);
        prop_assert_eq!(&a.summary, &b.summary);
        prop_assert_eq!(
            snapshot_digest(&tel_a.snapshot()),
            snapshot_digest(&tel_b.snapshot()),
            "telemetry digests must replay identically"
        );
        // The decision digest is the replay fingerprint: it must be
        // stable, and sane accounting must hold on any input.
        prop_assert_eq!(&a.summary.digest, &b.summary.digest);
        let sum = a.summary.admitted
            + a.summary.shed_queue
            + a.summary.shed_rate
            + a.summary.shed_infeasible
            + a.summary.shed_unavailable;
        prop_assert_eq!(sum, a.summary.offered, "every offered query is classified exactly once");
        prop_assert_eq!(
            a.summary.completed_in_deadline + a.summary.deadline_violations,
            a.summary.admitted,
            "every admitted query completes on exactly one side of its deadline"
        );
    }

    #[test]
    fn sweeps_are_thread_count_invariant(
        spec in arb_spec(),
        sched in arb_faults(),
        seeds in proptest::collection::vec(0u64..1000, 2..5),
    ) {
        let s = server();
        let scenarios: Vec<(WorkloadSpec, FaultSchedule, ChurnSchedule)> = seeds
            .into_iter()
            .map(|seed| {
                let quiet = ChurnSchedule::quiet(spec.duration_ns);
                (WorkloadSpec { seed, ..spec }, sched.clone(), quiet)
            })
            .collect();
        let wide = mgg::runtime::with_threads(4, || s.run_sweep(&scenarios));
        let narrow = mgg::runtime::with_threads(1, || s.run_sweep(&scenarios));
        prop_assert_eq!(wide.len(), narrow.len());
        for (w, n) in wide.iter().zip(narrow.iter()) {
            prop_assert_eq!(&w.summary.digest, &n.summary.digest);
            prop_assert_eq!(&w.records, &n.records);
            prop_assert_eq!(&w.transitions, &n.transitions);
        }
    }
}
