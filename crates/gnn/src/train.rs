//! Full-batch GCN training with hand-derived gradients.
//!
//! Powers the Table-5 accuracy-latency study: the same model is trained
//! once with full-graph aggregation and once with per-epoch neighbor
//! sampling, and the test accuracies are compared. Gradients are derived
//! manually for the 2-layer GCN (Equation 4):
//!
//! ```text
//! H1 = Â X          A1 = H1 W1      R = relu(A1)
//! H2 = Â R          Z  = H2 W2      P = softmax(Z)
//! dZ  = (P - Y) / |train|                (masked rows only)
//! dW2 = H2^T dZ      dH2 = dZ W2^T
//! dR  = Â^T dH2      dA1 = dR ⊙ relu'(A1)
//! dW1 = H1^T dA1
//! ```
//!
//! `Â^T` uses [`crate::reference::aggregate_adjoint`], which matters when
//! training on sampled (directed) subgraphs.

use mgg_graph::CsrGraph;

use crate::models::ModelKind;
use crate::reference::{aggregate, aggregate_adjoint, AggregateMode};
use crate::sampling::{sample_neighbors, SamplingConfig};
use crate::tensor::{accuracy, cross_entropy, Adam, Matrix};

/// Adam learning rate.
const LR: f32 = 0.01;

/// Training hyperparameters. The model is the paper's 2-layer GCN, so the
/// hidden width is [`ModelKind::Gcn`]'s.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Weight-init and sampling seed.
    pub seed: u64,
    /// When set, each epoch trains on a freshly sampled subgraph.
    pub sampling: Option<SamplingConfig>,
}

impl TrainConfig {
    /// Paper-style defaults (2-layer GCN with 16 hidden dims).
    pub fn paper(epochs: usize, seed: u64) -> Self {
        TrainConfig { epochs, seed, sampling: None }
    }

    /// Same, with neighbor sampling at the given fanout.
    pub fn paper_sampled(epochs: usize, seed: u64, fanout: usize) -> Self {
        TrainConfig {
            sampling: Some(SamplingConfig { fanout, seed }),
            ..Self::paper(epochs, seed)
        }
    }
}

/// Outcome of one training run.
#[derive(Debug, Clone)]
pub struct TrainResult {
    /// Loss after each epoch.
    pub train_losses: Vec<f32>,
    /// Accuracy on the validation split.
    pub val_accuracy: f64,
    /// Accuracy on the test split.
    pub test_accuracy: f64,
    /// Directed edges aggregated per epoch (full graph or sampled) —
    /// proportional to the aggregation latency the engines would simulate.
    pub edges_per_epoch: usize,
}

/// Trains a 2-layer GCN and evaluates on the masks.
///
/// Evaluation always uses the *full* graph (standard practice for
/// sampled-training GNNs is full-neighborhood inference at test time;
/// the accuracy gap of Table 5 comes from the training signal).
#[allow(clippy::too_many_arguments)]
pub fn train_gcn(
    graph: &CsrGraph,
    x: &Matrix,
    labels: &[u32],
    classes: usize,
    train_mask: &[bool],
    val_mask: &[bool],
    test_mask: &[bool],
    cfg: &TrainConfig,
) -> TrainResult {
    let n = graph.num_nodes();
    assert_eq!(x.rows(), n, "one feature row per node");
    assert_eq!(labels.len(), n, "one label per node");
    let hidden = ModelKind::Gcn.hidden_dim();
    let mut w1 = Matrix::glorot(x.cols(), hidden, cfg.seed);
    let mut w2 = Matrix::glorot(hidden, classes, cfg.seed.wrapping_add(1));
    let mut opt1 = Adam::new(w1.data().len(), LR);
    let mut opt2 = Adam::new(w2.data().len(), LR);
    let batch = train_mask.iter().filter(|&&b| b).count().max(1);
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut edges_per_epoch = graph.num_edges();

    for epoch in 0..cfg.epochs {
        // Pick this epoch's aggregation graph.
        let sampled;
        let g_train: &CsrGraph = match cfg.sampling {
            Some(sc) => {
                sampled = sample_neighbors(
                    graph,
                    &SamplingConfig { fanout: sc.fanout, seed: sc.seed.wrapping_add(epoch as u64) },
                );
                edges_per_epoch = sampled.num_edges();
                &sampled
            }
            None => graph,
        };

        // Forward.
        let h1 = aggregate(g_train, x, AggregateMode::GcnNorm);
        let a1 = h1.matmul(&w1);
        let mut r = a1.clone();
        r.relu_inplace();
        let h2 = aggregate(g_train, &r, AggregateMode::GcnNorm);
        let z = h2.matmul(&w2);
        let mut p = z.clone();
        p.softmax_rows_inplace();
        losses.push(cross_entropy(&p, labels, Some(train_mask)));

        // Backward.
        let mut dz = p;
        for (row, (&y, &m)) in labels.iter().zip(train_mask).enumerate() {
            let out = dz.row_mut(row);
            if m {
                out[y as usize] -= 1.0;
                for v in out.iter_mut() {
                    *v /= batch as f32;
                }
            } else {
                out.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        let dw2 = h2.t_matmul(&dz);
        let dh2 = dz.matmul_t(&w2);
        let mut dr = aggregate_adjoint(g_train, &dh2, AggregateMode::GcnNorm);
        Matrix::relu_backward_inplace(&mut dr, &a1);
        let dw1 = h1.t_matmul(&dr);

        opt2.step(&mut w2, &dw2);
        opt1.step(&mut w1, &dw1);
    }

    // Full-graph evaluation.
    let h1 = aggregate(graph, x, AggregateMode::GcnNorm);
    let mut r = h1.matmul(&w1);
    r.relu_inplace();
    let h2 = aggregate(graph, &r, AggregateMode::GcnNorm);
    let logits = h2.matmul(&w2);
    TrainResult {
        train_losses: losses,
        val_accuracy: accuracy(&logits, labels, Some(val_mask)),
        test_accuracy: accuracy(&logits, labels, Some(test_mask)),
        edges_per_epoch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::{label_features, split_masks};
    use mgg_graph::generators::random::{sbm, SbmConfig};

    fn toy_task() -> (CsrGraph, Matrix, Vec<u32>, Vec<bool>, Vec<bool>, Vec<bool>) {
        let out = sbm(&SbmConfig {
            block_sizes: vec![120, 120],
            avg_degree_in: 10.0,
            avg_degree_out: 1.0,
            seed: 21,
        });
        let x = label_features(&out.labels, 2, 16, 0.8, 22);
        let (tr, va, te) = split_masks(out.graph.num_nodes(), 0.4, 0.2, 23);
        (out.graph, x, out.labels, tr, va, te)
    }

    #[test]
    fn loss_decreases_and_accuracy_beats_chance() {
        let (g, x, y, tr, va, te) = toy_task();
        let res =
            train_gcn(&g, &x, &y, 2, &tr, &va, &te, &TrainConfig::paper(60, 1));
        let first = res.train_losses[0];
        let last = *res.train_losses.last().unwrap();
        assert!(last < 0.7 * first, "loss {first} -> {last}");
        assert!(res.test_accuracy > 0.8, "test accuracy {}", res.test_accuracy);
    }

    #[test]
    fn sampling_reduces_edges_and_costs_accuracy() {
        let (g, x, y, tr, va, te) = toy_task();
        let full = train_gcn(&g, &x, &y, 2, &tr, &va, &te, &TrainConfig::paper(60, 1));
        let sampled = train_gcn(
            &g,
            &x,
            &y,
            2,
            &tr,
            &va,
            &te,
            &TrainConfig::paper_sampled(60, 1, 2),
        );
        assert!(sampled.edges_per_epoch < full.edges_per_epoch);
        assert!(
            sampled.test_accuracy <= full.test_accuracy + 0.02,
            "sampled {} vs full {}",
            sampled.test_accuracy,
            full.test_accuracy
        );
    }

    #[test]
    fn gradient_check_small_gcn() {
        // Numerical gradient check of dW1 on a tiny task.
        let (g, x, y, tr, _, _) = toy_task();
        // Shrink to 30 nodes for the O(params * forward) check... use a
        // sub-problem by masking only a few training nodes.
        let w1 = Matrix::glorot(x.cols(), 4, 3);
        let w2 = Matrix::glorot(4, 2, 4);
        let batch = tr.iter().filter(|&&b| b).count().max(1);

        let loss = |w1: &Matrix| -> f64 {
            let h1 = aggregate(&g, &x, AggregateMode::GcnNorm);
            let a1 = h1.matmul(w1);
            let mut r = a1.clone();
            r.relu_inplace();
            let h2 = aggregate(&g, &r, AggregateMode::GcnNorm);
            let z = h2.matmul(&w2);
            let mut p = z;
            p.softmax_rows_inplace();
            cross_entropy(&p, &y, Some(&tr)) as f64
        };

        // Analytic dW1.
        let h1 = aggregate(&g, &x, AggregateMode::GcnNorm);
        let a1 = h1.matmul(&w1);
        let mut r = a1.clone();
        r.relu_inplace();
        let h2 = aggregate(&g, &r, AggregateMode::GcnNorm);
        let z = h2.matmul(&w2);
        let mut dz = z;
        dz.softmax_rows_inplace();
        for (row, (&yy, &m)) in y.iter().zip(&tr).enumerate() {
            let out = dz.row_mut(row);
            if m {
                out[yy as usize] -= 1.0;
                out.iter_mut().for_each(|v| *v /= batch as f32);
            } else {
                out.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        let dh2 = dz.matmul_t(&w2);
        let mut dr = aggregate_adjoint(&g, &dh2, AggregateMode::GcnNorm);
        Matrix::relu_backward_inplace(&mut dr, &a1);
        let dw1 = h1.t_matmul(&dr);

        // Compare a few coordinates against central differences.
        let eps = 1e-3f32;
        for &(i, j) in &[(0usize, 0usize), (3, 2), (7, 1)] {
            let idx = i * 4 + j;
            let mut wp = w1.clone();
            wp.data_mut()[idx] += eps;
            let mut wm = w1.clone();
            wm.data_mut()[idx] -= eps;
            let num = (loss(&wp) - loss(&wm)) / (2.0 * eps as f64);
            let ana = dw1.data()[idx] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * (1.0 + ana.abs()),
                "grad mismatch at ({i},{j}): numeric {num} analytic {ana}"
            );
        }
    }
}

/// Outcome of training on a distributed aggregation engine.
#[derive(Debug, Clone)]
pub struct DistTrainReport {
    /// Functional training outcome (losses, accuracies).
    pub result: TrainResult,
    /// Simulated time of one training epoch (aggregations + dense ops).
    pub epoch_ns: u64,
    /// Simulated time of the whole run (`epochs * epoch_ns`).
    pub total_ns: u64,
}

/// Trains the 2-layer GCN with every aggregation executed by a
/// distributed `engine` (MGG, the UVM design, ...), returning accuracy
/// plus the simulated per-epoch time.
///
/// Each epoch needs four aggregations at the hidden width — two forward
/// (both layers aggregate the transformed, narrow embedding) and two
/// backward (the adjoints of the same operators). The engine must use
/// [`AggregateMode::GcnNorm`] over a **symmetric** graph, so the operator
/// is self-adjoint and the engine serves both directions.
///
/// Timing is measured on the first epoch and reused (the simulation is
/// deterministic and structurally identical across epochs), so the
/// wall-clock cost of this function is one timed epoch plus cheap
/// functional epochs.
#[allow(clippy::too_many_arguments)]
pub fn train_gcn_on_engine(
    engine: &mut dyn crate::models::Aggregator,
    x: &Matrix,
    labels: &[u32],
    classes: usize,
    train_mask: &[bool],
    val_mask: &[bool],
    test_mask: &[bool],
    cfg: &TrainConfig,
    cost: &crate::models::DenseCostModel,
) -> DistTrainReport {
    assert!(cfg.sampling.is_none(), "engine training is full-graph");
    assert_eq!(
        engine.mode(),
        AggregateMode::GcnNorm,
        "engine training requires GcnNorm aggregation"
    );
    let n = x.rows();
    assert_eq!(labels.len(), n, "one label per node");
    let hidden = ModelKind::Gcn.hidden_dim();
    let mut w1 = Matrix::glorot(x.cols(), hidden, cfg.seed);
    let mut w2 = Matrix::glorot(hidden, classes, cfg.seed.wrapping_add(1));
    let mut opt1 = Adam::new(w1.data().len(), LR);
    let mut opt2 = Adam::new(w2.data().len(), LR);
    let batch = train_mask.iter().filter(|&&b| b).count().max(1);
    let mut losses = Vec::with_capacity(cfg.epochs);
    let mut agg_ns_epoch = 0u64;

    for epoch in 0..cfg.epochs {
        // One aggregation, timed only on the first epoch.
        let mut agg = |m: &Matrix, eng: &mut dyn crate::models::Aggregator| -> Matrix {
            if epoch == 0 {
                let (out, ns) = eng.aggregate(m);
                agg_ns_epoch += ns;
                out
            } else {
                eng.aggregate_only(m)
            }
        };

        // Forward, transform-first on layer 1 (aggregate at `hidden`).
        let z1 = x.matmul(&w1);
        let a1 = agg(&z1, engine);
        let mut r = a1.clone();
        r.relu_inplace();
        let p2 = agg(&r, engine);
        let z = p2.matmul(&w2);
        let mut p = z.clone();
        p.softmax_rows_inplace();
        losses.push(cross_entropy(&p, labels, Some(train_mask)));

        // Backward.
        let mut dz = p;
        for (row, (&y, &m)) in labels.iter().zip(train_mask).enumerate() {
            let out = dz.row_mut(row);
            if m {
                out[y as usize] -= 1.0;
                out.iter_mut().for_each(|v| *v /= batch as f32);
            } else {
                out.iter_mut().for_each(|v| *v = 0.0);
            }
        }
        let dw2 = p2.t_matmul(&dz);
        // dR = Â^T (dZ W2^T); the engine is self-adjoint on symmetric
        // graphs, so the same aggregation serves the transpose.
        let dzw = dz.matmul_t(&w2);
        let mut dr = agg(&dzw, engine);
        Matrix::relu_backward_inplace(&mut dr, &a1);
        // dZ1 = Â^T dR; dW1 = X^T dZ1.
        let dz1 = agg(&dr, engine);
        let dw1 = x.t_matmul(&dz1);

        opt2.step(&mut w2, &dw2);
        opt1.step(&mut w1, &dw1);
    }

    // Dense-op timing per epoch: forward + backward GEMMs and pointwise.
    let in_dim = x.cols();
    let dense_ns = cost.gemm_ns(n, in_dim, hidden)          // X W1
        + cost.elementwise_ns(n, hidden)                    // relu
        + cost.gemm_ns(n, hidden, classes)                  // (ÂR) W2
        + cost.elementwise_ns(n, classes)                   // softmax
        + cost.gemm_ns(n, hidden, classes)                  // dW2
        + cost.gemm_ns(n, classes, hidden)                  // dZ W2^T
        + cost.elementwise_ns(n, hidden)                    // relu'
        + cost.gemm_ns(n, in_dim, hidden);                  // dW1
    let epoch_ns = agg_ns_epoch + dense_ns;

    // Full-graph evaluation (functional only).
    let z1 = x.matmul(&w1);
    let mut r = engine.aggregate_only(&z1);
    r.relu_inplace();
    let p2 = engine.aggregate_only(&r);
    let logits = p2.matmul(&w2);
    DistTrainReport {
        result: TrainResult {
            train_losses: losses,
            val_accuracy: accuracy(&logits, labels, Some(val_mask)),
            test_accuracy: accuracy(&logits, labels, Some(test_mask)),
            edges_per_epoch: 0,
        },
        epoch_ns,
        total_ns: epoch_ns * cfg.epochs as u64,
    }
}

#[cfg(test)]
mod engine_training_tests {
    use super::*;
    use crate::features::{label_features, split_masks};
    use crate::models::DenseCostModel;
    use crate::reference::ReferenceAggregator;
    use mgg_graph::generators::random::{sbm, SbmConfig};

    #[test]
    fn engine_training_learns_and_times() {
        let out = sbm(&SbmConfig {
            block_sizes: vec![120, 120],
            avg_degree_in: 10.0,
            avg_degree_out: 1.0,
            seed: 31,
        });
        let x = label_features(&out.labels, 2, 16, 0.6, 32);
        let (tr, va, te) = split_masks(out.graph.num_nodes(), 0.4, 0.2, 33);
        let mut engine = ReferenceAggregator {
            graph: out.graph.clone(),
            mode: AggregateMode::GcnNorm,
        };
        let report = train_gcn_on_engine(
            &mut engine,
            &x,
            &out.labels,
            2,
            &tr,
            &va,
            &te,
            &TrainConfig::paper(60, 41),
            &DenseCostModel::a100(4),
        );
        assert!(report.result.test_accuracy > 0.8, "acc {}", report.result.test_accuracy);
        // The reference engine reports zero aggregation time but the dense
        // cost model still charges the GEMMs.
        assert!(report.epoch_ns > 0);
        assert_eq!(report.total_ns, report.epoch_ns * 60);
        let first = report.result.train_losses[0];
        let last = *report.result.train_losses.last().unwrap();
        assert!(last < 0.7 * first, "loss {first} -> {last}");
    }

    #[test]
    fn engine_training_matches_reference_training_loss_curve() {
        // The transform-first engine path and the aggregate-first
        // reference path are the same math; their loss curves must agree
        // closely despite FP reassociation.
        let out = sbm(&SbmConfig {
            block_sizes: vec![80, 80],
            avg_degree_in: 8.0,
            avg_degree_out: 1.0,
            seed: 41,
        });
        let x = label_features(&out.labels, 2, 12, 0.6, 42);
        let (tr, va, te) = split_masks(out.graph.num_nodes(), 0.4, 0.2, 43);
        let cfg = TrainConfig::paper(25, 44);
        let plain = train_gcn(&out.graph, &x, &out.labels, 2, &tr, &va, &te, &cfg);
        let mut engine = ReferenceAggregator {
            graph: out.graph.clone(),
            mode: AggregateMode::GcnNorm,
        };
        let via_engine = train_gcn_on_engine(
            &mut engine,
            &x,
            &out.labels,
            2,
            &tr,
            &va,
            &te,
            &cfg,
            &DenseCostModel::a100(1),
        );
        for (a, b) in plain.train_losses.iter().zip(&via_engine.result.train_losses) {
            assert!((a - b).abs() < 0.05, "loss curves diverged: {a} vs {b}");
        }
    }
}
