//! Recursive-matrix (R-MAT) generator for power-law graphs.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::builder::GraphBuilder;
use crate::csr::{CsrGraph, NodeId};

/// Parameters of an R-MAT generation.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the node count.
    pub scale: u32,
    /// Number of edges to sample (before dedup).
    pub edges: usize,
    /// Quadrant probabilities; must sum to ~1. The Graph500 defaults
    /// `(0.57, 0.19, 0.19, 0.05)` give a strongly skewed degree
    /// distribution like the social/web graphs in Table 3.
    pub a: f64,
    /// Upper-right quadrant probability.
    pub b: f64,
    /// Lower-left quadrant probability.
    pub c: f64,
    /// Noise added per recursion level to avoid exact self-similarity.
    pub noise: f64,
    /// RNG seed; same seed, same graph.
    pub seed: u64,
}

impl RmatConfig {
    /// Graph500-flavoured defaults at the given scale and edge count.
    pub fn graph500(scale: u32, edges: usize, seed: u64) -> Self {
        RmatConfig { scale, edges, a: 0.57, b: 0.19, c: 0.19, noise: 0.05, seed }
    }

    /// Milder skew (for graphs like ogbn-products with flatter degrees).
    pub fn mild(scale: u32, edges: usize, seed: u64) -> Self {
        RmatConfig { scale, edges, a: 0.45, b: 0.22, c: 0.22, noise: 0.05, seed }
    }
}

/// Generates an undirected R-MAT graph: each sampled edge is mirrored.
/// Self-edges are dropped; duplicates are deduplicated, so the final
/// edge count is slightly below twice `cfg.edges`.
///
/// # Examples
///
/// ```
/// use mgg_graph::generators::rmat::{rmat, RmatConfig};
///
/// let g = rmat(&RmatConfig::graph500(10, 5_000, 42));
/// assert_eq!(g.num_nodes(), 1 << 10);
/// // Deterministic: the same seed regenerates the same graph.
/// assert_eq!(g, rmat(&RmatConfig::graph500(10, 5_000, 42)));
/// ```
pub fn rmat(cfg: &RmatConfig) -> CsrGraph {
    assert!(cfg.scale >= 1 && cfg.scale < 31, "scale out of range");
    let sum = cfg.a + cfg.b + cfg.c;
    assert!(sum < 1.0 + 1e-9, "quadrant probabilities exceed 1");
    let n = 1usize << cfg.scale;
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut b = GraphBuilder::new(n).symmetric(true);
    for _ in 0..cfg.edges {
        let (dst, src) = sample_edge(&mut rng, cfg);
        if dst != src {
            b.add_edge(dst, src);
        }
    }
    b.build()
}

fn sample_edge(rng: &mut StdRng, cfg: &RmatConfig) -> (NodeId, NodeId) {
    let mut row = 0u64;
    let mut col = 0u64;
    let (mut a, mut bb, mut c) = (cfg.a, cfg.b, cfg.c);
    for level in 0..cfg.scale {
        let half = 1u64 << (cfg.scale - 1 - level);
        let d = 1.0 - a - bb - c;
        let r: f64 = rng.random();
        if r < a {
            // top-left
        } else if r < a + bb {
            col += half;
        } else if r < a + bb + c {
            row += half;
        } else {
            debug_assert!(d >= -1e-9);
            row += half;
            col += half;
        }
        // Perturb the quadrant weights slightly per level.
        let jitter = |rng: &mut StdRng, p: f64, noise: f64| {
            (p * (1.0 - noise + 2.0 * noise * rng.random::<f64>())).max(1e-6)
        };
        a = jitter(rng, a, cfg.noise);
        bb = jitter(rng, bb, cfg.noise);
        c = jitter(rng, c, cfg.noise);
        let s = a + bb + c;
        if s >= 0.999 {
            let scale = 0.95 / s;
            a *= scale;
            bb *= scale;
            c *= scale;
        }
    }
    (row as NodeId, col as NodeId)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let cfg = RmatConfig::graph500(10, 5_000, 42);
        let g1 = rmat(&cfg);
        let g2 = rmat(&cfg);
        assert_eq!(g1, g2);
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = rmat(&RmatConfig::graph500(10, 5_000, 1));
        let g2 = rmat(&RmatConfig::graph500(10, 5_000, 2));
        assert_ne!(g1, g2);
    }

    #[test]
    fn produces_skewed_degrees() {
        let g = rmat(&RmatConfig::graph500(12, 40_000, 7));
        let avg = g.avg_degree();
        let max = g.max_degree() as f64;
        assert!(max > 8.0 * avg, "max={max} avg={avg}: expected heavy tail");
    }

    #[test]
    fn no_self_loops() {
        let g = rmat(&RmatConfig::graph500(8, 4_000, 3));
        for v in 0..g.num_nodes() as NodeId {
            assert!(!g.neighbors(v).contains(&v));
        }
    }

    #[test]
    fn symmetric_output_when_requested() {
        let g = rmat(&RmatConfig::graph500(8, 2_000, 9));
        for v in 0..g.num_nodes() as NodeId {
            for &u in g.neighbors(v) {
                assert!(g.neighbors(u).contains(&v), "missing mirror of ({v},{u})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "scale out of range")]
    fn rejects_zero_scale() {
        let _ = rmat(&RmatConfig::graph500(0, 10, 1));
    }
}
