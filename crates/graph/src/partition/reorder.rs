//! Locality reordering (a lightweight Rabbit-order stand-in, §6).
//!
//! The paper notes MGG composes with locality-driven node reordering
//! (Rabbit order) because its splits operate on contiguous id ranges:
//! reordering so that connected nodes get nearby ids raises the local
//! fraction of every GPU's workload. A BFS relabeling captures most of
//! that effect at a fraction of the implementation cost.

use std::collections::VecDeque;

use crate::csr::{CsrGraph, NodeId};

/// Returns a permutation `perm` (new id of old node `v` is `perm[v]`)
/// assigning BFS-discovery order from highest-degree seeds.
pub fn bfs_order(graph: &CsrGraph) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut perm = vec![NodeId::MAX; n];
    let mut next = 0 as NodeId;
    // Seed order: descending degree, so hubs anchor dense regions.
    let mut seeds: Vec<NodeId> = (0..n as NodeId).collect();
    seeds.sort_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
    let mut queue = VecDeque::new();
    for seed in seeds {
        if perm[seed as usize] != NodeId::MAX {
            continue;
        }
        perm[seed as usize] = next;
        next += 1;
        queue.push_back(seed);
        while let Some(v) = queue.pop_front() {
            for &u in graph.neighbors(v) {
                if perm[u as usize] == NodeId::MAX {
                    perm[u as usize] = next;
                    next += 1;
                    queue.push_back(u);
                }
            }
        }
    }
    perm
}

/// Relabels `graph` by BFS locality order; returns the new graph and the
/// permutation used.
pub fn reorder(graph: &CsrGraph) -> (CsrGraph, Vec<NodeId>) {
    let perm = bfs_order(graph);
    (graph.relabel(&perm), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::random::{sbm, SbmConfig};
    use crate::generators::regular::path;
    use crate::partition::locality;
    use crate::partition::node_split::NodeSplit;

    #[test]
    fn bfs_order_is_permutation() {
        let g = path(10);
        let perm = bfs_order(&g);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn covers_disconnected_components() {
        // Two disjoint paths via a block-diagonal SBM-ish construction.
        let mut b = crate::builder::GraphBuilder::new(6).symmetric(true);
        b.add_edge(0, 1);
        b.add_edge(2, 3);
        b.add_edge(4, 5);
        let g = b.build();
        let perm = bfs_order(&g);
        let mut sorted = perm;
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn reordering_reduces_remote_fraction_on_clustered_graph() {
        // Interleave community membership across the id space, then check
        // BFS reordering recovers locality for a contiguous 2-way split.
        let out = sbm(&SbmConfig {
            block_sizes: vec![200, 200],
            avg_degree_in: 12.0,
            avg_degree_out: 0.5,
            seed: 5,
        });
        // Scramble ids deterministically: even ids from block 0, odd from 1.
        let n = out.graph.num_nodes();
        let mut scramble = vec![0 as NodeId; n];
        let mut evens = 0;
        let mut odds = 0;
        for (s, &label) in scramble.iter_mut().zip(&out.labels) {
            if label == 0 {
                *s = evens * 2;
                evens += 1;
            } else {
                *s = odds * 2 + 1;
                odds += 1;
            }
        }
        let scrambled = out.graph.relabel(&scramble);
        let remote_frac = |g: &CsrGraph| {
            let split = NodeSplit::uniform(g.num_nodes(), 2);
            let parts = locality::build(g, &split);
            parts.iter().map(|p| p.remote_fraction()).sum::<f64>() / 2.0
        };
        let before = remote_frac(&scrambled);
        let (reordered, _) = reorder(&scrambled);
        let after = remote_frac(&reordered);
        assert!(after < before, "after={after} before={before}");
    }
}
