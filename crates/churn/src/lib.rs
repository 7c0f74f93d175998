//! # mgg-churn — deterministic live-graph churn and elastic membership
//!
//! The serving stack (`mgg-serve` + `mgg-core`) assumes a static graph
//! and a fixed shard fleet. This crate supplies the *churn plane* that
//! lifts both assumptions without giving up the workspace-wide replay
//! contract:
//!
//! - [`GraphDelta`] / [`apply_deltas`] — transactional batch mutation of
//!   a `CsrGraph` (undirected edge insert/remove, feature updates,
//!   append-only node insertion, tombstoning node removal). Application
//!   is a pure function of `(graph, batch)` and reports exactly which
//!   pre-existing rows changed, so the engine can invalidate precisely
//!   the affected cache rows instead of flushing.
//! - [`ChurnSpec`] / [`ChurnSchedule`] — a seeded, `(time, seq)`-ordered
//!   event stream of epoch **fences** (each carrying the deltas that
//!   arrived since the previous fence; one mean rate,
//!   [`ChurnSpec::deltas_per_sec`], split across the delta kinds by fixed
//!   shares) and scripted shard
//!   [`MembershipEvent`]s (`Join`/`Drain`/`Leave`). The serving loop
//!   merges this stream with query arrivals and timers; equal specs
//!   derive bit-identical schedules at any host thread count.
//!
//! Epoch-fence semantics: deltas never apply mid-flight. They batch
//! until the next fence instant, where the engine applies them as one
//! transaction, bumps the version of every affected row, and charges a
//! bounded apply stall — queries dispatched before the fence see the old
//! graph, queries after see the new one, and nothing ever observes a
//! half-applied batch.
//!
//! ```
//! use mgg_churn::{apply_deltas, ChurnSchedule, ChurnSpec, GraphDelta};
//! use mgg_graph::CsrGraph;
//!
//! let g = CsrGraph::from_raw(vec![0, 1, 2], vec![1, 0]);
//! let (g2, fx) = apply_deltas(&g, &[GraphDelta::NodeInsert { neighbors: vec![0] }]).unwrap();
//! assert_eq!(g2.num_nodes(), 3);
//! assert_eq!(fx.affected, vec![0]); // node 0 gained an edge; row 0 is stale
//!
//! let sched = ChurnSchedule::derive(&ChurnSpec::steady(7, 1_000_000, 4_000_000.0), 1024);
//! assert_eq!(sched, ChurnSchedule::derive(sched.spec(), 1024)); // replayable
//! ```

#![deny(missing_docs)]

mod delta;
mod schedule;

pub use delta::{apply_deltas, DeltaEffects, GraphDelta};
pub use schedule::{
    BurstWindow, ChurnEvent, ChurnEventKind, ChurnSchedule, ChurnSpec, MembershipChange,
    MembershipEvent,
};
