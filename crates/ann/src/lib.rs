//! # mtrl-ann
//!
//! Approximate p-nearest-neighbour indexes behind the exact
//! neighbour-list API — the subsystem that breaks the O(n²) graph wall.
//!
//! Every manifold in the paper's heterogeneous ensemble is anchored on
//! a pNN graph; the exact all-pairs Gram kernel (`mtrl_graph::knn`) is
//! the last quadratic stage in the system and the hard cap on corpus
//! size. This crate supplies one std-only approximate backend, a
//! random-projection tree forest:
//!
//! | backend | build | query | knobs |
//! |---|---|---|---|
//! | [`forest::RpForestIndex`] | O(n log n) per tree | multi-probe descent | `trees`, `leaf_size`, `probes` |
//!
//! It produces the same index-sorted neighbour-list structure
//! `mtrl_graph::graph_from_neighbours` consumes, so `pnn_graph`,
//! `mtrl-stream`'s `DynamicGraph` and the eval runner all gain
//! approximate mode via the [`GraphBackend`] config enum rather than
//! new call sites.
//!
//! ## Exactness and determinism
//!
//! The index generates *candidates only*; distances and selection
//! reuse the exact kernel's primitives (`gram_sq_dist`, `dist_less`,
//! `select_p_nearest`), so at exhaustive settings — the forest probing
//! every leaf — the output is **bit-identical** to `knn_indices`, and
//! at any setting the output is bit-identical across thread counts (see
//! [`index`] for the argument, and the ANN↔exact proptests for the
//! pin).
//!
//! ## The correctness oracle
//!
//! [`recall::sampled_recall`] measures recall@p against the exact
//! kernel on a seeded row sample; the committed `RECALL_quick.json`
//! floor is enforced by CI (`recall_gate`), because a fast graph with
//! silently degraded recall would poison every manifold downstream.

#![forbid(unsafe_code)]

pub mod config;
pub mod forest;
pub mod index;
pub mod recall;
mod serde_impl;

pub use config::{GraphBackend, RpForestParams};
pub use forest::RpForestIndex;
pub use index::{
    build_any_index, insert_capped, knn_indices_backend, pnn_graph_backend, select_from_candidates,
    QueryScratch,
};
pub use recall::{sampled_recall, RecallProbe, RecallResult};
