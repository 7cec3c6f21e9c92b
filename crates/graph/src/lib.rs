//! # mtrl-graph
//!
//! Nearest-neighbour graphs and graph Laplacians for the RHCHME
//! reproduction.
//!
//! This crate implements the paper's Eq. (3) — the pNN intra-type
//! relationship `W_E` with binary / heat-kernel / cosine weighting — plus
//! the Laplacian constructions used by every HOCC method:
//!
//! * SNMTF uses a single pNN Laplacian (Eq. 1);
//! * RMC uses a linear ensemble of pre-given candidates (Eq. 2);
//! * RHCHME uses the *heterogeneous* ensemble `L = α·L_S + L_E` (Eq. 12)
//!   mixing the subspace-learned Laplacian with the pNN one.
//!
//! Graphs are built over objects given as **rows** of a dense feature
//! matrix with a parallel, blocked Gram-trick kernel (see [`knn`]) whose
//! output is bit-identical for every thread count; distances are stored
//! and accumulated in `f64`. The weight matrices are sparse
//! ([`mtrl_sparse::Csr`]) and the Laplacians stay sparse too
//! ([`laplacian_csr`], ≤ `2pn + n` entries) — the positive/negative
//! splits and `L·G` products of the multiplicative update run on CSR
//! blocks; a consumer that needs the dense form calls `.to_dense()` on
//! the result.

#![forbid(unsafe_code)]

pub mod ensemble;
pub mod knn;
pub mod laplacian;
mod serde_impl;

pub use ensemble::{hetero_ensemble, linear_combination};
pub use knn::{
    center_columns, cross_sq_dist_map, dist_less, gram_sq_dist, gram_sq_dist_x4,
    graph_from_neighbours, knn_indices, knn_indices_serial, knn_indices_with_threads, pnn_graph,
    pnn_graph_with_threads, select_p_nearest, WeightScheme,
};
pub use laplacian::{laplacian_csr, LaplacianKind};
