//! # mtrl-subspace
//!
//! Multiple subspace learning — stage 1 of RHCHME ("learning complete
//! intra-type relationships", Sec. III-A of Hou & Nayak, ICDE 2015).
//!
//! Objects of one type are expressed as sparse nonnegative combinations of
//! each other (the *self-expressive* model, Eq. 8):
//!
//! ```text
//! X = X·W + E,   W ≥ 0,  diag(W) = 0
//! ```
//!
//! and the affinity `W` is recovered by minimising Eq. (9):
//!
//! ```text
//! J₂(W) = γ‖X − XW‖²_F + ‖WWᵀ‖₁
//! ```
//!
//! with the Spectral Projected Gradient method of Algorithm 1 ([`spg`]).
//! Two objects get a nonzero affinity iff they lie in the same linear
//! subspace — including *distant* within-manifold pairs that a pNN graph
//! misses (Fig. 1's point `z`).
//!
//! [`ista`] provides an l1-regularised (SSC-style) alternative used as an
//! ablation in the benchmark suite.
//!
//! Layout convention: this crate takes objects as **rows** (`n x D`),
//! matching the rest of the workspace; the paper's column convention
//! (`X ∈ R^{D x n}`) is the transpose, and the recovered affinity is
//! symmetrised before graph use anyway.

#![forbid(unsafe_code)]

pub mod ista;
pub mod spg;

pub use ista::{ista_affinity, IstaConfig};
pub use spg::{spg_affinity, SpgConfig, SpgResult};

use mtrl_linalg::Mat;
use mtrl_sparse::Csr;

/// Turn a (generally asymmetric) self-expressive affinity into a symmetric
/// nonnegative weight matrix `W_S = (A + Aᵀ)/2` with zero diagonal, pruning
/// entries below `tol` — the form consumed by the Laplacian builder.
pub fn affinity_to_weights(a: &Mat, tol: f64) -> Csr {
    assert!(a.is_square(), "affinity matrix must be square");
    let n = a.rows();
    let mut coo = mtrl_sparse::Coo::new(n, n);
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let w = 0.5 * (a[(i, j)] + a[(j, i)]);
            if w > tol {
                coo.push(i, j, w);
            }
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetrisation_and_pruning() {
        let a = Mat::from_vec(2, 2, vec![5.0, 0.4, 0.2, 7.0]).unwrap();
        let w = affinity_to_weights(&a, 0.0);
        assert!((w.get(0, 1) - 0.3).abs() < 1e-15);
        assert!((w.get(1, 0) - 0.3).abs() < 1e-15);
        assert_eq!(w.get(0, 0), 0.0); // diagonal dropped
        let w2 = affinity_to_weights(&a, 0.35);
        assert_eq!(w2.nnz(), 0);
    }
}
