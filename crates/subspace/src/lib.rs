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
//! The solver keeps `W` on a caller-supplied **support**: `support[i]`
//! lists the candidate columns of row `i` (never `i` itself), and every
//! other entry is held at zero. One iteration costs `O(nnz·d)` for
//! `nnz = Σ|support[i]|` candidates and `d` features, with `O(nnz + n·d)`
//! memory; the fidelity term runs on the residual `X − WX`, never on an
//! `n x n` Gram matrix. The RHCHME fit passes each object's 40 nearest
//! cosine neighbours (`rhchme::intra`), so a fit costs `O(n·40·d)` per
//! iteration instead of the dense `O(n³)`. [`exhaustive_support`] gives
//! the all-pairs problem for small `n`; a test-only dense oracle checks
//! that it matches the dense solver to 1e-10.
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
pub use spg::{exhaustive_support, spg_affinity, SpgConfig, SpgResult};
