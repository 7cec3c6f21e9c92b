//! # mtrl-linalg
//!
//! Dense linear-algebra substrate for the RHCHME reproduction
//! (Hou & Nayak, ICDE 2015).
//!
//! Every update rule in the paper — the SPG subspace solver (Algorithm 1)
//! and the multiplicative NMTF updates (Algorithm 2) — reduces to dense
//! matrix products, norms and small inversions. This crate provides those
//! primitives without any external BLAS:
//!
//! * [`Mat`] — a row-major dense `f64` matrix with cache-friendly row access;
//! * blocked and multi-threaded matrix products ([`ops`]);
//! * the scoped-thread worker pool shared by every parallel kernel in
//!   the workspace ([`par`]; `MTRL_NUM_THREADS` overrides the count);
//! * diagonal-plus-low-rank row kernels backing the sparse-first NMTF
//!   engine's implicit `R − E_R` representation ([`lowrank`]);
//! * norms used by the paper: Frobenius, `l1`, `l2,1` ([`norms`]);
//! * Gauss–Jordan inversion and its ridge-stabilised SPD variant
//!   ([`solve`]);
//! * a Jacobi symmetric eigensolver ([`eigen`]) for spectral utilities;
//! * positive/negative part splits used by Eq. (21) ([`parts`]);
//! * block-diagonal / block-structured assembly for the `R`, `W`, `G`
//!   matrices of Section I-A ([`block`]);
//! * Euclidean projection onto the probability simplex ([`simplex`]),
//!   needed by the RMC baseline's ensemble weights;
//! * seeded random matrices ([`random`]) so every experiment is
//!   deterministic;
//! * [`Precision`], a one-variant `F64` tag kept only for config and
//!   bundle compatibility ([`precision`]).
//!
//! Every kernel stores and accumulates in `f64`, with one body each.
//!
//! The crate is free of `unsafe` code (`#![forbid(unsafe_code)]`); hot
//! loops are written so that bounds checks vanish after slicing rows.

#![forbid(unsafe_code)]

pub mod block;
pub mod eigen;
pub mod error;
pub mod kmeans;
pub mod lowrank;
pub mod mat;
pub mod norms;
pub mod ops;
pub mod par;
pub mod parts;
pub mod precision;
pub mod random;
mod serde_impl;
pub mod simplex;
pub mod solve;
pub mod vecops;

pub use block::{BlockDiag, BlockSpec};
pub use error::LinalgError;
pub use mat::Mat;
pub use precision::Precision;

/// Numerical floor used to guard divisions in multiplicative updates.
///
/// Standard NMF practice (Lee & Seung): denominators are clamped to at
/// least this value so iterates stay finite and nonnegative.
pub const EPS: f64 = 1e-12;

/// Result alias for fallible linear-algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
