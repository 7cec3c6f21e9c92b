//! # mtrl-sparse
//!
//! Sparse matrix substrate for the RHCHME reproduction.
//!
//! The inter-type relationship matrix `R` (Section I-A) and the pNN graphs
//! (Eq. 3) are sparse by construction: document–term co-occurrence is
//! mostly zeros and a pNN graph has at most `2pn` edges. The complexity
//! analysis in Section III-F depends on `z = nnz(R)`, so the harness needs
//! a real sparse representation to honour it.
//!
//! Five types:
//! * [`Coo`] — a triplet builder (push `(i, j, v)` in any order);
//! * [`Csr`] — compressed sparse row storage with the products the engine
//!   needs (parallel CSR×dense, quadratic forms, linear combinations,
//!   positive/negative splits, `spmv`, transpose, row reductions);
//! * [`SparseBlockDiag`] — the block-diagonal Laplacian operator of
//!   Section I-A, kept sparse through the whole fit loop;
//! * [`RowSparse`] — row-sparse storage (sparse in rows, dense within a
//!   row) for the ℓ2,1-structured error matrix `E_R` of Sec. III-C:
//!   only the shrunk-active rows are stored.
//!
//! All values are stored and accumulated in `f64`.

#![forbid(unsafe_code)]

pub mod block;
pub mod coo;
pub mod csr;
pub mod rowsparse;

pub use block::SparseBlockDiag;
pub use coo::Coo;
pub use csr::{Csr, CsrBuilder};
pub use rowsparse::RowSparse;
