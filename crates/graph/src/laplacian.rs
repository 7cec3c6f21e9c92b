//! Graph Laplacians.
//!
//! The paper writes `L = D − W` with `D_ii = Σ_j W_ij` (Sec. II-A) while
//! *calling* it the "normalized graph Laplacian"; the normalised form
//! `L = I − D^{-1/2} W D^{-1/2}` is what the cited SNMTF/RMC works use.
//! We implement both and default to the symmetric-normalised variant in
//! the clustering pipeline so the subspace-learned Laplacian `L_S` and the
//! pNN Laplacian `L_E` live on comparable scales inside the ensemble of
//! Eq. (12). DESIGN.md §3 records this choice.

use mtrl_sparse::Csr;

/// Which Laplacian construction to apply to a weight matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LaplacianKind {
    /// `L = D − W` (the formula printed in the paper).
    Unnormalized,
    /// `L = I − D^{-1/2} W D^{-1/2}` (symmetric normalised; isolated
    /// vertices get a zero row/column rather than a division by zero).
    SymNormalized,
}

/// Degree floor below which a vertex counts as isolated (its row of `W`
/// carries no usable mass and normalisation would divide by ~zero).
const DEGREE_FLOOR: f64 = 1e-300;

/// Build a **sparse** Laplacian from a symmetric nonnegative weight
/// matrix — the form the fit loop consumes. A pNN graph has at most
/// `2pn` edges, so `L` has at most `2pn + n` stored entries and the
/// engine's `L·G` products stay `O(nnz · c)` instead of `O(n² c)`.
///
/// Exact zeros (isolated vertices' diagonal) are not stored; the result
/// satisfies every [`Csr`] invariant.
///
/// # Panics
/// Panics if `w` is not square.
pub fn laplacian_csr(w: &Csr, kind: LaplacianKind) -> Csr {
    let _span = mtrl_obs::span!("graph.laplacian");
    assert_eq!(w.rows(), w.cols(), "laplacian of a non-square matrix");
    let n = w.rows();
    let degrees = w.row_sums();
    let inv_sqrt: Vec<f64> = match kind {
        LaplacianKind::Unnormalized => Vec::new(),
        LaplacianKind::SymNormalized => degrees
            .iter()
            .map(|&d| {
                if d > DEGREE_FLOOR {
                    1.0 / d.sqrt()
                } else {
                    0.0
                }
            })
            .collect(),
    };
    let mut out = mtrl_sparse::CsrBuilder::with_capacity(n, n, w.nnz() + n);
    for i in 0..n {
        let (cols, vals) = w.row(i);
        // The diagonal value mirrors the dense construction bit for bit:
        // off-diagonal contributions are negated weights and the diagonal
        // accumulates degree (resp. +1) on top of any W_ii entry.
        let mut diag = match kind {
            LaplacianKind::Unnormalized => degrees[i],
            LaplacianKind::SymNormalized => {
                if degrees[i] > DEGREE_FLOOR {
                    1.0
                } else {
                    0.0
                }
            }
        };
        let mut diag_written = false;
        for (&j, &v) in cols.iter().zip(vals) {
            let off = match kind {
                LaplacianKind::Unnormalized => -v,
                LaplacianKind::SymNormalized => -(v * inv_sqrt[i] * inv_sqrt[j]),
            };
            if j == i {
                diag += off;
                continue;
            }
            if j > i && !diag_written {
                out.push(i, diag);
                diag_written = true;
            }
            out.push(j, off);
        }
        if !diag_written {
            out.push(i, diag);
        }
        out.finish_row();
    }
    out.build()
}

/// Degree vector `D_ii = Σ_j W_ij`.
pub fn degrees(w: &Csr) -> Vec<f64> {
    w.row_sums()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::eigen::sym_eigen;
    use mtrl_linalg::ops::matvec;
    use mtrl_linalg::Mat;
    use mtrl_sparse::Coo;

    /// Path graph 0-1-2 with unit weights.
    fn path3() -> Csr {
        let mut c = Coo::new(3, 3);
        for (i, j) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
            c.push(i, j, 1.0);
        }
        c.to_csr()
    }

    #[test]
    fn unnormalized_rows_sum_to_zero() {
        let l = laplacian_csr(&path3(), LaplacianKind::Unnormalized).to_dense();
        for s in l.row_sums() {
            assert!(s.abs() < 1e-12);
        }
        assert_eq!(l[(1, 1)], 2.0);
        assert_eq!(l[(0, 1)], -1.0);
    }

    #[test]
    fn unnormalized_kills_constant_vector() {
        let l = laplacian_csr(&path3(), LaplacianKind::Unnormalized).to_dense();
        let y = matvec(&l, &[1.0, 1.0, 1.0]).unwrap();
        assert!(y.iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn both_kinds_are_psd() {
        let mut c = Coo::new(5, 5);
        for (i, j, v) in [
            (0, 1, 0.5),
            (1, 0, 0.5),
            (1, 2, 1.0),
            (2, 1, 1.0),
            (3, 4, 2.0),
            (4, 3, 2.0),
            (0, 4, 0.1),
            (4, 0, 0.1),
        ] {
            c.push(i, j, v);
        }
        let w = c.to_csr();
        for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
            let l = laplacian_csr(&w, kind).to_dense();
            let e = sym_eigen(&l, 1e-10, 200).unwrap();
            assert!(
                e.values.iter().all(|&v| v > -1e-9),
                "{kind:?} spectrum {:?}",
                e.values
            );
        }
    }

    #[test]
    fn normalized_diag_is_one_for_connected_vertices() {
        let l = laplacian_csr(&path3(), LaplacianKind::SymNormalized).to_dense();
        for i in 0..3 {
            assert!((l[(i, i)] - 1.0).abs() < 1e-12);
        }
        // Off-diagonal of path: -1/sqrt(d_i d_j) = -1/sqrt(2) for edge (0,1).
        assert!((l[(0, 1)] + 1.0 / 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn normalized_spectrum_bounded_by_two() {
        let l = laplacian_csr(&path3(), LaplacianKind::SymNormalized).to_dense();
        let e = sym_eigen(&l, 1e-10, 200).unwrap();
        assert!(e.values.iter().all(|&v| v <= 2.0 + 1e-9));
    }

    #[test]
    fn isolated_vertex_zero_row() {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        let w = c.to_csr();
        let l = laplacian_csr(&w, LaplacianKind::SymNormalized).to_dense();
        assert_eq!(l[(2, 2)], 0.0);
        assert_eq!(l.row(2), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn zero_graph_gives_zero_laplacian() {
        let w = Csr::zeros(4, 4);
        let lu = laplacian_csr(&w, LaplacianKind::Unnormalized).to_dense();
        assert_eq!(lu.sum(), 0.0);
        let ln = laplacian_csr(&w, LaplacianKind::SymNormalized).to_dense();
        assert_eq!(ln.sum(), 0.0);
    }

    #[test]
    fn degrees_match_row_sums() {
        let w = path3();
        assert_eq!(degrees(&w), vec![1.0, 2.0, 1.0]);
    }

    /// The seed repository's dense construction, kept verbatim as the
    /// reference the sparse builder must reproduce bit for bit.
    fn dense_reference(w: &Csr, kind: LaplacianKind) -> Mat {
        let n = w.rows();
        let degrees = w.row_sums();
        let mut l = Mat::zeros(n, n);
        match kind {
            LaplacianKind::Unnormalized => {
                for (i, j, v) in w.iter() {
                    l[(i, j)] -= v;
                }
                for i in 0..n {
                    l[(i, i)] += degrees[i];
                }
            }
            LaplacianKind::SymNormalized => {
                let inv_sqrt: Vec<f64> = degrees
                    .iter()
                    .map(|&d| if d > 1e-300 { 1.0 / d.sqrt() } else { 0.0 })
                    .collect();
                for (i, j, v) in w.iter() {
                    l[(i, j)] -= v * inv_sqrt[i] * inv_sqrt[j];
                }
                for i in 0..n {
                    if degrees[i] > 1e-300 {
                        l[(i, i)] += 1.0;
                    }
                }
            }
        }
        l
    }

    #[test]
    fn csr_matches_dense_construction_bitwise() {
        use crate::knn::pnn_graph;
        use crate::knn::WeightScheme;
        use mtrl_linalg::random::rand_uniform;
        let data = rand_uniform(40, 6, 0.0, 1.0, 77);
        for scheme in [
            WeightScheme::Cosine,
            WeightScheme::HeatKernel { sigma: -1.0 },
        ] {
            let w = pnn_graph(&data, 4, scheme);
            for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
                let sparse = laplacian_csr(&w, kind);
                let reference = dense_reference(&w, kind);
                assert_eq!(
                    sparse.to_dense().as_slice(),
                    reference.as_slice(),
                    "{kind:?}"
                );
            }
        }
    }

    #[test]
    fn csr_isolated_vertex_stores_no_zero() {
        let mut c = Coo::new(3, 3);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        let w = c.to_csr();
        let l = laplacian_csr(&w, LaplacianKind::SymNormalized);
        // Vertex 2 is isolated: no stored entries in its row at all.
        assert_eq!(l.row(2).0.len(), 0);
        for (_, _, v) in l.iter() {
            assert_ne!(v, 0.0, "stored explicit zero");
        }
    }

    #[test]
    fn csr_handles_explicit_diagonal_weights() {
        // General W with a diagonal entry: the Laplacian folds it into
        // the diagonal exactly like the dense path.
        let mut c = Coo::new(2, 2);
        c.push(0, 0, 0.5);
        c.push(0, 1, 1.0);
        c.push(1, 0, 1.0);
        let w = c.to_csr();
        for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
            let sparse = laplacian_csr(&w, kind).to_dense();
            let reference = dense_reference(&w, kind);
            assert_eq!(sparse.as_slice(), reference.as_slice(), "{kind:?}");
        }
    }
}
