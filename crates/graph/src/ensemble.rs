//! Laplacian ensembles — sparse end to end.
//!
//! * [`linear_combination`] — the RMC-style pre-given candidate ensemble
//!   `L = Σ βᵢ L̂ᵢ` with `Σβᵢ = 1, βᵢ > 0` (paper Eq. 2);
//! * [`hetero_ensemble`] — the paper's heterogeneous manifold ensemble
//!   `L = α·L_S + L_E` (Eq. 12) combining a subspace-learned member with a
//!   pNN member.
//!
//! Both operate on CSR members and produce CSR results with merged
//! sparsity patterns, matching the sparse fit loop introduced by the
//! parallel-sparse graph rewiring (`laplacian_csr`,
//! `mtrl_sparse::SparseBlockDiag`). The dense `Mat` versions that
//! predated that rewiring are retired; a consumer that genuinely needs a
//! dense ensemble calls `.to_dense()` on the result.

use mtrl_linalg::LinalgError;
use mtrl_sparse::Csr;

/// Linear combination `Σ βᵢ L̂ᵢ` of candidate Laplacians (Eq. 2), with
/// merged sparsity patterns (entries combining to exact zero are
/// dropped).
///
/// # Errors
/// * [`LinalgError::InvalidArgument`] if inputs are empty, lengths differ,
///   or any weight is negative;
/// * [`LinalgError::ShapeMismatch`] if candidate shapes differ.
pub fn linear_combination(laps: &[Csr], weights: &[f64]) -> Result<Csr, LinalgError> {
    if laps.is_empty() || laps.len() != weights.len() {
        return Err(LinalgError::InvalidArgument(format!(
            "linear_combination: {} candidates vs {} weights",
            laps.len(),
            weights.len()
        )));
    }
    if weights.iter().any(|&b| b < 0.0) {
        return Err(LinalgError::InvalidArgument(
            "linear_combination: negative ensemble weight".into(),
        ));
    }
    let shape = laps[0].shape();
    for l in &laps[1..] {
        if l.shape() != shape {
            return Err(LinalgError::ShapeMismatch {
                op: "linear_combination",
                lhs: shape,
                rhs: l.shape(),
            });
        }
    }
    let mut out = laps[0].scaled(weights[0]);
    for (l, &b) in laps.iter().zip(weights).skip(1) {
        out = out.lin_comb(1.0, l, b);
    }
    Ok(out)
}

/// The heterogeneous manifold ensemble of Eq. (12): `L = α·L_S + L_E`,
/// sparse with merged patterns.
///
/// `α → ∞` trusts only the subspace member, `α → 0` only the pNN member
/// (Sec. III-B).
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] when the two members disagree in
/// shape, and [`LinalgError::InvalidArgument`] for negative `α`.
pub fn hetero_ensemble(l_s: &Csr, l_e: &Csr, alpha: f64) -> Result<Csr, LinalgError> {
    if alpha < 0.0 {
        return Err(LinalgError::InvalidArgument(
            "hetero_ensemble: alpha must be nonnegative".into(),
        ));
    }
    if l_s.shape() != l_e.shape() {
        return Err(LinalgError::ShapeMismatch {
            op: "hetero_ensemble",
            lhs: l_e.shape(),
            rhs: l_s.shape(),
        });
    }
    Ok(l_e.lin_comb(1.0, l_s, alpha))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::random::rand_uniform;
    use mtrl_linalg::Mat;

    fn sparse_of(m: &Mat) -> Csr {
        Csr::from_dense(m, 0.0)
    }

    #[test]
    fn single_member_identity_weighting() {
        let l = rand_uniform(4, 4, -1.0, 1.0, 70);
        let out = linear_combination(std::slice::from_ref(&sparse_of(&l)), &[1.0]).unwrap();
        assert!(out.to_dense().approx_eq(&l, 1e-15));
    }

    #[test]
    fn convex_combination() {
        let a = sparse_of(&Mat::filled(2, 2, 1.0));
        let b = sparse_of(&Mat::filled(2, 2, 3.0));
        let out = linear_combination(&[a, b], &[0.25, 0.75]).unwrap();
        assert!((out.get(0, 0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn patterns_merge_and_zeros_drop() {
        // Disjoint patterns merge; exact cancellation drops the entry.
        let mut a = mtrl_sparse::Coo::new(3, 3);
        a.push(0, 1, 2.0);
        a.push(2, 2, 1.0);
        let a = a.to_csr();
        let mut b = mtrl_sparse::Coo::new(3, 3);
        b.push(1, 0, 4.0);
        b.push(2, 2, 1.0);
        let b = b.to_csr();
        let out = linear_combination(&[a.clone(), b.clone()], &[1.0, 1.0]).unwrap();
        assert_eq!(out.nnz(), 3);
        assert_eq!(out.get(2, 2), 2.0);
        let cancelled = a.lin_comb(1.0, &a, -1.0);
        assert_eq!(cancelled.nnz(), 0);
    }

    #[test]
    fn rejects_bad_inputs() {
        let a = Csr::zeros(2, 2);
        assert!(linear_combination(&[], &[]).is_err());
        assert!(linear_combination(std::slice::from_ref(&a), &[1.0, 2.0]).is_err());
        assert!(linear_combination(std::slice::from_ref(&a), &[-0.1]).is_err());
        let b = Csr::zeros(3, 3);
        assert!(linear_combination(&[a, b], &[0.5, 0.5]).is_err());
    }

    #[test]
    fn hetero_matches_formula() {
        let ls = rand_uniform(3, 3, -1.0, 1.0, 71);
        let le = rand_uniform(3, 3, -1.0, 1.0, 72);
        let alpha = 0.7;
        let out = hetero_ensemble(&sparse_of(&ls), &sparse_of(&le), alpha).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((out.get(i, j) - (alpha * ls[(i, j)] + le[(i, j)])).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn hetero_alpha_zero_is_pnn_only() {
        let ls = sparse_of(&rand_uniform(3, 3, -1.0, 1.0, 73));
        let le = sparse_of(&rand_uniform(3, 3, -1.0, 1.0, 74));
        let out = hetero_ensemble(&ls, &le, 0.0).unwrap();
        assert!(out.to_dense().approx_eq(&le.to_dense(), 1e-15));
    }

    #[test]
    fn hetero_rejects_negative_alpha_and_shape_mismatch() {
        let ls = Csr::zeros(2, 2);
        let le = Csr::zeros(2, 2);
        assert!(hetero_ensemble(&ls, &le, -1.0).is_err());
        assert!(hetero_ensemble(&ls, &Csr::zeros(3, 3), 1.0).is_err());
    }
}
