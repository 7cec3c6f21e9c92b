//! Dense matrix inversion.
//!
//! Algorithm 2 needs `(GᵀG)⁻¹` (Eq. 18) — a small `c x c` symmetric
//! positive-(semi)definite inverse. We provide Gauss–Jordan inversion with
//! partial pivoting and a ridge-stabilised SPD inverse used by the NMTF
//! engine (empty clusters make `GᵀG` rank deficient; the ridge keeps the
//! update well defined, cf. DESIGN.md §8).

use crate::error::LinalgError;
use crate::mat::Mat;
use crate::Result;

/// Invert a square matrix by Gauss–Jordan elimination with partial pivoting.
///
/// # Errors
/// * [`LinalgError::NotSquare`] if the matrix is not square.
/// * [`LinalgError::Singular`] if a pivot underflows `1e-300`.
pub fn inverse(a: &Mat) -> Result<Mat> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "inverse",
            shape: a.shape(),
        });
    }
    let n = a.rows();
    let mut work = a.clone();
    let mut inv = Mat::identity(n);
    for col in 0..n {
        // Partial pivot: largest |entry| in this column at or below the diagonal.
        let mut pivot_row = col;
        let mut pivot_val = work[(col, col)].abs();
        for r in col + 1..n {
            let v = work[(r, col)].abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular {
                op: "inverse",
                pivot: col,
            });
        }
        if pivot_row != col {
            swap_rows(&mut work, col, pivot_row);
            swap_rows(&mut inv, col, pivot_row);
        }
        let p = work[(col, col)];
        let inv_p = 1.0 / p;
        for v in work.row_mut(col) {
            *v *= inv_p;
        }
        for v in inv.row_mut(col) {
            *v *= inv_p;
        }
        for r in 0..n {
            if r == col {
                continue;
            }
            let factor = work[(r, col)];
            if factor == 0.0 {
                continue;
            }
            // row_r -= factor * row_col, in both matrices.
            let (wc, wr) = two_rows(&mut work, col, r);
            for (x, y) in wr.iter_mut().zip(wc.iter()) {
                *x -= factor * y;
            }
            let (ic, ir) = two_rows(&mut inv, col, r);
            for (x, y) in ir.iter_mut().zip(ic.iter()) {
                *x -= factor * y;
            }
        }
    }
    Ok(inv)
}

/// Inverse of a symmetric positive-(semi)definite matrix with a ridge:
/// computes `(A + ridge·I)⁻¹`.
///
/// The NMTF engine uses this for `(GᵀG)⁻¹` so that a temporarily empty
/// cluster column (zero row/column in the Gram matrix) cannot poison the
/// `S` update.
///
/// # Errors
/// Propagates [`LinalgError`] from [`inverse`] (after the ridge, failure
/// indicates a caller bug such as NaN input).
pub fn ridge_inverse(a: &Mat, ridge: f64) -> Result<Mat> {
    if !a.is_square() {
        return Err(LinalgError::NotSquare {
            op: "ridge_inverse",
            shape: a.shape(),
        });
    }
    let mut b = a.clone();
    for i in 0..b.rows() {
        b[(i, i)] += ridge;
    }
    inverse(&b)
}

fn swap_rows(m: &mut Mat, a: usize, b: usize) {
    if a == b {
        return;
    }
    let cols = m.cols();
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    let (head, tail) = m.as_mut_slice().split_at_mut(hi * cols);
    head[lo * cols..(lo + 1) * cols].swap_with_slice(&mut tail[..cols]);
}

/// Borrow rows `a` (immutably conceptually) and `b` (mutably) at once.
/// Returns `(row_a, row_b)`.
fn two_rows(m: &mut Mat, a: usize, b: usize) -> (&[f64], &mut [f64]) {
    assert_ne!(a, b);
    let cols = m.cols();
    let data = m.as_mut_slice();
    if a < b {
        let (head, tail) = data.split_at_mut(b * cols);
        (&head[a * cols..(a + 1) * cols], &mut tail[..cols])
    } else {
        let (head, tail) = data.split_at_mut(a * cols);
        (&tail[..cols], &mut head[b * cols..(b + 1) * cols])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::matmul;
    use crate::random::rand_uniform;

    #[test]
    fn inverse_identity() {
        let i = Mat::identity(4);
        assert!(inverse(&i).unwrap().approx_eq(&i, 1e-12));
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = rand_uniform(6, 6, 0.5, 2.0, 21);
        let ai = inverse(&a).unwrap();
        let prod = matmul(&a, &ai).unwrap();
        assert!(prod.approx_eq(&Mat::identity(6), 1e-8), "{prod:?}");
    }

    #[test]
    fn inverse_requires_square() {
        assert!(matches!(
            inverse(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn inverse_detects_singular() {
        let mut a = Mat::zeros(3, 3);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        // Third row is zero -> singular.
        assert!(matches!(inverse(&a), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn inverse_needs_pivoting() {
        // Leading zero forces a row swap.
        let a = Mat::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let ai = inverse(&a).unwrap();
        assert!(ai.approx_eq(&a, 1e-12)); // permutation matrices are involutions
    }

    #[test]
    fn ridge_inverse_handles_rank_deficiency() {
        // Rank-1 Gram matrix: plain inverse fails, ridge succeeds.
        let g = Mat::from_vec(3, 1, vec![1.0, 2.0, 3.0]).unwrap();
        let gram = matmul(&g, &g.transpose()).unwrap();
        assert!(inverse(&gram).is_err());
        let ri = ridge_inverse(&gram, 1e-8).unwrap();
        assert!(!ri.has_non_finite());
    }
}
