//! Dense reference solver for Eq. (9): the all-pairs SPG on an `n x n`
//! `W` through the Gram matrix `K = XXᵀ` — `O(n³)` per iteration.
//!
//! Test-only oracle for [`super::spg_affinity`]: with the exhaustive
//! support both solve the same problem from the same `W₀` with the same
//! BB2 step and GLL line search, so their iterates agree to rounding.
//! `yᵀy` skips the fixed diagonal, as the sparse solver's sum over the
//! support does.

use super::{init_weight, SpgConfig};
use mtrl_linalg::ops::{matmul, matmul_nt};
use mtrl_linalg::Mat;
use std::collections::VecDeque;

/// Dense solve: `(W, objective trace, iterations, converged)`.
pub(super) fn spg_dense(data: &Mat, cfg: &SpgConfig) -> (Mat, Vec<f64>, usize, bool) {
    let n = data.rows();
    let k = matmul_nt(data, data).unwrap();
    let tr_k = k.trace();

    let mut w = Mat::from_fn(n, n, |i, j| {
        if i == j {
            0.0
        } else {
            init_weight(cfg.seed, i, j, n)
        }
    });

    // M = W K, maintained incrementally across iterations.
    let mut m = matmul(&w, &k).unwrap();
    let mut obj = objective(&w, &m, &k, tr_k, cfg.gamma);
    let mut grad = gradient(&w, &m, &k, cfg.gamma);

    let mut sigma = 1.0f64;
    let mut history = VecDeque::with_capacity(cfg.history);
    history.push_back(obj);
    let mut trace = Vec::with_capacity(cfg.max_iter);
    let scale_tol = cfg.tol * (n as f64);

    let mut converged = false;
    let mut iterations = 0;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        let mut trial = w.clone();
        trial.axpy_inplace(-sigma, &grad).unwrap();
        project_inplace(&mut trial);
        let d = trial.sub(&w).unwrap();

        if mtrl_linalg::norms::frobenius(&d) <= scale_tol {
            converged = true;
            trace.push(obj);
            break;
        }
        let gd: f64 = grad
            .as_slice()
            .iter()
            .zip(d.as_slice())
            .map(|(g, dd)| g * dd)
            .sum();
        if gd >= 0.0 {
            converged = true;
            trace.push(obj);
            break;
        }

        let dk = matmul(&d, &k).unwrap();
        let f_max = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut ell = 1.0f64;
        let mut accepted = false;
        for _ in 0..30 {
            let mut w_try = w.clone();
            w_try.axpy_inplace(ell, &d).unwrap();
            let mut m_try = m.clone();
            m_try.axpy_inplace(ell, &dk).unwrap();
            let obj_try = objective(&w_try, &m_try, &k, tr_k, cfg.gamma);
            if obj_try <= f_max + cfg.armijo * ell * gd {
                let grad_new = gradient(&w_try, &m_try, &k, cfg.gamma);
                let (sty, yty) = bb_products_off_diagonal(&w, &w_try, &grad, &grad_new);
                sigma = if sty > 0.0 && yty > 0.0 {
                    (sty / yty).clamp(1e-10, 1e10)
                } else {
                    1.0
                };
                w = w_try;
                m = m_try;
                grad = grad_new;
                obj = obj_try;
                accepted = true;
                break;
            }
            ell *= 0.5;
        }
        trace.push(obj);
        history.push_back(obj);
        if history.len() > cfg.history {
            history.pop_front();
        }
        if !accepted {
            converged = true;
            break;
        }
    }
    (w, trace, iterations, converged)
}

/// Projection operator P of Eq. (11): clamp negatives, zero the diagonal.
fn project_inplace(w: &mut Mat) {
    for v in w.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    for i in 0..w.rows() {
        w[(i, i)] = 0.0;
    }
}

/// `J₂ = γ(tr K − 2 Σ W∘K + Σ (WK)∘W) + Σ_k colsum_k(W)²`, using
/// `‖X − WX‖² = tr((I−W)K(I−W)ᵀ)` with `M = WK` precomputed.
fn objective(w: &Mat, m: &Mat, k: &Mat, tr_k: f64, gamma: f64) -> f64 {
    let wk: f64 = w
        .as_slice()
        .iter()
        .zip(k.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let wmw: f64 = m
        .as_slice()
        .iter()
        .zip(w.as_slice())
        .map(|(a, b)| a * b)
        .sum();
    let sparsity: f64 = w.col_sums().iter().map(|c| c * c).sum();
    gamma * (tr_k - 2.0 * wk + wmw) + sparsity
}

/// `∇J₂ = 2γ(M − K) + 2·1·colsum(W)ᵀ` with `M = WK`.
fn gradient(w: &Mat, m: &Mat, k: &Mat, gamma: f64) -> Mat {
    let col_sums = w.col_sums();
    Mat::from_fn(w.rows(), w.cols(), |i, j| {
        2.0 * gamma * (m[(i, j)] - k[(i, j)]) + 2.0 * col_sums[j]
    })
}

/// `(sᵀy, yᵀy)` over the off-diagonal coordinates.
fn bb_products_off_diagonal(w_old: &Mat, w_new: &Mat, g_old: &Mat, g_new: &Mat) -> (f64, f64) {
    let n = w_old.rows();
    let mut sty = 0.0;
    let mut yty = 0.0;
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            let s = w_new[(i, j)] - w_old[(i, j)];
            let y = g_new[(i, j)] - g_old[(i, j)];
            sty += s * y;
            yty += y * y;
        }
    }
    (sty, yty)
}

#[cfg(test)]
mod tests {
    use super::super::{exhaustive_support, spg_affinity};
    use super::*;
    use mtrl_linalg::random::{rand_normal, rand_uniform};

    fn max_abs_diff(sparse: &mtrl_sparse::Csr, dense: &Mat) -> f64 {
        sparse
            .to_dense()
            .as_slice()
            .iter()
            .zip(dense.as_slice())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Exhaustive support reproduces the dense solver: same iteration
    /// count, same convergence flag, `W` and the objective trace within
    /// 1e-10, on problems that run the full line search (nonnegative
    /// features, signed features, `n < d` and `n > d`).
    #[test]
    fn exhaustive_support_matches_dense_oracle() {
        let cases = [
            (rand_uniform(24, 6, 0.0, 1.0, 31), 25.0),
            (rand_normal(30, 5, 0.0, 1.0, 32), 50.0),
            (rand_uniform(16, 40, 0.0, 1.0, 33), 10.0),
            (rand_uniform(40, 12, 0.0, 1.0, 34), 100.0),
        ];
        for (case, (data, gamma)) in cases.iter().enumerate() {
            let cfg = SpgConfig {
                gamma: *gamma,
                max_iter: 40,
                seed: 5 + case as u64,
                ..SpgConfig::default()
            };
            let (w_dense, trace_dense, it_dense, conv_dense) = spg_dense(data, &cfg);
            let sparse = spg_affinity(data, &exhaustive_support(data.rows()), &cfg).unwrap();
            assert!(it_dense > 5, "case {case}: too few iterations to compare");
            assert_eq!(sparse.iterations, it_dense, "case {case}: iterations");
            assert_eq!(sparse.converged, conv_dense, "case {case}: converged");
            let dw = max_abs_diff(&sparse.w, &w_dense);
            assert!(dw <= 1e-10, "case {case}: max |ΔW| = {dw:e}");
            for (a, b) in sparse.objective_trace.iter().zip(&trace_dense) {
                assert!(
                    (a - b).abs() <= 1e-10 * b.abs().max(1.0),
                    "case {case}: objective {a} vs {b}"
                );
            }
        }
    }
}
