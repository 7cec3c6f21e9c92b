//! Spectral Projected Gradient solver for Eq. (9) — paper Algorithm 1 —
//! on a fixed per-row candidate support.
//!
//! Minimises `J₂(W) = γ‖X − WX‖²_F + ‖WWᵀ‖₁` over the closed convex set
//! `{W : W ≥ 0, W_ij = 0 for j ∉ S_i}`, where `S_i` is the caller's
//! candidate list for row `i`. Eq. (11)'s projection (clamp negatives,
//! zero diagonal) is the special case of the exhaustive support
//! `S_i = {j ≠ i}` ([`exhaustive_support`]); a kNN support restricts
//! each object's self-expression to its `m` candidates, the elite-
//! neighbour / kNN-restricted idea of Huang et al. and Luong & Nayak.
//!
//! Implementation notes, deviating from the paper's printed pseudo-code
//! only where the print is internally inconsistent (documented in
//! DESIGN.md §3):
//!
//! * The paper's gradient line places γ on the sparsity term while Eq. (9)
//!   places it on the fidelity term; the two differ only by rescaling the
//!   objective by `1/γ`. We implement the gradient of Eq. (9) as printed.
//!   With the residual `R = X − WX` (objects as rows) it reads, on the
//!   support, `g_ij = −2γ·R_i·X_j + 2·colsum_j(W)`; the second term is
//!   `∂‖WWᵀ‖₁/∂W` for nonnegative `W`.
//! * The paper updates `σ ← yᵀy / sᵀy` and then steps `W − σ∇W`; that `σ`
//!   is the *reciprocal* of the Barzilai–Borwein BB2 step. We use the BB2
//!   step `σ ← sᵀy / yᵀy` (safeguarded to `[1e-10, 1e10]`), which is the
//!   standard SPG choice (Birgin–Martínez–Raydan, ref \[25\]). Both
//!   products run over the support only: coordinates fixed at zero carry
//!   no step.
//! * The line search is the nonmonotone Grippo–Lampariello–Lucidi rule
//!   over a sliding window of past objective values.
//!
//! ## Support contract
//!
//! `support[i]` lists the candidate columns of row `i`, in any order:
//! each `< n`, never `i`, no duplicates. A row may be empty (its `W` row
//! stays zero). `W` lives on that pattern for the whole solve and is
//! returned as a [`Csr`] on it (exact zeros not stored).
//!
//! ## Cost
//!
//! With `nnz = Σ|S_i|` and `d` features, one iteration is two
//! `O(nnz·d)` passes — the search direction's `D·X` and the gradient's
//! `R_i·X_j` dot products — plus `O(n·d)` per line-search trial, which
//! evaluates `‖R − ℓ·DX‖²` in place (`R` itself is maintained as
//! `R ← R − ℓ·DX` on acceptance). Memory is `O(nnz + n·d)`; no `n x n`
//! array and no Gram matrix `XXᵀ` is formed. A kNN support with `m`
//! candidates per row gives `O(n·m·d)` per iteration instead of the
//! dense solver's `O(n²·d)` (or `O(n³)` through `XXᵀ`).
//!
//! ## Determinism
//!
//! Per-row and per-entry kernels run on [`mtrl_linalg::par`] workers,
//! each with a fixed 8-lane accumulation order; every cross-row reduction
//! (column sums, the objective, `⟨g, D⟩`, `‖D‖`, `sᵀy`, `yᵀy`) is a
//! serial sum in row-major order. Results are bit-identical for every
//! thread count.

use mtrl_linalg::par::{num_threads, par_chunks_map, par_row_chunks};
use mtrl_linalg::{LinalgError, Mat};
use mtrl_sparse::{Csr, CsrBuilder};
use std::collections::VecDeque;

#[cfg(test)]
mod dense_oracle;

/// Configuration for the SPG subspace learner.
#[derive(Debug, Clone)]
pub struct SpgConfig {
    /// Noise-tolerance parameter γ of Eq. (9): larger γ assumes cleaner
    /// data (Sec. III-A). Paper's tuned default for the main experiments.
    pub gamma: f64,
    /// Maximum outer iterations.
    pub max_iter: usize,
    /// Convergence threshold on the projected-gradient Frobenius norm,
    /// relative to the matrix size.
    pub tol: f64,
    /// Length of the nonmonotone line-search history window.
    pub history: usize,
    /// Sufficient-decrease constant δ of the Armijo condition.
    pub armijo: f64,
    /// Seed for the random initial `W₀` (paper: random initialisation).
    pub seed: u64,
}

impl Default for SpgConfig {
    fn default() -> Self {
        SpgConfig {
            gamma: 25.0,
            max_iter: 150,
            tol: 1e-5,
            history: 10,
            armijo: 1e-4,
            seed: 7,
        }
    }
}

/// Output of the SPG solver.
#[derive(Debug, Clone)]
pub struct SpgResult {
    /// The learned affinity (`n x n`, nonnegative, zero diagonal), stored
    /// on the support pattern.
    pub w: Csr,
    /// Objective value `J₂` after every iteration (monotone up to the
    /// nonmonotone window).
    pub objective_trace: Vec<f64>,
    /// Iterations actually performed.
    pub iterations: usize,
    /// Whether the projected-gradient criterion was met.
    pub converged: bool,
}

/// Work (multiply-adds per kernel pass, `nnz·d`) below which the solver
/// runs on the calling thread: a thread spawn costs more than the pass.
const PAR_THRESHOLD: usize = 1 << 20;

/// The all-pairs support `S_i = {j ≠ i}`: the dense problem of Eq. (9),
/// `O(n²·d)` per iteration. Meant for small `n`.
pub fn exhaustive_support(n: usize) -> Vec<Vec<usize>> {
    (0..n)
        .map(|i| (0..n).filter(|&j| j != i).collect())
        .collect()
}

/// Learn the subspace affinity of one object type on a candidate
/// support.
///
/// `data` holds one object per row (`n x D`); `support[i]` lists the
/// candidate columns of row `i` (see the module docs for the contract).
/// Returns the affinity `W` with `W_ij > 0` intended for same-subspace
/// pairs (Eq. 5).
///
/// # Errors
/// Returns [`LinalgError::InvalidArgument`] for degenerate inputs (fewer
/// than 2 objects, non-positive γ) and for a support that breaks the
/// contract (wrong length, a column out of range, on the diagonal or
/// repeated).
pub fn spg_affinity(
    data: &Mat,
    support: &[Vec<usize>],
    cfg: &SpgConfig,
) -> Result<SpgResult, LinalgError> {
    let (n, d) = data.shape();
    if n < 2 {
        return Err(LinalgError::InvalidArgument(
            "spg_affinity: need at least 2 objects".into(),
        ));
    }
    if cfg.gamma <= 0.0 {
        return Err(LinalgError::InvalidArgument(
            "spg_affinity: gamma must be positive".into(),
        ));
    }
    let pat = Pattern::new(support, n)?;
    let threads = if pat.nnz().saturating_mul(d) >= PAR_THRESHOLD {
        num_threads()
    } else {
        1
    };
    let prob = Problem {
        x: data,
        pat: &pat,
        gamma: cfg.gamma,
        threads,
    };

    // Random nonnegative start on the support: a stateless hash of
    // (seed, i, j), so it costs O(nnz) and does not depend on which
    // other candidates a row has. The small scale keeps the first
    // objective finite for large γ.
    let mut w: Vec<f64> = pat
        .entries()
        .map(|(i, j)| init_weight(cfg.seed, i, j, n))
        .collect();
    let mut r = prob.residual(&w);
    let cs = pat.col_sums(&w);
    let mut obj = prob.objective(&r, None, 0.0, &cs);
    let mut grad = prob.gradient(&r, &cs);

    let nnz = pat.nnz();
    let mut dir = vec![0.0; nnz];
    let mut w_try = vec![0.0; nnz];
    let mut dx = Mat::zeros(n, d);

    let mut sigma = 1.0f64; // paper: σ ← 1
    let mut history = VecDeque::with_capacity(cfg.history);
    history.push_back(obj);
    let mut trace = Vec::with_capacity(cfg.max_iter);
    let scale_tol = cfg.tol * (n as f64);

    let mut converged = false;
    let mut iterations = 0;
    for it in 0..cfg.max_iter {
        iterations = it + 1;
        // Step 2: search direction D = P(W − σ∇) − W.
        for ((dp, &wp), &gp) in dir.iter_mut().zip(&w).zip(&grad) {
            *dp = projected_step(wp, gp, sigma) - wp;
        }
        let d_norm = dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        if d_norm <= scale_tol {
            converged = true;
            trace.push(obj);
            break;
        }

        // ⟨∇, D⟩ for the Armijo condition (must be negative by convexity
        // of the feasible set; if not, the direction is numerically dead).
        let gd: f64 = grad.iter().zip(&dir).map(|(g, dd)| g * dd).sum();
        if gd >= 0.0 {
            converged = true;
            trace.push(obj);
            break;
        }

        // D·X once, so every line-search trial is O(n·d).
        prob.times_x(&dir, &mut dx);
        let f_max = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);

        // Step 3: nonmonotone backtracking on ℓ ∈ (0, 1].
        let mut ell = 1.0f64;
        let mut accepted = false;
        for _ in 0..30 {
            for ((t, &wp), &dp) in w_try.iter_mut().zip(&w).zip(&dir) {
                *t = wp + ell * dp;
            }
            let cs_try = pat.col_sums(&w_try);
            let obj_try = prob.objective(&r, Some(&dx), ell, &cs_try);
            if obj_try <= f_max + cfg.armijo * ell * gd {
                // Steps 4-7: accept, update BB quantities.
                prob.step_residual(&mut r, &dx, ell);
                let grad_new = prob.gradient(&r, &cs_try);
                let (sty, yty) = bb_products(&w, &w_try, &grad, &grad_new);
                sigma = if sty > 0.0 && yty > 0.0 {
                    (sty / yty).clamp(1e-10, 1e10)
                } else {
                    1.0
                };
                std::mem::swap(&mut w, &mut w_try);
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
            // Line search exhausted: the iterate is numerically optimal.
            converged = true;
            break;
        }
    }

    Ok(SpgResult {
        w: pat.to_csr(&w),
        objective_trace: trace,
        iterations,
        converged,
    })
}

/// One coordinate of Eq. (11)'s projected step `P(W − σ∇)`: clamp at
/// zero. Off-support coordinates (the diagonal among them) are never
/// stored, so they stay zero.
#[inline]
fn projected_step(w: f64, g: f64, sigma: f64) -> f64 {
    let t = w - sigma * g;
    if t < 0.0 {
        0.0
    } else {
        t
    }
}

/// `W₀_ij ∈ [0, 1/n)` as a stateless function of `(seed, i, j)`
/// (SplitMix64 finaliser over the three keys).
fn init_weight(seed: u64, i: usize, j: usize, n: usize) -> f64 {
    let h = splitmix64(splitmix64(splitmix64(seed) ^ i as u64) ^ j as u64);
    // Top 53 bits → uniform in [0, 1).
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64) / n as f64
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Returns `(sᵀy, yᵀy)` for the BB step over the support, with
/// `s = W⁺ − W`, `y = ∇(W⁺) − ∇(W)`.
fn bb_products(w_old: &[f64], w_new: &[f64], g_old: &[f64], g_new: &[f64]) -> (f64, f64) {
    let mut sty = 0.0;
    let mut yty = 0.0;
    for (((wo, wn), go), gn) in w_old.iter().zip(w_new).zip(g_old).zip(g_new) {
        let s = wn - wo;
        let y = gn - go;
        sty += s * y;
        yty += y * y;
    }
    (sty, yty)
}

/// The fixed sparsity pattern of `W`: CSR row pointers and sorted
/// column indices. Every per-entry buffer of the solver (`W`, `∇`, `D`)
/// is a flat `nnz` vector aligned with `cols`.
struct Pattern {
    n: usize,
    indptr: Vec<usize>,
    cols: Vec<usize>,
}

impl Pattern {
    fn new(support: &[Vec<usize>], n: usize) -> Result<Self, LinalgError> {
        if support.len() != n {
            return Err(LinalgError::InvalidArgument(format!(
                "spg_affinity: support has {} rows for {n} objects",
                support.len()
            )));
        }
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        let mut cols = Vec::with_capacity(support.iter().map(Vec::len).sum());
        for (i, s) in support.iter().enumerate() {
            let start = cols.len();
            cols.extend_from_slice(s);
            let row = &mut cols[start..];
            row.sort_unstable();
            if row.windows(2).any(|p| p[0] == p[1]) || row.iter().any(|&j| j >= n || j == i) {
                return Err(LinalgError::InvalidArgument(format!(
                    "spg_affinity: support row {i} has a column out of range, \
                     on the diagonal or repeated"
                )));
            }
            indptr.push(cols.len());
        }
        Ok(Pattern { n, indptr, cols })
    }

    fn nnz(&self) -> usize {
        self.cols.len()
    }

    fn row(&self, i: usize) -> std::ops::Range<usize> {
        self.indptr[i]..self.indptr[i + 1]
    }

    /// `(i, j)` of every stored entry, row-major.
    fn entries(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.n).flat_map(move |i| self.cols[self.row(i)].iter().map(move |&j| (i, j)))
    }

    /// Column sums of the matrix with entry values `v`, accumulated in
    /// row-major order.
    fn col_sums(&self, v: &[f64]) -> Vec<f64> {
        let mut s = vec![0.0; self.n];
        for (&j, &x) in self.cols.iter().zip(v) {
            s[j] += x;
        }
        s
    }

    fn to_csr(&self, v: &[f64]) -> Csr {
        let mut b = CsrBuilder::with_capacity(self.n, self.n, self.nnz());
        for i in 0..self.n {
            for p in self.row(i) {
                b.push(self.cols[p], v[p]);
            }
            b.finish_row();
        }
        b.build()
    }
}

/// One SPG problem: the data, the pattern, γ and the worker count.
struct Problem<'a> {
    x: &'a Mat,
    pat: &'a Pattern,
    gamma: f64,
    threads: usize,
}

impl Problem<'_> {
    /// `R = X − W·X` for entry values `w`.
    fn residual(&self, w: &[f64]) -> Mat {
        let mut r = self.x.clone();
        let (n, d) = r.shape();
        self.rows(r.as_mut_slice(), n, d, |i, out| {
            for p in self.pat.row(i) {
                axpy(-w[p], self.x.row(self.pat.cols[p]), out);
            }
        });
        r
    }

    /// `out = D·X` for entry values `dir`: each output row accumulates its
    /// nonzero `D_ij·X_j` terms in column order, four rows of `X` per
    /// pass over the output row.
    fn times_x(&self, dir: &[f64], out: &mut Mat) {
        let (n, d) = out.shape();
        self.rows(out.as_mut_slice(), n, d, |i, row| {
            row.fill(0.0);
            let mut terms = self
                .pat
                .row(i)
                .filter(|&p| dir[p] != 0.0)
                .map(|p| (dir[p], self.x.row(self.pat.cols[p])));
            loop {
                match (terms.next(), terms.next(), terms.next(), terms.next()) {
                    (Some(a), Some(b), Some(c), Some(e)) => axpy4([a, b, c, e], row),
                    (a, b, c, _) => {
                        for (coef, x) in [a, b, c].into_iter().flatten() {
                            axpy(coef, x, row);
                        }
                        break;
                    }
                }
            }
        });
    }

    /// `R ← R − ℓ·DX`, element for element the expression the line
    /// search evaluated.
    fn step_residual(&self, r: &mut Mat, dx: &Mat, ell: f64) {
        let (n, d) = r.shape();
        self.rows(r.as_mut_slice(), n, d, |i, row| {
            for (v, &x) in row.iter_mut().zip(dx.row(i)) {
                *v = step(*v, x, ell);
            }
        });
    }

    /// `J₂ = γ‖R − ℓ·DX‖² + Σ_k colsum_k(W)²` (`dx = None` reads `R`
    /// alone). For nonnegative `W`, `‖WWᵀ‖₁ = Σ_k (Σ_i W_ik)²`.
    fn objective(&self, r: &Mat, dx: Option<&Mat>, ell: f64, cs: &[f64]) -> f64 {
        let n = r.rows();
        let row_sq = par_chunks_map(n, self.threads, |range| {
            range
                .map(|i| match dx {
                    Some(dx) => sq_norm_step(r.row(i), dx.row(i), ell),
                    None => dot8(r.row(i), r.row(i)),
                })
                .collect()
        });
        let fidelity: f64 = row_sq.iter().sum();
        let sparsity: f64 = cs.iter().map(|c| c * c).sum();
        self.gamma * fidelity + sparsity
    }

    /// `g_ij = −2γ·R_i·X_j + 2·colsum_j` on every support entry. Entries
    /// are independent, so the pass splits by entry count (rows straddle
    /// chunk boundaries freely); within a row, four dot products share
    /// each load of `R_i`.
    fn gradient(&self, r: &Mat, cs: &[f64]) -> Vec<f64> {
        let nnz = self.pat.nnz();
        let mut g = vec![0.0; nnz];
        let two_gamma = 2.0 * self.gamma;
        let kernel = |e0: usize, e1: usize, chunk: &mut [f64]| {
            let indptr = &self.pat.indptr;
            // The row holding entry e0 (skipping empty rows).
            let mut i = indptr.partition_point(|&s| s <= e0).saturating_sub(1);
            let mut p = e0;
            while p < e1 {
                while p >= indptr[i + 1] {
                    i += 1;
                }
                let end = indptr[i + 1].min(e1);
                let ri = r.row(i);
                let cols = &self.pat.cols[p..end];
                let out = &mut chunk[p - e0..end - e0];
                let mut quads = cols.chunks_exact(4);
                let mut outs = out.chunks_exact_mut(4);
                for (js, gs) in (&mut quads).zip(&mut outs) {
                    let xs = [js[0], js[1], js[2], js[3]].map(|j| self.x.row(j));
                    for ((gv, dv), &j) in gs.iter_mut().zip(dot8x4(ri, xs)).zip(js) {
                        *gv = -two_gamma * dv + 2.0 * cs[j];
                    }
                }
                for (gv, &j) in outs.into_remainder().iter_mut().zip(quads.remainder()) {
                    *gv = -two_gamma * dot8(ri, self.x.row(j)) + 2.0 * cs[j];
                }
                p = end;
            }
        };
        if self.threads <= 1 {
            kernel(0, nnz, &mut g);
        } else {
            par_row_chunks(&mut g, nnz, 1, kernel);
        }
        g
    }

    /// Run `f(i, row_i)` over the rows of an `m x width` buffer, on the
    /// worker pool when the problem is large enough.
    fn rows(&self, buf: &mut [f64], m: usize, width: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
        let chunk_rows = |r0: usize, r1: usize, chunk: &mut [f64]| {
            for (i, row) in (r0..r1).zip(chunk.chunks_exact_mut(width.max(1))) {
                f(i, row);
            }
        };
        if self.threads <= 1 || width == 0 {
            chunk_rows(0, m, buf);
        } else {
            par_row_chunks(buf, m, width, chunk_rows);
        }
    }
}

/// `r − ℓ·dx` with one rounding — the residual after a step of length ℓ.
#[inline]
fn step(r: f64, dx: f64, ell: f64) -> f64 {
    (-ell).mul_add(dx, r)
}

/// `y += a·x` with fused multiply-adds.
#[inline]
fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    for (yv, &xv) in y.iter_mut().zip(x) {
        *yv = a.mul_add(xv, *yv);
    }
}

/// Reduce 8 lane accumulators plus a tail in one fixed order.
#[inline]
fn reduce8(acc: [f64; 8], tail: f64) -> f64 {
    ((acc[0] + acc[4]) + (acc[1] + acc[5])) + ((acc[2] + acc[6]) + (acc[3] + acc[7])) + tail
}

/// `y += a₀·x₀ + a₁·x₁ + a₂·x₂ + a₃·x₃`, fused in that order — the same
/// rounding as four [`axpy`] calls, with one pass over `y`.
#[inline]
fn axpy4(terms: [(f64, &[f64]); 4], y: &mut [f64]) {
    let [(a0, x0), (a1, x1), (a2, x2), (a3, x3)] = terms;
    for ((((yv, &v0), &v1), &v2), &v3) in y.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3) {
        *yv = a3.mul_add(v3, a2.mul_add(v2, a1.mul_add(v1, a0.mul_add(v0, *yv))));
    }
}

/// One 8-wide FMA step `acc += a·b`.
#[inline(always)]
fn fma8(acc: &mut [f64; 8], a: &[f64], b: &[f64]) {
    for ((s, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *s = x.mul_add(y, *s);
    }
}

/// Serial FMA sum over the `len % 8` trailing elements.
#[inline]
fn tail_dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |t, (&x, &y)| x.mul_add(y, t))
}

/// `a·b` with a fixed 8-lane FMA accumulator (vectorises; the
/// summation order depends only on the length).
#[inline]
fn dot8(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f64; 8];
    let (ca, cb) = (a.chunks_exact(8), b.chunks_exact(8));
    let tail = tail_dot(ca.remainder(), cb.remainder());
    for (xa, xb) in ca.zip(cb) {
        fma8(&mut acc, xa, xb);
    }
    reduce8(acc, tail)
}

/// `[a·b₀, a·b₁, a·b₂, a·b₃]`, each bit-identical to [`dot8`], sharing
/// every load of `a`.
#[inline]
fn dot8x4(a: &[f64], b: [&[f64]; 4]) -> [f64; 4] {
    let mut acc = [[0.0f64; 8]; 4];
    let split = a.len() - a.len() % 8;
    for k in (0..split).step_by(8) {
        let xa = &a[k..k + 8];
        for (s, bq) in acc.iter_mut().zip(&b) {
            fma8(s, xa, &bq[k..k + 8]);
        }
    }
    let mut out = [0.0; 4];
    for ((o, s), bq) in out.iter_mut().zip(acc).zip(&b) {
        *o = reduce8(s, tail_dot(&a[split..], &bq[split..]));
    }
    out
}

/// `‖r − ℓ·dx‖²` with the same 8-lane layout as [`dot8`].
#[inline]
fn sq_norm_step(r: &[f64], dx: &[f64], ell: f64) -> f64 {
    debug_assert_eq!(r.len(), dx.len());
    let mut acc = [0.0f64; 8];
    let (cr, cd) = (r.chunks_exact(8), dx.chunks_exact(8));
    let tail: f64 = cr
        .remainder()
        .iter()
        .zip(cd.remainder())
        .fold(0.0, |t, (&a, &b)| {
            let v = step(a, b, ell);
            v.mul_add(v, t)
        });
    for (xr, xd) in cr.zip(cd) {
        for ((s, &a), &b) in acc.iter_mut().zip(xr).zip(xd) {
            let v = step(a, b, ell);
            *s = v.mul_add(v, *s);
        }
    }
    reduce8(acc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::random::{rand_normal, rand_uniform};

    /// Points on two independent 1-D subspaces (lines) in R^4, with n/2
    /// points each: the classic identifiable multiple-subspace setup.
    fn two_lines(n_per: usize, noise: f64, seed: u64) -> (Mat, Vec<usize>) {
        let dir_a = [1.0, 2.0, 0.0, -1.0];
        let dir_b = [0.0, 1.0, -3.0, 1.0];
        let coeff = rand_uniform(2 * n_per, 1, 0.5, 2.0, seed);
        let noise_m = rand_normal(2 * n_per, 4, 0.0, noise, seed + 1);
        let mut rows = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2 * n_per {
            let dir = if i < n_per { &dir_a } else { &dir_b };
            labels.push(usize::from(i >= n_per));
            let c = coeff[(i, 0)];
            let row: Vec<f64> = (0..4).map(|d| c * dir[d] + noise_m[(i, d)]).collect();
            rows.push(row);
        }
        (Mat::from_rows(&rows).unwrap(), labels)
    }

    fn solve_all_pairs(data: &Mat, cfg: &SpgConfig) -> SpgResult {
        spg_affinity(data, &exhaustive_support(data.rows()), cfg).unwrap()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn constraints_hold_at_solution() {
        let (data, _) = two_lines(8, 0.01, 1);
        let res = solve_all_pairs(&data, &SpgConfig::default());
        for (i, j, v) in res.w.iter() {
            assert!(v > 0.0, "non-positive stored affinity at ({i},{j})");
            assert!(v.is_finite());
            assert_ne!(i, j, "nonzero diagonal");
        }
    }

    #[test]
    fn objective_decreases_nonmonotone_window() {
        let (data, _) = two_lines(10, 0.02, 2);
        let res = solve_all_pairs(&data, &SpgConfig::default());
        let t = &res.objective_trace;
        assert!(t.len() >= 2);
        // The nonmonotone rule still forces overall decrease: the last
        // value must be (weakly) below the first.
        assert!(
            t.last().unwrap() <= t.first().unwrap(),
            "objective grew: {t:?}"
        );
    }

    #[test]
    fn within_subspace_affinity_dominates() {
        let (data, labels) = two_lines(12, 0.01, 3);
        let res = solve_all_pairs(
            &data,
            &SpgConfig {
                gamma: 50.0,
                ..SpgConfig::default()
            },
        );
        let mut within = 0.0;
        let mut across = 0.0;
        for (i, j, v) in res.w.iter() {
            if labels[i] == labels[j] {
                within += v;
            } else {
                across += v;
            }
        }
        assert!(
            within > 3.0 * across,
            "within {within} not dominating across {across}"
        );
    }

    #[test]
    fn distant_same_subspace_points_connected() {
        // Fig. 1's claim: subspace learning finds *distant* within-manifold
        // neighbours. Put one far-out point on line A; its largest affinity
        // row entries must still be line-A points.
        let dir_a = [1.0, 2.0, 0.0, -1.0];
        let dir_b = [0.0, 1.0, -3.0, 1.0];
        let mut rows = Vec::new();
        for i in 0..8 {
            let c = 0.5 + 0.1 * i as f64;
            rows.push(dir_a.iter().map(|d| c * d).collect::<Vec<_>>());
        }
        rows.push(dir_a.iter().map(|d| 50.0 * d).collect::<Vec<_>>()); // distant A point, index 8
        for i in 0..8 {
            let c = 0.5 + 0.1 * i as f64;
            rows.push(dir_b.iter().map(|d| c * d).collect::<Vec<_>>());
        }
        let data = Mat::from_rows(&rows).unwrap();
        let res = solve_all_pairs(
            &data,
            &SpgConfig {
                gamma: 100.0,
                max_iter: 300,
                ..SpgConfig::default()
            },
        );
        let far = 8usize;
        let w = &res.w;
        let a_mass: f64 = (0..8).map(|j| w.get(far, j) + w.get(j, far)).sum();
        let b_mass: f64 = (9..17).map(|j| w.get(far, j) + w.get(j, far)).sum();
        assert!(
            a_mass > b_mass,
            "distant point not linked to its subspace: A={a_mass} B={b_mass}"
        );
    }

    #[test]
    fn rejects_degenerate_input() {
        let one = Mat::zeros(1, 3);
        assert!(spg_affinity(&one, &exhaustive_support(1), &SpgConfig::default()).is_err());
        let data = Mat::zeros(4, 3);
        let bad_gamma = SpgConfig {
            gamma: 0.0,
            ..SpgConfig::default()
        };
        assert!(spg_affinity(&data, &exhaustive_support(4), &bad_gamma).is_err());
    }

    #[test]
    fn rejects_support_breaking_the_contract() {
        let data = rand_uniform(4, 3, 0.0, 1.0, 9);
        let cfg = SpgConfig::default();
        let short = vec![vec![1], vec![0], vec![3]];
        let out_of_range = vec![vec![1], vec![0], vec![4], vec![2]];
        let diagonal = vec![vec![0, 1], vec![0], vec![3], vec![2]];
        let repeated = vec![vec![1, 1], vec![0], vec![3], vec![2]];
        for bad in [short, out_of_range, diagonal, repeated] {
            assert!(
                matches!(
                    spg_affinity(&data, &bad, &cfg),
                    Err(LinalgError::InvalidArgument(_))
                ),
                "{bad:?} accepted"
            );
        }
        // Order within a row is free; empty rows stay zero.
        let loose = vec![vec![3, 1], vec![], vec![0, 3], vec![2]];
        let res = spg_affinity(&data, &loose, &cfg).unwrap();
        assert_eq!(res.w.row(1).0.len(), 0);
        assert!(res.w.iter().all(|(i, j, _)| loose[i].contains(&j)));
    }

    #[test]
    fn deterministic_given_seed() {
        let (data, _) = two_lines(6, 0.05, 4);
        let a = solve_all_pairs(&data, &SpgConfig::default());
        let b = solve_all_pairs(&data, &SpgConfig::default());
        assert_eq!(a.w, b.w);
    }

    #[test]
    fn initial_weights_are_stateless_and_in_range() {
        let n = 50;
        let mut seen = std::collections::HashSet::new();
        for i in 0..n {
            for j in 0..n {
                let v = init_weight(7, i, j, n);
                assert!((0.0..1.0 / n as f64).contains(&v));
                assert_eq!(v.to_bits(), init_weight(7, i, j, n).to_bits());
                seen.insert(v.to_bits());
            }
        }
        assert!(seen.len() > n * n - 5, "hash collides: {}", seen.len());
        assert_ne!(init_weight(7, 3, 4, n), init_weight(8, 3, 4, n));
        assert_ne!(init_weight(7, 3, 4, n), init_weight(7, 4, 3, n));
    }

    #[test]
    fn projection_operator_eq11() {
        assert_eq!(projected_step(0.5, 1.0, 1.0), 0.0); // clamped negative
        assert_eq!(projected_step(0.5, -1.0, 0.5), 1.0);
        assert_eq!(projected_step(0.25, 0.0, 3.0), 0.25);
    }

    #[test]
    fn lane_kernels_match_plain_sums() {
        let a = rand_uniform(1, 21, -1.0, 1.0, 10);
        let b = rand_uniform(1, 21, -1.0, 1.0, 11);
        let (a, b) = (a.as_slice(), b.as_slice());
        let plain: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
        assert!((dot8(a, b) - plain).abs() < 1e-12);
        let sq: f64 = a.iter().zip(b).map(|(x, y)| (x - 0.5 * y).powi(2)).sum();
        assert!((sq_norm_step(a, b, 0.5) - sq).abs() < 1e-12);
        assert_eq!(sq_norm_step(a, b, 0.0), dot8(a, a));
        // The blocked kernels reproduce the single ones bit for bit.
        let xs: Vec<Mat> = (0..4)
            .map(|k| rand_uniform(1, 21, -1.0, 1.0, 20 + k))
            .collect();
        let quad = dot8x4(a, [0, 1, 2, 3].map(|k| xs[k].as_slice()));
        for (k, q) in quad.iter().enumerate() {
            assert_eq!(q.to_bits(), dot8(a, xs[k].as_slice()).to_bits());
        }
        let (mut fused, mut single) = (b.to_vec(), b.to_vec());
        let terms = [0, 1, 2, 3].map(|k| (0.3 * k as f64 - 0.4, xs[k].as_slice()));
        axpy4(terms, &mut fused);
        for (c, x) in terms {
            axpy(c, x, &mut single);
        }
        assert_eq!(bits(&fused), bits(&single));
    }

    #[test]
    fn larger_gamma_means_better_reconstruction() {
        let (data, _) = two_lines(10, 0.02, 5);
        let lo = solve_all_pairs(
            &data,
            &SpgConfig {
                gamma: 1.0,
                ..SpgConfig::default()
            },
        );
        let hi = solve_all_pairs(
            &data,
            &SpgConfig {
                gamma: 500.0,
                ..SpgConfig::default()
            },
        );
        let recon = |w: &Csr| {
            let xw = w.spmm_dense(&data);
            mtrl_linalg::norms::frobenius_sq_diff(&xw, &data)
        };
        assert!(
            recon(&hi.w) < recon(&lo.w),
            "gamma=500 should reconstruct better than gamma=1"
        );
    }

    #[test]
    fn restricted_support_keeps_w_on_it() {
        // A 3-candidate ring support: W never leaves it, and the row-wise
        // restriction still solves a (smaller) feasible problem.
        let (data, _) = two_lines(10, 0.02, 6);
        let n = data.rows();
        let support: Vec<Vec<usize>> = (0..n)
            .map(|i| (1..=3).map(|k| (i + k) % n).collect())
            .collect();
        let res = spg_affinity(&data, &support, &SpgConfig::default()).unwrap();
        assert!(res
            .w
            .iter()
            .all(|(i, j, v)| support[i].contains(&j) && v > 0.0));
        let t = &res.objective_trace;
        assert!(t.last().unwrap() <= t.first().unwrap());
    }

    #[test]
    fn bit_identical_across_thread_counts_at_fan_out_size() {
        // n·m·d = 320·40·224 ≈ 2.9M > PAR_THRESHOLD: every kernel fans
        // out over the worker pool at 4 threads.
        let (n, d, m) = (320, 224, 40);
        let data = rand_uniform(n, d, 0.0, 1.0, 12);
        let support: Vec<Vec<usize>> = (0..n)
            .map(|i| (1..=m).map(|k| (i + 7 * k) % n).collect())
            .collect();
        assert!(n * m * d >= PAR_THRESHOLD);
        let cfg = SpgConfig {
            max_iter: 12,
            ..SpgConfig::default()
        };
        let before = mtrl_linalg::par::num_threads();
        let mut runs = Vec::new();
        for t in [1, 4] {
            mtrl_linalg::par::set_num_threads(t);
            runs.push(spg_affinity(&data, &support, &cfg).unwrap());
        }
        mtrl_linalg::par::set_num_threads(before);
        let (a, b) = (&runs[0], &runs[1]);
        assert!(a.iterations > 1);
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(bits(&a.objective_trace), bits(&b.objective_trace));
        let entries = |r: &SpgResult| -> Vec<(usize, usize, u64)> {
            r.w.iter().map(|(i, j, v)| (i, j, v.to_bits())).collect()
        };
        assert_eq!(entries(a), entries(b));
    }
}
