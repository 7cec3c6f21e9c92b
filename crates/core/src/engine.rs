//! The NMTF multiplicative-update engine — paper Algorithm 2,
//! **sparse-first**.
//!
//! One engine drives RHCHME and the NMTF-based baselines; they differ only
//! in configuration:
//!
//! | method  | graph regulariser            | `E_R` | row ℓ1 |
//! |---------|------------------------------|-------|--------|
//! | SRC     | [`GraphRegularizer::None`]   | off   | off    |
//! | SNMTF   | [`GraphRegularizer::Fixed`] (pNN) | off | off |
//! | RMC     | [`GraphRegularizer::Ensemble`] (6 pNN candidates) | off | off |
//! | RHCHME  | [`GraphRegularizer::Fixed`] (heterogeneous, Eq. 12) | on | on |
//!
//! # The sparse formulation
//!
//! The decomposition target `R` is a symmetric block matrix of
//! inter-type co-occurrences — inherently sparse (`z = nnz(R) ≪ n²`,
//! the quantity the paper's own complexity analysis in Sec. III-F is
//! written in). [`run_engine`] therefore takes `R` as a
//! [`mtrl_sparse::Csr`] (from [`MultiTypeData::assemble_r_csr`]) and
//! never forms an `n x n` dense matrix:
//!
//! * **`E_R` is implicit.** Eq. 27's row shrinkage is
//!   `(E_R)_i = f_i·q_i` with `f_i = 1/(1 + β/(2‖q_i‖ + ζ))` and
//!   `Q = R − G S Gᵀ`, so
//!   `R − E_R = D_{1−f}·R + D_f·U·Hᵀ` where `U = G S` and `H = G` are
//!   the previous iterate's factors — a diagonal scaling of sparse `R`
//!   plus a rank-`c` correction. The engine stores only `f` and the two
//!   `n x c` factors; [`mtrl_linalg::lowrank::diag_lowrank_combine`]
//!   applies the correction directly to `R·G`.
//! * **`G S Gᵀ` is never materialised.** `A = (R − E_R)·G·Sᵀ` runs as
//!   one sparse SpMM (`R·G`, reused across steps) plus the low-rank
//!   correction; the Eq. 27 row residuals come from the trace identity
//!   `‖q_i‖² = ‖r_i‖² − 2·(R G Sᵀ)_i·g_i + g_i (S GᵀG Sᵀ) g_iᵀ`
//!   evaluated per row block
//!   ([`mtrl_linalg::lowrank::row_dots`] / [`row_quad_forms`]).
//! * **The objective is trace-form.** `J₄`'s fit term is
//!   `Σ_i (1 − f_i)²‖q_i‖²` (equivalently
//!   `tr((R−E)ᵀ(R−E)) − 2·tr(Gᵀ(R−E)G Sᵀ) + tr(SᵀGᵀG S GᵀG)` — the
//!   identities `tr((R−E)ᵀGSGᵀ) = tr(Gᵀ(R−E)G Sᵀ)` and
//!   `‖GSGᵀ‖²_F = tr(SᵀGᵀG S GᵀG)` folded into the row residuals), so
//!   no `n x n` temporary survives anywhere in the loop.
//!
//! Per-iteration cost is `O(nnz·c + n·c²)` (was `O(n²·c)`) and resident
//! memory is `O(nnz + n·c)` (was three `n x n` buffers). The original
//! dense loop is kept verbatim as [`run_engine_dense_reference`] for
//! tests and benches; a cross-implementation proptest
//! (`tests/integration_engine.rs`) pins the two to the same objective
//! trace (1e-9 relative) and identical argmax labels across method
//! configurations and thread counts.
//!
//! Per iteration (Algorithm 2 steps 3–7):
//!
//! 1. `S = (GᵀG)⁻¹ Gᵀ (R − E_R) G (GᵀG)⁻¹` (Eq. 18), ridge-stabilised;
//! 2. multiplicative `G` update (Eq. 21) with positive/negative part
//!    splits of `L`, `A = (R − E_R) G Sᵀ` and `B = Sᵀ GᵀG S`;
//! 3. row-ℓ1 normalisation of `G` (Eq. 22) when enabled;
//! 4. `E_R` update (Eq. 27) as the shrinkage factors `f` above;
//! 5. objective `J₄` (Eq. 15) evaluation and convergence check.
//!
//! The final `E_R` is reported two ways: `error_row_norms` (every row's
//! `‖(E_R)_i‖`, the corruption indicator) and `error_rows` — a
//! [`mtrl_sparse::RowSparse`] materialising only the *shrunk-active*
//! rows (norm ≥ [`EngineConfig::error_export_rel`] of the largest),
//! matching the ℓ2,1 model: most rows shrink to near-zero, corrupted
//! samples stay large.
//!
//! # Observability (stable metric-name contract)
//!
//! With `MTRL_OBS=1` (see `mtrl-obs`), every [`run_engine`] call reports
//! into the global registry. The names below are a **stable contract** —
//! exporters, dashboards, and the CI manifest rely on them:
//!
//! * span `engine.fit` — wall time of the whole call (nested under any
//!   caller spans, e.g. `rhchme.fit/engine.fit`);
//! * span aggregates `engine.fit.spmm`, `engine.fit.lowrank`,
//!   `engine.fit.update`, `engine.fit.residual` — cumulative per-phase
//!   kernel time across the iteration loop (`count` = iterations):
//!   `spmm` is the `R·G` / `GᵀG` refresh, `lowrank` the regulariser
//!   resolve + implicit-`E_R` correction + Eq. 18 `S` solve, `update`
//!   the Eq. 21 multiplicative `G` update + row normalisation,
//!   `residual` the trace-identity `‖q_i‖` / `E_R` / objective
//!   evaluation;
//! * counters `engine.fits` (calls) and `engine.iterations` (total
//!   iterations across calls);
//! * a `FitTelemetry` record (label `engine.fit`) with the problem shape
//!   (`n`, `c`, `nnz`), convergence outcome, the four phase totals, and
//!   a per-iteration trace of `objective`, `rel_change`, and
//!   `er_active_rows` (rows clearing the
//!   [`EngineConfig::error_export_rel`] threshold — Fig. 3's
//!   convergence evidence, machine-readable).
//!
//! Instrumentation only reads iterates and the monotonic clock; it is
//! exactly skipped when `MTRL_OBS` is off and never changes the
//! floating-point computation, so fits are byte-identical either way
//! (CI pins this with `determinism_probe`). The dense reference path is
//! deliberately uninstrumented.

use crate::error::RhchmeError;
use crate::multitype::MultiTypeData;
use crate::Result;
use mtrl_linalg::lowrank::{diag_lowrank_combine, row_dots, row_quad_forms};
use mtrl_linalg::norms::row_l2_norms;
use mtrl_linalg::ops::{g_s_gt, gram, matmul, matmul_tn};
use mtrl_linalg::simplex::project_simplex;
use mtrl_linalg::solve::ridge_inverse;
use mtrl_linalg::{Mat, Precision, EPS};
use mtrl_obs::{FitTelemetry, IterTelemetry};
use mtrl_sparse::{Csr, RowSparse, SparseBlockDiag};
use std::time::Instant;

/// Kernel-phase indices for [`PhaseClock`] (see the module docs'
/// observability section for what each phase covers).
const PHASE_SPMM: usize = 0;
const PHASE_LOWRANK: usize = 1;
const PHASE_UPDATE: usize = 2;
const PHASE_RESIDUAL: usize = 3;

/// Cumulative per-phase wall clock for the iteration loop. Inert (no
/// clock reads at all) when observability is off.
struct PhaseClock {
    lap_start: Option<Instant>,
    ns: [u64; 4],
}

impl PhaseClock {
    fn new(enabled: bool) -> Self {
        PhaseClock {
            lap_start: enabled.then(Instant::now),
            ns: [0; 4],
        }
    }

    /// Restart the lap timer (top of each iteration).
    fn mark(&mut self) {
        if self.lap_start.is_some() {
            self.lap_start = Some(Instant::now());
        }
    }

    /// Charge the time since the last mark/lap to `phase`.
    fn lap(&mut self, phase: usize) {
        if let Some(start) = self.lap_start {
            let now = Instant::now();
            self.ns[phase] += u64::try_from(now.duration_since(start).as_nanos()).unwrap_or(0);
            self.lap_start = Some(now);
        }
    }
}

/// Graph regulariser attached to the trace term `λ·tr(GᵀLG)`.
#[derive(Debug, Clone)]
pub enum GraphRegularizer {
    /// No intra-type information (SRC).
    None,
    /// A fixed Laplacian — single pNN (SNMTF) or the heterogeneous
    /// ensemble of Eq. 12 (RHCHME). Kept sparse: a pNN Laplacian has
    /// `O(p·n)` entries and the update only ever needs `L·G` products.
    Fixed(SparseBlockDiag),
    /// RMC's pre-given candidate ensemble (Eq. 2): `L = Σ βᵢ L̂ᵢ` with `β`
    /// re-optimised every iteration by minimising
    /// `Σ βᵢ tr(GᵀL̂ᵢG) + μ‖β‖²` over the probability simplex.
    Ensemble {
        /// Candidate Laplacians `L̂ᵢ` (same block layout).
        candidates: Vec<SparseBlockDiag>,
        /// Quadratic penalty μ keeping `β` away from the vertices.
        mu: f64,
    },
}

/// Engine configuration (one struct drives all four NMTF methods).
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Graph regularisation weight λ (Eq. 15).
    pub lambda: f64,
    /// Error-matrix trade-off β (Eq. 15); ignored when
    /// `use_error_matrix` is false.
    pub beta: f64,
    /// Enable the sample-wise sparse error matrix `E_R`.
    pub use_error_matrix: bool,
    /// Enable row-ℓ1 normalisation of `G` (Eq. 22).
    pub l1_row_normalize: bool,
    /// Maximum multiplicative-update iterations.
    pub max_iter: usize,
    /// Relative objective-change convergence threshold.
    pub tol: f64,
    /// Record per-iteration argmax labels of this type (Fig. 3 traces).
    pub record_labels_for_type: Option<usize>,
    /// Ridge added to `GᵀG` before inversion (empty-cluster protection).
    pub ridge: f64,
    /// The ζ perturbation regularising `D_ii` when `‖q_i‖ = 0`
    /// (Sec. III-D3).
    pub zeta: f64,
    /// Activity threshold for materialising final `E_R` rows into
    /// [`EngineResult::error_rows`], relative to the largest row norm:
    /// rows with `‖(E_R)_i‖ ≥ error_export_rel · max_j ‖(E_R)_j‖` are
    /// stored. Keeps the export at `O(active · n)` — under the ℓ2,1
    /// model only outlier (corrupted) rows clear half the maximum.
    pub error_export_rel: f64,
    /// Unread; always [`Precision::F64`] (the engine has one `f64`
    /// path). Kept only because the benchmark replay (`perfbench/`)
    /// sets it; a later benchmark change that updates the replay
    /// removes it.
    pub precision: Precision,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            lambda: 0.05,
            beta: 50.0,
            use_error_matrix: true,
            l1_row_normalize: true,
            max_iter: 100,
            tol: 1e-6,
            record_labels_for_type: None,
            ridge: 1e-10,
            zeta: 1e-8,
            error_export_rel: 0.5,
            precision: Precision::F64,
        }
    }
}

/// Output of an engine run.
#[derive(Debug, Clone)]
pub struct EngineResult {
    /// Final stacked membership matrix `G` (`n x c`).
    pub g: Mat,
    /// Final association matrix `S` (`c x c`).
    pub s: Mat,
    /// Objective `J₄` after every iteration.
    pub objective_trace: Vec<f64>,
    /// Recorded labels per iteration (empty unless requested).
    pub label_trace: Vec<Vec<usize>>,
    /// Iterations performed.
    pub iterations: usize,
    /// Whether the relative-change criterion was met.
    pub converged: bool,
    /// Final ensemble weights `β` (RMC only).
    pub ensemble_weights: Option<Vec<f64>>,
    /// Row l2 norms of the final `E_R` (empty when disabled) — corrupted
    /// samples show up as the large entries.
    pub error_row_norms: Vec<f64>,
    /// The shrunk-active rows of the final `E_R` (rows whose norm clears
    /// [`EngineConfig::error_export_rel`] of the maximum), stored
    /// row-sparsely; an all-zero `n x n` when `E_R` is disabled.
    pub error_rows: RowSparse,
}

/// Shared validation of everything except the `R` operand.
fn validate_common(
    n: usize,
    c: usize,
    g0: &Mat,
    reg: &GraphRegularizer,
    cfg: &EngineConfig,
) -> Result<()> {
    if g0.shape() != (n, c) {
        return Err(RhchmeError::InvalidData(format!(
            "G0 is {:?}, expected ({n}, {c})",
            g0.shape()
        )));
    }
    if cfg.lambda < 0.0 || cfg.beta < 0.0 {
        return Err(RhchmeError::InvalidConfig(
            "lambda and beta must be nonnegative".into(),
        ));
    }
    if !(0.0..=1.0).contains(&cfg.error_export_rel) {
        return Err(RhchmeError::InvalidConfig(format!(
            "error_export_rel {} outside [0, 1]",
            cfg.error_export_rel
        )));
    }
    if g0.min() < 0.0 {
        return Err(RhchmeError::InvalidData("G0 has negative entries".into()));
    }
    match reg {
        GraphRegularizer::Fixed(l) if l.n() != n => Err(RhchmeError::InvalidData(format!(
            "Laplacian is {}x{0}, expected {n}x{n}",
            l.n()
        ))),
        GraphRegularizer::Ensemble { candidates, mu } => {
            if candidates.is_empty() {
                return Err(RhchmeError::InvalidConfig(
                    "ensemble regulariser with no candidates".into(),
                ));
            }
            if *mu <= 0.0 {
                return Err(RhchmeError::InvalidConfig("mu must be positive".into()));
            }
            if candidates.iter().any(|l| l.n() != n) {
                return Err(RhchmeError::InvalidData(
                    "ensemble candidate with wrong dimension".into(),
                ));
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// The per-iteration regulariser state shared by both engine paths.
struct RegState<'a> {
    /// Fixed case: borrowed Laplacian + its part split, computed once.
    /// The Laplacian itself is **borrowed** from the caller's
    /// [`GraphRegularizer`] — a fit never deep-copies the `O(p·n)`
    /// triplets (the split parts are new matrices by necessity).
    fixed: Option<(&'a SparseBlockDiag, (SparseBlockDiag, SparseBlockDiag))>,
}

impl<'a> RegState<'a> {
    fn new(reg: &'a GraphRegularizer) -> Self {
        RegState {
            fixed: match reg {
                GraphRegularizer::Fixed(l) => Some((l, l.split_parts())),
                _ => None,
            },
        }
    }

    /// Resolve this iteration's `(L, L⁺, L⁻)`; the ensemble case
    /// re-optimises `β` against the current `G` and stores the combined
    /// Laplacian in `storage` so references stay borrowable.
    #[allow(clippy::type_complexity)]
    fn resolve<'b>(
        &'b self,
        reg: &'b GraphRegularizer,
        g: &Mat,
        storage: &'b mut Option<(SparseBlockDiag, SparseBlockDiag, SparseBlockDiag)>,
        ensemble_weights: &mut Option<Vec<f64>>,
    ) -> Result<(
        Option<&'b SparseBlockDiag>,
        Option<&'b SparseBlockDiag>,
        Option<&'b SparseBlockDiag>,
    )> {
        match (&self.fixed, reg) {
            (Some((l, (lp, lm))), _) => Ok((Some(*l), Some(lp), Some(lm))),
            (None, GraphRegularizer::Ensemble { candidates, mu }) => {
                let traces: Vec<f64> = candidates
                    .iter()
                    .map(|cand| cand.trace_quad(g))
                    .collect::<std::result::Result<_, _>>()?;
                let target: Vec<f64> = traces.iter().map(|&t| -t / (2.0 * mu)).collect();
                let beta_w = project_simplex(&target, 1.0);
                // L = Σ β L̂ over the shared block layout (sparse
                // patterns merge; the combination never densifies).
                let mut acc = candidates[0].scaled(beta_w[0]);
                for (cand, &b) in candidates.iter().zip(&beta_w).skip(1) {
                    acc = acc.lin_comb(1.0, cand, b).expect("same layout");
                }
                *ensemble_weights = Some(beta_w);
                let (lp, lm) = acc.split_parts();
                *storage = Some((acc, lp, lm));
                let (l, lp, lm) = storage.as_ref().expect("just stored");
                Ok((Some(l), Some(lp), Some(lm)))
            }
            (None, _) => Ok((None, None, None)),
        }
    }
}

/// The multiplicative `G` update of Eq. 21, shared by both paths: each
/// entry scales by `sqrt(num/den)`; structural zeros stay zero.
fn multiplicative_update(
    g: &mut Mat,
    a: &Mat,
    gb_pos: &Mat,
    gb_neg: &Mat,
    lp_g: Option<&Mat>,
    lm_g: Option<&Mat>,
    lambda: f64,
) {
    let (n, c) = g.shape();
    for i in 0..n {
        let a_row = a.row(i);
        let gbp = gb_pos.row(i);
        let gbn = gb_neg.row(i);
        let lpg = lp_g.as_ref().map(|m| m.row(i));
        let lmg = lm_g.as_ref().map(|m| m.row(i));
        let grow = g.row_mut(i);
        for j in 0..c {
            let gv = grow[j];
            if gv == 0.0 {
                continue; // structural zero (block layout) stays zero
            }
            let a_pos = a_row[j].max(0.0);
            let a_neg = (-a_row[j]).max(0.0);
            let (l_num, l_den) = match (lmg, lpg) {
                (Some(lm), Some(lp)) => (lambda * lm[j], lambda * lp[j]),
                _ => (0.0, 0.0),
            };
            let num = l_num + a_pos + gbn[j];
            let den = l_den + a_neg + gbp[j];
            grow[j] = gv * ((num + EPS) / (den + EPS)).sqrt();
        }
    }
}

/// Run the multiplicative-update engine — the **sparse-first** default
/// path.
///
/// * `r` — symmetric block CSR from
///   [`MultiTypeData::assemble_r_csr`] (relations are never densified);
/// * `data` — block layouts (and label extraction);
/// * `reg` — graph regulariser (see [`GraphRegularizer`]); a
///   [`GraphRegularizer::Fixed`] Laplacian is borrowed, not cloned;
/// * `g0` — initial membership (from
///   [`crate::kmeans::labels_to_membership`], block-structured).
///
/// Per iteration `O(nnz·c + n·c²)` work, `O(nnz + n·c)` memory; see the
/// module docs for the implicit `E_R` / trace-identity formulation. The
/// row-parallel kernels run on the [`mtrl_linalg::par`] pool and are
/// bit-identical for every thread count.
///
/// # Errors
/// * [`RhchmeError::InvalidData`] / [`RhchmeError::InvalidConfig`] on
///   shape or parameter violations;
/// * [`RhchmeError::Diverged`] if an iterate becomes non-finite.
pub fn run_engine(
    r: &Csr,
    data: &MultiTypeData,
    reg: &GraphRegularizer,
    g0: Mat,
    cfg: &EngineConfig,
) -> Result<EngineResult> {
    let n = data.total_objects();
    let c = data.total_clusters();
    if r.shape() != (n, n) {
        return Err(RhchmeError::InvalidData(format!(
            "R is {:?}, expected ({n}, {n})",
            r.shape()
        )));
    }
    validate_common(n, c, &g0, reg, cfg)?;

    // Observability (reads-only; skipped entirely when MTRL_OBS is off —
    // the fit itself is byte-identical either way).
    let obs = mtrl_obs::enabled();
    let _fit_span = mtrl_obs::span!("engine.fit");
    let mut clock = PhaseClock::new(obs);
    let mut iter_telemetry: Vec<IterTelemetry> = Vec::new();

    let mut g = g0;
    let mut s = Mat::zeros(c, c);
    let reg_state = RegState::new(reg);
    let mut ensemble_weights: Option<Vec<f64>> = None;

    // Row structure of R for the residual trace identity.
    let r_row_sq: Vec<f64> = (0..n)
        .map(|i| r.row(i).1.iter().map(|v| v * v).sum())
        .collect();

    // Implicit E_R: shrinkage factors f plus the previous iterate's
    // low-rank factors (U = G·S, H = G), so that
    // R − E_R = D_{1−f}·R + D_f·U·Hᵀ.
    let mut f_er: Vec<f64> = vec![0.0; n];
    let mut one_minus_f: Vec<f64> = vec![1.0; n];
    let mut prev_lowrank: Option<(Mat, Mat)> = None;
    let mut error_row_norms: Vec<f64> = Vec::new();
    let mut final_q_norms: Vec<f64> = Vec::new();

    // R·G and GᵀG for the *current* G — computed before the loop,
    // refreshed after every G update, and shared between the residual
    // identity of iteration t and step 3 of iteration t+1 (one SpMM and
    // one gram per iteration).
    let mut rg = r.spmm_dense(&g);
    let mut gram_cur = gram(&g);

    let mut objective_trace = Vec::with_capacity(cfg.max_iter);
    let mut label_trace = Vec::new();
    let mut prev_obj = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    // Per-iteration storage for the (recomputed) ensemble Laplacian so the
    // fixed case can hand out references without cloning.
    #[allow(unused_assignments)]
    let mut ens_storage: Option<(SparseBlockDiag, SparseBlockDiag, SparseBlockDiag)> = None;

    for t in 0..cfg.max_iter {
        iterations = t + 1;
        clock.mark();

        // ---- Regulariser for this iteration -------------------------
        ens_storage = None;
        let (l_current, l_plus, l_minus) =
            reg_state.resolve(reg, &g, &mut ens_storage, &mut ensemble_weights)?;

        // ---- Step 3: S update (Eq. 18) ------------------------------
        // m1 = (R − E_R)·G = D_{1−f}·(R·G) + D_f·U·(Hᵀ·G); before the
        // first shrinkage E_R = 0 and m1 is R·G itself.
        let m1_corrected = match &prev_lowrank {
            Some((u, h)) => {
                let w = matmul_tn(h, &g)?; // Hᵀ·G, c x c
                Some(diag_lowrank_combine(&one_minus_f, &rg, &f_er, u, &w)?)
            }
            None => None,
        };
        let m1: &Mat = m1_corrected.as_ref().unwrap_or(&rg);
        let gram_g = &gram_cur; // GᵀG of the pre-update G, c x c
        let ginv = ridge_inverse(gram_g, cfg.ridge)?;
        let gtm = matmul_tn(&g, m1)?; // Gᵀ(R − E_R)G, c x c
        s = matmul(&matmul(&ginv, &gtm)?, &ginv)?;
        clock.lap(PHASE_LOWRANK);

        // ---- Step 4: multiplicative G update (Eq. 21) ---------------
        let a = matmul(m1, &s.transpose())?; // (R − E_R) G Sᵀ, n x c
        let b = matmul_tn(&s, &matmul(gram_g, &s)?)?; // Sᵀ GᵀG S, c x c
        let (b_pos, b_neg) = mtrl_linalg::parts::split_parts(&b);
        let gb_pos = matmul(&g, &b_pos)?;
        let gb_neg = matmul(&g, &b_neg)?;
        let (lp_g, lm_g) = match (&l_plus, &l_minus) {
            (Some(lp), Some(lm)) => (Some(lp.mul_dense(&g)?), Some(lm.mul_dense(&g)?)),
            _ => (None, None),
        };
        multiplicative_update(
            &mut g,
            &a,
            &gb_pos,
            &gb_neg,
            lp_g.as_ref(),
            lm_g.as_ref(),
            cfg.lambda,
        );
        if g.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // ---- Step 5: row-l1 normalisation (Eq. 22) ------------------
        if cfg.l1_row_normalize {
            g.normalize_rows_l1(1e-300);
        }
        clock.lap(PHASE_UPDATE);

        // ---- Steps 6-7: E_R update (Eqs. 25-27), trace form ----------
        // Refresh R·G and GᵀG for the updated G (also next iteration's
        // step 3 — neither is recomputed there).
        rg = r.spmm_dense(&g);
        gram_cur = gram(&g);
        clock.lap(PHASE_SPMM);
        // ‖q_i‖² = ‖r_i‖² − 2·(R G Sᵀ)_i·g_i + g_i (S GᵀG Sᵀ) g_iᵀ —
        // per row block, no Q matrix. Cancellation is clamped at zero.
        let m_q = matmul(&matmul(&s, &gram_cur)?, &s.transpose())?; // S K Sᵀ
        let rgst = matmul(&rg, &s.transpose())?;
        let cross = row_dots(&rgst, &g)?;
        let quad = row_quad_forms(&g, &m_q)?;
        let q_norms: Vec<f64> = (0..n)
            .map(|i| (r_row_sq[i] - 2.0 * cross[i] + quad[i]).max(0.0).sqrt())
            .collect();
        let mut fit = 0.0;
        let mut l21 = 0.0;
        if cfg.use_error_matrix {
            for i in 0..n {
                // (βD + I)⁻¹ row factor: f = 1 / (1 + β / (2‖q_i‖ + ζ)).
                f_er[i] = 1.0 / (1.0 + cfg.beta / (2.0 * q_norms[i] + cfg.zeta));
                one_minus_f[i] = 1.0 - f_er[i];
                // ‖Q − E_R‖² = Σ (1−f)²‖q‖², ‖E_R‖₂,₁ = Σ f‖q‖.
                let residual = one_minus_f[i] * q_norms[i];
                fit += residual * residual;
                l21 += f_er[i] * q_norms[i];
            }
            error_row_norms = f_er.iter().zip(&q_norms).map(|(f, qn)| f * qn).collect();
            // Next iteration's low-rank factors of R − E_R.
            let u = matmul(&g, &s)?;
            prev_lowrank = Some((u, g.clone()));
            final_q_norms = q_norms;
        } else {
            fit = q_norms.iter().map(|x| x * x).sum();
        }

        // ---- Objective J₄ (Eq. 15) ----------------------------------
        let reg_term = match &l_current {
            Some(l) => l.trace_quad(&g)?,
            None => 0.0,
        };
        let l21_term = if cfg.use_error_matrix {
            cfg.beta * l21
        } else {
            0.0
        };
        let obj = fit + l21_term + cfg.lambda * reg_term;
        objective_trace.push(obj);
        clock.lap(PHASE_RESIDUAL);

        if obs {
            let rel_change = if t > 0 {
                (prev_obj - obj).abs() / prev_obj.abs().max(1.0)
            } else {
                0.0
            };
            let er_active_rows = if error_row_norms.is_empty() {
                0
            } else {
                let max = error_row_norms.iter().cloned().fold(0.0, f64::max);
                let threshold = cfg.error_export_rel * max;
                if max > 0.0 {
                    error_row_norms.iter().filter(|&&x| x >= threshold).count()
                } else {
                    0
                }
            };
            iter_telemetry.push(IterTelemetry {
                objective: obj,
                rel_change,
                er_active_rows,
            });
        }

        if let Some(ty) = cfg.record_labels_for_type {
            label_trace.push(data.labels_from_membership(&g, ty));
        }

        // ---- Convergence ---------------------------------------------
        if t > 0 {
            let denom = prev_obj.abs().max(1.0);
            if (prev_obj - obj).abs() / denom < cfg.tol {
                converged = true;
                break;
            }
        }
        prev_obj = obj;
    }

    if obs {
        let reg_handle = mtrl_obs::global();
        let iters = iterations as u64;
        reg_handle.record_span_agg("engine.fit.spmm", iters, clock.ns[PHASE_SPMM], 0);
        reg_handle.record_span_agg("engine.fit.lowrank", iters, clock.ns[PHASE_LOWRANK], 0);
        reg_handle.record_span_agg("engine.fit.update", iters, clock.ns[PHASE_UPDATE], 0);
        reg_handle.record_span_agg("engine.fit.residual", iters, clock.ns[PHASE_RESIDUAL], 0);
        reg_handle.add("engine.fits", 1);
        reg_handle.add("engine.iterations", iters);
        reg_handle.record_fit(FitTelemetry {
            label: "engine.fit".to_string(),
            n,
            c,
            nnz: r.nnz(),
            iterations,
            converged,
            spmm_ns: clock.ns[PHASE_SPMM],
            lowrank_ns: clock.ns[PHASE_LOWRANK],
            update_ns: clock.ns[PHASE_UPDATE],
            residual_ns: clock.ns[PHASE_RESIDUAL],
            iters: iter_telemetry,
        });
    }

    let error_rows = if cfg.use_error_matrix {
        materialize_error_rows(
            r,
            &g,
            &s,
            &f_er,
            &final_q_norms,
            &error_row_norms,
            cfg.error_export_rel,
        )?
    } else {
        RowSparse::new(n, n)
    };

    Ok(EngineResult {
        g,
        s,
        objective_trace,
        label_trace,
        iterations,
        converged,
        ensemble_weights,
        error_row_norms,
        error_rows,
    })
}

/// Materialise the shrunk-active rows of `E_R = D_f·(R − G S Gᵀ)`: rows
/// whose final norm clears `rel` of the maximum. `O(active · n · c)` —
/// each active row reconstructs `q_i = r_i − (G S)_i Gᵀ` on the fly.
fn materialize_error_rows(
    r: &Csr,
    g: &Mat,
    s: &Mat,
    f_er: &[f64],
    q_norms: &[f64],
    row_norms: &[f64],
    rel: f64,
) -> Result<RowSparse> {
    let n = r.rows();
    let mut out = RowSparse::new(n, n);
    let max = row_norms.iter().cloned().fold(0.0, f64::max);
    if max <= 0.0 {
        return Ok(out);
    }
    let threshold = rel * max;
    let gs = matmul(g, s)?;
    for i in 0..n {
        if row_norms[i] < threshold || q_norms[i] == 0.0 {
            continue;
        }
        let fi = f_er[i];
        let gsi = gs.row(i);
        let mut row: Vec<f64> = (0..n)
            .map(|j| {
                let dot: f64 = gsi.iter().zip(g.row(j)).map(|(a, b)| a * b).sum();
                -fi * dot
            })
            .collect();
        let (cols, vals) = r.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            row[j] += fi * v;
        }
        out.push_row(i, row);
    }
    Ok(out)
}

/// The original dense loop of Algorithm 2, kept as the cross-check
/// reference for [`run_engine`] (tests, benches, numerical debugging).
///
/// Takes the dense `R` from [`MultiTypeData::assemble_r`]; keeps two
/// `n x n` buffers (`Q` and `R − E_R`) resident — `O(n²·c)` per
/// iteration. Not used by any fit path.
///
/// # Errors
/// Same contract as [`run_engine`].
pub fn run_engine_dense_reference(
    r: &Mat,
    data: &MultiTypeData,
    reg: &GraphRegularizer,
    g0: Mat,
    cfg: &EngineConfig,
) -> Result<EngineResult> {
    let n = data.total_objects();
    let c = data.total_clusters();
    if r.shape() != (n, n) {
        return Err(RhchmeError::InvalidData(format!(
            "R is {:?}, expected ({n}, {n})",
            r.shape()
        )));
    }
    validate_common(n, c, &g0, reg, cfg)?;

    let mut g = g0;
    let mut s = Mat::zeros(c, c);
    let reg_state = RegState::new(reg);
    let mut ensemble_weights: Option<Vec<f64>> = None;

    // Workhorse n x n buffers.
    let mut r_eff = r.clone(); // R − E_R (E_R starts at zero)
    let mut q = Mat::zeros(0, 0); // R − G S Gᵀ
    let mut error_row_norms: Vec<f64> = Vec::new();
    let mut final_q_norms: Vec<f64> = Vec::new();
    let mut er_factors: Vec<f64> = vec![0.0; n];

    let mut objective_trace = Vec::with_capacity(cfg.max_iter);
    let mut label_trace = Vec::new();
    let mut prev_obj = f64::INFINITY;
    let mut converged = false;
    let mut iterations = 0;
    #[allow(unused_assignments)]
    let mut ens_storage: Option<(SparseBlockDiag, SparseBlockDiag, SparseBlockDiag)> = None;

    for t in 0..cfg.max_iter {
        iterations = t + 1;

        // ---- Regulariser for this iteration -------------------------
        ens_storage = None;
        let (l_current, l_plus, l_minus) =
            reg_state.resolve(reg, &g, &mut ens_storage, &mut ensemble_weights)?;

        // ---- Step 3: S update (Eq. 18) ------------------------------
        let m1 = matmul(&r_eff, &g)?; // (R − E_R)·G, n x c
        let gram_g = gram(&g); // c x c
        let ginv = ridge_inverse(&gram_g, cfg.ridge)?;
        let gtm = matmul_tn(&g, &m1)?; // Gᵀ(R − E_R)G, c x c
        s = matmul(&matmul(&ginv, &gtm)?, &ginv)?;

        // ---- Step 4: multiplicative G update (Eq. 21) ---------------
        let a = matmul(&m1, &s.transpose())?; // (R − E_R) G Sᵀ, n x c
        let b = matmul_tn(&s, &matmul(&gram_g, &s)?)?; // Sᵀ GᵀG S, c x c
        let (b_pos, b_neg) = mtrl_linalg::parts::split_parts(&b);
        let gb_pos = matmul(&g, &b_pos)?;
        let gb_neg = matmul(&g, &b_neg)?;
        let (lp_g, lm_g) = match (&l_plus, &l_minus) {
            (Some(lp), Some(lm)) => (Some(lp.mul_dense(&g)?), Some(lm.mul_dense(&g)?)),
            _ => (None, None),
        };
        multiplicative_update(
            &mut g,
            &a,
            &gb_pos,
            &gb_neg,
            lp_g.as_ref(),
            lm_g.as_ref(),
            cfg.lambda,
        );
        if g.has_non_finite() {
            return Err(RhchmeError::Diverged { iteration: t });
        }

        // ---- Step 5: row-l1 normalisation (Eq. 22) ------------------
        if cfg.l1_row_normalize {
            g.normalize_rows_l1(1e-300);
        }

        // ---- Steps 6-7: E_R update (Eqs. 25-27) ----------------------
        q = r.sub(&g_s_gt(&g, &s)?)?;
        let q_norms = row_l2_norms(&q);
        let mut fit = 0.0;
        let mut l21 = 0.0;
        if cfg.use_error_matrix {
            for (i, f) in er_factors.iter_mut().enumerate() {
                // (βD + I)⁻¹ row factor: f = 1 / (1 + β / (2‖q_i‖ + ζ)).
                *f = 1.0 / (1.0 + cfg.beta / (2.0 * q_norms[i] + cfg.zeta));
            }
            // R − E_R for the next iteration, and objective pieces:
            // ‖Q − E_R‖² = Σ (1−f)²‖q‖², ‖E_R‖₂,₁ = Σ f‖q‖.
            for i in 0..n {
                let f = er_factors[i];
                let q_row = q.row(i);
                let r_row = r.row(i);
                let dst = r_eff.row_mut(i);
                for ((d, &rv), &qv) in dst.iter_mut().zip(r_row).zip(q_row) {
                    *d = rv - f * qv;
                }
                let residual = (1.0 - f) * q_norms[i];
                fit += residual * residual;
                l21 += f * q_norms[i];
            }
            error_row_norms = er_factors
                .iter()
                .zip(&q_norms)
                .map(|(f, qn)| f * qn)
                .collect();
            final_q_norms = q_norms;
        } else {
            fit = q_norms.iter().map(|x| x * x).sum();
        }

        // ---- Objective J₄ (Eq. 15) ----------------------------------
        let reg_term = match &l_current {
            Some(l) => l.trace_quad(&g)?,
            None => 0.0,
        };
        let l21_term = if cfg.use_error_matrix {
            cfg.beta * l21
        } else {
            0.0
        };
        let obj = fit + l21_term + cfg.lambda * reg_term;
        objective_trace.push(obj);

        if let Some(ty) = cfg.record_labels_for_type {
            label_trace.push(data.labels_from_membership(&g, ty));
        }

        // ---- Convergence ---------------------------------------------
        if t > 0 {
            let denom = prev_obj.abs().max(1.0);
            if (prev_obj - obj).abs() / denom < cfg.tol {
                converged = true;
                break;
            }
        }
        prev_obj = obj;
    }

    // Materialise the final E_R's active rows straight from Q.
    let error_rows = if cfg.use_error_matrix && !error_row_norms.is_empty() {
        let max = error_row_norms.iter().cloned().fold(0.0, f64::max);
        let mut rows = RowSparse::new(n, n);
        if max > 0.0 {
            let threshold = cfg.error_export_rel * max;
            for i in 0..n {
                if error_row_norms[i] < threshold || final_q_norms[i] == 0.0 {
                    continue;
                }
                let f = er_factors[i];
                rows.push_row(i, q.row(i).iter().map(|&v| f * v).collect());
            }
        }
        rows
    } else {
        RowSparse::new(n, n)
    };

    Ok(EngineResult {
        g,
        s,
        objective_trace,
        label_trace,
        iterations,
        converged,
        ensemble_weights,
        error_row_norms,
        error_rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::{kmeans, labels_to_membership};
    use mtrl_datagen::corpus::{generate, CorpusConfig};
    use mtrl_graph::{laplacian_csr, pnn_graph, LaplacianKind, WeightScheme};
    use mtrl_linalg::block::stack_membership;

    fn tiny_data() -> (MultiTypeData, mtrl_datagen::MultiTypeCorpus) {
        let corpus = generate(&CorpusConfig {
            docs_per_class: vec![8, 8],
            vocab_size: 48,
            concept_count: 12,
            doc_len_range: (25, 40),
            background_frac: 0.25,
            topic_noise: 0.2,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 11,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        (data, corpus)
    }

    fn init_g(data: &MultiTypeData, seed: u64) -> Mat {
        let feats = data.all_features();
        let blocks: Vec<Mat> = feats
            .iter()
            .zip(data.cluster_counts())
            .enumerate()
            .map(|(k, (f, &ck))| {
                let km = kmeans(f, ck, seed + k as u64, 50);
                labels_to_membership(&km.labels, ck, 0.2)
            })
            .collect();
        stack_membership(&blocks)
    }

    fn pnn_block_laplacian(data: &MultiTypeData) -> SparseBlockDiag {
        let blocks = data
            .all_features()
            .iter()
            .map(|f| {
                let w = pnn_graph(f, 5, WeightScheme::Cosine);
                laplacian_csr(&w, LaplacianKind::SymNormalized)
            })
            .collect();
        SparseBlockDiag::new(blocks).unwrap()
    }

    #[test]
    fn src_configuration_runs_and_descends() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 1);
        let cfg = EngineConfig {
            lambda: 0.0,
            use_error_matrix: false,
            l1_row_normalize: false,
            max_iter: 30,
            record_labels_for_type: None,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        let t = &res.objective_trace;
        assert!(t.len() >= 2);
        // Monotone decrease (Theorem 1) within numerical slack.
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-6) + 1e-9,
                "objective rose: {} -> {}",
                w[0],
                w[1]
            );
        }
        assert!(res.g.min() >= 0.0);
        assert!(res.error_row_norms.is_empty());
        assert!(res.error_rows.is_empty());
    }

    #[test]
    fn rhchme_configuration_descends_and_normalises() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 2);
        let lap = pnn_block_laplacian(&data);
        let cfg = EngineConfig {
            lambda: 1.0,
            beta: 10.0,
            max_iter: 40,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::Fixed(lap), g0, &cfg).unwrap();
        let t = &res.objective_trace;
        for w in t.windows(2) {
            assert!(
                w[1] <= w[0] * (1.0 + 1e-5) + 1e-9,
                "objective rose: {} -> {}",
                w[0],
                w[1]
            );
        }
        // Rows of G sum to 1 (Eq. 22).
        for i in 0..res.g.rows() {
            let s: f64 = res.g.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-9, "row {i} sums to {s}");
        }
        assert_eq!(res.error_row_norms.len(), data.total_objects());
    }

    #[test]
    fn sparse_path_matches_dense_reference() {
        // The unit-level pin; the integration proptest fuzzes this over
        // corpora, configurations and thread counts.
        let (data, _) = tiny_data();
        let r_sparse = data.assemble_r_csr();
        let r_dense = data.assemble_r();
        let lap = pnn_block_laplacian(&data);
        let g0 = init_g(&data, 9);
        let cfg = EngineConfig {
            lambda: 0.8,
            beta: 10.0,
            max_iter: 25,
            tol: 0.0,
            ..EngineConfig::default()
        };
        let reg = GraphRegularizer::Fixed(lap);
        let sparse = run_engine(&r_sparse, &data, &reg, g0.clone(), &cfg).unwrap();
        let dense = run_engine_dense_reference(&r_dense, &data, &reg, g0, &cfg).unwrap();
        assert_eq!(sparse.iterations, dense.iterations);
        for (a, b) in sparse.objective_trace.iter().zip(&dense.objective_trace) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "objective diverged: {a} vs {b}"
            );
        }
        for ty in 0..data.num_types() {
            assert_eq!(
                data.labels_from_membership(&sparse.g, ty),
                data.labels_from_membership(&dense.g, ty),
                "labels diverged for type {ty}"
            );
        }
        for (a, b) in sparse.error_row_norms.iter().zip(&dense.error_row_norms) {
            assert!((a - b).abs() < 1e-8, "error norms diverged: {a} vs {b}");
        }
    }

    #[test]
    fn block_structure_preserved() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 3);
        let cfg = EngineConfig {
            lambda: 0.0,
            use_error_matrix: false,
            max_iter: 10,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        // Entries outside a type's cluster columns must remain exactly 0.
        for k in 0..data.num_types() {
            let rows = data.spec().range(k);
            let cols = data.cluster_spec().range(k);
            for i in rows {
                for j in 0..data.total_clusters() {
                    if !cols.contains(&j) {
                        assert_eq!(res.g[(i, j)], 0.0, "leak at ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn clusters_two_class_corpus_well() {
        let (data, corpus) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 4);
        let lap = pnn_block_laplacian(&data);
        let cfg = EngineConfig {
            lambda: 0.5,
            beta: 20.0,
            max_iter: 60,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::Fixed(lap), g0, &cfg).unwrap();
        let labels = data.labels_from_membership(&res.g, 0);
        let f = mtrl_metrics::fscore(&corpus.labels, &labels);
        assert!(f > 0.8, "fscore {f}");
    }

    #[test]
    fn ensemble_regulariser_produces_simplex_weights() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 5);
        let feats = data.all_features();
        let mut candidates = Vec::new();
        for p in [3usize, 5] {
            for scheme in [WeightScheme::Binary, WeightScheme::Cosine] {
                let blocks = feats
                    .iter()
                    .map(|f| laplacian_csr(&pnn_graph(f, p, scheme), LaplacianKind::SymNormalized))
                    .collect();
                candidates.push(SparseBlockDiag::new(blocks).unwrap());
            }
        }
        let cfg = EngineConfig {
            lambda: 0.5,
            use_error_matrix: false,
            l1_row_normalize: false,
            max_iter: 15,
            ..EngineConfig::default()
        };
        let reg = GraphRegularizer::Ensemble {
            candidates,
            mu: 1.0,
        };
        let res = run_engine(&r, &data, &reg, g0, &cfg).unwrap();
        let w = res.ensemble_weights.expect("ensemble weights");
        assert_eq!(w.len(), 4);
        assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(w.iter().all(|&b| b >= 0.0));
    }

    #[test]
    fn error_matrix_targets_corrupted_rows() {
        // Corrupt some documents; their E_R row norms should dominate,
        // and the row-sparse export should store (a superset of) them.
        let corpus = generate(&CorpusConfig {
            docs_per_class: vec![10, 10],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 40),
            background_frac: 0.25,
            topic_noise: 0.15,
            concept_map_noise: 0.1,
            corrupt_frac: 0.15,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed: 21,
        });
        let data = MultiTypeData::from_corpus(&corpus, 10).unwrap();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 6);
        let cfg = EngineConfig {
            lambda: 0.0,
            beta: 2.0,
            max_iter: 40,
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        assert!(!corpus.corrupted_docs.is_empty());
        let norms = &res.error_row_norms;
        let doc_range = data.spec().range(0);
        let corrupt_mean = mtrl_linalg::vecops::mean(
            &corpus
                .corrupted_docs
                .iter()
                .map(|&d| norms[d])
                .collect::<Vec<_>>(),
        );
        let clean_mean = mtrl_linalg::vecops::mean(
            &doc_range
                .filter(|d| !corpus.corrupted_docs.contains(d))
                .map(|d| norms[d])
                .collect::<Vec<_>>(),
        );
        assert!(
            corrupt_mean > clean_mean,
            "corrupted rows not captured: {corrupt_mean} vs {clean_mean}"
        );
        // The exported active rows agree with the reported norms and
        // stay a strict subset of all rows (the ℓ2,1 point).
        let n = data.total_objects();
        assert_eq!(res.error_rows.shape(), (n, n));
        assert!(res.error_rows.num_active() > 0);
        assert!(res.error_rows.num_active() < n);
        let max = norms.iter().cloned().fold(0.0, f64::max);
        for (i, row) in res.error_rows.active_iter() {
            assert!(norms[i] >= 0.5 * max, "inactive row {i} exported");
            let rebuilt: f64 = row.iter().map(|v| v * v).sum::<f64>().sqrt();
            assert!(
                (rebuilt - norms[i]).abs() <= 1e-6 * norms[i].max(1e-12),
                "row {i}: materialised norm {rebuilt} vs reported {}",
                norms[i]
            );
        }
    }

    #[test]
    fn fit_telemetry_recorded_when_obs_enabled() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 12);
        let cfg = EngineConfig {
            lambda: 0.0,
            beta: 10.0,
            max_iter: 6,
            tol: 0.0,
            ..EngineConfig::default()
        };
        mtrl_obs::force_enable();
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        let fits = mtrl_obs::global().fits_snapshot();
        // Other tests in this binary may also have recorded fits; find ours
        // by shape.
        let fit = fits
            .iter()
            .rev()
            .find(|f| f.n == data.total_objects() && f.iterations == res.iterations)
            .expect("telemetry for this fit");
        assert_eq!(fit.label, "engine.fit");
        assert_eq!(fit.c, data.total_clusters());
        assert_eq!(fit.nnz, r.nnz());
        assert_eq!(fit.iters.len(), res.iterations);
        for (it, &obj) in fit.iters.iter().zip(&res.objective_trace) {
            assert_eq!(it.objective, obj);
        }
        assert_eq!(fit.iters[0].rel_change, 0.0);
        for it in &fit.iters[1..] {
            assert!(it.rel_change.is_finite() && it.rel_change >= 0.0);
            assert!(it.er_active_rows <= data.total_objects());
        }
        let spans = mtrl_obs::global().spans_snapshot();
        for phase in [
            "engine.fit.spmm",
            "engine.fit.lowrank",
            "engine.fit.update",
            "engine.fit.residual",
        ] {
            assert!(
                spans.iter().any(|(p, st)| p == phase && st.count > 0),
                "missing phase aggregate {phase}"
            );
        }
    }

    #[test]
    fn label_trace_recorded() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g0 = init_g(&data, 7);
        let cfg = EngineConfig {
            lambda: 0.0,
            use_error_matrix: false,
            max_iter: 8,
            tol: 0.0, // run all iterations
            record_labels_for_type: Some(0),
            ..EngineConfig::default()
        };
        let res = run_engine(&r, &data, &GraphRegularizer::None, g0, &cfg).unwrap();
        assert_eq!(res.label_trace.len(), res.iterations);
        assert_eq!(res.label_trace[0].len(), data.sizes()[0]);
    }

    #[test]
    fn rejects_bad_shapes_and_params() {
        let (data, _) = tiny_data();
        let r = data.assemble_r_csr();
        let g_bad = Mat::zeros(3, 3);
        let cfg = EngineConfig::default();
        assert!(run_engine(&r, &data, &GraphRegularizer::None, g_bad, &cfg).is_err());
        let g0 = init_g(&data, 8);
        let bad_cfg = EngineConfig {
            lambda: -1.0,
            ..EngineConfig::default()
        };
        assert!(run_engine(&r, &data, &GraphRegularizer::None, g0.clone(), &bad_cfg).is_err());
        let bad_export = EngineConfig {
            error_export_rel: 1.5,
            ..EngineConfig::default()
        };
        assert!(run_engine(&r, &data, &GraphRegularizer::None, g0.clone(), &bad_export).is_err());
        let wrong_r = Csr::zeros(3, 3);
        assert!(run_engine(&wrong_r, &data, &GraphRegularizer::None, g0.clone(), &cfg).is_err());
        // The dense reference enforces the same contracts.
        let wrong_r_dense = Mat::zeros(3, 3);
        assert!(run_engine_dense_reference(
            &wrong_r_dense,
            &data,
            &GraphRegularizer::None,
            g0,
            &cfg
        )
        .is_err());
    }
}
