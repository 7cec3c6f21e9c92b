//! Intra-type relationship learning — stages 1 & 2 of RHCHME.
//!
//! For every object type this module derives the two kinds of intra-type
//! relationships the paper combines (Sec. III-A/B):
//!
//! * `W_E` / `L_E` — the pNN graph with cosine weighting (Eq. 3; the paper
//!   fixes cosine and `p = 5` for SNMTF and RHCHME);
//! * `W_S` / `L_S` — the subspace-learned affinity from the SPG solver
//!   (Eq. 9, Algorithm 1), solved on each object's `SUPPORT` nearest
//!   cosine candidates rather than on a dense `n x n` matrix;
//!
//! and assembles the heterogeneous manifold ensemble `L = α·L_S + L_E`
//! (Eq. 12) as a block-diagonal operator over all types.
//!
//! The pieces are exposed separately so the parameter-sweep benches
//! (Fig. 2) can cache what does not change: the γ sweep recomputes only
//! `L_S`, the α sweep only the combination, and the λ/β sweeps nothing at
//! all.

use crate::Result;
use mtrl_ann::{pnn_graph_backend, GraphBackend};
use mtrl_graph::{knn_indices, laplacian_csr, LaplacianKind, WeightScheme};
use mtrl_linalg::{Mat, Precision};
use mtrl_sparse::{Csr, CsrBuilder, SparseBlockDiag};
use mtrl_subspace::{spg_affinity, SpgConfig};

/// Relative pruning threshold applied to subspace affinities before graph
/// construction: entries below `PRUNE_REL * max(W)` are dropped, removing
/// optimisation noise while keeping genuine within-subspace links.
const PRUNE_REL: f64 = 1e-4;

/// Per-row truncation of the symmetrised subspace affinity: keep the
/// strongest `TOP_K` links per object. The SPG solution carries a weak
/// dense tail from optimisation noise; its top entries are far purer
/// (within-subspace) than its mass average, so truncation sharpens `L_S`
/// without losing the distant within-manifold links the method exists to
/// find. `TOP_K = 10 = 2p` keeps `L_S` on the same sparsity scale as the
/// pNN member of the ensemble.
const TOP_K: usize = 10;

/// Candidate columns per row of the SPG affinity: each object is
/// expressed only through its `SUPPORT` nearest neighbours in cosine
/// similarity (`min(n − 1, SUPPORT)` for small types). The dense solution
/// keeps 28–37 positive entries per row; on a 1200-document corpus these
/// candidates hold 78–97% of its top-`TOP_K` links per type (Euclidean
/// neighbours: 52% on concepts), at `O(n·SUPPORT·d)` per SPG iteration
/// instead of `O(n³)`.
const SUPPORT: usize = 40;

/// Per-type pNN Laplacians assembled into a sparse block-diagonal
/// operator (`O(p·n_k)` stored entries per block — the fit loop never
/// sees an `n x n` dense matrix).
///
/// `features[k]` holds the objects of type `k` as rows.
pub fn pnn_laplacians(
    features: &[Mat],
    p: usize,
    scheme: WeightScheme,
    kind: LaplacianKind,
) -> Result<SparseBlockDiag> {
    pnn_laplacians_backend(features, p, scheme, kind, &GraphBackend::Exact)
}

/// [`pnn_laplacians`] with an explicit neighbour-search backend.
///
/// [`GraphBackend::Exact`] reproduces the blocked all-pairs kernel;
/// the approximate backends route candidate generation through an
/// ANN index (`mtrl_ann`) while distances and selection stay on the
/// exact kernel's primitives, so exhaustive settings are bit-identical
/// and every setting is thread-count invariant.
pub fn pnn_laplacians_backend(
    features: &[Mat],
    p: usize,
    scheme: WeightScheme,
    kind: LaplacianKind,
    backend: &GraphBackend,
) -> Result<SparseBlockDiag> {
    let blocks = features
        .iter()
        .map(|f| laplacian_csr(&pnn_graph_backend(f, p, scheme, backend), kind))
        .collect();
    Ok(SparseBlockDiag::new(blocks)?)
}

/// [`pnn_laplacians_backend`] with an ignored [`Precision`] tag.
///
/// Kept only because the benchmark harness's replay (`perfbench/`)
/// calls it; every kernel runs `f64`, so this forwards unchanged. A
/// later benchmark change that updates the replay removes it.
pub fn pnn_laplacians_backend_prec(
    features: &[Mat],
    p: usize,
    scheme: WeightScheme,
    kind: LaplacianKind,
    backend: &GraphBackend,
    _precision: Precision,
) -> Result<SparseBlockDiag> {
    pnn_laplacians_backend(features, p, scheme, kind, backend)
}

/// Per-type subspace-learned Laplacians (`L_S`) via SPG, as a block
/// diagonal. `base_cfg.seed` is offset per type so types do not share
/// initialisations.
///
/// Each type's SPG runs on the `SUPPORT` nearest cosine candidates of
/// every object (spans `subspace.candidates` and `subspace.spg`); its
/// affinity is cut to the `TOP_K` strongest entries per row, symmetrised
/// and pruned at `PRUNE_REL` of the largest kept entry. No stage forms
/// an `n x n` matrix.
pub fn subspace_laplacians(
    features: &[Mat],
    base_cfg: &SpgConfig,
    kind: LaplacianKind,
) -> Result<SparseBlockDiag> {
    let mut blocks = Vec::with_capacity(features.len());
    for (k, f) in features.iter().enumerate() {
        let cfg = SpgConfig {
            seed: base_cfg.seed.wrapping_add(k as u64),
            ..base_cfg.clone()
        };
        let support = {
            let _span = mtrl_obs::span!("subspace.candidates");
            cosine_candidates(f, SUPPORT.min(f.rows().saturating_sub(1)))
        };
        let res = {
            let _span = mtrl_obs::span!("subspace.spg");
            spg_affinity(f, &support, &cfg)?
        };
        let w = sparsify_affinity(&res.w, TOP_K, PRUNE_REL);
        blocks.push(laplacian_csr(&w, kind));
    }
    Ok(SparseBlockDiag::new(blocks)?)
}

/// The `m` nearest neighbours of every row in cosine similarity: the
/// exact Euclidean kNN of the L2-normalised rows. All-zero rows stay
/// zero (equidistant from every unit row); ties break by index.
fn cosine_candidates(features: &Mat, m: usize) -> Vec<Vec<usize>> {
    let mut unit = features.clone();
    unit.normalize_rows_l2(0.0);
    knn_indices(&unit, m)
}

/// Turn a (generally asymmetric) self-expressive affinity `A` into the
/// symmetric weight matrix the Laplacian builder consumes: keep the `k`
/// largest entries of each row (ties by column index), then
/// `W_S = (A + Aᵀ)/2` with entries at or below `prune_rel · max(A)`
/// dropped. `A` has a zero diagonal, so `W_S` does too.
fn sparsify_affinity(a: &Csr, k: usize, prune_rel: f64) -> Csr {
    let n = a.rows();
    let mut top = CsrBuilder::with_capacity(n, a.cols(), n * k);
    let mut order = Vec::new();
    let mut max_w = 0.0f64;
    for i in 0..n {
        let (cols, vals) = a.row(i);
        order.clear();
        order.extend(0..cols.len());
        order.sort_by(|&p, &q| vals[q].total_cmp(&vals[p]).then(cols[p].cmp(&cols[q])));
        order.truncate(k);
        order.sort_unstable();
        for &p in &order {
            top.push(cols[p], vals[p]);
            max_w = max_w.max(vals[p]);
        }
        top.finish_row();
    }
    let top = top.build();
    top.lin_comb(0.5, &top.transpose(), 0.5)
        .prune(prune_rel * max_w)
}

/// Combine the two Laplacian families into the heterogeneous manifold
/// ensemble `L = α·L_S + L_E` (Eq. 12) with merged sparsity patterns —
/// both members are sparse, so their ensemble stays sparse.
///
/// # Errors
/// Fails if the block layouts differ.
pub fn hetero_laplacian(
    l_s: &SparseBlockDiag,
    l_e: &SparseBlockDiag,
    alpha: f64,
) -> Result<SparseBlockDiag> {
    Ok(l_s.lin_comb(alpha, l_e, 1.0)?)
}

/// The six RMC candidate Laplacians of Sec. IV-B: `p ∈ {5, 10}` crossed
/// with binary / heat-kernel (self-tuned σ) / cosine weighting, each as a
/// block diagonal over all types.
pub fn rmc_candidates(features: &[Mat], kind: LaplacianKind) -> Result<Vec<SparseBlockDiag>> {
    let mut out = Vec::with_capacity(6);
    for p in [5usize, 10] {
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            out.push(pnn_laplacians(features, p, scheme, kind)?);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_linalg::random::rand_uniform;

    fn toy_features() -> Vec<Mat> {
        vec![
            rand_uniform(15, 6, 0.0, 1.0, 90),
            rand_uniform(12, 5, 0.0, 1.0, 91),
        ]
    }

    #[test]
    fn pnn_block_layout() {
        let f = toy_features();
        let l = pnn_laplacians(&f, 3, WeightScheme::Cosine, LaplacianKind::SymNormalized).unwrap();
        assert_eq!(l.num_blocks(), 2);
        assert_eq!(l.n(), 27);
        // Normalised Laplacian diagonals are <= 1.
        for k in 0..2 {
            let block = l.block(k);
            for i in 0..block.rows() {
                let d = block.get(i, i);
                assert!((0.0..=1.0 + 1e-12).contains(&d), "block {k} diag {i}: {d}");
            }
        }
    }

    #[test]
    fn pnn_blocks_are_sparse() {
        // The point of the sparse pipeline: a pNN Laplacian block stores
        // O(p·n) entries, far below n².
        let f = toy_features();
        let p = 3;
        let l = pnn_laplacians(&f, p, WeightScheme::Cosine, LaplacianKind::SymNormalized).unwrap();
        for k in 0..l.num_blocks() {
            let n_k = l.block(k).rows();
            assert!(
                l.block(k).nnz() <= 2 * p * n_k + n_k,
                "block {k} has {} entries for n_k = {n_k}",
                l.block(k).nnz()
            );
        }
    }

    #[test]
    fn subspace_block_layout_and_psd_diag() {
        let f = toy_features();
        let cfg = SpgConfig {
            max_iter: 40,
            ..SpgConfig::default()
        };
        let l = subspace_laplacians(&f, &cfg, LaplacianKind::SymNormalized).unwrap();
        assert_eq!(l.n(), 27);
        // Symmetric blocks.
        for k in 0..2 {
            assert!(l.block(k).is_symmetric(1e-9), "block {k} not symmetric");
        }
    }

    #[test]
    fn sparsify_keeps_top_k_then_symmetrises_and_prunes() {
        let a = Csr::from_dense(
            &Mat::from_vec(3, 3, vec![0.0, 0.4, 0.4, 0.2, 0.0, 1.0, 0.0, 0.6, 0.0]).unwrap(),
            0.0,
        );
        // Row 0 ties at 0.4: the lower column (1) wins the single slot.
        let w = sparsify_affinity(&a, 1, 0.0);
        assert!(w.is_symmetric(0.0));
        assert_eq!(w.get(0, 1), 0.2);
        assert_eq!(w.get(0, 2), 0.0);
        assert_eq!(w.get(1, 2), 0.5 * (1.0 + 0.6));
        assert!((0..3).all(|i| w.get(i, i) == 0.0));
        // Pruning is relative to the largest kept entry (1.0) and strict.
        let pruned = sparsify_affinity(&a, 1, 0.2);
        assert_eq!(pruned.get(0, 1), 0.0);
        assert_eq!(pruned.nnz(), 2);
    }

    #[test]
    fn cosine_candidates_ignore_scale_and_skip_self() {
        let f = Mat::from_rows(&[
            vec![1.0, 0.0],
            vec![10.0, 1.0],
            vec![0.0, 1.0],
            vec![0.0, 0.0],
        ])
        .unwrap();
        let c = cosine_candidates(&f, 2);
        // Row 1 is far from row 0 in Euclidean terms but nearly parallel.
        assert_eq!(c[0], vec![1, 3]);
        assert_eq!(c[1], vec![0, 3]);
        assert!(c.iter().enumerate().all(|(i, row)| !row.contains(&i)));
    }

    #[test]
    fn hetero_combination_matches_blocks() {
        let f = toy_features();
        let le = pnn_laplacians(&f, 3, WeightScheme::Cosine, LaplacianKind::SymNormalized).unwrap();
        let ls = pnn_laplacians(&f, 4, WeightScheme::Binary, LaplacianKind::SymNormalized).unwrap();
        let combo = hetero_laplacian(&ls, &le, 2.0).unwrap();
        for k in 0..2 {
            let expect = le
                .block(k)
                .to_dense()
                .add(&ls.block(k).to_dense().scaled(2.0))
                .unwrap();
            assert!(combo.block(k).to_dense().approx_eq(&expect, 1e-12));
        }
    }

    #[test]
    fn rmc_candidate_count_and_layout() {
        let f = toy_features();
        let cands = rmc_candidates(&f, LaplacianKind::SymNormalized).unwrap();
        assert_eq!(cands.len(), 6);
        assert!(cands.iter().all(|c| c.n() == 27));
    }
}
