//! The batch drivers that turn an [`RpForestIndex`] into the
//! neighbour-list / graph structures the exact path produces.
//!
//! # The bit-exactness contract
//!
//! An index only *generates candidates*; distances and selection always
//! go through the exact kernel's primitives:
//!
//! * rows are centred with [`mtrl_graph::center_columns`] — the same
//!   transformation `knn_indices` applies;
//! * candidate distances come from [`mtrl_graph::gram_sq_dist`], whose
//!   ascending-k FMA chain is bit-identical to the blocked tile kernel
//!   (pinned by `cross_kernel_matches_pair_function_bitwise` in
//!   `mtrl_graph`);
//! * the `p` nearest are selected under [`mtrl_graph::dist_less`]'s
//!   strict total order via [`mtrl_graph::select_p_nearest`].
//!
//! Selection under a total order is independent of candidate order, so
//! whenever the candidate set *covers* the true `p` nearest the output
//! list equals the exact list bit for bit — in particular at exhaustive
//! settings (the forest probing every leaf), for every thread count.
//! That is the property the ANN↔exact proptests pin.

use crate::config::GraphBackend;
use crate::forest::RpForestIndex;
use mtrl_graph::knn::{
    center_columns, dist_less, gram_sq_dist, gram_sq_dist_x4, graph_from_neighbours,
    knn_indices_with_threads, pnn_graph_with_threads, select_p_nearest, WeightScheme,
};
use mtrl_linalg::par::{num_threads, par_chunks_map};
use mtrl_linalg::vecops::dot;
use mtrl_linalg::Mat;
use mtrl_sparse::Csr;

/// Build the index a backend describes over `centered` rows, where row
/// `k` carries global id `ids[k]`. Returns `None` for
/// [`GraphBackend::Exact`] — the exact kernel needs no index.
///
/// # Panics
/// Panics if `ids.len() != centered.rows()`.
pub fn build_any_index(
    centered: &Mat,
    ids: &[usize],
    backend: &GraphBackend,
) -> Option<RpForestIndex> {
    assert_eq!(ids.len(), centered.rows(), "one id per row");
    let _span = mtrl_obs::span!("ann.index_build");
    match backend {
        GraphBackend::Exact => None,
        GraphBackend::RpForest(p) => Some(RpForestIndex::build(centered, ids, p)),
    }
}

/// Reusable per-worker workspace of [`select_from_candidates`]: the
/// distance buffer plus an epoch-stamped visited array that dedups a
/// candidate list in O(len) without sorting it. One instance per
/// worker/loop; reuse across queries is what makes the stamp cheap.
#[derive(Debug, Default, Clone)]
pub struct QueryScratch {
    dists: Vec<(f64, usize)>,
    seen: Vec<u32>,
    epoch: u32,
}

impl QueryScratch {
    /// An empty workspace (buffers grow on first use).
    pub fn new() -> QueryScratch {
        QueryScratch::default()
    }

    /// Start a query over ids `< n`: grow the stamp array as needed and
    /// open a fresh epoch (clearing stamps on the rare u32 wrap).
    fn begin(&mut self, n: usize) {
        if self.seen.len() < n {
            self.seen.resize(n, 0);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.seen.fill(0);
            self.epoch = 1;
        }
    }
}

/// Exact-kernel distance + total-order selection over a candidate set:
/// the shared back half of every approximate query. `cands` is deduped
/// in place (first occurrence kept — selection under [`dist_less`]'s
/// total order is independent of candidate order, so this changes
/// nothing downstream); the query's own id is skipped. Distances run
/// four candidates at a time through [`gram_sq_dist_x4`], whose lanes
/// are bit-equal to the scalar [`gram_sq_dist`] chain. Returns the
/// index-sorted neighbour list, at most `p` long.
pub fn select_from_candidates(
    centered: &Mat,
    sq_norms: &[f64],
    i: usize,
    cands: &mut Vec<usize>,
    p: usize,
    scratch: &mut QueryScratch,
) -> Vec<usize> {
    scratch.begin(centered.rows());
    let (seen, epoch) = (&mut scratch.seen, scratch.epoch);
    cands.retain(|&j| {
        if j == i || seen[j] == epoch {
            return false;
        }
        seen[j] = epoch;
        true
    });
    let dists = &mut scratch.dists;
    dists.clear();
    let xi = centered.row(i);
    let gi = sq_norms[i];
    let mut quads = cands.chunks_exact(4);
    for quad in &mut quads {
        let [j0, j1, j2, j3] = [quad[0], quad[1], quad[2], quad[3]];
        let d4 = gram_sq_dist_x4(
            xi,
            [
                centered.row(j0),
                centered.row(j1),
                centered.row(j2),
                centered.row(j3),
            ],
            gi,
            [sq_norms[j0], sq_norms[j1], sq_norms[j2], sq_norms[j3]],
        );
        dists.extend_from_slice(&[(d4[0], j0), (d4[1], j1), (d4[2], j2), (d4[3], j3)]);
    }
    for &j in quads.remainder() {
        dists.push((gram_sq_dist(xi, centered.row(j), gi, sq_norms[j]), j));
    }
    select_p_nearest(dists, p)
}

/// Neighbour lists of every row of `data` under the chosen backend —
/// the approximate counterpart of [`mtrl_graph::knn_indices`], with the
/// exact kernel behind [`GraphBackend::Exact`]. Output is bit-identical
/// for every `threads` value (candidate generation and selection are
/// pure per-row functions).
pub fn knn_indices_backend(
    data: &Mat,
    p: usize,
    backend: &GraphBackend,
    threads: usize,
) -> Vec<Vec<usize>> {
    if backend.is_exact() {
        return knn_indices_with_threads(data, p, threads);
    }
    let n = data.rows();
    let centered = center_columns(data);
    let sq_norms: Vec<f64> = (0..n)
        .map(|i| dot(centered.row(i), centered.row(i)))
        .collect();
    let ids: Vec<usize> = (0..n).collect();
    let index =
        build_any_index(&centered, &ids, backend).expect("non-exact backend builds an index");
    let _span = mtrl_obs::span!("ann.knn_search");
    par_chunks_map(n, threads, |range| {
        let mut cands = Vec::new();
        let mut scratch = QueryScratch::new();
        range
            .map(|i| {
                cands.clear();
                index.candidates_into(centered.row(i), &mut cands);
                select_from_candidates(&centered, &sq_norms, i, &mut cands, p, &mut scratch)
            })
            .collect()
    })
}

/// Symmetric pNN weight graph under the chosen backend — the drop-in
/// counterpart of [`mtrl_graph::pnn_graph`] that `rhchme`, the eval
/// runner and `mtrl-stream` route through when an approximate backend
/// is configured. Weighting and "or"-symmetrisation are the exact
/// path's [`graph_from_neighbours`]; only the neighbour lists differ.
pub fn pnn_graph_backend(
    data: &Mat,
    p: usize,
    scheme: WeightScheme,
    backend: &GraphBackend,
) -> Csr {
    let threads = auto_threads(data);
    if backend.is_exact() {
        return pnn_graph_with_threads(data, p, scheme, threads);
    }
    let _span = mtrl_obs::span!("ann.pnn_build");
    let neighbours = knn_indices_backend(data, p, backend, threads);
    graph_from_neighbours(data, &neighbours, scheme, threads)
}

/// Same work threshold as the exact kernel: below ~1M multiply-adds the
/// row fan-out is not worth a thread spawn.
fn auto_threads(data: &Mat) -> usize {
    let n = data.rows();
    if n * n * data.cols() < (1 << 20) {
        1
    } else {
        num_threads()
    }
}

/// Capped sorted insertion under [`dist_less`]: keep `list` the `p`
/// smallest candidates seen, sorted ascending. Returns whether `cand`
/// entered the list. Shared with `DynamicGraph`-style incremental
/// maintenance so streamed updates select exactly like the batch path.
pub fn insert_capped(list: &mut Vec<(f64, usize)>, cand: (f64, usize), p: usize) -> bool {
    if p == 0 {
        return false;
    }
    if list.len() >= p {
        let worst = *list.last().expect("p > 0");
        if !dist_less(cand, worst) {
            return false;
        }
        list.pop();
    }
    let pos = list.partition_point(|&e| dist_less(e, cand));
    list.insert(pos, cand);
    true
}
