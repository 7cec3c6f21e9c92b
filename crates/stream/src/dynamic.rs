//! Incremental pNN graph maintenance.
//!
//! The batch pipeline rebuilds every pNN graph from scratch — `O(n² d)`
//! distance work — whenever the corpus changes. For a stream of arriving
//! objects that is the dominant cost: a batch of `b` new rows only
//! *needs* `O(b · n · d)` work (each new row against the corpus), plus
//! reverse-edge patches where a new row displaces an old row's current
//! p-th neighbour. [`DynamicGraph`] maintains exactly that:
//!
//! * per-row neighbour lists `(distance, index)` under the same total
//!   order as the batch kernel (`f64::total_cmp`, index tie-break);
//! * **insertion** runs the blocked Gram kernel
//!   ([`mtrl_graph::cross_sq_dist_map`]) of the new rows against the
//!   current corpus, selects each new row's `p` nearest, and patches
//!   reverse edges on existing rows — every pair is compared exactly
//!   once (when its later row arrives), so the maintained lists equal
//!   the true p-nearest lists of the full corpus *regardless of how the
//!   stream was batched*;
//! * **deletion** tombstones a row and exactly repairs the rows that
//!   held it as a neighbour (one [`mtrl_graph::gram_sq_dist`] scan per
//!   damaged row — the same pair function as the batch kernel, so
//!   repaired lists stay consistent with inserted ones);
//! * a **rebuild-threshold policy**: once the patched/tombstoned
//!   fraction since the last full build exceeds a knob, the next
//!   mutation falls back to a full rebuild (fresh centring, all lists
//!   recomputed) rather than letting a heavily rewritten graph drift
//!   from its batch-built equivalent.
//!
//! Distances are computed on rows translated by the column means of the
//! *initial* batch (fixed for the graph's lifetime, refreshed on
//! rebuild): Euclidean distances are translation invariant, the Gram
//! expansion needs the origin near the data for stability (see
//! `mtrl_graph::knn`), and a *fixed* centre makes every stored distance
//! a pure function of the two rows — comparable across batches.
//!
//! Exported graphs go through [`mtrl_graph::graph_from_neighbours`], the
//! exact weighting + "or"-symmetrisation code of the batch
//! [`mtrl_graph::pnn_graph`], so a `DynamicGraph` whose lists match the
//! batch kNN produces a bit-identical `Csr` (the cross-crate proptest in
//! `tests/integration_stream.rs` fuzzes this over random batch splits
//! and thread counts).
//!
//! With an approximate backend ([`DynamicGraphConfig::backend`]), the
//! same maintenance runs against an incrementally maintained
//! `mtrl_ann` index: inserts and removals route rows through the index
//! (whose routing is a pure function of the row, so they land exactly
//! where a batch build would place them) and neighbour candidates come
//! from it instead of full scans. Distances, selection order and graph
//! assembly are unchanged, so at exhaustive index settings the
//! maintained graph is bit-identical to exact mode.

use mtrl_ann::{build_any_index, insert_capped, GraphBackend, RpForestIndex};
use mtrl_graph::{
    cross_sq_dist_map, dist_less, gram_sq_dist, graph_from_neighbours, laplacian_csr,
    LaplacianKind, WeightScheme,
};
use mtrl_linalg::par::num_threads;
use mtrl_linalg::vecops::dot;
use mtrl_linalg::Mat;
use mtrl_sparse::Csr;

/// Tuning knobs of a [`DynamicGraph`].
#[derive(Debug, Clone)]
pub struct DynamicGraphConfig {
    /// Neighbours per object (the paper's `p`, default 5).
    pub p: usize,
    /// Edge weighting of the exported graph (Eq. 3).
    pub scheme: WeightScheme,
    /// Patched-fraction knob of the rebuild policy: when more than this
    /// fraction of rows has been patched (or tombstoned) since the last
    /// full build (see [`DynamicGraph::patched_fraction`]), the next
    /// mutation triggers a full rebuild. `1.0` disables automatic
    /// rebuilds (the fraction never exceeds 1).
    pub rebuild_threshold: f64,
    /// Neighbour-search backend. [`GraphBackend::Exact`] (the default)
    /// keeps the blocked all-pairs kernel and the exact maintenance
    /// contract. An approximate backend maintains an ANN index
    /// incrementally — inserts and removals route through it, and
    /// neighbour candidates come from it instead of full scans — so
    /// per-mutation cost drops from `O(n · d)` per row to the index's
    /// candidate volume. Distances and selection still go through the
    /// exact kernel primitives: at exhaustive index settings the
    /// maintained graph is bit-identical to exact mode, and at any
    /// setting it is deterministic for a given mutation sequence.
    /// Threshold rebuilds re-batch-build the index, healing leaf
    /// growth from long insert streams.
    pub backend: GraphBackend,
}

impl Default for DynamicGraphConfig {
    fn default() -> Self {
        DynamicGraphConfig {
            p: 5,
            scheme: WeightScheme::Cosine,
            rebuild_threshold: 0.5,
            backend: GraphBackend::Exact,
        }
    }
}

/// What one [`DynamicGraph::insert_batch`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// Rows inserted.
    pub inserted: usize,
    /// Existing rows whose neighbour list gained at least one new edge.
    pub patched_rows: usize,
    /// Whether the rebuild threshold tripped and a full rebuild ran.
    pub rebuilt: bool,
}

/// Incrementally maintained pNN graph over a growing (and shrinking)
/// set of feature rows. See the module docs for the maintenance
/// contract.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    cfg: DynamicGraphConfig,
    dim: usize,
    /// Raw feature rows, including tombstoned ones (indices are stable).
    features: Mat,
    /// Rows translated by `means` (the fixed centring).
    centered: Mat,
    means: Vec<f64>,
    /// Squared norms of the centred rows.
    sq_norms: Vec<f64>,
    alive: Vec<bool>,
    n_alive: usize,
    /// Per-row neighbour lists, `dist_less`-sorted, alive targets only.
    neigh: Vec<Vec<(f64, usize)>>,
    /// Rows patched since the last full build.
    patched: Vec<bool>,
    patched_rows: usize,
    /// The maintained ANN index over alive centred rows (`None` in
    /// exact mode). Refreshed by [`DynamicGraph::rebuild`].
    index: Option<RpForestIndex>,
}

impl DynamicGraph {
    /// Build from an initial non-empty batch of feature rows (one object
    /// per row). Centring means are fixed from this batch.
    ///
    /// # Panics
    /// Panics if `initial` has no rows or `cfg.p == 0`.
    pub fn new(initial: &Mat, cfg: DynamicGraphConfig) -> Self {
        assert!(initial.rows() > 0, "DynamicGraph needs an initial batch");
        assert!(cfg.p > 0, "p must be positive");
        assert!(
            (0.0..=1.0).contains(&cfg.rebuild_threshold),
            "rebuild_threshold must be in [0, 1]"
        );
        let dim = initial.cols();
        let mut g = DynamicGraph {
            cfg,
            dim,
            features: Mat::zeros(0, dim),
            centered: Mat::zeros(0, dim),
            means: column_means(initial),
            sq_norms: Vec::new(),
            alive: Vec::new(),
            n_alive: 0,
            neigh: Vec::new(),
            patched: Vec::new(),
            patched_rows: 0,
            index: None,
        };
        // The initial batch always goes through the blocked exact kernel
        // (fastest way to seed the lists); ANN mode then batch-builds its
        // index over the seeded corpus so *subsequent* mutations route
        // through it.
        g.insert_core(initial);
        g.refresh_index();
        g
    }

    /// Neighbour count `p`.
    pub fn p(&self) -> usize {
        self.cfg.p
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Rows ever inserted (tombstones included) — the graph's index
    /// space.
    pub fn num_rows(&self) -> usize {
        self.features.rows()
    }

    /// Rows currently alive.
    pub fn num_alive(&self) -> usize {
        self.n_alive
    }

    /// Whether row `i` is alive (not tombstoned).
    pub fn is_alive(&self, i: usize) -> bool {
        self.alive[i]
    }

    /// Fraction of rows (tombstones included, so the value is always in
    /// `[0, 1]` and a threshold of `1.0` genuinely disables automatic
    /// rebuilds) patched or tombstoned since the last full build — what
    /// the rebuild policy compares against its threshold.
    pub fn patched_fraction(&self) -> f64 {
        let total = self.features.rows();
        if total == 0 {
            0.0
        } else {
            self.patched_rows as f64 / total as f64
        }
    }

    /// Index-sorted neighbour list of row `i` (empty for tombstones).
    pub fn neighbours(&self, i: usize) -> Vec<usize> {
        let mut out: Vec<usize> = self.neigh[i].iter().map(|&(_, j)| j).collect();
        out.sort_unstable();
        out
    }

    /// Insert a batch of new rows; returns their global indices via the
    /// report (they occupy `num_rows() - batch..num_rows()`).
    ///
    /// Cost: `O(b · n · d)` blocked-Gram distance work plus `O(n)`
    /// reverse-edge checks per new row — no `O(n² d)` rebuild. If the
    /// patched fraction crosses the rebuild threshold afterwards, a full
    /// rebuild runs before returning (reported in the result).
    ///
    /// # Panics
    /// Panics on a column-count mismatch.
    pub fn insert_batch(&mut self, rows: &Mat) -> InsertReport {
        let patched_before = self.patched_rows;
        self.insert_core(rows);
        let patched_rows = self.patched_rows - patched_before;
        let rebuilt = self.maybe_rebuild();
        InsertReport {
            inserted: rows.rows(),
            patched_rows,
            rebuilt,
        }
    }

    fn insert_core(&mut self, rows: &Mat) {
        assert_eq!(rows.cols(), self.dim, "insert_batch: dimension mismatch");
        let b = rows.rows();
        if b == 0 {
            return;
        }
        let base = self.features.rows();
        // Append raw + centred rows and their norms.
        self.features = self.features.vstack(rows).expect("same width");
        let mut centred_new = rows.clone();
        for i in 0..b {
            let r = centred_new.row_mut(i);
            for (v, &m) in r.iter_mut().zip(&self.means) {
                *v -= m;
            }
        }
        self.centered = self.centered.vstack(&centred_new).expect("same width");
        for i in 0..b {
            let r = centred_new.row(i);
            self.sq_norms.push(dot(r, r));
        }
        self.alive.extend(std::iter::repeat_n(true, b));
        self.n_alive += b;
        self.neigh.extend(std::iter::repeat_with(Vec::new).take(b));
        self.patched.extend(std::iter::repeat_n(false, b));

        if self.index.is_some() {
            self.insert_lists_ann(base, b);
            return;
        }
        let p = self.cfg.p;
        let n_total = self.features.rows();
        let threads = auto_threads(b, n_total, self.dim);
        // Parallel phase: one Gram strip per new row against the whole
        // corpus (old rows and the new batch itself). Per strip: the new
        // row's own top-p selection, plus loosely filtered reverse
        // candidates (old rows the new row might improve); `alive` and
        // `neigh` are only read here.
        let alive = &self.alive;
        let neigh = &self.neigh;
        let q_norms = &self.sq_norms[base..];
        #[allow(clippy::type_complexity)]
        let per_query: Vec<(Vec<(f64, usize)>, Vec<(usize, f64)>)> = cross_sq_dist_map(
            &centred_new,
            q_norms,
            &self.centered,
            &self.sq_norms,
            threads,
            |q, strip| {
                let me = base + q;
                let mut own: Vec<(f64, usize)> = Vec::with_capacity(p + 1);
                let mut reverse: Vec<(usize, f64)> = Vec::new();
                for (j, &d) in strip.iter().enumerate() {
                    if j == me || !alive[j] {
                        continue;
                    }
                    insert_capped(&mut own, (d, j), p);
                    // Old rows only: in-batch pairs are covered by each
                    // query's own selection. The pre-batch threshold is
                    // a superset filter of the final one, so nothing
                    // that belongs in the final list is dropped here.
                    if j < base
                        && (neigh[j].len() < p
                            || dist_less((d, me), *neigh[j].last().expect("non-empty")))
                    {
                        reverse.push((j, d));
                    }
                }
                (own, reverse)
            },
        );
        // Serial merge in query order — deterministic for any thread
        // count and batch split.
        for (q, (own, reverse)) in per_query.into_iter().enumerate() {
            self.neigh[base + q] = own;
            for (j, d) in reverse {
                if insert_capped(&mut self.neigh[j], (d, base + q), p) && !self.patched[j] {
                    self.patched[j] = true;
                    self.patched_rows += 1;
                }
            }
        }
    }

    /// ANN-mode insertion: sequential maintenance through the index. Row
    /// `r` enters the index, then selects its own neighbours from the
    /// index's candidates — candidate sets therefore contain ids `≤ r`
    /// only, so every pair is considered exactly once (when its later
    /// row arrives), mirroring the exact path's contract on the index's
    /// candidate subsets. Reverse patches repair earlier rows whose own
    /// selection ran before `r` existed. Serial by construction, so the
    /// result is a pure function of the mutation sequence.
    fn insert_lists_ann(&mut self, base: usize, b: usize) {
        let p = self.cfg.p;
        let mut cands = Vec::new();
        for r in base..base + b {
            let row: Vec<f64> = self.centered.row(r).to_vec();
            let index = self.index.as_mut().expect("ANN insert path");
            index.insert(r, &row);
            cands.clear();
            index.candidates_into(&row, &mut cands);
            cands.sort_unstable();
            cands.dedup();
            let gr = self.sq_norms[r];
            let mut own: Vec<(f64, usize)> = Vec::with_capacity(p + 1);
            for &j in &cands {
                if j == r || !self.alive[j] {
                    continue;
                }
                let d = gram_sq_dist(&row, self.centered.row(j), gr, self.sq_norms[j]);
                insert_capped(&mut own, (d, j), p);
                if insert_capped(&mut self.neigh[j], (d, r), p) && !self.patched[j] {
                    self.patched[j] = true;
                    self.patched_rows += 1;
                }
            }
            self.neigh[r] = own;
        }
    }

    /// Tombstone row `idx`: it leaves every neighbour list, and each row
    /// that held it is exactly repaired by a fresh scan over the alive
    /// rows (same pair function as the batch kernel). Returns `false` if
    /// the row was already dead. May trigger a threshold rebuild.
    pub fn remove(&mut self, idx: usize) -> bool {
        assert!(idx < self.features.rows(), "row index out of range");
        if !self.alive[idx] {
            return false;
        }
        self.alive[idx] = false;
        self.n_alive -= 1;
        self.neigh[idx].clear();
        if let Some(index) = &mut self.index {
            let row: Vec<f64> = self.centered.row(idx).to_vec();
            index.remove(idx, &row);
        }
        if !self.patched[idx] {
            self.patched[idx] = true;
            self.patched_rows += 1;
        }
        let damaged: Vec<usize> = (0..self.neigh.len())
            .filter(|&i| self.alive[i] && self.neigh[i].iter().any(|&(_, j)| j == idx))
            .collect();
        for i in damaged {
            self.neigh[i] = self.row_list(i);
            if !self.patched[i] {
                self.patched[i] = true;
                self.patched_rows += 1;
            }
        }
        self.maybe_rebuild();
        true
    }

    /// Exact p-nearest list of row `i` by scanning every alive row with
    /// the kernel's pair function.
    fn scan_row(&self, i: usize) -> Vec<(f64, usize)> {
        let xi = self.centered.row(i);
        let gi = self.sq_norms[i];
        let mut list: Vec<(f64, usize)> = Vec::with_capacity(self.cfg.p + 1);
        for j in 0..self.features.rows() {
            if j == i || !self.alive[j] {
                continue;
            }
            let d = gram_sq_dist(xi, self.centered.row(j), gi, self.sq_norms[j]);
            insert_capped(&mut list, (d, j), self.cfg.p);
        }
        list
    }

    /// Fresh p-nearest list of row `i` under the configured backend: a
    /// full alive scan in exact mode, the index's candidate set in ANN
    /// mode — distances and selection identical either way.
    fn row_list(&self, i: usize) -> Vec<(f64, usize)> {
        let Some(index) = &self.index else {
            return self.scan_row(i);
        };
        let xi = self.centered.row(i);
        let gi = self.sq_norms[i];
        let mut cands = Vec::new();
        index.candidates_into(xi, &mut cands);
        cands.sort_unstable();
        cands.dedup();
        let mut list: Vec<(f64, usize)> = Vec::with_capacity(self.cfg.p + 1);
        for &j in &cands {
            if j == i || !self.alive[j] {
                continue;
            }
            let d = gram_sq_dist(xi, self.centered.row(j), gi, self.sq_norms[j]);
            insert_capped(&mut list, (d, j), self.cfg.p);
        }
        list
    }

    /// (Re)build the ANN index over the alive centred rows; no-op in
    /// exact mode.
    fn refresh_index(&mut self) {
        if self.cfg.backend.is_exact() {
            return;
        }
        let ids: Vec<usize> = (0..self.features.rows())
            .filter(|&i| self.alive[i])
            .collect();
        let rows: Vec<Vec<f64>> = ids.iter().map(|&i| self.centered.row(i).to_vec()).collect();
        let mat = if rows.is_empty() {
            Mat::zeros(0, self.dim)
        } else {
            Mat::from_rows(&rows).expect("rectangular alive rows")
        };
        self.index = build_any_index(&mat, &ids, &self.cfg.backend);
    }

    fn maybe_rebuild(&mut self) -> bool {
        if self.patched_fraction() > self.cfg.rebuild_threshold {
            self.rebuild();
            true
        } else {
            false
        }
    }

    /// Full rebuild: re-centre on the alive rows' column means and
    /// recompute every neighbour list with the blocked kernel. Indices
    /// are stable (tombstones keep their slots, with empty lists).
    pub fn rebuild(&mut self) {
        let n_total = self.features.rows();
        self.means = alive_column_means(&self.features, &self.alive, self.n_alive);
        self.centered = self.features.clone();
        for i in 0..n_total {
            let r = self.centered.row_mut(i);
            for (v, &m) in r.iter_mut().zip(&self.means) {
                *v -= m;
            }
        }
        self.sq_norms = (0..n_total)
            .map(|i| {
                let r = self.centered.row(i);
                dot(r, r)
            })
            .collect();
        self.refresh_index();
        let lists: Vec<Vec<(f64, usize)>> = if self.index.is_some() {
            // ANN mode: fresh index, fresh candidate-based lists —
            // `O(n · candidates · d)`, not the quadratic blocked pass.
            (0..n_total)
                .map(|i| {
                    if self.alive[i] {
                        self.row_list(i)
                    } else {
                        Vec::new()
                    }
                })
                .collect()
        } else {
            let p = self.cfg.p;
            let alive = &self.alive;
            let threads = auto_threads(n_total, n_total, self.dim);
            cross_sq_dist_map(
                &self.centered,
                &self.sq_norms,
                &self.centered,
                &self.sq_norms,
                threads,
                |i, strip| {
                    if !alive[i] {
                        return Vec::new();
                    }
                    let mut own: Vec<(f64, usize)> = Vec::with_capacity(p + 1);
                    for (j, &d) in strip.iter().enumerate() {
                        if j != i && alive[j] {
                            insert_capped(&mut own, (d, j), p);
                        }
                    }
                    own
                },
            )
        };
        self.neigh = lists;
        self.patched = vec![false; n_total];
        self.patched_rows = 0;
    }

    /// Export the symmetric weighted pNN graph (Eq. 3) over the current
    /// index space — tombstoned rows are isolated vertices. Weighting
    /// and "or"-symmetrisation are shared with the batch
    /// [`mtrl_graph::pnn_graph`] ([`graph_from_neighbours`]), so equal
    /// neighbour structure means an equal `Csr`. `O(nnz · d)` — no
    /// distance recomputation.
    pub fn graph(&self) -> Csr {
        let lists: Vec<Vec<usize>> = (0..self.neigh.len()).map(|i| self.neighbours(i)).collect();
        let threads = auto_threads(self.neigh.len(), self.cfg.p.max(1), self.dim);
        graph_from_neighbours(&self.features, &lists, self.cfg.scheme, threads)
    }

    /// The graph's Laplacian, refreshed from the incrementally
    /// maintained adjacency in `O(nnz · d)` — the streaming replacement
    /// for rebuild-then-`laplacian_csr` (`O(n² d)`).
    pub fn laplacian(&self, kind: LaplacianKind) -> Csr {
        laplacian_csr(&self.graph(), kind)
    }
}

fn column_means(data: &Mat) -> Vec<f64> {
    let alive = vec![true; data.rows()];
    alive_column_means(data, &alive, data.rows())
}

/// Column means over alive rows; a non-finite mean (any NaN/∞ feature)
/// falls back to 0 so one bad row only poisons itself — mirroring the
/// batch kernel's centring.
fn alive_column_means(data: &Mat, alive: &[bool], n_alive: usize) -> Vec<f64> {
    let mut means = vec![0.0; data.cols()];
    if n_alive == 0 {
        return means;
    }
    for (i, &live) in alive.iter().enumerate() {
        if !live {
            continue;
        }
        for (m, &v) in means.iter_mut().zip(data.row(i)) {
            *m += v;
        }
    }
    for m in &mut means {
        *m /= n_alive as f64;
        if !m.is_finite() {
            *m = 0.0;
        }
    }
    means
}

/// Mirror of the batch kernel's threshold: below ~1M multiply-adds the
/// row fan-out is not worth a thread spawn.
fn auto_threads(work_rows: usize, n: usize, d: usize) -> usize {
    if work_rows * n * d < (1 << 20) {
        1
    } else {
        num_threads()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtrl_graph::{knn_indices, pnn_graph};
    use mtrl_linalg::random::rand_uniform;

    fn graph_cfg(p: usize) -> DynamicGraphConfig {
        DynamicGraphConfig {
            p,
            scheme: WeightScheme::Cosine,
            rebuild_threshold: 1.0, // manual control in tests
            backend: GraphBackend::Exact,
        }
    }

    #[test]
    fn single_batch_matches_batch_pnn() {
        // Built in one batch, the centring means equal the batch
        // kernel's, so the exported graph is identical.
        let data = rand_uniform(60, 7, -1.0, 1.0, 100);
        let g = DynamicGraph::new(&data, graph_cfg(4));
        assert_eq!(g.graph(), pnn_graph(&data, 4, WeightScheme::Cosine));
        let nn = knn_indices(&data, 4);
        for (i, expect) in nn.iter().enumerate() {
            assert_eq!(&g.neighbours(i), expect, "row {i}");
        }
    }

    #[test]
    fn incremental_inserts_match_batch_pnn() {
        let data = rand_uniform(80, 6, -1.0, 1.0, 101);
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, 30, 6), graph_cfg(5));
        let mut at = 30;
        for step in [1usize, 7, 12, 30] {
            let report = g.insert_batch(&data.submatrix(at, 0, step, 6));
            assert_eq!(report.inserted, step);
            assert!(!report.rebuilt);
            at += step;
        }
        assert_eq!(at, 80);
        assert_eq!(g.num_rows(), 80);
        assert_eq!(g.graph(), pnn_graph(&data, 5, WeightScheme::Cosine));
    }

    #[test]
    fn insertion_patches_reverse_edges() {
        // Two far clusters; a new point lands on top of cluster A, so A
        // members must adopt it.
        let mut rows = Vec::new();
        for i in 0..5 {
            rows.push(vec![i as f64 * 0.1, 0.0]);
            rows.push(vec![100.0 + i as f64 * 0.1, 0.0]);
        }
        let data = Mat::from_rows(&rows).unwrap();
        let mut g = DynamicGraph::new(&data, graph_cfg(3));
        let report = g.insert_batch(&Mat::from_rows(&[vec![0.15, 0.0]]).unwrap());
        assert_eq!(report.inserted, 1);
        assert!(report.patched_rows >= 3, "{report:?}");
        // The new row (index 10) neighbours only cluster-A members, and
        // several A members adopted it.
        for &j in &g.neighbours(10) {
            assert!(j % 2 == 0, "new row neighbours cluster B member {j}");
        }
        let adopters = (0..10).filter(|&i| g.neighbours(i).contains(&10)).count();
        assert!(adopters >= 3, "{adopters}");
    }

    #[test]
    fn removal_repairs_exactly() {
        let data = rand_uniform(40, 5, -1.0, 1.0, 102);
        let mut g = DynamicGraph::new(&data, graph_cfg(4));
        assert!(g.remove(17));
        assert!(!g.remove(17), "double removal");
        assert_eq!(g.num_alive(), 39);
        assert!(g.neighbours(17).is_empty());
        // Against the batch graph on the compacted corpus: neighbour
        // lists (translated through the index map) must agree.
        let kept: Vec<usize> = (0..40).filter(|&i| i != 17).collect();
        let compact_rows: Vec<Vec<f64>> = kept.iter().map(|&i| data.row(i).to_vec()).collect();
        let compact = Mat::from_rows(&compact_rows).unwrap();
        let nn = knn_indices(&compact, 4);
        for (new_i, &old_i) in kept.iter().enumerate() {
            let expect: Vec<usize> = nn[new_i].iter().map(|&j| kept[j]).collect();
            let mut expect = expect;
            expect.sort_unstable();
            assert_eq!(g.neighbours(old_i), expect, "row {old_i}");
        }
        // No list references the tombstone.
        for i in 0..40 {
            assert!(!g.neighbours(i).contains(&17));
        }
    }

    #[test]
    fn rebuild_threshold_triggers() {
        let data = rand_uniform(30, 4, -1.0, 1.0, 103);
        let mut g = DynamicGraph::new(
            &data,
            DynamicGraphConfig {
                p: 3,
                scheme: WeightScheme::Cosine,
                rebuild_threshold: 0.0, // any patch trips it
                backend: GraphBackend::Exact,
            },
        );
        // A duplicate of row 0 patches its nearest neighbours → rebuild.
        let report = g.insert_batch(&data.submatrix(0, 0, 1, 4));
        assert!(report.rebuilt);
        assert_eq!(g.patched_fraction(), 0.0, "rebuild resets the counter");
        // After the rebuild the graph still matches the batch path on
        // the full 31-row corpus (fresh means = batch means).
        let full = data.vstack(&data.submatrix(0, 0, 1, 4)).unwrap();
        assert_eq!(g.graph(), pnn_graph(&full, 3, WeightScheme::Cosine));
    }

    #[test]
    fn laplacian_matches_batch_construction() {
        let data = rand_uniform(50, 6, 0.0, 1.0, 104);
        let mut g = DynamicGraph::new(&data.submatrix(0, 0, 35, 6), graph_cfg(5));
        g.insert_batch(&data.submatrix(35, 0, 15, 6));
        let w = pnn_graph(&data, 5, WeightScheme::Cosine);
        for kind in [LaplacianKind::Unnormalized, LaplacianKind::SymNormalized] {
            assert_eq!(g.laplacian(kind), laplacian_csr(&w, kind), "{kind:?}");
        }
    }

    #[test]
    fn far_from_origin_insertions_stay_stable() {
        // The fixed centring keeps the Gram expansion stable for data
        // clustered far from the origin, batches included.
        let base = rand_uniform(40, 4, -1e-3, 1e-3, 105);
        let shifted = Mat::from_fn(40, 4, |i, j| 1.0e8 + base[(i, j)]);
        let mut g = DynamicGraph::new(&shifted.submatrix(0, 0, 25, 4), graph_cfg(4));
        g.insert_batch(&shifted.submatrix(25, 0, 15, 4));
        assert_eq!(g.graph(), pnn_graph(&shifted, 4, WeightScheme::Cosine));
    }

    #[test]
    fn ann_exhaustive_forest_matches_exact_mode_bitwise() {
        // At exhaustive index settings the candidate sets cover every
        // alive row, so the whole insert/remove/rebuild lifecycle must
        // reproduce exact mode bit for bit.
        let data = rand_uniform(70, 5, -1.0, 1.0, 107);
        let run = |backend: GraphBackend| {
            let mut g = DynamicGraph::new(
                &data.submatrix(0, 0, 30, 5),
                DynamicGraphConfig {
                    p: 4,
                    scheme: WeightScheme::Cosine,
                    rebuild_threshold: 1.0,
                    backend,
                },
            );
            g.insert_batch(&data.submatrix(30, 0, 25, 5));
            g.remove(12);
            g.insert_batch(&data.submatrix(55, 0, 15, 5));
            let before_rebuild = g.graph();
            g.rebuild();
            (before_rebuild, g.graph())
        };
        let forest = GraphBackend::RpForest(mtrl_ann::RpForestParams {
            trees: 2,
            leaf_size: 6,
            probes: usize::MAX,
            seed: 9,
        });
        assert_eq!(run(forest), run(GraphBackend::Exact));
    }

    #[test]
    fn ann_default_mode_maintains_valid_lists() {
        // Non-exhaustive settings: lists must stay structurally valid
        // (sorted, alive-only, ≤ p, self-free) through a full lifecycle,
        // and the run must be deterministic.
        let data = rand_uniform(120, 6, -1.0, 1.0, 108);
        let run = || {
            let mut g = DynamicGraph::new(
                &data.submatrix(0, 0, 60, 6),
                DynamicGraphConfig {
                    p: 5,
                    scheme: WeightScheme::Cosine,
                    rebuild_threshold: 1.0,
                    backend: GraphBackend::RpForest(mtrl_ann::RpForestParams {
                        trees: 4,
                        leaf_size: 8,
                        probes: 2,
                        seed: 3,
                    }),
                },
            );
            g.insert_batch(&data.submatrix(60, 0, 40, 6));
            g.remove(5);
            g.remove(77);
            g.insert_batch(&data.submatrix(100, 0, 20, 6));
            g
        };
        let g = run();
        assert_eq!(g.num_rows(), 120);
        assert_eq!(g.num_alive(), 118);
        for i in 0..120 {
            let nb = g.neighbours(i);
            if !g.is_alive(i) {
                assert!(nb.is_empty());
                continue;
            }
            assert!(nb.len() <= 5);
            assert!(nb.windows(2).all(|w| w[0] < w[1]));
            assert!(!nb.contains(&i));
            assert!(nb.iter().all(|&j| g.is_alive(j)));
        }
        assert_eq!(g.graph(), run().graph(), "deterministic lifecycle");
    }

    #[test]
    fn batch_split_invariant() {
        // The same rows in different batch splits produce the same
        // graph: every pair distance is computed by the same pure
        // function whenever the later row arrives.
        let data = rand_uniform(55, 5, -1.0, 1.0, 106);
        let build = |splits: &[usize]| {
            let mut g = DynamicGraph::new(&data.submatrix(0, 0, splits[0], 5), graph_cfg(4));
            let mut at = splits[0];
            for &s in &splits[1..] {
                g.insert_batch(&data.submatrix(at, 0, s, 5));
                at += s;
            }
            assert_eq!(at, 55);
            g.graph()
        };
        let a = build(&[20, 35]);
        let b = build(&[20, 1, 1, 33]);
        let c = build(&[20, 17, 18]);
        // Same first batch → same centring → identical graphs.
        assert_eq!(a, b);
        assert_eq!(a, c);
    }
}
