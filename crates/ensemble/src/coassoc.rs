//! Sparse co-association structure over base partitions.
//!
//! The classical evidence-accumulation matrix `C_ij = |{m : m(i) = m(j)}| / M`
//! is n×n dense; this module never materialises it. Instead each object
//! keeps only its `p` strongest co-cluster neighbours (count-descending,
//! index-ascending on ties), assembled straight into a [`Csr`] and then
//! max-symmetrised — the same sparsity contract as the pNN graphs, so the
//! PR-4 allocation oracle holds on the ensemble path.
//!
//! Determinism: rows are built with
//! [`mtrl_linalg::par::par_chunks_map`], which splices contiguous row
//! ranges back in order, and every per-row computation is a pure function
//! of the (order-insensitive) partition multiset — so the built matrix is
//! bit-identical across thread counts *and* across how partitions were
//! batched into the builder. The proptest suite pins both.

use mtrl_linalg::par::{num_threads, par_chunks_map};
use mtrl_sparse::Csr;
use std::collections::HashMap;

/// Incremental builder: feed base partitions (in any batching), then
/// [`CoAssocBuilder::build`].
#[derive(Debug, Clone)]
pub struct CoAssocBuilder {
    n: usize,
    partitions: Vec<Vec<usize>>,
}

impl CoAssocBuilder {
    /// A builder over `n` objects.
    pub fn new(n: usize) -> Self {
        CoAssocBuilder {
            n,
            partitions: Vec::new(),
        }
    }

    /// Add one base partition (a label per object).
    ///
    /// # Panics
    /// Panics if `labels.len() != n`.
    pub fn add_partition(&mut self, labels: &[usize]) {
        assert_eq!(
            labels.len(),
            self.n,
            "partition has {} labels for {} objects",
            labels.len(),
            self.n
        );
        self.partitions.push(labels.to_vec());
    }

    /// Build the sparse symmetric co-association matrix, keeping each
    /// object's `p` strongest co-cluster neighbours before
    /// symmetrisation. Entry values are co-clustering frequencies in
    /// `(0, 1]`.
    pub fn build(&self, p: usize) -> Csr {
        let n = self.n;
        let m = self.partitions.len();
        if m == 0 || p == 0 {
            return Csr::zeros(n, n);
        }
        // Bucket each partition's clusters once: cluster id -> members.
        let buckets: Vec<Vec<Vec<usize>>> = self
            .partitions
            .iter()
            .map(|labels| {
                let k = labels.iter().copied().max().unwrap_or(0) + 1;
                let mut b = vec![Vec::new(); k];
                for (i, &c) in labels.iter().enumerate() {
                    b[c].push(i);
                }
                b
            })
            .collect();
        let inv_m = 1.0 / m as f64;
        let rows: Vec<(Vec<usize>, Vec<f64>)> = par_chunks_map(n, num_threads(), |range| {
            let mut out = Vec::with_capacity(range.len());
            for i in range {
                let mut counts: HashMap<usize, u32> = HashMap::new();
                for (labels, bucket) in self.partitions.iter().zip(&buckets) {
                    for &j in &bucket[labels[i]] {
                        if j != i {
                            *counts.entry(j).or_insert(0) += 1;
                        }
                    }
                }
                // Full sort by (count desc, index asc) before truncation
                // makes the kept set independent of hash iteration order.
                let mut cand: Vec<(usize, u32)> = counts.into_iter().collect();
                cand.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                cand.truncate(p);
                cand.sort_unstable_by_key(|&(j, _)| j);
                let idx: Vec<usize> = cand.iter().map(|&(j, _)| j).collect();
                let vals: Vec<f64> = cand.iter().map(|&(_, c)| f64::from(c) * inv_m).collect();
                out.push((idx, vals));
            }
            out
        });
        Csr::from_sparse_rows(&rows, n).max_symmetrize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_agreement_gives_unit_cliques() {
        let mut b = CoAssocBuilder::new(6);
        let labels = vec![0, 0, 0, 1, 1, 1];
        b.add_partition(&labels);
        b.add_partition(&labels);
        let c = b.build(5);
        assert_eq!(c.shape(), (6, 6));
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(4, 5), 1.0);
        assert_eq!(c.get(0, 3), 0.0);
        assert_eq!(c.get(0, 0), 0.0, "no self loops");
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn disagreement_gives_fractional_weights() {
        let mut b = CoAssocBuilder::new(4);
        b.add_partition(&[0, 0, 1, 1]);
        b.add_partition(&[0, 1, 1, 0]);
        let c = b.build(5);
        assert_eq!(c.get(0, 1), 0.5);
        assert_eq!(c.get(0, 3), 0.5);
        assert_eq!(c.get(2, 3), 0.5);
        assert_eq!(c.get(1, 2), 0.5);
        assert_eq!(c.get(0, 2), 0.0);
    }

    #[test]
    fn top_p_truncates_but_symmetrisation_restores_mutual_edges() {
        // Object 0 co-clusters with 1..=3 equally; p = 2 keeps the two
        // lowest indices from 0's side, but 3 still keeps 0.
        let mut b = CoAssocBuilder::new(5);
        b.add_partition(&[0, 0, 0, 0, 1]);
        let c = b.build(2);
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(0, 2), 1.0);
        // Kept through 3's own row + max_symmetrize.
        assert_eq!(c.get(0, 3), 1.0);
        assert!(c.is_symmetric(0.0));
    }

    #[test]
    fn partition_order_is_irrelevant() {
        let a = vec![0, 1, 0, 1, 0];
        let b2 = vec![1, 1, 0, 0, 0];
        let mut x = CoAssocBuilder::new(5);
        x.add_partition(&a);
        x.add_partition(&b2);
        let mut y = CoAssocBuilder::new(5);
        y.add_partition(&b2);
        y.add_partition(&a);
        assert_eq!(x.build(3), y.build(3));
    }

    #[test]
    fn empty_builder_yields_empty_matrix() {
        let b = CoAssocBuilder::new(4);
        let c = b.build(3);
        assert_eq!(c.nnz(), 0);
        assert_eq!(c.shape(), (4, 4));
    }
}
