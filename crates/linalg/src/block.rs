//! Block-structured matrix helpers.
//!
//! Section I-A of the paper defines the global matrices over all `K` object
//! types: the intra-type matrix `W` (and its Laplacian `L`) is *block
//! diagonal* with one `n_k x n_k` block per type, while `G` stacks per-type
//! membership blocks. Keeping `L` in block-diagonal form turns the `O(n²c)`
//! product `L·G` into `Σ_k O(n_k² c)` and avoids materialising `n x n`
//! zeros.

use crate::error::LinalgError;
use crate::mat::Mat;
use crate::ops;
use crate::Result;
use std::ops::Range;

/// Sizes and offsets of the per-type segments of a stacked dimension.
///
/// Used for both the object dimension (`n = Σ n_k`) and the cluster
/// dimension (`c = Σ c_k`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockSpec {
    sizes: Vec<usize>,
    offsets: Vec<usize>,
    total: usize,
}

impl BlockSpec {
    /// Build a spec from per-type sizes.
    pub fn from_sizes(sizes: &[usize]) -> Self {
        let mut offsets = Vec::with_capacity(sizes.len());
        let mut acc = 0;
        for &s in sizes {
            offsets.push(acc);
            acc += s;
        }
        BlockSpec {
            sizes: sizes.to_vec(),
            offsets,
            total: acc,
        }
    }

    /// Number of types/blocks.
    pub fn num_blocks(&self) -> usize {
        self.sizes.len()
    }

    /// Size of block `k`.
    pub fn size(&self, k: usize) -> usize {
        self.sizes[k]
    }

    /// All per-block sizes.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Starting offset of block `k` in the stacked dimension.
    pub fn offset(&self, k: usize) -> usize {
        self.offsets[k]
    }

    /// Total stacked size `Σ sizes`.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Index range of block `k`.
    pub fn range(&self, k: usize) -> Range<usize> {
        self.offsets[k]..self.offsets[k] + self.sizes[k]
    }

    /// Which block a stacked index belongs to.
    ///
    /// # Panics
    /// Panics if `idx >= total`.
    pub fn block_of(&self, idx: usize) -> usize {
        assert!(idx < self.total, "index {idx} out of stacked range");
        // Linear scan is fine: K is tiny (3 types in the paper).
        for k in (0..self.sizes.len()).rev() {
            if idx >= self.offsets[k] {
                return k;
            }
        }
        0
    }
}

/// Block-diagonal square matrix: one square dense block per object type.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDiag {
    blocks: Vec<Mat>,
    spec: BlockSpec,
}

impl BlockDiag {
    /// Assemble from square blocks.
    ///
    /// # Errors
    /// Returns [`LinalgError::NotSquare`] if any block is not square.
    pub fn new(blocks: Vec<Mat>) -> Result<Self> {
        for b in &blocks {
            if !b.is_square() {
                return Err(LinalgError::NotSquare {
                    op: "BlockDiag::new",
                    shape: b.shape(),
                });
            }
        }
        let sizes: Vec<usize> = blocks.iter().map(|b| b.rows()).collect();
        Ok(BlockDiag {
            blocks,
            spec: BlockSpec::from_sizes(&sizes),
        })
    }

    /// The underlying block layout.
    pub fn spec(&self) -> &BlockSpec {
        &self.spec
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Borrow block `k`.
    pub fn block(&self, k: usize) -> &Mat {
        &self.blocks[k]
    }

    /// Total stacked dimension `n`.
    pub fn n(&self) -> usize {
        self.spec.total()
    }

    /// Product with a stacked dense matrix: `out = blockdiag(L_k) * G`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `g.rows() != n`.
    pub fn mul_dense(&self, g: &Mat) -> Result<Mat> {
        if g.rows() != self.n() {
            return Err(LinalgError::ShapeMismatch {
                op: "BlockDiag::mul_dense",
                lhs: (self.n(), self.n()),
                rhs: g.shape(),
            });
        }
        let mut out = Mat::zeros(g.rows(), g.cols());
        for (k, block) in self.blocks.iter().enumerate() {
            let r = self.spec.range(k);
            let gk = g.submatrix(r.start, 0, r.len(), g.cols());
            let prod = ops::matmul(block, &gk)?;
            out.set_submatrix(r.start, 0, &prod);
        }
        Ok(out)
    }

    /// The quadratic form `tr(Gᵀ L G) = Σ_k tr(G_kᵀ L_k G_k)` without
    /// materialising `L G`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if `g.rows() != n`.
    pub fn trace_quad(&self, g: &Mat) -> Result<f64> {
        let lg = self.mul_dense(g)?;
        ops::trace_product_tn(&lg, g)
    }

    /// Apply a function to every entry of every block (e.g. parts splits).
    pub fn map(&self, f: impl Fn(f64) -> f64 + Copy) -> BlockDiag {
        BlockDiag {
            blocks: self.blocks.iter().map(|b| b.map(f)).collect(),
            spec: self.spec.clone(),
        }
    }

    /// Linear combination `alpha * self + beta * other`.
    ///
    /// # Errors
    /// Returns [`LinalgError::ShapeMismatch`] if the block layouts differ.
    pub fn lin_comb(&self, alpha: f64, other: &BlockDiag, beta: f64) -> Result<BlockDiag> {
        if self.spec != other.spec {
            return Err(LinalgError::ShapeMismatch {
                op: "BlockDiag::lin_comb",
                lhs: (self.n(), self.n()),
                rhs: (other.n(), other.n()),
            });
        }
        let blocks = self
            .blocks
            .iter()
            .zip(&other.blocks)
            .map(|(a, b)| {
                let mut out = a.scaled(alpha);
                out.axpy_inplace(beta, b).expect("same block shapes");
                out
            })
            .collect();
        Ok(BlockDiag {
            blocks,
            spec: self.spec.clone(),
        })
    }

    /// Materialise as a dense `n x n` matrix (tests, small problems only).
    pub fn to_dense(&self) -> Mat {
        let n = self.n();
        let mut out = Mat::zeros(n, n);
        for (k, block) in self.blocks.iter().enumerate() {
            out.set_submatrix(self.spec.offset(k), self.spec.offset(k), block);
        }
        out
    }

    /// Split every block into positive and negative parts (Eq. 21 needs
    /// `L⁺` and `L⁻` separately).
    pub fn split_parts(&self) -> (BlockDiag, BlockDiag) {
        (
            self.map(|x| if x > 0.0 { x } else { 0.0 }),
            self.map(|x| if x < 0.0 { -x } else { 0.0 }),
        )
    }
}

/// Assemble a stacked block-structured membership matrix `G` from per-type
/// blocks `G_k` (`n_k x c_k`), placing block `k` at row offset `Σ_{j<k} n_j`
/// and column offset `Σ_{j<k} c_j` — exactly the layout of Section II-A.
pub fn stack_membership(blocks: &[Mat]) -> Mat {
    let row_spec = BlockSpec::from_sizes(&blocks.iter().map(|b| b.rows()).collect::<Vec<_>>());
    let col_spec = BlockSpec::from_sizes(&blocks.iter().map(|b| b.cols()).collect::<Vec<_>>());
    let mut g = Mat::zeros(row_spec.total(), col_spec.total());
    for (k, b) in blocks.iter().enumerate() {
        g.set_submatrix(row_spec.offset(k), col_spec.offset(k), b);
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::rand_uniform;

    #[test]
    fn spec_offsets() {
        let s = BlockSpec::from_sizes(&[3, 5, 2]);
        assert_eq!(s.total(), 10);
        assert_eq!(s.offset(0), 0);
        assert_eq!(s.offset(1), 3);
        assert_eq!(s.offset(2), 8);
        assert_eq!(s.range(1), 3..8);
        assert_eq!(s.block_of(0), 0);
        assert_eq!(s.block_of(4), 1);
        assert_eq!(s.block_of(9), 2);
    }

    #[test]
    fn block_diag_requires_square() {
        assert!(BlockDiag::new(vec![Mat::zeros(2, 3)]).is_err());
    }

    #[test]
    fn mul_dense_matches_dense_product() {
        let b1 = rand_uniform(3, 3, -1.0, 1.0, 41);
        let b2 = rand_uniform(4, 4, -1.0, 1.0, 42);
        let bd = BlockDiag::new(vec![b1, b2]).unwrap();
        let g = rand_uniform(7, 2, -1.0, 1.0, 43);
        let fast = bd.mul_dense(&g).unwrap();
        let slow = ops::matmul(&bd.to_dense(), &g).unwrap();
        assert!(fast.approx_eq(&slow, 1e-12));
    }

    #[test]
    fn trace_quad_matches_dense() {
        let b1 = rand_uniform(3, 3, -1.0, 1.0, 44);
        let b2 = rand_uniform(2, 2, -1.0, 1.0, 45);
        let bd = BlockDiag::new(vec![b1, b2]).unwrap();
        let g = rand_uniform(5, 3, -1.0, 1.0, 46);
        let fast = bd.trace_quad(&g).unwrap();
        let dense = bd.to_dense();
        let lg = ops::matmul(&dense, &g).unwrap();
        let slow = ops::trace_product_tn(&lg, &g).unwrap();
        assert!((fast - slow).abs() < 1e-10);
    }

    #[test]
    fn lin_comb_blocks() {
        let a = BlockDiag::new(vec![Mat::identity(2), Mat::identity(3)]).unwrap();
        let b = BlockDiag::new(vec![Mat::filled(2, 2, 1.0), Mat::filled(3, 3, 1.0)]).unwrap();
        let c = a.lin_comb(2.0, &b, 0.5).unwrap();
        assert_eq!(c.block(0)[(0, 0)], 2.5);
        assert_eq!(c.block(0)[(0, 1)], 0.5);
        // Mismatched layouts rejected.
        let d = BlockDiag::new(vec![Mat::identity(5)]).unwrap();
        assert!(a.lin_comb(1.0, &d, 1.0).is_err());
    }

    #[test]
    fn split_parts_reconstruct() {
        let m = rand_uniform(4, 4, -1.0, 1.0, 47);
        let bd = BlockDiag::new(vec![m]).unwrap();
        let (p, n) = bd.split_parts();
        let rec = p.lin_comb(1.0, &n, -1.0).unwrap();
        assert!(rec.to_dense().approx_eq(&bd.to_dense(), 1e-15));
        assert!(p.block(0).min() >= 0.0);
        assert!(n.block(0).min() >= 0.0);
    }

    #[test]
    fn stack_membership_layout() {
        let g1 = Mat::filled(2, 2, 1.0);
        let g2 = Mat::filled(3, 2, 2.0);
        let g = stack_membership(&[g1, g2]);
        assert_eq!(g.shape(), (5, 4));
        assert_eq!(g[(0, 0)], 1.0);
        assert_eq!(g[(0, 2)], 0.0); // off-block zero
        assert_eq!(g[(2, 2)], 2.0);
        assert_eq!(g[(2, 0)], 0.0);
    }

    #[test]
    fn mul_dense_shape_error() {
        let bd = BlockDiag::new(vec![Mat::identity(2)]).unwrap();
        assert!(bd.mul_dense(&Mat::zeros(3, 1)).is_err());
    }
}
