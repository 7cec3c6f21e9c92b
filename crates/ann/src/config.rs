//! Backend selection for p-nearest-neighbour graph construction.
//!
//! [`GraphBackend`] is the one config enum the rest of the system
//! threads through: `rhchme`'s `RhchmeConfig`, the pipeline params, the
//! eval runner and `mtrl-stream`'s `DynamicGraphConfig` all carry it, so
//! switching a fit from the exact O(n²) kernel to an approximate index
//! is a configuration change, never a new call site.

/// Random-projection tree forest parameters.
///
/// Each of `trees` trees recursively splits the data at the median of a
/// random projection until nodes hold at most `leaf_size` rows. A query
/// descends each tree best-first, visiting its `probes` nearest leaves
/// (by accumulated split-margin penalty); the candidate set is the
/// union over trees. `probes` at or above the leaf count of every tree
/// makes the search exhaustive — and therefore bit-identical to the
/// exact kernel (see the crate docs for why).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RpForestParams {
    /// Number of independent trees (more trees → higher recall).
    pub trees: usize,
    /// Maximum rows per leaf (larger leaves → higher recall, slower).
    pub leaf_size: usize,
    /// Leaves visited per tree per query (multi-probe descent).
    pub probes: usize,
    /// Seed for the random projection directions.
    pub seed: u64,
}

impl Default for RpForestParams {
    fn default() -> Self {
        RpForestParams {
            trees: 5,
            leaf_size: 40,
            probes: 2,
            seed: 0x00A7_74EE,
        }
    }
}

/// Which neighbour-search kernel builds the pNN graph.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GraphBackend {
    /// The exact blocked Gram kernel (`mtrl_graph::knn`). O(n²) but
    /// the ground truth every approximate backend is measured against.
    #[default]
    Exact,
    /// Random-projection tree forest with multi-probe descent.
    RpForest(RpForestParams),
}

impl GraphBackend {
    /// Whether this is the exact kernel (no index, no recall loss).
    pub fn is_exact(&self) -> bool {
        matches!(self, GraphBackend::Exact)
    }

    /// Short stable key for report/bench entry names.
    pub fn key(&self) -> &'static str {
        match self {
            GraphBackend::Exact => "exact",
            GraphBackend::RpForest(_) => "rp_forest",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_exact() {
        assert!(GraphBackend::default().is_exact());
        assert!(!GraphBackend::RpForest(RpForestParams::default()).is_exact());
    }

    #[test]
    fn keys_are_distinct() {
        let keys = [
            GraphBackend::Exact.key(),
            GraphBackend::RpForest(RpForestParams::default()).key(),
        ];
        assert_eq!(keys.len(), {
            let mut k = keys.to_vec();
            k.sort_unstable();
            k.dedup();
            k.len()
        });
    }
}
