//! ANN↔exact equivalence properties.
//!
//! At exhaustive settings — the RP forest probing every leaf — the
//! candidate set covers the whole corpus, and because distances and
//! selection go through the exact kernel's primitives the neighbour
//! lists (and the assembled graph) must reproduce the exact `pnn_graph`
//! path **bit for bit**, for every thread count 1–4.

use mtrl_ann::{knn_indices_backend, pnn_graph_backend, GraphBackend, RpForestParams};
use mtrl_graph::knn::{knn_indices_with_threads, pnn_graph_with_threads, WeightScheme};
use mtrl_linalg::random::{rand_normal, rand_uniform};
use proptest::prelude::*;

fn exhaustive_forest(seed: u64) -> GraphBackend {
    GraphBackend::RpForest(RpForestParams {
        trees: 1 + (seed % 4) as usize,
        leaf_size: 1 + (seed % 13) as usize,
        // Probe count ≥ the leaf count of any tree: exhaustive.
        probes: usize::MAX,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn exhaustive_forest_matches_exact_lists_bitwise(
        seed in any::<u64>(),
        n in 2usize..70,
        d in 1usize..9,
        p in 1usize..8,
    ) {
        let data = rand_uniform(n, d, -1.0, 1.0, seed);
        let exact = knn_indices_with_threads(&data, p, 1);
        let backend = exhaustive_forest(seed);
        for threads in 1..=4 {
            let approx = knn_indices_backend(&data, p, &backend, threads);
            prop_assert_eq!(&approx, &exact, "threads {}", threads);
        }
    }

    #[test]
    fn exhaustive_forest_matches_exact_graph(
        seed in any::<u64>(),
        n in 2usize..50,
        d in 1usize..7,
        p in 1usize..6,
    ) {
        // Clustered data with exact duplicates sprinkled in: the tie
        // cases where a wrong selection order would diverge first.
        let mut base = rand_normal(n, d, 0.0, 1.0, seed);
        if n >= 4 {
            let dup: Vec<f64> = base.row(0).to_vec();
            base.row_mut(n / 2).copy_from_slice(&dup);
        }
        for scheme in [
            WeightScheme::Binary,
            WeightScheme::HeatKernel { sigma: -1.0 },
            WeightScheme::Cosine,
        ] {
            let exact = pnn_graph_with_threads(&base, p, scheme, 1);
            let approx = pnn_graph_backend(&base, p, scheme, &exhaustive_forest(seed ^ 0xABCD));
            prop_assert_eq!(&approx, &exact, "{:?}", scheme);
        }
    }

    #[test]
    fn non_exhaustive_lists_are_valid_and_thread_invariant(
        seed in any::<u64>(),
        n in 8usize..80,
        p in 1usize..6,
    ) {
        let data = rand_uniform(n, 5, -1.0, 1.0, seed);
        let backend =
            GraphBackend::RpForest(RpForestParams { trees: 2, leaf_size: 4, probes: 1, seed });
        let lists = knn_indices_backend(&data, p, &backend, 1);
        prop_assert_eq!(lists.len(), n);
        for (i, list) in lists.iter().enumerate() {
            prop_assert!(list.len() <= p);
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "unsorted list {}", i);
            prop_assert!(!list.contains(&i), "self-neighbour {}", i);
            prop_assert!(list.iter().all(|&j| j < n));
        }
        for threads in 2..=4 {
            prop_assert_eq!(
                &knn_indices_backend(&data, p, &backend, threads), &lists,
                "threads {}", threads
            );
        }
    }
}

#[test]
fn smoke_duplicate_row_equivalence() {
    let mut data = rand_uniform(12, 3, -1.0, 1.0, 99);
    let dup: Vec<f64> = data.row(1).to_vec();
    data.row_mut(7).copy_from_slice(&dup);
    let exact = knn_indices_with_threads(&data, 3, 1);
    assert_eq!(
        knn_indices_backend(&data, 3, &exhaustive_forest(99), 2),
        exact
    );
}
