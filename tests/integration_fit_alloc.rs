//! Allocation-shape assertion over the whole fit path: a cold
//! `fit_corpus` and a streaming refit that relearns the subspace member
//! (`refresh_subspace: true`) never allocate an `n_docs x n_docs` dense
//! matrix — not in SPG, not in the Laplacians, not in the engine.
//!
//! `mtrl_linalg::mat::alloc_peak` records the largest single dense
//! allocation process-wide, so this test lives alone in its own binary
//! and runs both phases inside one `#[test]`: a concurrently running
//! test could reset or pollute the high-water mark.
//!
//! The geometry makes `n_docs²` exceed every legitimate dense buffer:
//! each type's feature view is `n_k x D_k` with `D_k` the other types'
//! sizes summed, and `n_docs > n_terms + n_concepts` puts all of them
//! below `n_docs²`. A dense `n x n` affinity (or Gram matrix `XXᵀ`) for
//! the documents would reach it.

use mtrl_linalg::mat::alloc_peak;
use mtrl_stream::{RefreshPolicy, StreamSession};
use rhchme_repro::prelude::*;

fn base_config() -> CorpusConfig {
    CorpusConfig {
        docs_per_class: vec![80, 80],
        vocab_size: 60,
        concept_count: 20,
        doc_len_range: (25, 40),
        background_frac: 0.3,
        topic_noise: 0.3,
        concept_map_noise: 0.15,
        corrupt_frac: 0.05,
        subtopics_per_class: 1,
        view_confusion: 0.0,
        seed: 73 ^ mtrl_datagen::seed_from_env(0),
    }
}

/// Every feature view of `corpus` as `(n_k, D_k)`.
fn view_shapes(corpus: &MultiTypeCorpus) -> [(usize, usize); 3] {
    let (d, t, c) = (corpus.num_docs(), corpus.num_terms(), corpus.num_concepts());
    [(d, t + c), (t, d + c), (c, d + t)]
}

#[test]
fn fit_and_subspace_refit_allocate_no_ndocs_squared_dense() {
    let (initial, batches) = mtrl_datagen::stream::generate_stream(&mtrl_datagen::StreamConfig {
        base: base_config(),
        batches: 2,
        docs_per_batch: 10,
        drift_after: None,
        drift_shift: 0.0,
    });
    let n_docs = initial.num_docs();
    let bound = n_docs * n_docs;
    for (n_k, d_k) in view_shapes(&initial) {
        assert!(
            n_k * d_k < bound,
            "test geometry: a {n_k}x{d_k} feature view reaches n_docs² = {bound}"
        );
    }
    let rhchme = Rhchme::new(RhchmeConfig {
        lambda: 1.0,
        ..RhchmeConfig::fast()
    });

    // --- Cold fit: candidates, SPG, pNN, k-means init, engine.
    alloc_peak::reset();
    let res = rhchme.fit_corpus(&initial).expect("fit");
    let fit_peak = alloc_peak::peak_elems();
    assert_eq!(res.doc_labels.len(), n_docs);
    assert!(
        fit_peak < bound,
        "fit_corpus allocated a {fit_peak}-element dense matrix; n_docs² = {bound}"
    );
    // The tracker is live on this path: the document feature view is
    // itself a dense allocation.
    assert!(fit_peak >= view_shapes(&initial)[0].0 * view_shapes(&initial)[0].1);

    // --- Streaming refits with the subspace member relearned each time.
    let mut session = StreamSession::new(
        initial,
        rhchme,
        RefreshPolicy {
            every_batches: Some(1),
            min_confidence: None,
            drift_cooldown: 0,
            warm_iters: 5,
            refresh_subspace: true,
            reseed_confidence: None,
        },
    )
    .expect("session");
    alloc_peak::reset();
    let mut refits = 0;
    for batch in &batches {
        if session.push_batch(batch).expect("push").refit.is_some() {
            refits += 1;
        }
    }
    let refit_peak = alloc_peak::peak_elems();
    assert_eq!(refits, batches.len(), "every batch refits");
    for (n_k, d_k) in view_shapes(session.corpus()) {
        assert!(n_k * d_k < bound, "grown view {n_k}x{d_k} reaches {bound}");
    }
    assert!(
        refit_peak < bound,
        "stream refit with refresh_subspace allocated a {refit_peak}-element \
         dense matrix; n_docs² = {bound}"
    );
}
