//! # mtrl-serve
//!
//! The serving subsystem of the RHCHME reproduction: fit once with
//! `rhchme`, then answer "which cluster does this unseen document belong
//! to?" at request rates — without re-running Algorithm 2.
//!
//! Three layers:
//!
//! * [`persist`] — versioned on-disk bundles around
//!   [`rhchme::FittedModel`]: the v1 JSON envelope ([`persist::save`] /
//!   [`persist::load`], bit-exact `f64` round-trips) and the v2 binary
//!   format ([`persist::save_binary`] / [`persist::load_binary`],
//!   length-prefixed LE sections + FNV digest, ≥10× faster loads for
//!   fleet restarts), with [`persist::load_any`] sniffing either;
//! * [`assign`] — the fold-in predictor: [`Assigner`] maps a sparse
//!   feature vector of any object type to a posterior over that type's
//!   clusters via cosine similarity against the learned centroids
//!   (soft co-association scores, not just a hard label), batched;
//! * [`engine`] — [`ServeEngine`]: a named-model registry plus an
//!   std-only worker pool draining [`AssignRequest`] batches from an
//!   mpsc queue, with latency histograms, optional bounded-queue
//!   admission control, and per-request deadlines.
//!
//! The [`AssignRequest`] builder and the [`ServeError`] taxonomy are
//! shared verbatim with the network front end (`mtrl-gateway`): one
//! request shape and one failure taxonomy whether a caller is
//! in-process or on the wire (see the [`error`] module docs for the
//! 1:1 HTTP status mapping).
//!
//! ```
//! use mtrl_datagen::{corpus::generate, split_corpus, CorpusConfig};
//! use mtrl_serve::{Assigner, ServeEngine, SparseVec};
//! use rhchme::{Rhchme, RhchmeConfig};
//!
//! // Fit on the training side of a split corpus.
//! let corpus = generate(&CorpusConfig {
//!     docs_per_class: vec![10, 10],
//!     vocab_size: 60,
//!     concept_count: 15,
//!     doc_len_range: (25, 40),
//!     background_frac: 0.25,
//!     topic_noise: 0.2,
//!     concept_map_noise: 0.1,
//!     corrupt_frac: 0.0,
//!     subtopics_per_class: 1,
//!     view_confusion: 0.0,
//!     seed: 7,
//! });
//! let (train, heldout) = split_corpus(&corpus, 0.2, 7);
//! let rhchme = Rhchme::new(RhchmeConfig { lambda: 1.0, ..RhchmeConfig::fast() });
//! let result = rhchme.fit_corpus(&train).unwrap();
//! let model = rhchme.export_model(&result, &train).unwrap();
//!
//! // Serve the held-out documents.
//! let engine = ServeEngine::new(2);
//! engine.register("demo", model).unwrap();
//! let docs: Vec<SparseVec> = heldout
//!     .iter()
//!     .map(|d| SparseVec::new(d.indices.clone(), d.values.clone()).unwrap())
//!     .collect();
//! let response = engine.assign("demo", 0, docs).unwrap();
//! assert_eq!(response.labels.len(), heldout.len());
//! ```

#![forbid(unsafe_code)]

pub mod assign;
pub mod engine;
pub mod error;
pub mod persist;

pub use assign::{Assigner, SparseVec};
pub use engine::{AssignRequest, AssignResponse, PendingAssign, ServeEngine, StatsSnapshot};
pub use error::ServeError;
pub use persist::{load, load_any, load_binary, save, save_binary, BINARY_MAGIC, FORMAT_MARKER};
pub use rhchme::export::{FittedModel, SCHEMA_VERSION};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
pub(crate) mod test_support {
    use rhchme::export::FittedModel;
    use rhchme::rhchme::{Rhchme, RhchmeConfig};

    /// Fit RHCHME on a small clean corpus and export the model.
    pub fn tiny_fitted_model(seed: u64) -> FittedModel {
        let corpus = mtrl_datagen::corpus::generate(&mtrl_datagen::CorpusConfig {
            docs_per_class: vec![8, 8, 8],
            vocab_size: 60,
            concept_count: 15,
            doc_len_range: (30, 45),
            background_frac: 0.25,
            topic_noise: 0.25,
            concept_map_noise: 0.1,
            corrupt_frac: 0.0,
            subtopics_per_class: 1,
            view_confusion: 0.0,
            seed,
        });
        let model = Rhchme::new(RhchmeConfig {
            lambda: 1.0,
            ..RhchmeConfig::fast()
        });
        let result = model.fit_corpus(&corpus).unwrap();
        model.export_model(&result, &corpus).unwrap()
    }
}
