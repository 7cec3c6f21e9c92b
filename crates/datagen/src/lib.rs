//! # mtrl-datagen
//!
//! Synthetic workloads for the RHCHME reproduction.
//!
//! The paper evaluates on subsets of 20Newsgroups and Reuters-21578
//! enriched with Wikipedia concepts (Table II). Those corpora and the
//! Wikipedia mapping pipeline (ref \[12\]) are not available offline, so —
//! per the substitution policy in DESIGN.md §4 — this crate generates
//! *statistically equivalent* multi-type relational data:
//!
//! * [`corpus`] — a latent-topic generator producing the three-type star
//!   structure documents–terms–concepts with tf-idf-style weighting,
//!   background noise and sample-wise corruption;
//! * [`datasets`] — presets mirroring the class structure of D1–D4
//!   (balanced Multi5/Multi10, skewed 25-class R-Min20Max200, large-class
//!   R-Top10) at laptop scale, with a `Paper` scale matching Table II's
//!   raw counts;
//! * [`manifold`] — the Fig. 1 toy geometries (two intersecting circles,
//!   unions of linear subspaces);
//! * [`noise`] — corruption injectors used by the robustness experiments;
//! * [`corruption`] — typed [`CorruptionSpec`] naming a corruption axis
//!   (feature noise / relation corruption / drift) and its level, the
//!   knob the `mtrl-eval` scenario matrix and the examples share;
//! * [`split`] — train / held-out document splitting for out-of-sample
//!   serving experiments;
//! * [`stream`] — timestamped document batches from the same latent
//!   model as the initial corpus, with optional concept drift
//!   (anchor-window rotation), for the `mtrl-stream` subsystem.
//!
//! Everything is seeded and deterministic. The `MTRL_SEED` environment
//! variable (see [`seed_from_env`]) shifts every seeded experiment so CI
//! can exercise more than one RNG stream per push.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod corruption;
pub mod datasets;
pub mod manifold;
pub mod noise;
pub mod split;
pub mod stream;

pub use corpus::{CorpusConfig, MultiTypeCorpus};
pub use corruption::{CorruptionKind, CorruptionSpec};
pub use datasets::{DatasetId, Scale};
pub use manifold::{two_circles, union_of_subspaces};
pub use split::{split_corpus, HeldOutDoc};
pub use stream::{append_batch, generate_stream, StreamBatch, StreamConfig};

/// Base seed from the `MTRL_SEED` environment variable, or `default`
/// when unset/unparseable. Integration tests add this to their fixed
/// per-test seeds, so the CI seed matrix (`MTRL_SEED=7,42`) runs the
/// whole tier-1 suite on genuinely different corpus realisations while
/// local `cargo test` keeps the historical streams.
pub fn seed_from_env(default: u64) -> u64 {
    std::env::var("MTRL_SEED")
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(default)
}
