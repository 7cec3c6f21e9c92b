//! # mtrl-stream
//!
//! The streaming subsystem of the RHCHME reproduction: keep a fitted
//! model fresh while objects arrive continuously, without choosing
//! between "never update" (pure fold-in serving) and "rebuild
//! everything" (cold refit).
//!
//! Three layers, bottom up:
//!
//! * [`dynamic`] — [`DynamicGraph`]: incremental pNN maintenance.
//!   Inserting a batch costs `O(b · n · d)` blocked-Gram work (the new
//!   rows against the corpus) plus reverse-edge patches, instead of the
//!   `O(n² d)` batch rebuild; tombstone deletion with exact repair; a
//!   rebuild-threshold policy guards heavily rewritten graphs.
//! * [`warm`] — [`warm_membership`]: seed the next fit's `G₀` from the
//!   previous [`mtrl_serve::FittedModel`] (survivor rows copied, new
//!   rows from fold-in posteriors), consumed by
//!   [`rhchme::Rhchme::fit_warm`]'s capped-iteration refresh.
//! * [`session`] — [`StreamSession`]: per-batch fold-in, corpus
//!   accumulation, a refresh policy (cadence and/or drift-triggered via
//!   fold-in confidence), and atomic hot-swap of each refreshed model
//!   into a live [`mtrl_serve::ServeEngine`].
//!
//! ```
//! use mtrl_datagen::stream::{generate_stream, StreamConfig};
//! use mtrl_datagen::CorpusConfig;
//! use mtrl_stream::{RefreshPolicy, StreamSession};
//! use rhchme::{Rhchme, RhchmeConfig};
//!
//! let (initial, batches) = generate_stream(&StreamConfig {
//!     base: CorpusConfig {
//!         docs_per_class: vec![8, 8],
//!         vocab_size: 48,
//!         concept_count: 12,
//!         doc_len_range: (25, 40),
//!         background_frac: 0.25,
//!         topic_noise: 0.2,
//!         concept_map_noise: 0.1,
//!         corrupt_frac: 0.0,
//!         subtopics_per_class: 1,
//!         view_confusion: 0.0,
//!         seed: 7,
//!     },
//!     batches: 2,
//!     docs_per_batch: 4,
//!     drift_after: None,
//!     drift_shift: 0.0,
//! });
//! let rhchme = Rhchme::new(RhchmeConfig { lambda: 1.0, ..RhchmeConfig::fast() });
//! let mut session = StreamSession::new(initial, rhchme, RefreshPolicy {
//!     every_batches: Some(2),
//!     min_confidence: None,
//!     drift_cooldown: 0,
//!     warm_iters: 5,
//!     refresh_subspace: false,
//!     reseed_confidence: None,
//! }).unwrap();
//! let first = session.push_batch(&batches[0]).unwrap();
//! assert_eq!(first.labels.len(), 4);
//! assert!(first.refit.is_none());
//! let second = session.push_batch(&batches[1]).unwrap();
//! assert!(second.refit.is_some()); // cadence refresh, warm-started
//! ```

#![forbid(unsafe_code)]

pub mod dynamic;
pub mod error;
pub mod session;
pub mod warm;

pub use dynamic::{DynamicGraph, DynamicGraphConfig, InsertReport};
pub use error::StreamError;
pub use session::{
    BatchTelemetry, PushReport, RefitReport, RefitTrigger, RefreshDecision, RefreshPolicy,
    SessionTelemetry, StreamSession,
};
pub use warm::{grown_survivors, warm_membership, warm_membership_opts, SurvivorMap, WarmOptions};

/// Result alias for this crate.
pub type Result<T> = std::result::Result<T, StreamError>;
