//! `mtrl-obs`: the observability layer for the RHCHME stack.
//!
//! A std-only dependency leaf (no workspace crates, no vendored shims)
//! that every subsystem links: the engine, graph builder, serve engine,
//! and stream session all report into one process-global [`Registry`]
//! of counters, gauges, log-bucketed latency [`hist::Histogram`]s,
//! scoped [`span::Span`]s, per-fit [`fit::FitTelemetry`], and stream
//! [`fit::StreamEvent`]s. Two exporters read it back out:
//! [`export::manifest_json`] (a versioned JSON run manifest with the
//! same provenance meta header as the committed `QUALITY_*.json` /
//! `BENCH_*.json` baselines) and [`export::prometheus_text`].
//!
//! # The `MTRL_OBS` knob
//!
//! Instrumentation is gated on [`enabled`], driven by the `MTRL_OBS`
//! environment variable: unset, empty, `0`, `false`, or `off` disable
//! it; anything else enables it. The decision is cached in one atomic,
//! so the disabled fast path in hot loops is a single relaxed load —
//! no clock reads, no allocation, no locks. [`force_enable`] /
//! [`force_disable`] override the environment at runtime (used by
//! `obs_report`, `quality_report --timings`, and tests).
//!
//! # The no-perturbation contract
//!
//! Instrumentation only *reads* engine state and the monotonic clock;
//! it never participates in floating-point computation. Fits are
//! therefore byte-identical with observability on or off — CI pins
//! this by diffing `determinism_probe` dumps with `MTRL_OBS=1` against
//! the uninstrumented baseline.

#![forbid(unsafe_code)]

pub mod export;
pub mod fit;
pub mod hist;
pub mod registry;
pub mod span;

pub use fit::{FitTelemetry, IterTelemetry, StreamEvent};
pub use hist::{Histogram, HistogramSnapshot};
pub use registry::{Registry, SpanStats};
pub use span::Span;

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

const STATE_UNKNOWN: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNKNOWN);

fn init_from_env() -> bool {
    let on = match std::env::var("MTRL_OBS") {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "" | "0" | "false" | "off"),
        Err(_) => false,
    };
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Whether instrumentation is live. The common (cached) case is one
/// relaxed atomic load; the first call reads `MTRL_OBS`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

/// Turn instrumentation on, overriding `MTRL_OBS`.
pub fn force_enable() {
    STATE.store(STATE_ON, Ordering::Relaxed);
}

/// Turn instrumentation off, overriding `MTRL_OBS`.
pub fn force_disable() {
    STATE.store(STATE_OFF, Ordering::Relaxed);
}

/// The process-global registry all instrumentation reports into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Open a scoped span: `let _s = span!("graph.pnn_build");` times the
/// enclosing scope and records it (under the slash-joined path of all
/// open spans on this thread) when the guard drops. Near-zero cost when
/// [`enabled`] is false.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span::Span::enter($name)
    };
}

/// Serialise tests that flip the global enable state or read the global
/// registry — the test harness runs them in parallel otherwise.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn force_toggles_override_env() {
        let _guard = test_lock();
        force_enable();
        assert!(enabled());
        force_disable();
        assert!(!enabled());
        force_enable();
        assert!(enabled());
    }

    #[test]
    fn global_registry_is_shared() {
        let _guard = test_lock();
        global().reset();
        global().add("lib.test", 2);
        let snap = global().counters_snapshot();
        assert!(snap.contains(&("lib.test".to_string(), 2)));
        global().reset();
    }
}
