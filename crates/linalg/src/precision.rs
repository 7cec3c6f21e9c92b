//! The vestigial storage-precision tag.
//!
//! Every kernel in the workspace stores and accumulates in `f64`; there
//! is no other mode. [`Precision`] survives only as a one-variant enum
//! because two things outside the library still name it: the benchmark
//! harness's replay (`perfbench/`) sets `EngineConfig::precision` and
//! calls the precision-taking pNN Laplacian forward in `rhchme::intra`,
//! and persisted v1/v2 model bundles embed the `RhchmeConfig` JSON with
//! a `"precision":"F64"` field. A later benchmark change that updates
//! the replay removes it.

/// Storage precision of the hot kernel operands: always `f64`.
///
/// Kept (one variant, serde-derived) only so the benchmark replay keeps
/// compiling and existing bundles keep loading; nothing reads it. A
/// bundle naming any other precision fails to deserialise.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, serde::Serialize, serde::Deserialize)]
pub enum Precision {
    /// Double-precision storage and accumulation.
    #[default]
    F64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize, Value};

    #[test]
    fn serde_pins_the_single_variant() {
        let p = Precision::default();
        assert_eq!(p.to_value(), Value::String("F64".into()));
        assert_eq!(Precision::from_value(&p.to_value()).unwrap(), p);
        assert!(Precision::from_value(&Value::String("F32".into())).is_err());
    }
}
