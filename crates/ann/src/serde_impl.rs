//! Serde support for [`GraphBackend`].
//!
//! Hand-written because the variants carry data, which the vendored
//! derive does not cover. `Exact` serializes as the string `"Exact"`;
//! the parameterised backend as `{"kind": ..., <fields>}` with the
//! fields inlined, mirroring `mtrl_graph`'s `WeightScheme` convention.

use crate::config::{GraphBackend, RpForestParams};
use serde::{Deserialize, Error, Serialize, Value};

impl Serialize for GraphBackend {
    fn to_value(&self) -> Value {
        match self {
            GraphBackend::Exact => Value::String("Exact".into()),
            GraphBackend::RpForest(p) => Value::Object(vec![
                ("kind".to_string(), Value::String("RpForest".into())),
                ("trees".to_string(), p.trees.to_value()),
                ("leaf_size".to_string(), p.leaf_size.to_value()),
                ("probes".to_string(), p.probes.to_value()),
                ("seed".to_string(), p.seed.to_value()),
            ]),
        }
    }
}

impl Deserialize for GraphBackend {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::String(s) => match s.as_str() {
                "Exact" => Ok(GraphBackend::Exact),
                other => Err(Error(format!("unknown GraphBackend `{other}`"))),
            },
            Value::Object(_) => {
                let kind = v
                    .get_field("kind")?
                    .as_str()
                    .unwrap_or_default()
                    .to_string();
                match kind.as_str() {
                    "RpForest" => Ok(GraphBackend::RpForest(RpForestParams {
                        trees: usize::from_value(v.get_field("trees")?)?,
                        leaf_size: usize::from_value(v.get_field("leaf_size")?)?,
                        probes: usize::from_value(v.get_field("probes")?)?,
                        seed: u64::from_value(v.get_field("seed")?)?,
                    })),
                    other => Err(Error(format!("unknown GraphBackend kind `{other}`"))),
                }
            }
            other => Err(Error(format!(
                "expected a GraphBackend string or object, found {}",
                other.kind()
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_round_trip() {
        for backend in [
            GraphBackend::Exact,
            GraphBackend::RpForest(RpForestParams {
                trees: 3,
                leaf_size: 17,
                probes: 5,
                seed: 99,
            }),
        ] {
            let back = GraphBackend::from_value(&backend.to_value()).unwrap();
            assert_eq!(back, backend);
        }
    }

    #[test]
    fn unknown_rejected() {
        assert!(GraphBackend::from_value(&Value::String("Nope".into())).is_err());
        assert!(GraphBackend::from_value(&Value::Number(1.0)).is_err());
        let bad = Value::Object(vec![(
            "kind".to_string(),
            Value::String("Hnsw".to_string()),
        )]);
        assert!(GraphBackend::from_value(&bad).is_err());
    }
}
