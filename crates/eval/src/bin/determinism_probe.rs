//! Byte-exact fit dump for the CI determinism leg.
//!
//! ```text
//! determinism_probe <out_file> [--ann] [--ensemble]
//! ```
//!
//! Runs one full RHCHME fit (corpus seeded from `MTRL_SEED`, quick
//! evaluation parameters) and writes every float of the result — `G`,
//! `S`, the objective trace — plus all labels as little-endian bytes.
//! CI runs it twice, under `MTRL_NUM_THREADS=1` and `=4`, and `cmp`s
//! the two files: the parallel kernels' determinism contract (bit-equal
//! results for every thread count) is enforced on a whole fit, not just
//! per-kernel unit tests.
//!
//! `--ann` swaps the graph stage to the RP-forest approximate backend
//! (default parameters), extending the same contract to the ANN layer:
//! index build, descent, and candidate re-ranking must also be
//! thread-count invariant end to end.
//!
//! `--ensemble` runs a full consensus-ensemble fit instead (default
//! `EnsembleSpec`: member generation, sparse co-association build,
//! probability-trajectory merge, closed-form `S`), extending the
//! byte-identical contract to every ensemble stage — the co-association
//! rows are built with the same order-splicing parallel primitive as the
//! kernels, so thread count must not move a single bit.
//!
//! Any other argument starting with `--` is rejected with the usage
//! message (exit 1), so a mistyped or retired flag can never be taken
//! for the output path.

use mtrl_datagen::{seed_from_env, CorruptionSpec};
use mtrl_eval::{quick_params, CorpusShape};
use rhchme::pipeline::EnsembleSpec;
use rhchme::rhchme::Rhchme;
use std::process::ExitCode;

const USAGE: &str = "usage: determinism_probe <out_file> [--ann] [--ensemble]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut ann = false;
    let mut ensemble = false;
    for a in &args {
        match a.as_str() {
            "--ann" => ann = true,
            "--ensemble" => ensemble = true,
            _ if out_path.is_none() && !a.starts_with("--") => out_path = Some(a.clone()),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(out_path) = out_path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let out_path = &out_path;
    let seed = seed_from_env(2015);
    let corpus =
        CorruptionSpec::relation_corruption(0.1).corpus(&CorpusShape::Balanced3.config(), seed);
    let mut params = quick_params(seed);
    if ann {
        params.graph_backend = rhchme::GraphBackend::RpForest(mtrl_ann::RpForestParams::default());
    }
    // Every probe mode dumps the same shape: labels, G, S, a trace.
    let (doc_labels, labels_per_type, g, s, trace, iterations) = if ensemble {
        match mtrl_ensemble::fit_corpus(&corpus, &EnsembleSpec::default(), &params) {
            Ok(r) => {
                let trace: Vec<f64> = r.members.iter().map(|m| m.final_objective).collect();
                let n = r.members.len();
                (r.doc_labels, r.labels_per_type, r.g, r.s, trace, n)
            }
            Err(e) => {
                eprintln!("ensemble fit failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let rhchme = Rhchme::new(params.rhchme_config());
        match rhchme.fit_corpus(&corpus) {
            Ok(r) => (
                r.doc_labels,
                r.labels_per_type,
                r.g,
                r.s,
                r.objective_trace,
                r.iterations,
            ),
            Err(e) => {
                eprintln!("fit failed: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    let mut bytes: Vec<u8> = Vec::new();
    bytes.extend_from_slice(b"mtrl-determinism-probe/v1\n");
    bytes.extend_from_slice(&(seed).to_le_bytes());
    for labels in std::iter::once(&doc_labels).chain(labels_per_type.iter()) {
        bytes.extend_from_slice(&(labels.len() as u64).to_le_bytes());
        for &l in labels {
            bytes.extend_from_slice(&(l as u64).to_le_bytes());
        }
    }
    for m in [&g, &s] {
        bytes.extend_from_slice(&(m.rows() as u64).to_le_bytes());
        bytes.extend_from_slice(&(m.cols() as u64).to_le_bytes());
        for v in m.as_slice() {
            bytes.extend_from_slice(&v.to_le_bytes());
        }
    }
    bytes.extend_from_slice(&(trace.len() as u64).to_le_bytes());
    for v in &trace {
        bytes.extend_from_slice(&v.to_le_bytes());
    }

    if let Err(e) = std::fs::write(out_path, &bytes) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    // FNV-1a for a one-line log fingerprint.
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in &bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    println!(
        "seed {seed}, threads {}: {} bytes, fnv1a {hash:016x}, {} iterations -> {out_path}",
        mtrl_linalg::par::num_threads(),
        bytes.len(),
        iterations
    );
    ExitCode::SUCCESS
}
