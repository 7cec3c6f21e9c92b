//! CI recall gate for the approximate-NN backend.
//!
//! ```text
//! recall_gate <out.json> [--baseline <committed.json>]
//! ```
//!
//! Measures sampled recall@p ([`mtrl_ann::sampled_recall`]) of the RP
//! forest on the fixed probe set below and writes a
//! provenance-stamped summary (same meta header as `QUALITY_quick.json`
//! / the `BENCH_*.json` baselines). With `--baseline`, the fresh
//! numbers are additionally gated against the committed file: entry
//! sets and provenance must match, and every measured recall must meet
//! the committed `floor` — an index change that silently trades recall
//! for speed fails CI instead of degrading clustering quality.
//!
//! The measurement is deterministic (seeded sample, thread-invariant
//! kernels), so the gate is stable: a failure is a code change, not a
//! noisy runner.

use mtrl_ann::{sampled_recall, GraphBackend, RecallProbe, RpForestParams};
use mtrl_eval::report::{
    append_step_summary, check_entry_sets, check_meta, json_string, load_summary, markdown_table,
    ReportMeta,
};
use mtrl_linalg::random::rand_uniform;
use mtrl_linalg::Mat;
use serde::Value;
use std::process::ExitCode;

/// Schema tag of recall summaries.
const RECALL_SCHEMA: &str = "mtrl-recall-summary/v1";

/// Minimum acceptable recall@p on the probe set, written into fresh
/// summaries; compare mode enforces the *baseline's* floor so the
/// committed file governs.
const RECALL_FLOOR: f64 = 0.95;

/// The fixed probe set: `(entry name, n, d, p, backend)`. Sizes span
/// the regimes the eval matrix and stream subsystem run the backend
/// at; data is seeded independently of `MTRL_SEED` so the committed
/// floor means the same thing on every run (mirroring the quality
/// matrix's fixed scenario seeds).
fn probe_set() -> Vec<(String, usize, usize, usize, GraphBackend)> {
    let forest = GraphBackend::RpForest(RpForestParams::default());
    [(2000usize, 32usize, 5usize), (20_000, 32, 5)]
        .into_iter()
        .map(|(n, d, p)| (format!("{}/n{n}_d{d}_p{p}", forest.key()), n, d, p, forest))
        .collect()
}

/// Deterministic clustered probe data: `k` centroids plus per-row
/// jitter whose scale decays geometrically across dimensions, so the
/// rows lie near a low-dimensional manifold. The layer indexes
/// *feature matrices of clustered corpora* — spectral-style embeddings
/// whose variance concentrates in the leading dimensions (the paper's
/// manifold assumption, and the reason a p-NN graph is informative at
/// all) — so the probe mirrors that geometry. Isotropic i.i.d. data,
/// where pairwise distances concentrate and "nearest" is noise, is
/// deliberately not the yardstick.
fn clustered(n: usize, d: usize, k: usize, seed: u64) -> Mat {
    let decay: Vec<f64> = (0..d).map(|j| 0.75f64.powi(j as i32)).collect();
    let centroids = rand_uniform(k, d, 0.0, 1.0, seed);
    let jitter = rand_uniform(n, d, -0.15, 0.15, seed ^ 0x9E37_79B9);
    let rows: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let c = centroids.row(i % k);
            jitter
                .row(i)
                .iter()
                .zip(c)
                .zip(&decay)
                .map(|((j, ci), s)| (ci + j) * s)
                .collect()
        })
        .collect();
    Mat::from_rows(&rows).expect("rectangular probe data")
}

fn to_json(meta: &ReportMeta, results: &[(String, f64)]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json_string(RECALL_SCHEMA)));
    out.push_str(&format!("  \"meta\": {{ {} }},\n", meta.json_fields()));
    out.push_str(&format!("  \"floor\": {RECALL_FLOOR},\n"));
    out.push_str("  \"results\": {\n");
    let entries: Vec<String> = results
        .iter()
        .map(|(k, v)| format!("    {}: {v:.6}", json_string(k)))
        .collect();
    out.push_str(&entries.join(",\n"));
    out.push_str("\n  }\n}\n");
    out
}

fn gate(baseline_path: &str, current: &Value, results: &[(String, f64)]) -> Result<(), String> {
    let base = load_summary(baseline_path)?;
    if base.get("schema").and_then(Value::as_str) != Some(RECALL_SCHEMA) {
        return Err(format!("{baseline_path} is not a {RECALL_SCHEMA} summary"));
    }
    for w in check_meta(&base, current)? {
        println!("warn: {w}");
    }
    let floor = base
        .get("floor")
        .and_then(Value::as_f64)
        .ok_or_else(|| format!("{baseline_path} has no numeric `floor`"))?;
    let base_keys: Vec<String> = base
        .get("results")
        .and_then(|r| match r {
            Value::Object(entries) => Some(entries.iter().map(|(k, _)| k.clone()).collect()),
            _ => None,
        })
        .ok_or_else(|| format!("{baseline_path} has no `results` object"))?;
    let current_keys: Vec<String> = results.iter().map(|(k, _)| k.clone()).collect();
    check_entry_sets(&base_keys, &current_keys)?;

    let mut failures = Vec::new();
    let mut rows = Vec::new();
    for (name, recall) in results {
        let verdict = if *recall >= floor { "ok" } else { "FAIL" };
        rows.push(vec![
            name.clone(),
            format!("{recall:.4}"),
            format!("{floor:.2}"),
            verdict.to_string(),
        ]);
        if *recall < floor {
            failures.push(format!(
                "{name}: recall@p {recall:.4} is below the committed floor {floor:.2}"
            ));
        }
    }
    let table = markdown_table(&["probe", "recall@p", "floor", "verdict"], &rows);
    append_step_summary(&format!("### Recall gate\n\n{table}"));
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = None;
    let mut baseline = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--baseline" {
            let Some(v) = it.next() else {
                eprintln!("--baseline needs a path argument");
                return ExitCode::FAILURE;
            };
            baseline = Some(v.clone());
        } else if out_path.is_none() {
            out_path = Some(a.clone());
        } else {
            eprintln!("usage: recall_gate <out.json> [--baseline <committed.json>]");
            return ExitCode::FAILURE;
        }
    }
    let Some(out_path) = out_path else {
        eprintln!("usage: recall_gate <out.json> [--baseline <committed.json>]");
        return ExitCode::FAILURE;
    };

    let probe = RecallProbe::default();
    let threads = mtrl_linalg::par::num_threads();
    let mut results = Vec::new();
    for (name, n, d, p, backend) in probe_set() {
        let data = clustered(n, d, 20, 31);
        let r = sampled_recall(&data, p, &backend, &probe, threads);
        println!(
            "{name}: recall@{p} {:.4} over {} samples",
            r.recall_at_p, r.samples
        );
        results.push((name, r.recall_at_p));
    }

    let meta = ReportMeta::stamp(true, &[]);
    let json = to_json(&meta, &results);
    let path = std::path::Path::new(&out_path);
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!(
        "[recall summary written to {out_path} — sha {}]",
        meta.git_sha
    );

    if let Some(baseline_path) = baseline {
        let current: Value = match serde_json::from_str(&json) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("internal error: fresh summary does not reparse: {e}");
                return ExitCode::FAILURE;
            }
        };
        match gate(&baseline_path, &current, &results) {
            Ok(()) => println!("recall gate passed (floor from {baseline_path})"),
            Err(e) => {
                eprintln!("recall gate FAILED:\n{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
