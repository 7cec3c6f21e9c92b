//! Regression gates: diff a fresh summary against a committed baseline.
//!
//! Two gates share the same contract (meta header pinned, entry sets
//! must match exactly, markdown comparison table for
//! `$GITHUB_STEP_SUMMARY`):
//!
//! * [`quality_gate`] — `QUALITY_*.json` reports; fails when any
//!   scenario's mean FScore or NMI **drops** by more than the tolerance
//!   (absolute points, default 0.02 — "2 points"). ARI is reported but
//!   not gated (it is the noisiest of the three on small corpora).
//!   Improvements never fail.
//! * [`bench_gate`] — `BENCH_*.json` perf summaries; fails when any
//!   shared benchmark's mean **regresses** (slows down) by more than
//!   the relative tolerance (default 25%).
//!
//! Both return a [`GateReport`] with the rendered text/markdown tables
//! and the failure list; the bins print it and exit accordingly.

use crate::report::{check_entry_sets, check_meta, markdown_table, QualityReport, BENCH_SCHEMA};
use serde_json::Value;

/// Default quality tolerance: 2 points of mean FScore/NMI.
pub const QUALITY_TOLERANCE: f64 = 0.02;

/// Default bench tolerance: 25% mean slowdown.
pub const BENCH_TOLERANCE: f64 = 0.25;

/// How far an ensemble cell may sit below the best single-method cell of
/// the same corruption scenario: 0.5 points of mean FScore.
pub const ENSEMBLE_MARGIN: f64 = 0.005;

/// The single-method cells an `…/ensemble` cell is compared against.
const SINGLE_METHOD_CELLS: [&str; 4] = ["src", "snmtf", "rmc", "rhchme"];

/// Outcome of one gate evaluation.
#[derive(Debug, Clone)]
pub struct GateReport {
    /// Plain-text comparison table for the job log.
    pub text: String,
    /// Markdown comparison table for `$GITHUB_STEP_SUMMARY`.
    pub markdown: String,
    /// One line per gated metric that exceeded the tolerance; empty
    /// means the gate passed.
    pub failures: Vec<String>,
    /// Warnings (legacy summaries without meta headers).
    pub warnings: Vec<String>,
}

impl GateReport {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Compare two quality reports.
///
/// # Errors
/// Returns a message (no verdict) on schema/meta/entry-set violations —
/// those are configuration errors, not regressions.
pub fn quality_gate(base: &Value, current: &Value, tolerance: f64) -> Result<GateReport, String> {
    let warnings = check_meta(base, current)?;
    let base = QualityReport::from_value(base).map_err(|e| format!("baseline: {e}"))?;
    let current = QualityReport::from_value(current).map_err(|e| format!("current: {e}"))?;
    let base_keys: Vec<String> = base.scenarios.iter().map(|s| s.name.clone()).collect();
    let cur_keys: Vec<String> = current.scenarios.iter().map(|s| s.name.clone()).collect();
    check_entry_sets(&base_keys, &cur_keys)?;

    let mut failures = Vec::new();
    let mut md_rows = Vec::new();
    let mut text = format!(
        "{:<32}  {:>16}  {:>16}  {:>16}  verdict\n",
        "scenario", "F base→cur", "NMI base→cur", "ARI base→cur"
    );
    for b in &base.scenarios {
        let c = current
            .scenarios
            .iter()
            .find(|c| c.name == b.name)
            .expect("entry sets verified equal");
        let d_f = c.fscore.mean - b.fscore.mean;
        let d_n = c.nmi.mean - b.nmi.mean;
        // An epsilon guard so a drop of *exactly* the tolerance passes
        // ("more than 2 points" fails) despite binary-float rounding of
        // the subtraction.
        let floor = -(tolerance + 1e-9);
        let mut verdict = "ok";
        if d_f < floor {
            failures.push(format!(
                "'{}': mean FScore dropped {:.3} → {:.3} ({:+.3}, tolerance {:.3})",
                b.name, b.fscore.mean, c.fscore.mean, d_f, tolerance
            ));
            verdict = "REGRESSED";
        }
        if d_n < floor {
            failures.push(format!(
                "'{}': mean NMI dropped {:.3} → {:.3} ({:+.3}, tolerance {:.3})",
                b.name, b.nmi.mean, c.nmi.mean, d_n, tolerance
            ));
            verdict = "REGRESSED";
        }
        if verdict == "ok" && (d_f > tolerance || d_n > tolerance) {
            verdict = "improved";
        }
        text.push_str(&format!(
            "{:<32}  {:>7.3}→{:<7.3}  {:>7.3}→{:<7.3}  {:>7.3}→{:<7.3}  {verdict}\n",
            b.name, b.fscore.mean, c.fscore.mean, b.nmi.mean, c.nmi.mean, b.ari.mean, c.ari.mean
        ));
        md_rows.push(vec![
            b.name.clone(),
            format!("{:.3} → {:.3} ({:+.3})", b.fscore.mean, c.fscore.mean, d_f),
            format!("{:.3} → {:.3} ({:+.3})", b.nmi.mean, c.nmi.mean, d_n),
            format!("{:.3} → {:.3}", b.ari.mean, c.ari.mean),
            verdict.to_string(),
        ]);
    }
    // Ensemble cross-cell gate: on every corruption scenario, the
    // consensus ensemble must stay within [`ENSEMBLE_MARGIN`] of the best
    // single-method cell *in the current run* — the ensemble's whole
    // reason to exist is robustness under corruption, so falling behind
    // the methods it aggregates is a regression even when the baseline
    // diff is flat. Clean scenarios are exempt (everything saturates
    // there).
    for c in &current.scenarios {
        let Some(scenario) = c.name.strip_suffix("/ensemble") else {
            continue;
        };
        if scenario == "clean" {
            continue;
        }
        let best = SINGLE_METHOD_CELLS
            .iter()
            .filter_map(|m| {
                let cell = format!("{scenario}/{m}");
                current.scenarios.iter().find(|s| s.name == cell)
            })
            .map(|s| (s.fscore.mean, s.name.as_str()))
            .max_by(|a, b| a.0.total_cmp(&b.0));
        let Some((best_f, best_name)) = best else {
            continue;
        };
        if c.fscore.mean - best_f < -(ENSEMBLE_MARGIN + 1e-9) {
            failures.push(format!(
                "'{}': mean FScore {:.3} is more than {ENSEMBLE_MARGIN:.3} below the best \
                 single-method cell '{best_name}' ({best_f:.3}) — consensus-ensemble regression",
                c.name, c.fscore.mean
            ));
        }
    }
    let markdown = format!(
        "### Quality gate (tolerance {tolerance:.3} mean F/NMI)\n\n{}",
        markdown_table(&["scenario", "FScore", "NMI", "ARI", "verdict"], &md_rows)
    );
    Ok(GateReport {
        text,
        markdown,
        failures,
        warnings,
    })
}

/// Compare two bench summaries.
///
/// # Errors
/// Returns a message (no verdict) on schema/meta/entry-set violations.
pub fn bench_gate(base: &Value, current: &Value, tolerance: f64) -> Result<GateReport, String> {
    for (label, v) in [("baseline", base), ("current", current)] {
        if let Some(schema) = v.get("schema").and_then(Value::as_str) {
            if schema != BENCH_SCHEMA {
                return Err(format!(
                    "{label}: schema mismatch: expected '{BENCH_SCHEMA}', found '{schema}'"
                ));
            }
        }
    }
    let warnings = check_meta(base, current)?;
    let base_results = bench_results(base).map_err(|e| format!("baseline: {e}"))?;
    let cur_results = bench_results(current).map_err(|e| format!("current: {e}"))?;
    let base_keys: Vec<String> = base_results.iter().map(|(n, _)| n.clone()).collect();
    let cur_keys: Vec<String> = cur_results.iter().map(|(n, _)| n.clone()).collect();
    check_entry_sets(&base_keys, &cur_keys)?;

    let width = base_keys.iter().map(|n| n.len()).max().unwrap_or(8).max(8);
    let mut text = format!(
        "{:<width$}  {:>12}  {:>12}  {:>8}\n",
        "bench", "baseline", "current", "ratio"
    );
    let mut failures = Vec::new();
    let mut md_rows = Vec::new();
    for (name, b) in &base_results {
        let c = cur_results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .expect("entry sets verified equal");
        let ratio = c / b;
        let verdict = if ratio > 1.0 + tolerance {
            failures.push(format!(
                "'{name}': mean regressed {b:.1}ns → {c:.1}ns ({ratio:.2}x, tolerance {:.0}%)",
                tolerance * 100.0
            ));
            "REGRESSED"
        } else if ratio < 1.0 - tolerance {
            "improved"
        } else {
            "ok"
        };
        text.push_str(&format!(
            "{name:<width$}  {b:>10.1}ns  {c:>10.1}ns  {ratio:>7.2}x  {verdict}\n"
        ));
        md_rows.push(vec![
            name.clone(),
            format!("{b:.1} ns"),
            format!("{c:.1} ns"),
            format!("{ratio:.2}x"),
            verdict.to_string(),
        ]);
    }
    let markdown = format!(
        "### Bench gate (tolerance {:.0}% mean regression)\n\n{}",
        tolerance * 100.0,
        markdown_table(
            &["bench", "baseline", "current", "ratio", "verdict"],
            &md_rows
        )
    );
    Ok(GateReport {
        text,
        markdown,
        failures,
        warnings,
    })
}

/// `(name, mean_ns)` pairs of a bench summary, in file order.
fn bench_results(root: &Value) -> Result<Vec<(String, f64)>, String> {
    let results = root
        .get("results")
        .ok_or_else(|| "missing 'results' object".to_string())?;
    let Value::Object(pairs) = results else {
        return Err("'results' is not an object".to_string());
    };
    let mut out = Vec::with_capacity(pairs.len());
    for (name, v) in pairs {
        let mean = v
            .as_f64()
            .ok_or_else(|| format!("'{name}' has a non-numeric mean"))?;
        if !mean.is_finite() || mean <= 0.0 {
            return Err(format!("'{name}' has a non-positive mean {mean}"));
        }
        out.push((name.clone(), mean));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{json_string, QUALITY_SCHEMA};

    fn quality_value(entries: &[(&str, f64, f64)]) -> Value {
        // (name, fscore_mean, nmi_mean); sds zero, ari mirrors fscore.
        let mut body = format!(
            "{{\"schema\": {}, \"meta\": {{\"git_sha\": \"t\", \"quick\": true, \
             \"target_features\": \"avx2,fma\", \"seeds\": [1, 2]}}, \"results\": {{",
            json_string(QUALITY_SCHEMA)
        );
        for (i, (name, f, n)) in entries.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!(
                "{}: {{\"fscore_mean\": {f}, \"fscore_sd\": 0.0, \"nmi_mean\": {n}, \
                 \"nmi_sd\": 0.0, \"ari_mean\": {f}, \"ari_sd\": 0.0, \"seeds\": 2}}",
                json_string(name)
            ));
        }
        body.push_str("}}");
        serde_json::from_str(&body).unwrap()
    }

    fn bench_value(entries: &[(&str, f64)]) -> Value {
        let mut body = String::from(
            "{\"schema\": \"mtrl-bench-summary/v1\", \"meta\": {\"git_sha\": \"t\", \
             \"quick\": true, \"target_features\": \"avx2,fma\"}, \"results\": {",
        );
        for (i, (name, mean)) in entries.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            body.push_str(&format!("{}: {mean}", json_string(name)));
        }
        body.push_str("}}");
        serde_json::from_str(&body).unwrap()
    }

    #[test]
    fn quality_gate_passes_on_identical_reports() {
        let v = quality_value(&[("clean/rhchme", 0.9, 0.85)]);
        let r = quality_gate(&v, &v, QUALITY_TOLERANCE).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
        assert!(r.markdown.contains("clean/rhchme"));
    }

    #[test]
    fn quality_gate_fails_on_fscore_drop() {
        let base = quality_value(&[("clean/rhchme", 0.90, 0.85)]);
        let cur = quality_value(&[("clean/rhchme", 0.87, 0.85)]);
        let r = quality_gate(&base, &cur, QUALITY_TOLERANCE).unwrap();
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("FScore"), "{}", r.failures[0]);
        assert!(r.text.contains("REGRESSED"));
    }

    #[test]
    fn quality_gate_fails_on_nmi_drop_alone() {
        let base = quality_value(&[("drift/stream_warm", 0.80, 0.80)]);
        let cur = quality_value(&[("drift/stream_warm", 0.80, 0.75)]);
        let r = quality_gate(&base, &cur, QUALITY_TOLERANCE).unwrap();
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("NMI"));
    }

    #[test]
    fn quality_gate_tolerance_edge_is_inclusive() {
        // A drop of exactly the tolerance passes ("more than 2 points"
        // fails, 2 points exactly does not); epsilon beyond fails.
        let base = quality_value(&[("clean/src", 0.900, 0.900)]);
        let at_edge = quality_value(&[("clean/src", 0.880, 0.900)]);
        let r = quality_gate(&base, &at_edge, 0.02).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
        let beyond = quality_value(&[("clean/src", 0.8799, 0.900)]);
        let r = quality_gate(&base, &beyond, 0.02).unwrap();
        assert!(!r.passed());
    }

    #[test]
    fn quality_gate_improvement_never_fails() {
        let base = quality_value(&[("clean/rmc", 0.70, 0.60)]);
        let cur = quality_value(&[("clean/rmc", 0.95, 0.90)]);
        let r = quality_gate(&base, &cur, QUALITY_TOLERANCE).unwrap();
        assert!(r.passed());
        assert!(r.text.contains("improved"));
    }

    #[test]
    fn quality_gate_pins_ensemble_to_best_single_method_cell() {
        // Ensemble sits more than 0.5 F below the best single cell
        // (rhchme) on a corruption scenario → fail, naming that cell.
        let gapped = quality_value(&[
            ("feature_noise/src", 0.80, 0.70),
            ("feature_noise/rhchme", 0.85, 0.75),
            ("feature_noise/ensemble", 0.84, 0.75),
        ]);
        let r = quality_gate(&gapped, &gapped, QUALITY_TOLERANCE).unwrap();
        assert_eq!(r.failures.len(), 1);
        assert!(
            r.failures[0].contains("consensus-ensemble")
                && r.failures[0].contains("'feature_noise/rhchme'"),
            "{}",
            r.failures[0]
        );
        // Within the margin passes.
        let close = quality_value(&[
            ("feature_noise/src", 0.80, 0.70),
            ("feature_noise/rhchme", 0.85, 0.75),
            ("feature_noise/ensemble", 0.846, 0.75),
        ]);
        let r = quality_gate(&close, &close, QUALITY_TOLERANCE).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn quality_gate_exempts_clean_ensemble_cells() {
        let v = quality_value(&[("clean/rhchme", 1.00, 1.00), ("clean/ensemble", 0.90, 0.90)]);
        let r = quality_gate(&v, &v, QUALITY_TOLERANCE).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
    }

    #[test]
    fn quality_gate_errors_on_missing_entry() {
        let base = quality_value(&[("clean/rhchme", 0.9, 0.85), ("clean/src", 0.8, 0.8)]);
        let cur = quality_value(&[("clean/rhchme", 0.9, 0.85)]);
        let err = quality_gate(&base, &cur, QUALITY_TOLERANCE).unwrap_err();
        assert!(
            err.contains("'clean/src'") && err.contains("missing from the current run"),
            "{err}"
        );
    }

    #[test]
    fn quality_gate_errors_on_meta_mismatch() {
        let base = quality_value(&[("clean/rhchme", 0.9, 0.85)]);
        let mut text = serde_json::to_string(&base).unwrap();
        text = text.replace("avx2,fma", "");
        let cur: Value = serde_json::from_str(&text).unwrap();
        let err = quality_gate(&base, &cur, QUALITY_TOLERANCE).unwrap_err();
        assert!(err.contains("target-cpu"), "{err}");
    }

    #[test]
    fn bench_gate_passes_within_tolerance_and_fails_beyond() {
        let base = bench_value(&[("pnn/2000", 1000.0), ("engine/step", 500.0)]);
        let ok = bench_value(&[("pnn/2000", 1200.0), ("engine/step", 400.0)]);
        let r = bench_gate(&base, &ok, BENCH_TOLERANCE).unwrap();
        assert!(r.passed(), "{:?}", r.failures);
        let slow = bench_value(&[("pnn/2000", 1300.0), ("engine/step", 500.0)]);
        let r = bench_gate(&base, &slow, BENCH_TOLERANCE).unwrap();
        assert_eq!(r.failures.len(), 1);
        assert!(r.failures[0].contains("'pnn/2000'"));
    }

    #[test]
    fn bench_gate_errors_on_entry_set_mismatch() {
        let base = bench_value(&[("a", 1.0)]);
        let cur = bench_value(&[("a", 1.0), ("b", 2.0)]);
        let err = bench_gate(&base, &cur, BENCH_TOLERANCE).unwrap_err();
        assert!(err.contains("'b'") && err.contains("no baseline"), "{err}");
    }

    #[test]
    fn bench_gate_rejects_bad_means() {
        let base = bench_value(&[("a", 1.0)]);
        let bad: Value = serde_json::from_str("{\"results\": {\"a\": -5.0}}").unwrap();
        let err = bench_gate(&base, &bad, BENCH_TOLERANCE).unwrap_err();
        assert!(err.contains("non-positive"), "{err}");
    }

    #[test]
    fn bench_gate_accepts_legacy_summary_with_warning() {
        let base: Value = serde_json::from_str("{\"results\": {\"a\": 100.0}}").unwrap();
        let cur = bench_value(&[("a", 110.0)]);
        let r = bench_gate(&base, &cur, BENCH_TOLERANCE).unwrap();
        assert!(r.passed());
        assert_eq!(r.warnings.len(), 1);
    }
}
