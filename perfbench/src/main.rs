//! End-to-end benchmark of the RHCHME stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold_fit|stream_refit|serve_http --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! the result object; the exit code is non-zero on any failed
//! correctness or coverage check. See `perfbench/README.md`.

mod cold_fit;
mod common;
mod replay;
mod serve_http;
mod serving;
mod stream_refit;

use common::{jstr, provenance_json, Pacing, Report, Tracer, OUT_DIR};

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("fit_s", "s"),
    ("fscore", "1"),
    ("peak_rss_mb", "MB"),
    ("refit_s", "s"),
    ("ingest_docs_per_s", "docs/s"),
    ("assign_p50_ms", "ms"),
    ("assign_rps", "req/s"),
    ("serve_cpu_us_per_req", "us"),
];

/// Per-layer metrics, printed by every traced run (0 for a layer the
/// workload does not exercise).
pub const PER_LAYER: [(&str, &str); 41] = [
    ("subspace.laplacians_s", "s"),
    ("subspace.dense_w_bytes", "bytes"),
    ("intra.l_s_nnz", "count"),
    ("engine.run_s", "s"),
    ("engine.iterations", "count"),
    ("engine.ms_per_iter", "ms"),
    ("graph.pnn_laplacians_s", "s"),
    ("graph.small_types_pnn_s", "s"),
    ("intra.l_e_nnz", "count"),
    ("multitype.from_corpus_s", "s"),
    ("multitype.all_features_s", "s"),
    ("multitype.assemble_r_s", "s"),
    ("rhchme.init_membership_s", "s"),
    ("intra.hetero_laplacian_s", "s"),
    ("export.build_s", "s"),
    ("serve.assigner_new_s", "s"),
    ("stream.push_batch_s", "s"),
    ("stream.insert_batch_s", "s"),
    ("stream.patched_rows", "count"),
    ("stream.graph_rebuilds", "count"),
    ("stream.doc_laplacian_s", "s"),
    ("stream.warm_membership_s", "s"),
    ("serve.assign_batch_us", "us"),
    ("serve.engine.submits", "count"),
    ("serve.engine.docs_per_submit", "count"),
    ("serve.engine.busy_s", "s"),
    ("serve.engine.queue_wait_us", "us"),
    ("serve.engine.errors", "count"),
    ("serve.engine.shed", "count"),
    ("http.read_request_us", "us"),
    ("wire.parse_assign_us", "us"),
    ("wire.response_json_us", "us"),
    ("gateway.server_p50_ms", "ms"),
    ("gateway.transport_p50_ms", "ms"),
    ("gateway.coalesced_batches", "count"),
    ("gateway.coalesce_ratio", "1"),
    ("gateway.shed", "count"),
    ("persist.save_binary_s", "s"),
    ("persist.load_any_s", "s"),
    ("coverage", "1"),
    ("trace_overhead", "1"),
];

/// Stage-timing per-layer metrics and the span each one reads.
const STAGE_METRICS: [(&str, &str, f64); 21] = [
    ("subspace.laplacians_s", "subspace.laplacians", 1.0),
    ("engine.run_s", "engine.run", 1.0),
    ("graph.pnn_laplacians_s", "graph.pnn_laplacians", 1.0),
    ("graph.small_types_pnn_s", "graph.small_types_pnn", 1.0),
    ("multitype.from_corpus_s", "multitype.from_corpus", 1.0),
    ("multitype.all_features_s", "multitype.all_features", 1.0),
    ("multitype.assemble_r_s", "multitype.assemble_r", 1.0),
    ("rhchme.init_membership_s", "rhchme.init_membership", 1.0),
    ("intra.hetero_laplacian_s", "intra.hetero_laplacian", 1.0),
    ("export.build_s", "export.build", 1.0),
    ("serve.assigner_new_s", "serve.assigner_new", 1.0),
    ("stream.push_batch_s", "stream.push_batch", 1.0),
    ("stream.insert_batch_s", "stream.insert_batch", 1.0),
    ("stream.doc_laplacian_s", "stream.doc_laplacian", 1.0),
    ("stream.warm_membership_s", "stream.warm_membership", 1.0),
    ("persist.save_binary_s", "persist.save_binary", 1.0),
    ("persist.load_any_s", "persist.load_any", 1.0),
    ("serve.assign_batch_us", "serve.assign_batch", 1e6),
    ("http.read_request_us", "http.read_request", 1e6),
    ("wire.parse_assign_us", "wire.parse_assign", 1e6),
    ("wire.response_json_us", "wire.response_json", 1e6),
];

/// Set every stage-timing metric to the median duration of its span,
/// taken under the first of `parents` that has that span.
pub fn stage_metrics(report: &mut Report, tr: &Tracer, parents: &[&str]) {
    for (metric, span, scale) in STAGE_METRICS {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == metric)
            .map(|&(_, u)| u)
            .expect("stage metric is a per-layer metric");
        if let Some(xs) = parents
            .iter()
            .map(|p| tr.secs_under(span, p))
            .find(|xs| !xs.is_empty())
        {
            let scaled: Vec<f64> = xs.iter().map(|x| x * scale).collect();
            report.set_median(metric, &scaled, unit);
        }
    }
}

/// Named stages ÷ parent wall time, failing the run below `floor`.
pub fn coverage(report: &mut Report, workload: &str, covered: f64, wall: f64, floor: f64) {
    let share = covered / wall;
    report.set("coverage", share, "1");
    report.check(share >= floor, || {
        format!("{workload}: named stages cover {share:.3} of the parent wall time (floor {floor})")
    });
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds out of range: {seconds}"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Write the traced run's spans, the library's own `mtrl-obs` spans and
/// the provenance to `OUT_DIR`.
fn dump_trace(args: &Args, tr: &Tracer, provenance: &str) -> std::io::Result<String> {
    let obs: Vec<String> = mtrl_obs::global()
        .spans_snapshot()
        .into_iter()
        .map(|(path, s)| {
            format!(
                "{{\"path\": {}, \"count\": {}, \"total_ns\": {}, \"max_ns\": {}}}",
                jstr(&path),
                s.count,
                s.total_ns,
                s.max_ns
            )
        })
        .collect();
    let body = format!(
        "{{\"workload\": {}, \"seed\": {}, \"provenance\": {provenance},\n\"spans\": {},\n\"obs_spans\": [{}]}}\n",
        jstr(&args.workload),
        args.seed,
        tr.spans_json(&args.workload, args.seed),
        obs.join(",\n ")
    );
    std::fs::create_dir_all(OUT_DIR)?;
    let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, body)?;
    Ok(path)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let steal0 = common::steal_ticks();
    let tr = Tracer::new(args.trace);
    if args.trace {
        mtrl_obs::force_enable();
    } else {
        mtrl_obs::force_disable();
    }
    let mut report = Report::default();
    let run = match args.workload.as_str() {
        "cold_fit" => cold_fit::run(&args, &tr, &mut report),
        "stream_refit" => stream_refit::run(&args, &tr, &mut report),
        "serve_http" => serve_http::run(&args, &tr, &mut report),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    let pacing: Pacing = match run {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let provenance = provenance_json(steal0, pacing);
    println!("{{\"provenance\": {provenance}}}");
    let names: &[(&str, &str)] = if args.trace {
        for &(name, unit) in &PER_LAYER {
            if report.get(name).is_none() {
                report.set(name, 0.0, unit);
            }
        }
        match dump_trace(&args, &tr, &provenance) {
            Ok(path) => eprintln!("perfbench: trace written to {path}"),
            Err(e) => report.check(false, || format!("writing the trace: {e}")),
        }
        &PER_LAYER
    } else {
        report.set("peak_rss_mb", common::peak_rss_mb(), "MB");
        &END_TO_END
    };
    println!("{{\"samples\": {}}}", report.samples_json());
    match report.result_json(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    if report.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checks failed",
            report.failed, report.attempted
        );
        std::process::exit(1);
    }
}
