//! `serve_http`: online fold-in over HTTP. A 600-document model is
//! fitted, round-tripped through the binary persistence format and
//! served by `Gateway` over `ServeEngine::new(2)`; clients post single
//! held-out documents over keep-alive connections, first paced at a
//! fixed rate (open loop), then back to back (closed loop). No fitting
//! happens outside setup: the gateway, dispatcher and coalescer dominate.

use crate::cold_fit::refresh;
use crate::common::{corpus_seeds, mean, median, timed, Pacing, Report, Tracer, OUT_DIR};
use crate::replay::{self, AnyResult};
use crate::serving::{self, Mode, PACED_RPS};
use crate::{coverage, stage_metrics, Args};
use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_datagen::split::split_corpus;
use mtrl_datagen::MultiTypeCorpus;
use mtrl_gateway::{http, wire, Gateway, GatewayConfig};
use mtrl_serve::{persist, AssignResponse, Assigner, ServeEngine, SparseVec, StatsSnapshot};
use rhchme::{FittedModel, MultiTypeData, Rhchme, RhchmeConfig};
use std::sync::Arc;
use std::time::Duration;

const DOCS_PER_CLASS: usize = 140;
const CLASSES: usize = 5;
/// 20 of every class's 140 documents are held out: a 600-doc model.
const HELD_OUT_FRAC: f64 = 1.0 / 7.0;
/// Model stand-ups timed for `setup_s` and `fit_s`, on corpora A, B, A.
const SETUP_REPS: usize = 3;
/// Passes over the held-out docs for the in-process stage timings.
const INPROCESS_PASSES: usize = 20;
/// Floor on (in-process HTTP parse + gateway-side latency) ÷ client
/// round trip, at the median of the paced phase (measured 0.68–0.69).
/// The remainder is loopback transport and thread wake-ups, which no
/// stage here names.
const COVERAGE_FLOOR: f64 = 0.5;
const MODEL: &str = "serve";

struct Setup {
    train: MultiTypeCorpus,
    docs: Vec<SparseVec>,
    truth: Vec<usize>,
    fitted: rhchme::RhchmeResult,
    /// `content_digest` of the model before it was persisted.
    saved_digest: u64,
    loaded: FittedModel,
    engine: Arc<ServeEngine>,
    gateway: Gateway,
}

fn model_path(seed: u64) -> String {
    format!("{OUT_DIR}/serve-{seed}-{}.mtrl", std::process::id())
}

/// Generate, fit, export, persist, reload, register and bind. Returns
/// the setup and the wall time of `fit_corpus`.
fn setup(seed: u64, tr: &Tracer) -> AnyResult<(Setup, f64)> {
    let full = generate(&CorpusConfig {
        docs_per_class: vec![DOCS_PER_CLASS; CLASSES],
        seed,
        ..CorpusConfig::default()
    });
    let (train, held) = split_corpus(&full, HELD_OUT_FRAC, seed);
    let rhchme = Rhchme::new(RhchmeConfig::default());
    let (fitted, fit_secs) = timed(|| rhchme.fit_corpus(&train));
    let fitted = fitted?;
    let model = rhchme.export_model(&fitted, &train)?;
    std::fs::create_dir_all(OUT_DIR)?;
    let path = model_path(seed);
    tr.stage("persist.save_binary", || {
        persist::save_binary(&model, &path)
    })?;
    let loaded = tr.stage("persist.load_any", || persist::load_any(&path));
    std::fs::remove_file(&path)?;
    let loaded = loaded?;
    let engine = Arc::new(ServeEngine::new(2));
    engine.register(MODEL, loaded.clone())?;
    let gateway = Gateway::bind(Arc::clone(&engine), GatewayConfig::default())?;
    let docs = held
        .iter()
        .map(|h| SparseVec::new(h.indices.clone(), h.values.clone()))
        .collect::<Result<_, _>>()?;
    Ok((
        Setup {
            train,
            docs,
            truth: held.iter().map(|h| h.label).collect(),
            fitted,
            saved_digest: model.content_digest(),
            loaded,
            engine,
            gateway,
        },
        fit_secs,
    ))
}

pub fn run(args: &Args, tr: &Tracer, report: &mut Report) -> AnyResult<Pacing> {
    if tr.is_on() {
        return traced(args, tr, report);
    }
    let seeds = corpus_seeds(args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fits = Vec::with_capacity(SETUP_REPS);
    let mut fscores = Vec::with_capacity(seeds.len());
    let mut first_fit = None;
    let mut last: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        // Stop the previous stand-up's gateway before timing the next.
        drop(last.take());
        let (s, secs) = timed(|| setup(seeds[rep % seeds.len()], tr));
        let (s, fit_secs) = s?;
        setups.push(secs);
        fits.push(fit_secs);
        if fscores.len() < seeds.len() {
            let served = serving::expected_labels(&Assigner::new(s.loaded.clone())?, &s.docs)?;
            fscores.push(mtrl_metrics::fscore(&s.truth, &served));
        }
        match &first_fit {
            None => first_fit = Some(s.fitted.clone()),
            Some(f) if rep % seeds.len() == 0 => report
                .check(replay::same_result(f, &s.fitted), || {
                    "repeated model stand-ups fit differently".to_string()
                }),
            Some(_) => {}
        }
        last = Some(s);
    }
    let s = last.expect("at least one setup");
    report.set_median("setup_s", &setups, "s");
    report.set_median("fit_s", &fits, "s");
    // In-process labels; the HTTP replies below must carry the same.
    report.set("fscore", mean(&fscores), "1");

    report.check(s.loaded.content_digest() == s.saved_digest, || {
        "persisted model changed on reload".to_string()
    });
    let assigner = Assigner::new(s.loaded.clone())?;
    let expected = serving::expected_labels(&assigner, &s.docs)?;
    let requests: Vec<Vec<u8>> = s
        .docs
        .iter()
        .map(|d| serving::assign_request(MODEL, d))
        .collect();
    let rounds = ((args.seconds / 2.0 / serving::SUB_PHASE_SECS).round() as usize).max(1);
    let (pacing, docs_per_s) =
        serving::measure(report, s.gateway.addr(), &requests, &expected, rounds);
    report.set("ingest_docs_per_s", docs_per_s, "docs/s");

    let rhchme = Rhchme::new(RhchmeConfig::default());
    let (refits, _) = refresh(report, &rhchme, &s.train, &s.fitted, &s.engine, MODEL)?;
    report.set_median("refit_s", &refits, "s");
    Ok(pacing)
}

/// Counter deltas of the engine between two snapshots, as per-layer
/// metrics.
fn engine_metrics(report: &mut Report, before: &StatsSnapshot, after: &StatsSnapshot) {
    let submits = (after.requests - before.requests) as f64;
    let docs = (after.documents - before.documents) as f64;
    let busy = (after.busy - before.busy).as_secs_f64();
    let latency = (after.total_latency - before.total_latency).as_secs_f64();
    report.set("serve.engine.submits", submits, "count");
    report.set(
        "serve.engine.docs_per_submit",
        docs / submits.max(1.0),
        "count",
    );
    report.set("serve.engine.busy_s", busy, "s");
    report.set(
        "serve.engine.queue_wait_us",
        (latency - busy) * 1e6 / submits.max(1.0),
        "us",
    );
    report.set(
        "serve.engine.errors",
        (after.errors - before.errors) as f64,
        "count",
    );
    report.set(
        "serve.engine.shed",
        (after.shed - before.shed) as f64,
        "count",
    );
}

/// The traced run: setup with the fit replayed and persistence timed,
/// the request path timed in-process on the same bytes the clients
/// send, then an untraced and a traced paced phase and a traced closed
/// phase, reading the gateway and engine counters around them.
fn traced(args: &Args, tr: &Tracer, report: &mut Report) -> AnyResult<Pacing> {
    mtrl_obs::force_disable();
    let (s, _) = setup(args.seed, tr)?;
    mtrl_obs::force_enable();
    let rhchme = Rhchme::new(RhchmeConfig::default());
    let (replayed, shape) = tr.stage("serve.setup_fit_replay", || {
        replay::fit(tr, rhchme.config(), &s.train)
    })?;
    report.check(replay::same_result(&s.fitted, &replayed), || {
        "replay of the serving model's fit differs".to_string()
    });
    tr.stage("model.export", || -> AnyResult<()> {
        let data = MultiTypeData::from_corpus(&s.train, rhchme.config().feature_cluster_divisor)?;
        let model = tr.stage("export.build", || {
            rhchme.export_model_from_data(&replayed, &data)
        })?;
        tr.stage("serve.assigner_new", || Assigner::new(model))?;
        Ok(())
    })?;

    let assigner = Assigner::new(s.loaded.clone())?;
    let expected = serving::expected_labels(&assigner, &s.docs)?;
    let requests: Vec<Vec<u8>> = s
        .docs
        .iter()
        .map(|d| serving::assign_request(MODEL, d))
        .collect();
    for _ in 0..INPROCESS_PASSES {
        for (i, bytes) in requests.iter().enumerate() {
            let ok = tr.stage("serve.inprocess", || -> AnyResult<bool> {
                let req = tr
                    .stage("http.read_request", || {
                        http::read_request(&mut std::io::Cursor::new(bytes))
                    })
                    .map_err(|e| format!("read_request: {e:?}"))?;
                let parsed =
                    tr.stage("wire.parse_assign", || wire::parse_assign(MODEL, &req.body))?;
                let post = tr.stage("serve.assign_batch", || {
                    assigner.assign_batch(parsed.type_index, &parsed.docs)
                })?;
                let labels = Assigner::labels(&post);
                let same_doc = parsed.docs.len() == 1
                    && parsed.docs[0].indices == s.docs[i].indices
                    && parsed.docs[0].values == s.docs[i].values;
                let response = AssignResponse {
                    posteriors: post,
                    labels,
                    latency: Duration::ZERO,
                };
                let json = tr.stage("wire.response_json", || {
                    wire::assign_response_json(MODEL, &response)
                });
                Ok(same_doc
                    && response.labels == [expected[i]]
                    && json.contains(&format!("\"labels\":[{}]", expected[i])))
            })?;
            report.check(ok, || format!("in-process request path differs on doc {i}"));
        }
    }

    // Untraced reference phase on the setup gateway, then traced phases
    // on a fresh gateway so its latency histogram holds only them.
    let quarter = args.seconds / 4.0;
    mtrl_obs::force_disable();
    let untraced = serving::run(
        s.gateway.addr(),
        &requests,
        &expected,
        Mode::Paced(PACED_RPS),
        quarter,
    );
    mtrl_obs::force_enable();
    let Setup {
        gateway: mut first,
        engine,
        ..
    } = s;
    first.shutdown();
    let mut gateway = Gateway::bind(Arc::clone(&engine), GatewayConfig::default())?;
    let before = engine.stats();
    let start = std::time::Instant::now();
    let paced = serving::run(
        gateway.addr(),
        &requests,
        &expected,
        Mode::Paced(PACED_RPS),
        quarter,
    );
    let mid = std::time::Instant::now();
    tr.record("serve.phase_paced", start, mid);
    // The histogram of a gateway bound just before: phase A only.
    let server_ms = gateway.stats().quantile(0.5).as_secs_f64() * 1e3;
    let closed = serving::run(gateway.addr(), &requests, &expected, Mode::Closed, quarter);
    tr.record("serve.phase_closed", mid, std::time::Instant::now());
    let after = engine.stats();
    let gw = gateway.stats();
    gateway.shutdown();
    for phase in [&untraced, &paced, &closed] {
        report.attempted += phase.completed + phase.failed;
        report.failed += phase.failed;
    }

    stage_metrics(
        report,
        tr,
        &[
            "serve.inprocess",
            "serve.setup_fit_replay",
            "model.export",
            "",
        ],
    );
    shape.report(report, &replayed);
    engine_metrics(report, &before, &after);
    let wire_requests = (paced.completed + closed.completed) as f64;
    let submits = report.get("serve.engine.submits").unwrap_or(0.0);
    report.set(
        "gateway.coalesced_batches",
        gw.coalesced_batches as f64,
        "count",
    );
    report.set(
        "gateway.coalesce_ratio",
        submits / wire_requests.max(1.0),
        "1",
    );
    report.set("gateway.shed", gw.shed as f64, "count");
    let client_ms = median(&paced.latencies_ms);
    report.set("gateway.server_p50_ms", server_ms, "ms");
    report.set("gateway.transport_p50_ms", client_ms - server_ms, "ms");
    let read_ms = report.get("http.read_request_us").unwrap_or(0.0) / 1e3;
    coverage(
        report,
        &args.workload,
        read_ms + server_ms,
        client_ms,
        COVERAGE_FLOOR,
    );
    report.set(
        "trace_overhead",
        client_ms / median(&untraced.latencies_ms),
        "1",
    );
    Ok(paced.pacing)
}
