//! `stream_refit`: a live stream that refits as documents arrive. A
//! 600-document initial corpus, then 24 batches of 50 with drift from
//! batch 12; every batch folds in, refits warm and hot-swaps the model
//! into an attached `ServeEngine`. The engine and graph layers dominate
//! here; SPG runs only in the initial fit, because `refresh_subspace`
//! defaults to false.

use crate::cold_fit::TAIL_ROUNDS;
use crate::common::{corpus_seeds, mean, timed, Pacing, Report, StealTimed, Tracer};
use crate::replay::{self, AnyResult};
use crate::{coverage, serving, stage_metrics, Args};
use mtrl_datagen::corpus::CorpusConfig;
use mtrl_datagen::stream::{generate_stream, StreamBatch, StreamConfig};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_gateway::{Gateway, GatewayConfig};
use mtrl_linalg::Mat;
use mtrl_serve::{Assigner, ServeEngine, SparseVec};
use mtrl_stream::{RefreshPolicy, StreamSession};
use rhchme::{Rhchme, RhchmeConfig};
use std::sync::Arc;

const INITIAL_DOCS_PER_CLASS: usize = 120;
const CLASSES: usize = 5;
/// Batches pushed; one more is generated and held out for serving.
const BATCHES: usize = 24;
const DOCS_PER_BATCH: usize = 50;
const DRIFT_AFTER: usize = 12;
const DRIFT_SHIFT: f64 = 0.4;
/// Session stand-ups timed for `setup_s` and `fit_s`, on corpora A, B, A.
const SETUP_REPS: usize = 3;
/// Passes over the stream, on the last stand-ups (corpora B and A).
const PASSES: usize = 2;
/// Floor on named replay stages ÷ `refit_now` wall time.
const COVERAGE_FLOOR: f64 = 0.85;
const MODEL: &str = "stream";

fn stream(seed: u64) -> (MultiTypeCorpus, Vec<StreamBatch>) {
    generate_stream(&StreamConfig {
        base: CorpusConfig {
            docs_per_class: vec![INITIAL_DOCS_PER_CLASS; CLASSES],
            seed,
            ..CorpusConfig::default()
        },
        batches: BATCHES + 1,
        docs_per_batch: DOCS_PER_BATCH,
        drift_after: Some(DRIFT_AFTER),
        drift_shift: DRIFT_SHIFT,
    })
}

fn batch_docs(batch: &StreamBatch, num_terms: usize) -> AnyResult<Vec<SparseVec>> {
    (0..batch.len())
        .map(|i| {
            let (indices, values) = batch.feature_row(i, num_terms);
            Ok(SparseVec::new(indices, values)?)
        })
        .collect()
}

struct Setup {
    session: StreamSession,
    engine: Arc<ServeEngine>,
    initial: MultiTypeCorpus,
    batches: Vec<StreamBatch>,
}

/// Generate the stream and stand a session up on its initial corpus;
/// returns the setup and the wall time of `StreamSession::new`.
fn setup(seed: u64, policy: RefreshPolicy) -> AnyResult<(Setup, f64)> {
    let (initial, batches) = stream(seed);
    let (session, fit_secs) = timed(|| {
        StreamSession::new(
            initial.clone(),
            Rhchme::new(RhchmeConfig::default()),
            policy,
        )
    });
    let mut session = session?;
    let engine = Arc::new(ServeEngine::new(2));
    session.attach_engine(Arc::clone(&engine), MODEL)?;
    Ok((
        Setup {
            session,
            engine,
            initial,
            batches,
        },
        fit_secs,
    ))
}

pub fn run(args: &Args, tr: &Tracer, report: &mut Report) -> AnyResult<Pacing> {
    if tr.is_on() {
        return traced(args, tr, report);
    }
    let policy = RefreshPolicy {
        every_batches: Some(1),
        ..RefreshPolicy::default()
    };
    let seeds = corpus_seeds(args.seed);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut fits = Vec::with_capacity(SETUP_REPS);
    let mut ready: Vec<Setup> = Vec::with_capacity(PASSES + 1);
    let mut first_fit = None;
    for rep in 0..SETUP_REPS {
        let (s, secs) = timed(|| setup(seeds[rep % seeds.len()], policy.clone()));
        let (s, fit_secs) = s?;
        setups.push(secs);
        fits.push(fit_secs);
        match &first_fit {
            None => first_fit = Some(s.session.last_result().clone()),
            Some(f) if rep % seeds.len() == 0 => report
                .check(replay::same_result(f, s.session.last_result()), || {
                    "repeated session stand-ups fit differently".to_string()
                }),
            Some(_) => {}
        }
        ready.push(s);
        if ready.len() > PASSES {
            ready.remove(0);
        }
    }
    report.set_median("setup_s", &setups, "s");
    report.set_median("fit_s", &fits, "s");

    // One pass per kept session (corpora B and A).
    let mut refits = StealTimed::default();
    let mut rates = Vec::with_capacity(PASSES);
    let mut fscores = Vec::with_capacity(PASSES);
    for Setup {
        session, batches, ..
    } in &mut ready
    {
        let mut docs = 0usize;
        let t0 = std::time::Instant::now();
        for batch in &batches[..BATCHES] {
            let out = refits.time(|| session.push_batch(batch))?;
            docs += batch.len();
            report.check(
                out.refit.is_some() && out.labels.len() == batch.len(),
                || "a cadence-1 push did not refit or lost labels".to_string(),
            );
        }
        rates.push(docs as f64 / t0.elapsed().as_secs_f64());
        report.check(session.telemetry().hot_swaps == BATCHES, || {
            format!(
                "{} hot swaps for {BATCHES} refits",
                session.telemetry().hot_swaps
            )
        });
        fscores.push(mtrl_metrics::fscore(
            &session.corpus().labels,
            &session.last_result().doc_labels,
        ));
    }
    report.set_median("refit_s", &refits.quiet(), "s");
    report.set_median("ingest_docs_per_s", &rates, "docs/s");
    report.set("fscore", mean(&fscores), "1");
    let Setup {
        session,
        engine,
        batches,
        ..
    } = ready.pop().expect("at least one pass");

    let tail = batch_docs(&batches[BATCHES], session.corpus().num_terms())?;
    let expected = serving::expected_labels(&Assigner::new(session.model().clone())?, &tail)?;
    let requests: Vec<Vec<u8>> = tail
        .iter()
        .map(|d| serving::assign_request(MODEL, d))
        .collect();
    let mut gateway = Gateway::bind(engine, GatewayConfig::default())?;
    let (pacing, _) = serving::measure(report, gateway.addr(), &requests, &expected, TAIL_ROUNDS);
    gateway.shutdown();
    Ok(pacing)
}

/// The traced run: pushes with a policy that never triggers, then per
/// batch the refit replayed as public calls (traced) and the real
/// `refit_now` (untraced), compared bit for bit.
fn traced(args: &Args, tr: &Tracer, report: &mut Report) -> AnyResult<Pacing> {
    let policy = RefreshPolicy {
        every_batches: None,
        min_confidence: None,
        ..RefreshPolicy::default()
    };
    let warm_iters = policy.warm_iters;
    let (
        Setup {
            mut session,
            initial,
            batches,
            ..
        },
        _,
    ) = setup(args.seed, policy)?;
    let rhchme = Rhchme::new(RhchmeConfig::default());

    // The session's initial cold fit, replayed: SPG runs here only.
    let (cold, shape) = tr.stage("stream.setup_fit_replay", || {
        replay::fit(tr, rhchme.config(), &initial)
    })?;
    report.check(replay::same_result(&cold, session.last_result()), || {
        "replay of the session's initial fit differs".to_string()
    });

    let mut shadow = session.doc_graph().clone();
    let mut assigner = Assigner::new(session.model().clone())?;
    let (mut patched, mut rebuilds) = (0usize, 0usize);
    let (mut real_wall, mut replay_wall) = (0.0, 0.0);
    let mut iterations = Vec::with_capacity(BATCHES);
    let mut l_e_nnz = 0.0;
    for batch in &batches[..BATCHES] {
        let num_terms = session.corpus().num_terms();
        let docs = batch_docs(batch, num_terms)?;
        let folded = tr.stage("stream.batch", || -> AnyResult<_> {
            let post = tr.stage("serve.assign_batch", || assigner.assign_batch(0, &docs))?;
            let pushed = tr.stage("stream.push_batch", || session.push_batch(batch))?;
            let rows: Vec<Vec<f64>> = docs
                .iter()
                .map(|d| {
                    let mut row = vec![0.0; shadow.dim()];
                    for (&j, &v) in d.indices.iter().zip(&d.values) {
                        row[j] = v;
                    }
                    row
                })
                .collect();
            let rows = Mat::from_rows(&rows)?;
            let ins = tr.stage("stream.insert_batch", || shadow.insert_batch(&rows));
            patched += ins.patched_rows;
            rebuilds += usize::from(ins.rebuilt);
            Ok((Assigner::labels(&post), pushed))
        })?;
        let (labels, pushed) = folded;
        report.check(pushed.refit.is_none() && pushed.labels == labels, || {
            "push_batch fold-in differs from Assigner::assign_batch".to_string()
        });
        let kind = rhchme.config().laplacian_kind;
        report.check(
            shadow.laplacian(kind) == session.doc_graph().laplacian(kind),
            || "replayed DynamicGraph::insert_batch differs".to_string(),
        );

        let mut next = None;
        let (refit, secs) = timed(|| {
            tr.stage("stream.refit_replay", || {
                replay::refit(
                    tr,
                    &rhchme,
                    warm_iters,
                    session.corpus(),
                    session.doc_graph(),
                    &assigner,
                    |a| next = Some(a),
                )
            })
        });
        let refit = refit?;
        replay_wall += secs;
        mtrl_obs::force_disable();
        let (real, secs) = timed(|| session.refit_now());
        mtrl_obs::force_enable();
        real?;
        real_wall += secs;
        report.check(
            replay::same_result(&refit.result, session.last_result())
                && refit.digest == session.model().content_digest(),
            || "stream refit replay differs from refit_now".to_string(),
        );
        iterations.push(refit.result.iterations as f64);
        l_e_nnz = refit.l_e_nnz;
        assigner = next.expect("the replay hands over its assigner");
    }

    stage_metrics(
        report,
        tr,
        &[
            "stream.refit_replay",
            "stream.batch",
            "stream.setup_fit_replay",
        ],
    );
    shape.report(report, &cold);
    // The engine numbers of this workload are the warm refits'.
    let iters = crate::common::median(&iterations);
    report.set("engine.iterations", iters, "count");
    report.set("intra.l_e_nnz", l_e_nnz, "count");
    if let Some(run_s) = report.get("engine.run_s") {
        report.set("engine.ms_per_iter", run_s * 1e3 / iters.max(1.0), "ms");
    }
    report.set("stream.patched_rows", patched as f64, "count");
    report.set("stream.graph_rebuilds", rebuilds as f64, "count");
    let covered = tr.child_secs("stream.refit_replay");
    coverage(report, &args.workload, covered, real_wall, COVERAGE_FLOOR);
    report.set("trace_overhead", replay_wall / real_wall, "1");
    Ok(Pacing::default())
}
