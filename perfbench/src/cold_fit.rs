//! `cold_fit`: an analyst's batch fit. `Rhchme::fit_corpus` on 1200
//! documents of the default noise profile, repeated for the run length.
//! This is the paper's path, and the only workload where SPG subspace
//! learning (Algorithm 1) dominates.

use crate::common::{corpus_seeds, mean, median, timed, Pacing, Report, StealTimed, Tracer};
use crate::replay::{self, AnyResult, FIT_STAGES};
use crate::{coverage, serving, stage_metrics, Args};
use mtrl_datagen::corpus::{generate, CorpusConfig};
use mtrl_datagen::MultiTypeCorpus;
use mtrl_gateway::{Gateway, GatewayConfig};
use mtrl_serve::{Assigner, ServeEngine, SparseVec};
use mtrl_stream::{DynamicGraph, DynamicGraphConfig, RefreshPolicy};
use rhchme::{MultiTypeData, Rhchme, RhchmeConfig, RhchmeResult};
use std::sync::Arc;

const DOCS_PER_CLASS: usize = 240;
const CLASSES: usize = 5;
/// Corpus generations timed for `setup_s` (alternating the run's two
/// corpus seeds).
const SETUP_REPS: usize = 5;
/// Fits per run at least, whatever the run length: corpora A, B, A.
const MIN_FITS: usize = 3;
/// Warm refreshes of the fitted model timed for `refit_s`.
const REFRESHES: usize = 11;
/// Paced + closed sub-phase pairs of the serving tail.
pub const TAIL_ROUNDS: usize = 8;
/// Held-out rows of the training corpus sent by the serving tail.
const TAIL_DOCS: usize = 100;
/// Floor on named replay stages ÷ `fit_corpus` wall time. One real fit
/// against one replay: host noise moved the ratio between 0.90 and 1.03.
const COVERAGE_FLOOR: f64 = 0.8;

fn corpus(seed: u64) -> MultiTypeCorpus {
    generate(&CorpusConfig {
        docs_per_class: vec![DOCS_PER_CLASS; CLASSES],
        seed,
        ..CorpusConfig::default()
    })
}

/// Document `i` of `corpus` in the document feature view the serving
/// layer folds in (`[terms | concepts]`).
fn doc_row(corpus: &MultiTypeCorpus, i: usize) -> SparseVec {
    let (tc, tv) = corpus.doc_term.row(i);
    let (cc, cv) = corpus.doc_concept.row(i);
    let mut indices = tc.to_vec();
    indices.extend(cc.iter().map(|&j| corpus.num_terms() + j));
    let mut values = tv.to_vec();
    values.extend_from_slice(cv);
    SparseVec::new(indices, values).expect("corpus rows are valid sparse vectors")
}

/// Warm refreshes of `result`'s model on its own corpus (the refresh a
/// stream session runs, with no new documents), each hot-swapped into
/// `engine` as `name`. Returns the wall times of the
/// [`quiet_half`](crate::common::quiet_half) of
/// the refreshes and the last assigner.
pub fn refresh(
    report: &mut Report,
    rhchme: &Rhchme,
    corpus: &MultiTypeCorpus,
    result: &RhchmeResult,
    engine: &ServeEngine,
    name: &str,
) -> AnyResult<(Vec<f64>, Arc<Assigner>)> {
    let cfg = rhchme.config();
    let data = MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)?;
    let base = Assigner::new(rhchme.export_model_from_data(result, &data)?)?;
    let doc_graph = DynamicGraph::new(
        &data.features(0),
        DynamicGraphConfig {
            p: cfg.p,
            scheme: cfg.weight_scheme,
            ..DynamicGraphConfig::default()
        },
    );
    let off = Tracer::new(false);
    let warm_iters = RefreshPolicy::default().warm_iters;
    let mut times = StealTimed::default();
    let mut first: Option<replay::Refit> = None;
    let mut served = Arc::new(base.clone());
    for _ in 0..REFRESHES {
        let out = times.time(|| {
            replay::refit(&off, rhchme, warm_iters, corpus, &doc_graph, &base, |a| {
                served = Arc::new(a);
                engine.register_shared(name, Arc::clone(&served));
            })
        });
        let out = out?;
        match &first {
            None => first = Some(out),
            Some(f) => report.check(
                replay::same_result(&f.result, &out.result) && f.digest == out.digest,
                || "repeated warm refreshes differ".to_string(),
            ),
        }
    }
    Ok((times.quiet(), served))
}

pub fn run(args: &Args, tr: &Tracer, report: &mut Report) -> AnyResult<Pacing> {
    if tr.is_on() {
        return traced(args, tr, report);
    }
    let seeds = corpus_seeds(args.seed);
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut corpora: Vec<MultiTypeCorpus> = Vec::with_capacity(seeds.len());
    for rep in 0..SETUP_REPS {
        let (c, secs) = timed(|| corpus(seeds[rep % seeds.len()]));
        setup.push(secs);
        if corpora.len() < seeds.len() {
            corpora.push(c);
        }
    }
    report.set_median("setup_s", &setup, "s");

    let rhchme = Rhchme::new(RhchmeConfig::default());
    let t0 = std::time::Instant::now();
    let mut fits = Vec::new();
    let mut firsts: Vec<RhchmeResult> = Vec::with_capacity(seeds.len());
    while fits.len() < MIN_FITS || t0.elapsed().as_secs_f64() < args.seconds {
        let k = fits.len() % corpora.len();
        let (res, secs) = timed(|| rhchme.fit_corpus(&corpora[k]));
        let res = res?;
        fits.push(secs);
        match firsts.get(k) {
            None => firsts.push(res),
            Some(f) => report.check(replay::same_result(f, &res), || {
                "repeated fits in one run differ".to_string()
            }),
        }
    }
    report.set_median("fit_s", &fits, "s");
    report.set(
        "ingest_docs_per_s",
        corpora[0].num_docs() as f64 / median(&fits),
        "docs/s",
    );
    let fscores: Vec<f64> = corpora
        .iter()
        .zip(&firsts)
        .map(|(c, r)| mtrl_metrics::fscore(&c.labels, &r.doc_labels))
        .collect();
    report.set("fscore", mean(&fscores), "1");
    let (corpus, result) = (&corpora[0], &firsts[0]);

    let engine = Arc::new(ServeEngine::new(2));
    let (refits, served) = refresh(report, &rhchme, corpus, result, &engine, "cold")?;
    report.set_median("refit_s", &refits, "s");

    let step = (corpus.num_docs() / TAIL_DOCS).max(1);
    let docs: Vec<SparseVec> = (0..corpus.num_docs())
        .step_by(step)
        .map(|i| doc_row(corpus, i))
        .collect();
    let expected = serving::expected_labels(&served, &docs)?;
    let requests: Vec<Vec<u8>> = docs
        .iter()
        .map(|d| serving::assign_request("cold", d))
        .collect();
    let mut gateway = Gateway::bind(Arc::clone(&engine), GatewayConfig::default())?;
    let (pacing, _) = serving::measure(report, gateway.addr(), &requests, &expected, TAIL_ROUNDS);
    gateway.shutdown();
    Ok(pacing)
}

/// The traced run: the real `fit_corpus` untraced, then its replay with
/// spans and the library's `mtrl-obs` spans on, compared bit for bit.
fn traced(args: &Args, tr: &Tracer, report: &mut Report) -> AnyResult<Pacing> {
    let corpus = corpus(args.seed);
    let rhchme = Rhchme::new(RhchmeConfig::default());
    mtrl_obs::force_disable();
    let (real, wall) = timed(|| rhchme.fit_corpus(&corpus));
    let real = real?;
    mtrl_obs::force_enable();
    let (replayed, traced_wall) = timed(|| {
        tr.stage("rhchme.fit_replay", || {
            replay::fit(tr, rhchme.config(), &corpus)
        })
    });
    let (replayed, shape) = replayed?;
    report.check(replay::same_result(&real, &replayed), || {
        "cold_fit replay differs from fit_corpus".to_string()
    });
    tr.stage("model.export", || -> AnyResult<()> {
        let data = tr.stage(FIT_STAGES[0], || {
            MultiTypeData::from_corpus(&corpus, rhchme.config().feature_cluster_divisor)
        })?;
        let model = tr.stage("export.build", || {
            rhchme.export_model_from_data(&replayed, &data)
        })?;
        tr.stage("serve.assigner_new", || Assigner::new(model))?;
        Ok(())
    })?;

    stage_metrics(report, tr, &["rhchme.fit_replay", "model.export"]);
    shape.report(report, &replayed);
    let covered = tr.child_secs("rhchme.fit_replay");
    coverage(report, &args.workload, covered, wall, COVERAGE_FLOOR);
    report.set("trace_overhead", traced_wall / wall, "1");
    Ok(Pacing::default())
}
