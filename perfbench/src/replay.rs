//! Outside-in stage split of a cold fit and of a warm stream refit.
//!
//! Each replay calls the same public functions, in the same order and
//! with the same arguments, as `Rhchme::fit_data` and
//! `StreamSession::refit_now` do inside the library, wrapping each call
//! in a [`Tracer`] span. The workloads compare every replay bit for bit
//! with the real call, so a library change that moves work out of the
//! replayed stages fails the run instead of silently skewing the split.

use crate::common::{Report, Tracer};
use mtrl_graph::{laplacian_csr, pnn_graph};
use mtrl_serve::Assigner;
use mtrl_sparse::SparseBlockDiag;
use mtrl_stream::{grown_survivors, warm_membership_opts, DynamicGraph, WarmOptions};
use mtrl_subspace::SpgConfig;
use rhchme::engine::{run_engine, EngineConfig, GraphRegularizer};
use rhchme::intra::{hetero_laplacian, pnn_laplacians_backend_prec, subspace_laplacians};
use rhchme::rhchme::{init_membership, package_result};
use rhchme::{MultiTypeData, Rhchme, RhchmeConfig, RhchmeResult};
use std::error::Error;

pub type AnyResult<T> = Result<T, Box<dyn Error>>;

/// Span names of the cold-fit replay, in call order.
pub const FIT_STAGES: [&str; 9] = [
    "multitype.from_corpus",
    "multitype.all_features",
    "subspace.laplacians",
    "graph.pnn_laplacians",
    "intra.hetero_laplacian",
    "rhchme.init_membership",
    "multitype.assemble_r",
    "engine.run",
    "rhchme.package_result",
];

/// Span names of the warm-refit replay, in call order.
pub const REFIT_STAGES: [&str; 10] = [
    "multitype.from_corpus",
    "stream.doc_laplacian",
    "graph.small_types_pnn",
    "stream.warm_membership",
    "multitype.assemble_r",
    "engine.run",
    "rhchme.package_result",
    "export.build",
    "serve.assigner_new",
    "stream.hot_swap",
];

/// Sizes the per-layer report reads off a replayed fit.
pub struct FitShape {
    /// Bytes of the dense `n_k × n_k` SPG affinities, `Σ n_k²·8`.
    pub dense_w_bytes: f64,
    pub l_s_nnz: f64,
    pub l_e_nnz: f64,
}

impl FitShape {
    /// Record the sizes and `result`'s iteration count as per-layer
    /// metrics (`engine.ms_per_iter` from an already recorded
    /// `engine.run_s`).
    pub fn report(&self, report: &mut Report, result: &RhchmeResult) {
        report.set("subspace.dense_w_bytes", self.dense_w_bytes, "bytes");
        report.set("intra.l_s_nnz", self.l_s_nnz, "count");
        report.set("intra.l_e_nnz", self.l_e_nnz, "count");
        report.set("engine.iterations", result.iterations as f64, "count");
        if let Some(run_s) = report.get("engine.run_s") {
            report.set(
                "engine.ms_per_iter",
                run_s * 1e3 / result.iterations.max(1) as f64,
                "ms",
            );
        }
    }
}

/// The engine configuration `Rhchme` runs Algorithm 2 with.
fn engine_config(cfg: &RhchmeConfig, max_iter: usize) -> EngineConfig {
    EngineConfig {
        lambda: cfg.lambda,
        beta: cfg.beta,
        use_error_matrix: true,
        l1_row_normalize: true,
        max_iter,
        tol: cfg.tol,
        record_labels_for_type: cfg.record_doc_labels.then_some(0),
        precision: cfg.precision,
        ..EngineConfig::default()
    }
}

/// `Rhchme::fit_corpus` as its public stages.
pub fn fit(
    tr: &Tracer,
    cfg: &RhchmeConfig,
    corpus: &mtrl_datagen::MultiTypeCorpus,
) -> AnyResult<(RhchmeResult, FitShape)> {
    let data = tr.stage(FIT_STAGES[0], || {
        MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)
    })?;
    let features = tr.stage(FIT_STAGES[1], || data.all_features());
    let spg_cfg = SpgConfig {
        gamma: cfg.gamma,
        max_iter: cfg.spg_max_iter,
        seed: cfg.seed,
        ..SpgConfig::default()
    };
    let l_s = tr.stage(FIT_STAGES[2], || {
        subspace_laplacians(&features, &spg_cfg, cfg.laplacian_kind)
    })?;
    let l_e = tr.stage(FIT_STAGES[3], || {
        pnn_laplacians_backend_prec(
            &features,
            cfg.p,
            cfg.weight_scheme,
            cfg.laplacian_kind,
            &cfg.graph_backend,
            cfg.precision,
        )
    })?;
    let l = tr.stage(FIT_STAGES[4], || hetero_laplacian(&l_s, &l_e, cfg.alpha))?;
    let g0 = tr.stage(FIT_STAGES[5], || {
        init_membership(&data, &features, cfg.seed)
    });
    let r = tr.stage(FIT_STAGES[6], || data.assemble_r_csr());
    let out = tr.stage(FIT_STAGES[7], || {
        run_engine(
            &r,
            &data,
            &GraphRegularizer::Fixed(l),
            g0,
            &engine_config(cfg, cfg.max_iter),
        )
    })?;
    let result = tr.stage(FIT_STAGES[8], || package_result(&data, out));
    let shape = FitShape {
        dense_w_bytes: features
            .iter()
            .map(|f| (f.rows() * f.rows() * 8) as f64)
            .sum(),
        l_s_nnz: l_s.nnz() as f64,
        l_e_nnz: l_e.nnz() as f64,
    };
    Ok((result, shape))
}

/// Output of a replayed warm refit.
pub struct Refit {
    pub result: RhchmeResult,
    /// `content_digest` of the exported model.
    pub digest: u64,
    pub l_e_nnz: f64,
}

/// The warm mini-batch refresh `StreamSession::refit_now` performs
/// (pNN-only Laplacian, the streaming default `refresh_subspace: false`,
/// no partial reseed), as its public stages. `hot_swap` receives the
/// new assigner as the session hands it to its serving engine.
pub fn refit(
    tr: &Tracer,
    rhchme: &Rhchme,
    warm_iters: usize,
    corpus: &mtrl_datagen::MultiTypeCorpus,
    doc_graph: &DynamicGraph,
    assigner: &Assigner,
    hot_swap: impl FnOnce(Assigner),
) -> AnyResult<Refit> {
    let cfg = rhchme.config();
    let data = tr.stage(REFIT_STAGES[0], || {
        MultiTypeData::from_corpus(corpus, cfg.feature_cluster_divisor)
    })?;
    let doc_block = tr.stage(REFIT_STAGES[1], || doc_graph.laplacian(cfg.laplacian_kind));
    let l_e = tr.stage(REFIT_STAGES[2], || {
        let mut blocks = vec![doc_block];
        for t in 1..data.num_types() {
            let w = pnn_graph(&data.features(t), cfg.p, cfg.weight_scheme);
            blocks.push(laplacian_csr(&w, cfg.laplacian_kind));
        }
        SparseBlockDiag::new(blocks)
    })?;
    let l_e_nnz = l_e.nnz() as f64;
    let survivors = grown_survivors(&assigner.model().sizes, data.sizes());
    let g0 = tr.stage(REFIT_STAGES[3], || {
        warm_membership_opts(&data, assigner, &survivors, &WarmOptions::default())
    })?;
    let r = tr.stage(REFIT_STAGES[4], || data.assemble_r_csr());
    let max_iter = warm_iters.min(cfg.max_iter).max(1);
    let out = tr.stage(REFIT_STAGES[5], || {
        run_engine(
            &r,
            &data,
            &GraphRegularizer::Fixed(l_e),
            g0,
            &engine_config(cfg, max_iter),
        )
    })?;
    let result = tr.stage(REFIT_STAGES[6], || package_result(&data, out));
    let model = tr.stage(REFIT_STAGES[7], || {
        rhchme.export_model_from_data(&result, &data)
    })?;
    let next = tr.stage(REFIT_STAGES[8], || Assigner::new(model))?;
    let digest = next.model().content_digest();
    tr.stage(REFIT_STAGES[9], || hot_swap(next));
    Ok(Refit {
        result,
        digest,
        l_e_nnz,
    })
}

/// Bit-level equality of two fit results: labels of every type, `G`,
/// `S`, the objective trace, `E_R` row norms and the iteration count.
pub fn same_result(a: &RhchmeResult, b: &RhchmeResult) -> bool {
    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
    a.labels_per_type == b.labels_per_type
        && bits(a.g.as_slice()) == bits(b.g.as_slice())
        && bits(a.s.as_slice()) == bits(b.s.as_slice())
        && bits(&a.objective_trace) == bits(&b.objective_trace)
        && bits(&a.error_row_norms) == bits(&b.error_row_norms)
        && a.iterations == b.iterations
        && a.converged == b.converged
}
