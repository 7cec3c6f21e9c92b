//! Criterion microbenches of the sparse-first NMTF engine: the
//! per-iteration multiplicative-update step on an `n = 2000` three-type
//! dataset across relation sparsity levels, sparse path
//! (`run_engine`) versus the retired dense loop
//! (`run_engine_dense_reference`).
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary the CI
//! `bench-smoke` job gates against the committed `BENCH_engine.json`.
//! The committed baseline also documents the acceptance ratio of the
//! sparse-engine PR: at realistic corpus sparsity the sparse
//! per-iteration step must be ≥ 3× faster than the dense loop
//! (quick-mode numbers on the CI container comfortably exceed it).
//! Outputs are asserted equivalent (objective within 1e-9 relative,
//! identical labels) before anything is timed.

use criterion::{criterion_group, criterion_main, Criterion};
use mtrl_linalg::block::stack_membership;
use mtrl_linalg::Mat;
use mtrl_sparse::Coo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rhchme::engine::{run_engine, run_engine_dense_reference, EngineConfig, GraphRegularizer};
use rhchme::kmeans::labels_to_membership;
use rhchme::MultiTypeData;
use std::hint::black_box;

const SIZES: [usize; 3] = [1200, 600, 200];
const CLUSTERS: [usize; 3] = [8, 6, 4];

/// A three-type dataset (`n = 2000`, `c = 18`) whose pairwise relations
/// have the given nonzero density.
fn synthetic_data(density: f64, seed: u64) -> MultiTypeData {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut relations = Vec::new();
    for (k, l) in [(0usize, 1usize), (0, 2), (1, 2)] {
        let (rows, cols) = (SIZES[k], SIZES[l]);
        let mut coo = Coo::new(rows, cols);
        for i in 0..rows {
            for j in 0..cols {
                if rng.gen_range(0.0..1.0) < density {
                    coo.push(i, j, rng.gen_range(0.1..1.0));
                }
            }
        }
        relations.push((k, l, coo.to_csr()));
    }
    MultiTypeData::new(SIZES.to_vec(), CLUSTERS.to_vec(), relations).expect("valid layout")
}

/// Random block-structured membership init (k-means would dominate the
/// setup without changing what is measured).
fn random_g0(data: &MultiTypeData, seed: u64) -> Mat {
    let mut rng = StdRng::seed_from_u64(seed);
    let blocks: Vec<Mat> = data
        .cluster_counts()
        .iter()
        .zip(data.sizes())
        .map(|(&ck, &nk)| {
            let labels: Vec<usize> = (0..nk).map(|_| rng.gen_range(0..ck)).collect();
            labels_to_membership(&labels, ck, 0.2)
        })
        .collect();
    stack_membership(&blocks)
}

/// Two multiplicative-update iterations (the second exercises the
/// implicit-`E_R` low-rank correction, which is inactive on the first).
fn engine_cfg() -> EngineConfig {
    EngineConfig {
        lambda: 0.0,
        beta: 10.0,
        use_error_matrix: true,
        l1_row_normalize: true,
        max_iter: 2,
        tol: 0.0,
        ..EngineConfig::default()
    }
}

fn bench_engine_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step_n2000_c18");
    group.sample_size(10);
    // 0.5% ≈ tf-idf doc-term sparsity; 2% / 8% stress denser corpora.
    for (tag, density) in [("d0005", 0.005), ("d002", 0.02), ("d008", 0.08)] {
        let data = synthetic_data(density, 42);
        let r_sparse = data.assemble_r_csr();
        let r_dense = data.assemble_r();
        let g0 = random_g0(&data, 43);
        let cfg = engine_cfg();

        // Equivalence gate before timing anything.
        let sparse = run_engine(&r_sparse, &data, &GraphRegularizer::None, g0.clone(), &cfg)
            .expect("sparse engine");
        let dense =
            run_engine_dense_reference(&r_dense, &data, &GraphRegularizer::None, g0.clone(), &cfg)
                .expect("dense engine");
        for (a, b) in sparse.objective_trace.iter().zip(&dense.objective_trace) {
            assert!(
                (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                "engines diverged at density {density}: {a} vs {b}"
            );
        }
        for ty in 0..3 {
            assert_eq!(
                data.labels_from_membership(&sparse.g, ty),
                data.labels_from_membership(&dense.g, ty),
                "labels diverged at density {density}"
            );
        }
        group.bench_function(format!("sparse_{tag}"), |bencher| {
            bencher.iter(|| {
                run_engine(
                    black_box(&r_sparse),
                    &data,
                    &GraphRegularizer::None,
                    g0.clone(),
                    &cfg,
                )
                .expect("sparse engine")
            });
        });
        group.bench_function(format!("dense_{tag}"), |bencher| {
            bencher.iter(|| {
                run_engine_dense_reference(
                    black_box(&r_dense),
                    &data,
                    &GraphRegularizer::None,
                    g0.clone(),
                    &cfg,
                )
                .expect("dense engine")
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine_step);
criterion_main!(benches);
