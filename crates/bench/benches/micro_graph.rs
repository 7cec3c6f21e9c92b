//! Criterion microbenches of the graph substrate: pNN construction
//! (the `O(n_k² p K)` term of Sec. III-F), the parallel-scaling curve of
//! the blocked Gram kernel against the seed brute-force path, and both
//! Laplacian assemblies.
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary that the CI
//! `bench-smoke` job gates against the committed `BENCH_graph.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_graph::knn::pnn_graph_brute_reference;
use mtrl_graph::{
    knn_indices_with_threads, laplacian_csr, pnn_graph, pnn_graph_with_threads, LaplacianKind,
    WeightScheme,
};
use mtrl_linalg::random::rand_uniform;
use std::hint::black_box;

fn bench_pnn(c: &mut Criterion) {
    let mut group = c.benchmark_group("pnn_graph_p5");
    for &n in &[200usize, 500] {
        let data = rand_uniform(n, 64, 0.0, 1.0, 11);
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |bencher, _| {
            bencher.iter(|| pnn_graph(black_box(&data), 5, WeightScheme::Cosine));
        });
    }
    group.finish();
}

/// The acceptance benchmark of the parallel sparse pipeline: the seed
/// serial path vs the blocked kernel at 1/2/4 worker threads on
/// `n = 2000, d = 64, p = 5`. Outputs are asserted bit-identical before
/// anything is timed.
fn bench_pnn_scaling(c: &mut Criterion) {
    let data = rand_uniform(2000, 64, 0.0, 1.0, 11);
    let reference = pnn_graph_brute_reference(&data, 5, WeightScheme::Cosine);
    for threads in [1usize, 2, 4] {
        assert_eq!(
            pnn_graph_with_threads(&data, 5, WeightScheme::Cosine, threads),
            reference,
            "blocked kernel (t={threads}) diverged from the seed path"
        );
    }

    let mut group = c.benchmark_group("pnn_scaling_n2000_d64_p5");
    group.sample_size(10);
    group.bench_function("seed_serial", |bencher| {
        bencher.iter(|| pnn_graph_brute_reference(black_box(&data), 5, WeightScheme::Cosine));
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("blocked_t{threads}"), |bencher| {
            bencher.iter(|| {
                pnn_graph_with_threads(black_box(&data), 5, WeightScheme::Cosine, threads)
            });
        });
    }
    group.finish();
}

/// The Gram distance chain (`knn_indices`, the kernel the pNN
/// construction spends its time in) at `n = 2000, d = 256`, where `Xᵀ`
/// is 4 MiB and spills the 2 MiB L2 — the bandwidth-bound counterpart
/// of the compute-bound `d = 64` scaling group above. The group times
/// the kernel itself rather than `pnn_graph`, whose edge weighting would
/// only dilute the measurement.
fn bench_pnn_gram_bandwidth(c: &mut Criterion) {
    let data = rand_uniform(2000, 256, 0.0, 1.0, 11);
    let mut group = c.benchmark_group("pnn_gram_n2000_d256_p5");
    group.sample_size(10);
    for threads in [1usize, 4] {
        group.bench_function(format!("knn_t{threads}"), |bencher| {
            bencher.iter(|| knn_indices_with_threads(black_box(&data), 5, threads));
        });
    }
    group.finish();
}

fn bench_weight_schemes(c: &mut Criterion) {
    let data = rand_uniform(300, 64, 0.0, 1.0, 12);
    let mut group = c.benchmark_group("weighting_scheme_300");
    for (name, scheme) in [
        ("binary", WeightScheme::Binary),
        ("heat", WeightScheme::HeatKernel { sigma: -1.0 }),
        ("cosine", WeightScheme::Cosine),
    ] {
        group.bench_function(name, |bencher| {
            bencher.iter(|| pnn_graph(black_box(&data), 5, scheme));
        });
    }
    group.finish();
}

fn bench_laplacian(c: &mut Criterion) {
    let data = rand_uniform(400, 32, 0.0, 1.0, 13);
    let w = pnn_graph(&data, 5, WeightScheme::Cosine);
    c.bench_function("laplacian_csr_sym_normalized_400", |bencher| {
        bencher.iter(|| laplacian_csr(black_box(&w), LaplacianKind::SymNormalized));
    });
}

/// The fit-loop shapes the sparse pipeline exists for: `L·G` and
/// `tr(GᵀLG)` on a p-NN Laplacian at `n = 2000, c = 16`, sparse vs the
/// dense block product they replaced.
fn bench_spmm_quad(c: &mut Criterion) {
    let data = rand_uniform(2000, 32, 0.0, 1.0, 14);
    let w = pnn_graph(&data, 5, WeightScheme::Cosine);
    let l = laplacian_csr(&w, LaplacianKind::SymNormalized);
    let l_dense = l.to_dense();
    let g = rand_uniform(2000, 16, 0.0, 1.0, 15);
    let mut group = c.benchmark_group("laplacian_apply_n2000_c16");
    group.bench_function("spmm_dense", |bencher| {
        bencher.iter(|| black_box(&l).spmm_dense(black_box(&g)));
    });
    group.bench_function("quad_form", |bencher| {
        bencher.iter(|| black_box(&l).quad_form(black_box(&g)));
    });
    group.bench_function("dense_matmul", |bencher| {
        bencher.iter(|| mtrl_linalg::ops::matmul(black_box(&l_dense), black_box(&g)).unwrap());
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_pnn,
    bench_pnn_scaling,
    bench_pnn_gram_bandwidth,
    bench_weight_schemes,
    bench_laplacian,
    bench_spmm_quad
);
criterion_main!(benches);
