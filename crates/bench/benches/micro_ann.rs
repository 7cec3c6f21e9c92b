//! Criterion microbenches of the approximate-NN layer: p-NN graph
//! construction through each [`GraphBackend`] across the size sweep the
//! subsystem exists for. The exact blocked kernel is timed at the sizes
//! where it is still tractable, so the committed summary documents the
//! crossover — at `n = 2000` the two are close, by `n = 20 000` the RP
//! forest is comfortably ahead, and the `n = 50 000` full-mode entry
//! only exists because of it.
//!
//! With `MTRL_BENCH_JSON` set, the run emits the summary the CI
//! `bench-smoke` job gates against the committed `BENCH_ann.json`.
//! Quick mode (`MTRL_BENCH_QUICK=1`) drops the `n = 50 000` entries —
//! their builds alone would dominate the CI job — so the committed
//! baseline covers `n ∈ {2000, 20 000}`; the 50k numbers quoted in the
//! README come from a full-mode run of this bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_ann::{pnn_graph_backend, GraphBackend, RpForestParams};
use mtrl_graph::WeightScheme;
use mtrl_linalg::random::rand_uniform;
use std::hint::black_box;

fn quick_mode() -> bool {
    std::env::var("MTRL_BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// Exact vs the RP forest on the same data, `p = 5,
/// d = 32`. One group per size so the per-entry names stay stable when
/// the size sweep changes.
fn bench_ann_build(c: &mut Criterion) {
    let sizes: &[usize] = if quick_mode() {
        &[2000, 20_000]
    } else {
        &[2000, 20_000, 50_000]
    };
    let forest = GraphBackend::RpForest(RpForestParams::default());
    let mut group = c.benchmark_group("ann_pnn_p5_d32");
    group.sample_size(10);
    for &n in sizes {
        let data = rand_uniform(n, 32, 0.0, 1.0, 31);
        // The exact kernel is O(n²·d); past 20k it is minutes per
        // sample, which is exactly the regime the ANN backend replaces.
        if n <= 20_000 {
            group.bench_with_input(BenchmarkId::new("exact", n), &n, |bencher, _| {
                bencher.iter(|| {
                    pnn_graph_backend(
                        black_box(&data),
                        5,
                        WeightScheme::Cosine,
                        &GraphBackend::Exact,
                    )
                });
            });
        }
        group.bench_with_input(BenchmarkId::new("rp_forest", n), &n, |bencher, _| {
            bencher.iter(|| pnn_graph_backend(black_box(&data), 5, WeightScheme::Cosine, &forest));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ann_build);
criterion_main!(benches);
