//! Criterion microbenches of the subspace learners: SPG (Algorithm 1,
//! the `‖WWᵀ‖₁`/SSQP regulariser) vs the ISTA l1 (SSC-style) ablation.
//!
//! The paper cites ref [10] for the claim that the `‖WWᵀ‖₁` regulariser
//! reaches sparser solutions "with less time consumption" than l1 — this
//! bench is the ablation backing that statement in the reproduction.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtrl_datagen::manifold::union_of_subspaces;
use mtrl_subspace::{exhaustive_support, ista_affinity, spg_affinity, IstaConfig, SpgConfig};
use std::hint::black_box;

fn bench_spg(c: &mut Criterion) {
    let mut group = c.benchmark_group("spg_affinity");
    group.sample_size(10);
    for &n_per in &[30usize, 60] {
        let (data, _) = union_of_subspaces(3, 2, 12, n_per, 0.02, 21);
        // All-pairs support, the same problem the ISTA ablation solves.
        let support = exhaustive_support(data.rows());
        group.bench_with_input(
            BenchmarkId::from_parameter(3 * n_per),
            &n_per,
            |bencher, _| {
                bencher.iter(|| {
                    spg_affinity(
                        black_box(&data),
                        &support,
                        &SpgConfig {
                            max_iter: 60,
                            ..SpgConfig::default()
                        },
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

fn bench_ista(c: &mut Criterion) {
    let mut group = c.benchmark_group("ista_affinity");
    group.sample_size(10);
    for &n_per in &[30usize, 60] {
        let (data, _) = union_of_subspaces(3, 2, 12, n_per, 0.02, 22);
        group.bench_with_input(
            BenchmarkId::from_parameter(3 * n_per),
            &n_per,
            |bencher, _| {
                bencher.iter(|| {
                    ista_affinity(
                        black_box(&data),
                        &IstaConfig {
                            max_iter: 60,
                            ..IstaConfig::default()
                        },
                    )
                    .unwrap()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_spg, bench_ista);
criterion_main!(benches);
