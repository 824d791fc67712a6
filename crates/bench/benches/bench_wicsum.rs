//! WiCSum selection: full-sort reference vs the WTU's early-exit bucket
//! dataflow (the hardware claim of Fig. 11).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::Rng;
use vrex_core::earlyexit::early_exit_select_row;
use vrex_core::wicsum::wicsum_select_row;
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

fn concentrated_scores(n: usize) -> (Vec<f32>, Vec<usize>) {
    // Power-law scores: a few large values carry most of the mass — the
    // regime where early exit wins (paper: top ~16% per row).
    let mut rng = seeded_rng(9);
    let scores: Vec<f32> = (0..n)
        .map(|i| 100.0 / (1.0 + i as f32) + rng.gen_range(0.0f32..0.5))
        .collect();
    let counts: Vec<usize> = (0..n).map(|_| rng.gen_range(1..64)).collect();
    (scores, counts)
}

fn bench_wicsum(c: &mut Criterion) {
    let mut group = c.benchmark_group("wicsum");
    for n in [256usize, 1024, 4096] {
        let (scores, counts) = concentrated_scores(n);
        group.bench_with_input(BenchmarkId::new("full_sort", n), &n, |b, _| {
            b.iter(|| wicsum_select_row(&scores, &counts, 0.3))
        });
        group.bench_with_input(BenchmarkId::new("early_exit", n), &n, |b, _| {
            b.iter(|| early_exit_select_row(&scores, &counts, 0.3, 32))
        });
    }
    group.finish();
}

/// One query row as ReSV's `select_clusters` feeds it to the WTU: the
/// softmax numerator `exp(s - max)` of scaled `q · Key_clusterᵀ`
/// scores, with per-cluster token counts of 1–8 (the functional
/// stream averages ~3 tokens per cluster).
fn softmax_numerator_row(n_clusters: usize) -> (Vec<f32>, Vec<usize>) {
    let d = 32;
    let mut rng = seeded_rng(11);
    let q = gaussian_matrix(&mut rng, 1, d, 1.0);
    let reps = gaussian_matrix(&mut rng, n_clusters, d, 1.0);
    let mut scores = q.matmul_transposed(&reps);
    scores.scale_in_place(1.0 / (d as f32).sqrt());
    let row = scores.row(0);
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let numerators = row.iter().map(|&s| (s - max).exp()).collect();
    let counts = (0..n_clusters).map(|_| rng.gen_range(1..9)).collect();
    (numerators, counts)
}

fn bench_resv_rows(c: &mut Criterion) {
    let mut group = c.benchmark_group("wicsum_resv_row");
    for n in [64usize, 128, 256, 512] {
        let (scores, counts) = softmax_numerator_row(n);
        group.bench_with_input(BenchmarkId::new("full_sort", n), &n, |b, _| {
            b.iter(|| wicsum_select_row(&scores, &counts, 0.3))
        });
        group.bench_with_input(BenchmarkId::new("early_exit", n), &n, |b, _| {
            b.iter(|| early_exit_select_row(&scores, &counts, 0.3, 32))
        });
    }
    group.finish();
}

fn fast_config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(2))
}

criterion_group!(name = benches; config = fast_config(); targets = bench_wicsum, bench_resv_rows);
criterion_main!(benches);
