//! Full attention vs retrieval-filtered ("light") attention across
//! cache lengths — the compute-saving half of Fig. 13's shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vrex_model::attention::attention_with_selection;
use vrex_model::policy::Selection;
use vrex_tensor::rng::{gaussian_matrix, seeded_rng};

fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention");
    let d = 64;
    for cache in [512usize, 2048, 8192] {
        let mut rng = seeded_rng(1);
        let q = gaussian_matrix(&mut rng, 10, d, 1.0);
        let k = gaussian_matrix(&mut rng, cache + 10, d, 1.0);
        let v = gaussian_matrix(&mut rng, cache + 10, d, 1.0);
        group.bench_with_input(BenchmarkId::new("full", cache), &cache, |b, _| {
            b.iter(|| attention_with_selection(&q, &k, &v, cache, &Selection::All))
        });
        // ReSV-like selection: ~32.7% of the history.
        let sel: Vec<usize> = (0..cache).step_by(3).collect();
        let selection = Selection::Indices(sel);
        group.bench_with_input(BenchmarkId::new("light_33pct", cache), &cache, |b, _| {
            b.iter(|| attention_with_selection(&q, &k, &v, cache, &selection))
        });
    }
    group.finish();
}

/// The `Q · Kᵀ` score kernel at the functional stream's shapes: an
/// 8-row query block of head width 32 against 64–1 024 keys.
fn bench_matmul_transposed(c: &mut Criterion) {
    let mut group = c.benchmark_group("matmul_transposed");
    let d = 32;
    for keys in [64usize, 256, 1024] {
        let mut rng = seeded_rng(2);
        let q = gaussian_matrix(&mut rng, 8, d, 1.0);
        let k = gaussian_matrix(&mut rng, keys, d, 1.0);
        group.bench_with_input(BenchmarkId::new("q8_d32", keys), &keys, |b, _| {
            b.iter(|| q.matmul_transposed(&k))
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

criterion_group!(name = benches; config = fast_config(); targets = bench_attention, bench_matmul_transposed);
criterion_main!(benches);
