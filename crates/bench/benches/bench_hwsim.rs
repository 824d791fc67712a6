//! Hardware-model throughput: DRAM/SSD access pricing and event-engine
//! scheduling rates (the simulator substrate itself).

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use vrex_hwsim::dram::{Dram, DramConfig};
use vrex_hwsim::ssd::{Ssd, SsdConfig};
use vrex_hwsim::Engine;
use vrex_model::ModelConfig;
use vrex_system::pipeline::{layer_costs, Workload};
use vrex_system::{Method, PlatformSpec};

fn bench_dram_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("hwsim/dram");
    for mb in [1u64, 16] {
        group.bench_with_input(BenchmarkId::new("stream", mb), &mb, |b, &mb| {
            b.iter(|| {
                let mut d = Dram::new(DramConfig::lpddr5_204gb());
                d.access(0, mb << 20)
            })
        });
    }
    group.finish();
}

fn bench_ssd_model(c: &mut Criterion) {
    let mut group = c.benchmark_group("hwsim/ssd");
    group.bench_function("contiguous_256MB", |b| {
        b.iter(|| Ssd::new(SsdConfig::bg6_class()).read_contiguous(256 << 20))
    });
    group.bench_function("scattered_64k_reqs", |b| {
        b.iter(|| Ssd::new(SsdConfig::bg6_class()).read_scattered(65_536, 4096))
    });
    group.finish();
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("hwsim/engine_schedule_10k_tasks", |b| {
        b.iter(|| {
            let mut e = Engine::new();
            let r1 = e.add_resource("a");
            let r2 = e.add_resource("b");
            let mut prev = None;
            for i in 0..10_000u64 {
                let deps: Vec<_> = prev.into_iter().collect();
                let r = if i % 2 == 0 { r1 } else { r2 };
                prev = Some(e.schedule(r, 100 + i % 7, &deps, "t", i));
            }
            e.makespan()
        })
    });
}

/// A timeline of `n` back-to-back 100 ps intervals, then an idle gap
/// that holds `gap_slots` 10 ps reservations, then one more interval at
/// the frontier. Returns the engine, the resource and the gap's start.
fn past_gap_timeline(n: u64, gap_slots: u64) -> (Engine, vrex_hwsim::ResourceId, u64) {
    let mut e = Engine::new();
    let r = e.add_resource("link");
    for _ in 0..n {
        e.schedule(r, 100, &[], "fill", 0);
    }
    let gap = e.next_free(r);
    e.reserve_after(r, gap + 10 * gap_slots, 100, "frontier", 0);
    (e, r, gap)
}

fn bench_engine_past_gap(c: &mut Criterion) {
    let mut group = c.benchmark_group("hwsim/engine_reserve_past_gap");
    for (label, n) in [("1k", 1_000u64), ("10k", 10_000), ("100k", 100_000)] {
        // A timeline absorbs n/8 reservations before it is rebuilt
        // (untimed), so it stays within 12.5% of its nominal length.
        let per_build = n / 8;
        group.bench_function(label, |b| {
            // One iteration is one earliest-fit reservation behind the
            // frontier, back to back with the previous one in the gap.
            b.iter_custom(|iters| {
                let mut measured = Duration::ZERO;
                let mut left = iters;
                while left > 0 {
                    let (mut e, r, gap) = past_gap_timeline(n, per_build);
                    let k = left.min(per_build);
                    let start = Instant::now();
                    for i in 0..k {
                        e.reserve_after(r, gap + 10 * i, 10, "restore", 4096);
                    }
                    measured += start.elapsed();
                    left -= k;
                }
                measured
            })
        });
    }
    group.finish();
}

fn bench_full_system_step(c: &mut Criterion) {
    let model = ModelConfig::llama3_8b();
    c.bench_function("system/layer_costs_vrex8_40k", |b| {
        let w = Workload::frame(&model, 40_000, 1);
        b.iter(|| layer_costs(&PlatformSpec::vrex8(), Method::ReSV, &w))
    });
}

criterion_group!(
    benches,
    bench_dram_model,
    bench_ssd_model,
    bench_engine,
    bench_engine_past_gap,
    bench_full_system_step
);
criterion_main!(benches);
