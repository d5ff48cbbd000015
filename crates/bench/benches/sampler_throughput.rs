//! Per-event throughput of every sampler — the microbenchmark behind the
//! paper's running-time columns and its "≈3.2 µs per event" claim
//! (§V-B(2)). Each iteration processes a full fully-dynamic stream with
//! a fresh one-query session.
//!
//! The engine-layer cases measure the two claims of the batched/parallel
//! refactor directly rather than asserting them:
//!
//! * `batched_vs_sequential/*` — the same session fed per-event vs
//!   through `BatchDriver::run_session`, for every algorithm.
//! * `ensemble_scaling/*` — 8 independently seeded replicas executed on
//!   1/2/4 worker threads; on multi-core hardware the 4-thread case
//!   should complete the same work in well under ⅔ the 1-thread time
//!   (the >1.5× acceptance bar; a single-core host will show ≈1×).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use wsd_core::engine::{BatchDriver, Ensemble};
use wsd_core::{Algorithm, SessionBuilder, StreamSession};
use wsd_graph::Pattern;
use wsd_stream::gen::GeneratorConfig;
use wsd_stream::Scenario;

fn stream() -> wsd_stream::EventStream {
    let edges = GeneratorConfig::HolmeKim { vertices: 2_000, edges_per_vertex: 5, triad_prob: 0.5 }
        .generate(7);
    Scenario::default_light().apply(&edges, 3)
}

fn session(alg: Algorithm, pattern: Pattern, capacity: usize, seed: u64) -> StreamSession {
    SessionBuilder::new(alg, capacity, seed).query(pattern).build()
}

fn estimate(session: &StreamSession) -> f64 {
    session.estimate(session.queries().next().expect("one query").0)
}

fn bench_samplers(c: &mut Criterion) {
    let events = stream();
    let capacity = events.len() / 20; // ~5% budget
    let mut group = c.benchmark_group("sampler_throughput/triangle");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    for alg in [
        Algorithm::WsdL,
        Algorithm::WsdH,
        Algorithm::WsdUniform,
        Algorithm::GpsA,
        Algorithm::Triest,
        Algorithm::ThinkD,
        Algorithm::Wrs,
    ] {
        group.bench_function(alg.name(), |b| {
            b.iter_batched(
                || session(alg, Pattern::Triangle, capacity, 42),
                |mut session| {
                    session.process_all(&events);
                    black_box(estimate(&session))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();

    // Pattern cost scaling for the paper's headline sampler.
    let mut group = c.benchmark_group("sampler_throughput/wsd_h_patterns");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    for pattern in [Pattern::Wedge, Pattern::Triangle, Pattern::FourClique] {
        group.bench_function(pattern.name(), |b| {
            b.iter_batched(
                || session(Algorithm::WsdH, pattern, capacity, 42),
                |mut session| {
                    session.process_all(&events);
                    black_box(estimate(&session))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_batched_vs_sequential(c: &mut Criterion) {
    let events = stream();
    let capacity = events.len() / 20;
    let mut group = c.benchmark_group("batched_vs_sequential/triangle");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.sample_size(10);
    let driver = BatchDriver::new();
    for alg in
        [Algorithm::WsdH, Algorithm::GpsA, Algorithm::Triest, Algorithm::ThinkD, Algorithm::Wrs]
    {
        group.bench_function(format!("{}/sequential", alg.name()), |b| {
            b.iter_batched(
                || session(alg, Pattern::Triangle, capacity, 42),
                |mut session| {
                    for &ev in &events {
                        session.process(ev);
                    }
                    black_box(estimate(&session))
                },
                BatchSize::LargeInput,
            );
        });
        group.bench_function(format!("{}/batched", alg.name()), |b| {
            b.iter_batched(
                || session(alg, Pattern::Triangle, capacity, 42),
                |mut session| {
                    driver.run_session(&mut session, &events);
                    black_box(estimate(&session))
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

fn bench_ensemble_scaling(c: &mut Criterion) {
    let events = stream();
    let capacity = events.len() / 20;
    const REPLICAS: usize = 8;
    let mut group = c.benchmark_group("ensemble_scaling/wsd_h_8_replicas");
    // Total work per iteration: every replica ingests the whole stream.
    group.throughput(Throughput::Elements((events.len() * REPLICAS) as u64));
    group.sample_size(10);
    // Baseline: the pre-engine protocol — repeated runs, one after the
    // other on the caller's thread.
    group.bench_function("sequential_repeats", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for seed in 0..REPLICAS as u64 {
                let mut session = session(Algorithm::WsdH, Pattern::Triangle, capacity, seed);
                session.process_all(&events);
                acc += estimate(&session);
            }
            black_box(acc / REPLICAS as f64)
        });
    });
    for threads in [1usize, 2, 4] {
        group.bench_function(format!("{threads}_threads"), |b| {
            let ensemble = Ensemble::new(REPLICAS).with_threads(threads);
            b.iter(|| {
                let report = ensemble.run_sessions(&events, |seed| {
                    session(Algorithm::WsdH, Pattern::Triangle, capacity, seed)
                });
                black_box(report.queries[0].1.mean)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_samplers, bench_batched_vs_sequential, bench_ensemble_scaling);
criterion_main!(benches);
