//! Micro-benchmark for the Fréchet bounds of Proposition 4.1 — the
//! monotonicity-free diagnostic no served query runs. Served scoring
//! (global, contextual, local, recourse) is timed layer by layer by
//! `lewisbench`'s traced run.

use bench::harness::{prepare, ModelKind};
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::GermanSynDataset;
use tabular::Context;

fn bench_score_bounds(c: &mut Criterion) {
    let p = prepare(
        GermanSynDataset::standard().generate(10_000, 42),
        ModelKind::ForestRegressor { threshold: 0.5 },
        Some(5),
        42,
    );
    let engine = p.engine_with_alpha(0.25);
    let est = engine.estimator();
    c.bench_function("frechet_bounds_single_contrast", |b| {
        b.iter(|| {
            est.bounds(
                lewis_core::ScoreKind::Sufficiency,
                GermanSynDataset::STATUS,
                3,
                0,
                &Context::empty(),
            )
            .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_score_bounds
}
criterion_main!(benches);
