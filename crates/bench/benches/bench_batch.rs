//! Batched vs sequential scoring — the throughput case for
//! `ScoreEstimator::scores_batch`.
//!
//! The batched path shares one counting pass per intervened attribute
//! set instead of re-scanning the 50k-row table once per contrast, so
//! it must beat its sequential counterpart here.

use bench::harness::{prepare, ModelKind};
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::GermanSynDataset;
use lewis_core::Contrast;
use tabular::{AttrId, Context};

const ROWS: usize = 50_000;

/// Every ordered value pair of every explained attribute — the exact
/// workload `Engine::global()` scores.
fn all_pair_contrasts(p: &bench::harness::Prepared) -> Vec<Contrast> {
    let mut contrasts = Vec::new();
    for &attr in &p.features {
        let card = p.table.schema().cardinality(attr).expect("feature exists") as u32;
        for hi in 0..card {
            for lo in 0..card {
                if hi != lo {
                    contrasts.push(Contrast::single(attr, hi, lo));
                }
            }
        }
    }
    contrasts
}

fn bench_sequential_vs_batched(c: &mut Criterion) {
    let p = prepare(
        GermanSynDataset::standard().generate(ROWS, 42),
        ModelKind::ForestRegressor { threshold: 0.5 },
        Some(5),
        42,
    );
    let est = p.estimator();
    let contrasts = all_pair_contrasts(&p);
    assert!(contrasts.len() >= 30, "workload too small to be meaningful");

    let mut group = c.benchmark_group("scores_50k_rows");
    group.sample_size(10);
    group.bench_function(format!("sequential_{}_contrasts", contrasts.len()), |b| {
        b.iter(|| {
            contrasts
                .iter()
                .filter(|c| est.scores_set(&c.hi, &c.lo, &Context::empty()).is_ok())
                .count()
        })
    });
    group.bench_function(format!("batched_{}_contrasts", contrasts.len()), |b| {
        b.iter(|| {
            est.scores_batch(&contrasts, &Context::empty())
                .iter()
                .filter(|r| r.is_ok())
                .count()
        })
    });
    group.finish();
}

fn bench_contextual_batched(c: &mut Criterion) {
    let p = prepare(
        GermanSynDataset::standard().generate(ROWS, 42),
        ModelKind::ForestRegressor { threshold: 0.5 },
        Some(5),
        42,
    );
    let est = p.estimator();
    let k = Context::of([(AttrId(1), 1)]); // sex = male sub-population
    let contrasts: Vec<Contrast> = all_pair_contrasts(&p)
        .into_iter()
        .filter(|c| c.hi[0].0 != AttrId(1))
        .collect();
    let mut group = c.benchmark_group("contextual_scores_50k_rows");
    group.sample_size(10);
    group.bench_function("sequential", |b| {
        b.iter(|| {
            contrasts
                .iter()
                .filter(|c| est.scores_set(&c.hi, &c.lo, &k).is_ok())
                .count()
        })
    });
    group.bench_function("batched", |b| {
        b.iter(|| {
            est.scores_batch(&contrasts, &k)
                .iter()
                .filter(|r| r.is_ok())
                .count()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sequential_vs_batched, bench_contextual_batched
}
criterion_main!(benches);
