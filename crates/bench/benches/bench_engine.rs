//! Warm vs cold: the `Engine`'s cross-query counting-pass cache.
//!
//! The workload is the paper's serving scenario (§3.2): one trained
//! estimator answering a stream of repeated and overlapping contextual
//! queries. Two ways to serve the same ≥20-query batch:
//!
//! * `engine_cold_cache` — one shared `Engine`, but the cache cleared
//!   before every batch (isolates the cache's contribution from the
//!   one-off construction savings);
//! * `engine_warm` — one shared `Engine` with a warm cache: repeated
//!   `(attribute, context)` keys reuse their counting passes.
//!
//! The warm path must beat the cold one; results are bit-identical
//! (pinned by `tests/engine_api.rs`, sanity-checked here at setup).

use bench::harness::{prepare, ModelKind, Prepared};
use criterion::{criterion_group, criterion_main, Criterion};
use datasets::GermanSynDataset;
use lewis_core::{ExplainRequest, ExplainResponse};
use tabular::Context;

const ROWS: usize = 20_000;

fn prepared() -> Prepared {
    prepare(
        GermanSynDataset::standard().generate(ROWS, 42),
        ModelKind::ForestRegressor { threshold: 0.5 },
        Some(5),
        42,
    )
}

/// ≥20 contextual queries with heavy key overlap: every non-context
/// feature probed inside each sex sub-population, the whole sweep
/// repeated as further waves (a dashboard refreshing).
fn request_stream(p: &Prepared) -> Vec<ExplainRequest> {
    let mut requests = Vec::new();
    for _wave in 0..3 {
        for sex in 0..2u32 {
            let k = Context::of([(GermanSynDataset::SEX, sex)]);
            for &attr in &p.features {
                if attr == GermanSynDataset::SEX {
                    continue;
                }
                requests.push(ExplainRequest::Contextual { attr, k: k.clone() });
            }
        }
        requests.push(ExplainRequest::ContextualGlobal {
            k: Context::of([(GermanSynDataset::SEX, 0)]),
        });
    }
    assert!(requests.len() >= 20, "acceptance workload is >= 20 queries");
    requests
}

fn bench_warm_vs_cold(c: &mut Criterion) {
    let p = prepared();
    let requests = request_stream(&p);
    let engine = p.engine();

    // Sanity: warm results equal a cold engine's results before timing.
    let warm_once = engine.run_batch(&requests);
    let warm_twice = engine.run_batch(&requests);
    let cold = p.engine().run_batch(&requests);
    for ((w1, w2), c0) in warm_once.iter().zip(&warm_twice).zip(&cold) {
        let key = |r: &lewis_core::Result<ExplainResponse>| match r {
            Ok(ExplainResponse::Contextual(c)) => format!("{:?}", c.scores),
            Ok(ExplainResponse::Global(g)) => format!("{:?}", g.attributes),
            other => format!("{other:?}"),
        };
        assert_eq!(key(w1), key(w2), "warm must be stable");
        assert_eq!(key(w1), key(c0), "warm must equal cold");
    }

    let name = format!("engine_cache_{}_queries_20k_rows", requests.len());
    let mut group = c.benchmark_group(&name);
    group.sample_size(10);
    group.bench_function("engine_cold_cache", |b| {
        b.iter(|| {
            engine.clear_cache();
            engine.run_batch(&requests).len()
        })
    });
    group.bench_function("engine_warm", |b| {
        b.iter(|| engine.run_batch(&requests).len())
    });
    group.finish();

    println!("cache after run: {}", engine.cache_stats());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_warm_vs_cold
}
criterion_main!(benches);
