//! Row-sharded counting passes vs the single contiguous scan.
//!
//! The counting pass is the hottest primitive in the system — every
//! LEWIS score starts with one. This bench measures `Counter::build`
//! against `Counter::build_sharded` at several shard counts over a
//! scaled german_syn table, and one engine-level cold global query
//! sharded vs not. Shard results are bit-identical by construction
//! (asserted here before timing), so the only thing at stake is
//! wall-clock; on a single-core machine the sharded path's merge
//! overhead makes it a wash — the fan-out pays on multi-core machines.
//! `lewisbench`'s traced run reports the same scan and sharded passes
//! next to the indexed one (`tabular.*_pass_us`, `index.pass_us`).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lewis_core::blackbox::label_table;
use lewis_core::Engine;
use std::sync::Arc;
use tabular::{Context, Counter, ShardedTable};

const ROWS: usize = 200_000;
const SEED: u64 = 42;

fn bench_sharded_counting(c: &mut Criterion) {
    let mut d = datasets::german_syn_scaled(ROWS, SEED);
    let outcome = d.outcome;
    let pred = label_table(
        &mut d.table,
        &|row: &[tabular::Value]| u32::from(row[outcome.index()] >= 5),
        "pred",
    )
    .unwrap();
    let table = Arc::new(d.table);
    // a representative pass: (adjustment ∪ intervened ∪ pred)
    let attrs = [
        datasets::GermanSynDataset::AGE,
        datasets::GermanSynDataset::STATUS,
        pred,
    ];
    let ctx = Context::empty();

    let baseline = Counter::build(&table, &attrs, &ctx).unwrap();
    for n_shards in [1usize, 2, 4, 8] {
        let sharded = ShardedTable::from_shared(Arc::clone(&table), n_shards);
        let merged = Counter::build_sharded(&sharded, &attrs, &ctx).unwrap();
        assert_eq!(merged.total(), baseline.total());
        assert_eq!(merged.nonzero_groups(), baseline.nonzero_groups());
    }

    let mut group = c.benchmark_group(&format!("counting_pass_{ROWS}_rows"));
    group.sample_size(10);
    group.bench_function("unsharded", |b| {
        b.iter(|| {
            Counter::build(black_box(&table), &attrs, &ctx)
                .unwrap()
                .total()
        })
    });
    for n_shards in [2usize, 4, 8] {
        let sharded = ShardedTable::from_shared(Arc::clone(&table), n_shards);
        group.bench_function(format!("sharded_{n_shards}"), |b| {
            b.iter(|| {
                Counter::build_sharded(black_box(&sharded), &attrs, &ctx)
                    .unwrap()
                    .total()
            })
        });
    }
    group.finish();

    // engine level: one cold global query (all features, all passes)
    let features: Vec<tabular::AttrId> = d.features.clone();
    let graph = d.scm.graph().clone();
    let mut group = c.benchmark_group(&format!("cold_global_{ROWS}_rows"));
    group.sample_size(10);
    for n_shards in [1usize, 4] {
        let engine = Engine::builder(Arc::clone(&table))
            .graph(&graph)
            .prediction(pred, 1)
            .features(&features)
            .shards(n_shards)
            // the scan path: an index would answer instead of the shards
            .index(false)
            .build()
            .unwrap();
        group.bench_function(format!("shards_{n_shards}"), |b| {
            b.iter(|| {
                engine.clear_cache();
                engine.global().unwrap().attributes.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_sharded_counting
}
criterion_main!(benches);
