//! Bitmap-index counting vs row scans.
//!
//! Every LEWIS score starts from a counting pass, and every cold local
//! explanation probes the support of many candidate contexts — both hit
//! the table unless a `TableIndex` answers from AND+popcount instead.
//! This bench measures `TableIndex::counting_pass` and
//! `TableIndex::count` against `Counter::build` / `Table::count` over a
//! scaled german_syn table, plus one engine-level cold local query
//! indexed vs not. Indexed results are bit-identical by construction
//! (asserted here before timing), so the only thing at stake is
//! wall-clock; `lewisbench --workload cold_1m` gives the 1M-row numbers
//! end to end, with `index.pass_us` and `index.probe_us` per layer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lewis_core::blackbox::label_table;
use lewis_core::{Engine, ExplainRequest};
use lewis_index::TableIndex;
use std::sync::Arc;
use tabular::{Context, Counter};

const ROWS: usize = 200_000;
const SEED: u64 = 42;

fn bench_indexed_counting(c: &mut Criterion) {
    let mut d = datasets::german_syn_scaled(ROWS, SEED);
    let outcome = d.outcome;
    let pred = label_table(
        &mut d.table,
        &|row: &[tabular::Value]| u32::from(row[outcome.index()] >= 5),
        "pred",
    )
    .unwrap();
    let table = Arc::new(d.table);
    let index = TableIndex::build(&table, 1).unwrap();
    // a representative pass: (adjustment ∪ intervened ∪ pred)
    let attrs = [
        datasets::GermanSynDataset::AGE,
        datasets::GermanSynDataset::STATUS,
        pred,
    ];
    let ctx = Context::empty();
    let probe = Context::of([(datasets::GermanSynDataset::STATUS, 1), (pred, 1)]);

    // parity before timing: same counter cells, same support counts
    let scanned = Counter::build(&table, &attrs, &ctx).unwrap();
    let indexed = index
        .counting_pass(&table, &attrs, &ctx)
        .unwrap()
        .expect("small grid routes through the index");
    assert_eq!(indexed.total(), scanned.total());
    assert_eq!(indexed.nonzero_groups(), scanned.nonzero_groups());
    assert_eq!(index.count(&probe), Some(table.count(&probe) as u64));

    let mut group = c.benchmark_group(&format!("counting_pass_{ROWS}_rows"));
    group.sample_size(10);
    group.bench_function("scan", |b| {
        b.iter(|| {
            Counter::build(black_box(&table), &attrs, &ctx)
                .unwrap()
                .total()
        })
    });
    group.bench_function("index", |b| {
        b.iter(|| {
            black_box(&index)
                .counting_pass(&table, &attrs, &ctx)
                .unwrap()
                .expect("indexed")
                .total()
        })
    });
    group.finish();

    let mut group = c.benchmark_group(&format!("support_probe_{ROWS}_rows"));
    group.sample_size(10);
    group.bench_function("scan", |b| b.iter(|| black_box(&table).count(&probe)));
    group.bench_function("index", |b| b.iter(|| black_box(&index).count(&probe)));
    group.finish();

    // engine level: one cold local query (context back-off makes many
    // support probes that never hit the pass cache)
    let features: Vec<tabular::AttrId> = d.features.clone();
    let graph = d.scm.graph().clone();
    let row = table.row(ROWS / 2).unwrap();
    let mut group = c.benchmark_group(&format!("cold_local_{ROWS}_rows"));
    group.sample_size(10);
    let mut answers = Vec::new();
    for enabled in [false, true] {
        let engine = Engine::builder(Arc::clone(&table))
            .graph(&graph)
            .prediction(pred, 1)
            .features(&features)
            .index(enabled)
            .build()
            .unwrap();
        let request = ExplainRequest::Local { row: row.clone() };
        answers.push(format!("{:?}", engine.run(&request).unwrap()));
        group.bench_function(if enabled { "index" } else { "scan" }, |b| {
            b.iter(|| {
                engine.clear_cache();
                format!("{:?}", engine.run(&request).unwrap()).len()
            })
        });
    }
    assert_eq!(
        answers[0], answers[1],
        "indexed engine must answer byte-identically"
    );
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_indexed_counting
}
criterion_main!(benches);
