//! Micro-benchmarks for the tabular primitives lewisbench does not time
//! (its `tabular.scan_pass_us` covers the `Counter` counting pass):
//! conditional probabilities, row filters, a row-oriented counting
//! baseline and label → code lookups.

use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{AttrId, Context, Domain, Schema, Table};

fn make_table(n_rows: usize, n_attrs: usize, card: usize, seed: u64) -> Table {
    let mut schema = Schema::new();
    for i in 0..n_attrs {
        schema.push(
            format!("a{i}"),
            Domain::categorical((0..card).map(|v| v.to_string())),
        );
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::with_capacity(schema, n_rows);
    let mut row = vec![0u32; n_attrs];
    for _ in 0..n_rows {
        for cell in row.iter_mut() {
            *cell = rng.gen_range(0..card as u32);
        }
        t.push_row(&row).unwrap();
    }
    t
}

fn bench_conditional_probability(c: &mut Criterion) {
    let t = make_table(50_000, 12, 4, 9);
    let ctx = Context::of([(AttrId(1), 2), (AttrId(2), 0)]);
    c.bench_function("conditional_probability_50k", |b| {
        b.iter(|| t.conditional_probability(AttrId(0), 1, &ctx, 1.0).unwrap())
    });
}

fn bench_row_filter(c: &mut Criterion) {
    let t = make_table(50_000, 12, 4, 11);
    let ctx = Context::of([(AttrId(3), 1)]);
    c.bench_function("filter_50k", |b| b.iter(|| t.filter(&ctx).len()));
}

/// Row-oriented counting baseline: materialize rows, then match — the
/// naive alternative to columnar scans.
fn bench_row_oriented_baseline(c: &mut Criterion) {
    let t = make_table(50_000, 12, 4, 13);
    let ctx = Context::of([(AttrId(1), 2), (AttrId(2), 0)]);
    c.bench_function("row_oriented_count_50k", |b| {
        b.iter(|| t.rows().filter(|row| ctx.matches_row(row)).count())
    });
}

/// Label → code resolution on a wide categorical domain — the per-cell
/// cost of CSV ingestion and wire decoding. `Domain::code_of` now
/// builds a lazy hash index for wide domains; the linear baseline is
/// what every lookup used to pay.
fn bench_code_of_wide_domain(c: &mut Criterion) {
    const CARD: usize = 512;
    let labels: Vec<String> = (0..CARD).map(|i| format!("label-{i:04}")).collect();
    let domain = Domain::categorical(labels.clone());
    // a shuffled probe order, hitting the whole domain
    let probes: Vec<&String> = (0..CARD).map(|i| &labels[(i * 173) % CARD]).collect();

    let mut group = c.benchmark_group("code_of_512_labels");
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for l in &probes {
                sum += u64::from(domain.code_of(l).unwrap());
            }
            sum
        })
    });
    group.bench_function("linear_scan_baseline", |b| {
        b.iter(|| {
            let mut sum = 0u64;
            for l in &probes {
                sum += labels.iter().position(|x| &x == l).unwrap() as u64;
            }
            sum
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_conditional_probability, bench_row_filter, bench_row_oriented_baseline,
              bench_code_of_wide_domain
}
criterion_main!(benches);
