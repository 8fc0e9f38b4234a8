//! The owned `Engine` surface: thread-sharing, the counting-pass
//! cache's bit-exactness, and the typed no-support outcomes.
//!
//! * N threads sharing one `Arc<Engine>` must produce exactly the
//!   explanations a single thread produces;
//! * cache-warm scores must be bit-identical to cache-cold scores
//!   (property-tested over random tables);
//! * an attribute with no supported value pair reports
//!   `best_pair == None` (not a silent `(0, 0)`).

use lewis::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;

/// A small random labelled table: three feature attributes plus a
/// derived binary prediction column (same shape as the batch tests).
fn arb_labelled_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec((0u32..3, 0u32..4, 0u32..2), 12..120).prop_map(|rows| {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::categorical(["0", "1", "2", "3"]));
        s.push("c", Domain::boolean());
        s.push("pred", Domain::boolean());
        let mut t = Table::new(s);
        for (a, b, c) in rows {
            let pred = u32::from(a + b + c >= 3);
            t.push_row(&[a, b, c, pred]).unwrap();
        }
        t
    })
}

fn engine_over(t: &Table, alpha: f64) -> Engine {
    Engine::builder(t.clone())
        .prediction(AttrId(3), 1)
        .features(&[AttrId(0), AttrId(1), AttrId(2)])
        .alpha(alpha)
        .build()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Cache-warm scores must be **bit-identical** to cache-cold scores:
    /// a fresh engine's first answer (cold pass) equals a warmed
    /// engine's repeat answer (cache hit) down to the f64 bits.
    #[test]
    fn cache_warm_scores_bit_identical_to_cold(
        t in arb_labelled_table(),
        alpha in 0.0f64..2.0,
        k_attr in 0u32..3,
        k_val in 0u32..2,
    ) {
        let cold = engine_over(&t, alpha);
        let warm = engine_over(&t, alpha);
        let contexts = [Context::empty(), Context::of([(AttrId(k_attr), k_val)])];
        // populate the warm engine's cache with a full sweep
        for k in &contexts {
            for attr in 0..3u32 {
                if k.constrains(AttrId(attr)) { continue; }
                let _ = warm.attribute_scores(AttrId(attr), k);
            }
        }
        prop_assert!(warm.cache_stats().misses > 0, "sweep must build passes");
        for k in &contexts {
            for attr in 0..3u32 {
                if k.constrains(AttrId(attr)) { continue; }
                let c = cold.attribute_scores(AttrId(attr), k).unwrap();
                let w = warm.attribute_scores(AttrId(attr), k).unwrap();
                prop_assert_eq!(&c, &w, "cold vs warm for attr {} in {:?}", attr, k);
                prop_assert_eq!(c.scores.necessity.to_bits(), w.scores.necessity.to_bits());
                prop_assert_eq!(c.scores.sufficiency.to_bits(), w.scores.sufficiency.to_bits());
                prop_assert_eq!(c.scores.nesuf.to_bits(), w.scores.nesuf.to_bits());
            }
        }
        prop_assert!(warm.cache_stats().hits > 0, "repeat sweep must hit the cache");
    }
}

/// Build the German-syn audit pipeline shared by the integration tests.
fn german_engine(n: usize, seed: u64) -> Engine {
    use lewis::datasets::GermanSynDataset;
    use lewis::ml::encode::{Encoding, TableEncoder};
    use lewis::ml::forest::ForestParams;
    use lewis::ml::RandomForestClassifier;

    let dataset = GermanSynDataset::standard().generate(n, seed);
    let scm = dataset.scm;
    let features = dataset.features.clone();
    let mut table = dataset.table;
    let labels: Vec<u32> = table
        .column(GermanSynDataset::SCORE)
        .unwrap()
        .iter()
        .map(|&b| u32::from(b >= 5))
        .collect();
    let encoder = TableEncoder::new(table.schema(), &features, Encoding::Ordinal).unwrap();
    let xs = encoder.encode_table(&table);
    let forest = RandomForestClassifier::fit(
        &xs,
        &labels,
        2,
        &ForestParams {
            n_trees: 15,
            ..ForestParams::default()
        },
        seed,
    )
    .unwrap();
    let bb = ClassifierBox::new(forest, encoder);
    let pred = label_table(&mut table, &bb, "pred").unwrap();
    Engine::builder(table)
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.25)
        .build()
        .unwrap()
}

/// N threads sharing one `Arc<Engine>` must return exactly the
/// single-threaded explanations — same rankings, same bits.
#[test]
fn concurrent_queries_match_single_threaded() {
    use lewis::datasets::GermanSynDataset;

    let engine = Arc::new(german_engine(3_000, 7));
    let k = Context::of([(GermanSynDataset::SEX, 1)]);
    let row = engine.table().row(17).unwrap();

    // single-threaded ground truth, computed on a *fresh* engine so the
    // concurrent run below also exercises cold-cache racing
    let baseline_engine = german_engine(3_000, 7);
    let baseline_global = baseline_engine.global().unwrap();
    let baseline_ctx = baseline_engine.contextual_global(&k).unwrap();
    let baseline_local = baseline_engine.local(&row).unwrap();

    let n_threads = 8;
    let mut handles = Vec::new();
    for worker in 0..n_threads {
        let engine = Arc::clone(&engine);
        let k = k.clone();
        let row = row.clone();
        handles.push(thread::spawn(move || {
            // stagger the query mix so threads race different passes
            let mut out = Vec::new();
            for round in 0..3 {
                if (worker + round) % 2 == 0 {
                    out.push((
                        engine.global().unwrap(),
                        engine.contextual_global(&k).unwrap(),
                        engine.local(&row).unwrap(),
                    ));
                } else {
                    let l = engine.local(&row).unwrap();
                    let c = engine.contextual_global(&k).unwrap();
                    let g = engine.global().unwrap();
                    out.push((g, c, l));
                }
            }
            out
        }));
    }
    for handle in handles {
        for (g, c, l) in handle.join().expect("worker thread panicked") {
            assert_eq!(g, baseline_global, "global must not depend on concurrency");
            assert_eq!(c, baseline_ctx, "contextual must not depend on concurrency");
            assert_eq!(l, baseline_local, "local must not depend on concurrency");
        }
    }
    let stats = engine.cache_stats();
    assert!(
        stats.hits > 0,
        "threads must share counting passes: {stats:?}"
    );
}

/// `run_batch` must agree with `run`, positionally.
#[test]
fn run_batch_agrees_with_individual_runs() {
    use lewis::datasets::GermanSynDataset;

    let engine = german_engine(2_000, 9);
    let row = engine.table().row(3).unwrap();
    let requests = vec![
        ExplainRequest::Global,
        ExplainRequest::Contextual {
            attr: GermanSynDataset::STATUS,
            k: Context::of([(GermanSynDataset::SEX, 0)]),
        },
        ExplainRequest::Local { row: row.clone() },
        ExplainRequest::ContextualGlobal {
            k: Context::of([(GermanSynDataset::SEX, 1)]),
        },
        ExplainRequest::Global,
    ];
    let batch = engine.run_batch(&requests);
    assert_eq!(batch.len(), requests.len());
    for (request, from_batch) in requests.iter().zip(batch) {
        let alone = engine.run(request).unwrap();
        let from_batch = from_batch.unwrap();
        assert_eq!(
            format!("{alone:?}"),
            format!("{from_batch:?}"),
            "batch answer must equal the standalone answer"
        );
    }
}

/// An attribute whose every ordered value pair lacks support in the
/// context reports `best_pair == None` and zero scores — the old API
/// returned a misleading `(0, 0)` sentinel here.
#[test]
fn best_pair_is_none_when_no_pair_has_support() {
    let mut s = Schema::new();
    s.push("z", Domain::boolean());
    s.push("x", Domain::boolean());
    s.push("pred", Domain::boolean());
    let mut t = Table::new(s);
    // x = 1 never occurs alongside z = 1, so within k = {z = 1} the only
    // ordered pair of x has an empty arm.
    for _ in 0..10 {
        t.push_row(&[0, 0, 0]).unwrap();
        t.push_row(&[0, 1, 1]).unwrap();
        t.push_row(&[1, 0, 0]).unwrap();
    }
    let engine = Engine::builder(t)
        .prediction(AttrId(2), 1)
        .features(&[AttrId(0), AttrId(1)])
        .alpha(0.0)
        .build()
        .unwrap();
    let unsupported = engine
        .attribute_scores(AttrId(1), &Context::of([(AttrId(0), 1)]))
        .unwrap();
    assert_eq!(unsupported.best_pair, None);
    assert_eq!(unsupported.scores, Scores::default());
    // with full support the maximizing contrast is reported
    let supported = engine
        .attribute_scores(AttrId(1), &Context::empty())
        .unwrap();
    assert_eq!(supported.best_pair, Some((1, 0)));
    assert!(supported.scores.sufficiency > 0.9);
}

/// The expected no-support outcome is typed (`LewisError::Unsupported`),
/// distinct from caller errors (`LewisError::Invalid`).
#[test]
fn unsupported_is_a_typed_outcome() {
    let mut s = Schema::new();
    s.push("z", Domain::boolean());
    s.push("x", Domain::boolean());
    s.push("pred", Domain::boolean());
    let mut t = Table::new(s);
    for _ in 0..5 {
        t.push_row(&[0, 0, 0]).unwrap();
        t.push_row(&[0, 1, 1]).unwrap();
        t.push_row(&[1, 0, 0]).unwrap();
    }
    let engine = Engine::builder(t)
        .prediction(AttrId(2), 1)
        .features(&[AttrId(0), AttrId(1)])
        .alpha(0.0)
        .build()
        .unwrap();
    let est = engine.estimator();
    // the x = 1 arm is empty under z = 1: typed no-support outcome
    match est.scores(AttrId(1), 1, 0, &Context::of([(AttrId(0), 1)])) {
        Err(e) => assert!(e.is_unsupported(), "expected Unsupported, got {e}"),
        Ok(s) => panic!("empty arm cannot score: {s:?}"),
    }
    // a malformed request stays Invalid
    match est.scores(AttrId(1), 1, 1, &Context::empty()) {
        Err(LewisError::Invalid(_)) => {}
        other => panic!("hi == lo must be Invalid, got {other:?}"),
    }
}
