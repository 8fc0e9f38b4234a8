//! The batched scoring path is a *pure optimization*: it must agree
//! exactly with the sequential per-contrast estimator.

use lewis::core::{Contrast, Engine};
use lewis::datasets::GermanSynDataset;
use lewis::tabular::{AttrId, Context, Domain, Schema, Table};
use proptest::prelude::*;

/// A small random labelled table: three feature attributes plus a
/// derived binary prediction column.
fn arb_labelled_table() -> impl Strategy<Value = Table> {
    proptest::collection::vec((0u32..3, 0u32..4, 0u32..2), 8..120).prop_map(|rows| {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["0", "1", "2"]));
        s.push("b", Domain::categorical(["0", "1", "2", "3"]));
        s.push("c", Domain::boolean());
        s.push("pred", Domain::boolean());
        let mut t = Table::new(s);
        for (a, b, c) in rows {
            // deterministic pseudo-model so predictions correlate with
            // the features
            let pred = u32::from(a + b + c >= 3);
            t.push_row(&[a, b, c, pred]).unwrap();
        }
        t
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `scores_batch` must agree *exactly* (bit-for-bit, including
    /// which contrasts error) with a sequential loop of `scores_set`.
    #[test]
    fn batch_agrees_exactly_with_sequential_scores_set(
        t in arb_labelled_table(),
        alpha in 0.0f64..2.0,
        k_attr in 0u32..3,
        k_val in 0u32..2,
        with_ctx in 0u32..2,
    ) {
        let pred = AttrId(3);
        let engine = Engine::builder(t)
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1), AttrId(2)])
            .alpha(alpha)
            .build()
            .unwrap();
        let est = engine.estimator();
        let k = if with_ctx == 1 {
            Context::of([(AttrId(k_attr), k_val)])
        } else {
            Context::empty()
        };
        // every ordered pair of every free attribute, plus a set
        // contrast and a deliberately malformed one
        let mut contrasts = Vec::new();
        let cards = [3u32, 4, 2];
        for attr in 0..3u32 {
            if k.constrains(AttrId(attr)) {
                continue;
            }
            for hi in 0..cards[attr as usize] {
                for lo in 0..cards[attr as usize] {
                    if hi != lo {
                        contrasts.push(Contrast::single(AttrId(attr), hi, lo));
                    }
                }
            }
        }
        if !k.constrains(AttrId(0)) && !k.constrains(AttrId(2)) {
            contrasts.push(Contrast::set(
                &[(AttrId(0), 2), (AttrId(2), 1)],
                &[(AttrId(0), 0), (AttrId(2), 0)],
            ));
        }
        contrasts.push(Contrast::single(AttrId(0), 1, 1)); // hi == lo: must error
        let batched = est.scores_batch(&contrasts, &k);
        prop_assert_eq!(batched.len(), contrasts.len());
        for (c, b) in contrasts.iter().zip(&batched) {
            let s = est.scores_set(&c.hi, &c.lo, &k);
            match (b, &s) {
                (Ok(bs), Ok(ss)) => {
                    // exact: the batched path shares the sequential
                    // path's arithmetic, not just its approximation
                    prop_assert!(bs.necessity == ss.necessity, "NEC {} vs {}", bs.necessity, ss.necessity);
                    prop_assert!(bs.sufficiency == ss.sufficiency, "SUF {} vs {}", bs.sufficiency, ss.sufficiency);
                    prop_assert!(bs.nesuf == ss.nesuf, "NESUF {} vs {}", bs.nesuf, ss.nesuf);
                }
                (Err(be), Err(se)) => {
                    prop_assert_eq!(format!("{be:?}"), format!("{se:?}"));
                }
                _ => {
                    return Err(TestCaseError::Fail(format!(
                        "batch/sequential disagree on outcome: {b:?} vs {s:?}"
                    )));
                }
            }
        }
    }
}

/// Build the standard German-syn audit pipeline used across the
/// integration tests.
fn german_pipeline(n: usize, seed: u64) -> (Table, AttrId, Vec<AttrId>, lewis::causal::Scm) {
    use lewis::core::blackbox::label_table;
    use lewis::core::ClassifierBox;
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
    (table, pred, features, scm)
}

/// On the real pipeline, batching every ordered pair of an attribute
/// agrees with the per-pair sequential calls.
#[test]
fn batch_matches_sequential_on_real_pipeline() {
    let (table, pred, features, scm) = german_pipeline(3_000, 11);
    let engine = Engine::builder(table.clone())
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.25)
        .build()
        .unwrap();
    let est = engine.estimator();
    for attr in [
        GermanSynDataset::STATUS,
        GermanSynDataset::SAVING,
        GermanSynDataset::HOUSING,
    ] {
        let card = table.schema().cardinality(attr).unwrap() as u32;
        let mut contrasts = Vec::new();
        for hi in 0..card {
            for lo in 0..card {
                if hi != lo {
                    contrasts.push(Contrast::single(attr, hi, lo));
                }
            }
        }
        let batched = est.scores_batch(&contrasts, &Context::empty());
        for (c, b) in contrasts.iter().zip(batched) {
            let s = est.scores_set(&c.hi, &c.lo, &Context::empty());
            match (b, s) {
                (Ok(bs), Ok(ss)) => assert_eq!(bs, ss, "{c:?}"),
                (Err(be), Err(se)) => assert_eq!(format!("{be:?}"), format!("{se:?}")),
                (b, s) => panic!("outcome mismatch for {c:?}: {b:?} vs {s:?}"),
            }
        }
    }
}
