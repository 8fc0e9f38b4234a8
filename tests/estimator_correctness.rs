//! Correctness of the score estimators against exact ground truth — the
//! §5.5 / Fig. 11 validation as an automated test, plus the paper's
//! propositions checked end to end.

use lewis::core::blackbox::label_table;
use lewis::core::groundtruth::GroundTruth;
use lewis::core::ordering::ordered_pairs;
use lewis::core::scores::ScoreKind;
use lewis::core::{ClassifierBox, Engine};
use lewis::datasets::GermanSynDataset;
use lewis::ml::encode::{Encoding, TableEncoder};
use lewis::ml::forest::ForestParams;
use lewis::ml::RandomForestClassifier;
use lewis::tabular::{AttrId, Context, Table};

struct Fixture {
    table: Table,
    pred: AttrId,
    scm: lewis::causal::Scm,
    features: Vec<AttrId>,
    bb: ClassifierBox<RandomForestClassifier>,
}

/// The fixture's engine at the smoothing every test here uses (0.25),
/// with or without the generating graph.
fn engine(f: &Fixture, graph: bool) -> Engine {
    let builder = Engine::builder(f.table.clone())
        .prediction(f.pred, 1)
        .features(&f.features)
        .alpha(0.25);
    let builder = if graph {
        builder.graph(f.scm.graph())
    } else {
        builder
    };
    builder.build().unwrap()
}

fn fixture(n: usize, seed: u64) -> Fixture {
    let gen = GermanSynDataset::standard();
    let dataset = gen.generate(n, seed);
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
            n_trees: 30,
            ..ForestParams::default()
        },
        seed,
    )
    .unwrap();
    let bb = ClassifierBox::new(forest, encoder);
    let pred = label_table(&mut table, &bb, "pred").unwrap();
    Fixture {
        table,
        pred,
        scm,
        features,
        bb,
    }
}

#[test]
fn estimated_scores_track_exact_ground_truth() {
    let f = fixture(12_000, 21);
    let lewis = engine(&f, true);
    let est = lewis.estimator();
    let gt = GroundTruth::exact(&f.scm, &f.bb, 1).unwrap();
    let k = Context::empty();
    for attr in [
        GermanSynDataset::STATUS,
        GermanSynDataset::SAVING,
        GermanSynDataset::HOUSING,
    ] {
        let card = f.table.schema().cardinality(attr).unwrap() as u32;
        let (hi, lo) = (card - 1, 0);
        let estimated = est.scores(attr, hi, lo, &k).unwrap();
        let exact_suf = gt.sufficiency(attr, hi, lo, &k).unwrap();
        let exact_nec = gt.necessity(attr, hi, lo, &k).unwrap();
        let exact_ns = gt.nesuf(attr, hi, lo, &k).unwrap();
        assert!(
            (estimated.sufficiency - exact_suf).abs() < 0.08,
            "{attr} SUF: {} vs {exact_suf}",
            estimated.sufficiency
        );
        assert!(
            (estimated.necessity - exact_nec).abs() < 0.08,
            "{attr} NEC: {} vs {exact_nec}",
            estimated.necessity
        );
        assert!(
            (estimated.nesuf - exact_ns).abs() < 0.08,
            "{attr} NESUF: {} vs {exact_ns}",
            estimated.nesuf
        );
    }
}

#[test]
fn frechet_bounds_contain_ground_truth() {
    // Proposition 4.1: the bounds hold *without* monotonicity, so they
    // must bracket the exact counterfactual quantities.
    let f = fixture(12_000, 22);
    let lewis = engine(&f, true);
    let est = lewis.estimator();
    let gt = GroundTruth::exact(&f.scm, &f.bb, 1).unwrap();
    let k = Context::empty();
    let attr = GermanSynDataset::STATUS;
    for (kind, exact) in [
        (ScoreKind::Necessity, gt.necessity(attr, 3, 0, &k).unwrap()),
        (
            ScoreKind::Sufficiency,
            gt.sufficiency(attr, 3, 0, &k).unwrap(),
        ),
        (
            ScoreKind::NecessityAndSufficiency,
            gt.nesuf(attr, 3, 0, &k).unwrap(),
        ),
    ] {
        let b = est.bounds(kind, attr, 3, 0, &k).unwrap();
        assert!(
            b.lower - 0.06 <= exact && exact <= b.upper + 0.06,
            "{kind:?}: exact {exact} outside [{}, {}]",
            b.lower,
            b.upper
        );
    }
}

#[test]
fn indirect_influence_of_age_is_recovered() {
    // The Fig 11a headline: age has NO direct edge to the score, yet its
    // ground-truth NESUF is materially positive, and LEWIS finds it.
    let f = fixture(12_000, 23);
    let lewis = engine(&f, true);
    let gt = GroundTruth::exact(&f.scm, &f.bb, 1).unwrap();
    let order = lewis.value_order(GermanSynDataset::AGE).unwrap().to_vec();
    let mut exact_max = 0.0f64;
    for (hi, lo) in ordered_pairs(&order) {
        if let Ok(ns) = gt.nesuf(GermanSynDataset::AGE, hi, lo, &Context::empty()) {
            exact_max = exact_max.max(ns);
        }
    }
    let estimated = lewis
        .attribute_scores(GermanSynDataset::AGE, &Context::empty())
        .unwrap()
        .scores
        .nesuf;
    assert!(exact_max > 0.05, "ground truth indirect effect {exact_max}");
    assert!(
        (estimated - exact_max).abs() < 0.1,
        "estimate {estimated} vs exact {exact_max}"
    );
}

#[test]
fn contextual_scores_match_ground_truth_per_stratum() {
    let f = fixture(15_000, 24);
    let lewis = engine(&f, true);
    let est = lewis.estimator();
    let gt = GroundTruth::exact(&f.scm, &f.bb, 1).unwrap();
    for age in 0..3u32 {
        let k = Context::of([(GermanSynDataset::AGE, age)]);
        let estimated = est.scores(GermanSynDataset::STATUS, 3, 0, &k).unwrap();
        let exact = gt.sufficiency(GermanSynDataset::STATUS, 3, 0, &k).unwrap();
        assert!(
            (estimated.sufficiency - exact).abs() < 0.1,
            "age {age}: {} vs {exact}",
            estimated.sufficiency
        );
    }
}

#[test]
fn no_graph_fallback_still_ranks_direct_causes_high() {
    // §6: without a causal diagram LEWIS degrades to the no-confounding
    // fallback — rankings of strong direct causes survive.
    let f = fixture(8_000, 25);
    let lewis = engine(&f, false);
    let g = lewis.global().unwrap();
    assert_eq!(g.attributes[0].attr, GermanSynDataset::STATUS);
}
