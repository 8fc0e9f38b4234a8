//! Integration coverage for the natural-language statement generator and
//! the counterfactual-fairness audit, run against full pipelines.

use lewis::core::blackbox::label_table;
use lewis::core::fairness;
use lewis::core::statements::{best_statement, OutcomeWords};
use lewis::core::{ClassifierBox, Engine};
use lewis::datasets::{CompasDataset, GermanDataset};
use lewis::ml::encode::{Encoding, TableEncoder};
use lewis::ml::forest::ForestParams;
use lewis::ml::RandomForestClassifier;
use lewis::tabular::{AttrId, Context, Table};

fn train(dataset: lewis::datasets::Dataset, seed: u64) -> (Table, AttrId, Vec<AttrId>) {
    let mut table = dataset.table;
    let labels: Vec<u32> = table.column(dataset.outcome).unwrap().to_vec();
    let n_classes = table.schema().cardinality(dataset.outcome).unwrap();
    let encoder = TableEncoder::new(table.schema(), &dataset.features, Encoding::Ordinal).unwrap();
    let xs = encoder.encode_table(&table);
    let forest = RandomForestClassifier::fit(
        &xs,
        &labels,
        n_classes,
        &ForestParams {
            n_trees: 25,
            ..ForestParams::default()
        },
        seed,
    )
    .unwrap();
    let bb = ClassifierBox::new(forest, encoder);
    let pred = label_table(&mut table, &bb, "pred").unwrap();
    (table, pred, dataset.features)
}

#[test]
fn figure_one_style_statement_for_rejected_applicant() {
    let (table, pred, features) = train(GermanDataset::generate(2500, 61), 61);
    let scm = GermanDataset::scm();
    let lewis = Engine::builder(table.clone())
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.25)
        .build()
        .unwrap();
    let words = OutcomeWords {
        subject: "your loan".into(),
        positive: "been approved".into(),
        negative: "been rejected".into(),
    };
    let order = lewis::core::infer_value_order(&table, GermanDataset::STATUS, pred, 1).unwrap();
    // find a rejected applicant whose status is not already maximal
    let preds = table.column(pred).unwrap().to_vec();
    let worst_status = *order.last().unwrap();
    let idx = (0..table.n_rows())
        .find(|&i| preds[i] == 0 && table.get(i, GermanDataset::STATUS).unwrap() != worst_status)
        .expect("rejected applicant with improvable status");
    let row = table.row(idx).unwrap();
    let stmt = best_statement(
        lewis.estimator(),
        &words,
        &row,
        GermanDataset::STATUS,
        &order,
        20,
    )
    .unwrap()
    .expect("a statement exists");
    assert!(stmt
        .text
        .starts_with("Your loan would have been approved with"));
    assert!(stmt.text.contains("status ="));
    assert!((0.0..=1.0).contains(&stmt.probability));
}

#[test]
fn compas_score_fails_counterfactual_fairness() {
    let (table, pred, features) = train(CompasDataset::generate(6000, 62), 62);
    let scm = CompasDataset::scm();
    let lewis = Engine::builder(table.clone())
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.5)
        .build()
        .unwrap();
    let report = fairness::audit(&lewis, CompasDataset::RACE, &Context::empty(), 0.05).unwrap();
    assert!(
        !report.counterfactually_fair,
        "the biased score must fail the audit: {report:?}"
    );
    // the documented disparity: priors' sufficiency differs by race
    let gap = fairness::max_disparity(
        &lewis,
        CompasDataset::PRIORS,
        CompasDataset::RACE,
        &Context::empty(),
    )
    .unwrap();
    assert!(gap > 0.02, "priors sufficiency gap {gap}");
    // evidence list is non-empty and in [0,1]
    let evidence =
        fairness::contrast_evidence(&lewis, CompasDataset::RACE, &Context::empty()).unwrap();
    assert!(!evidence.is_empty());
    for (_, s) in evidence {
        assert!((0.0..=1.0).contains(&s.sufficiency));
    }
}

#[test]
fn german_sex_is_closer_to_fair_than_compas_race() {
    // German's sex reaches the outcome only through weak mediators, so
    // its audit scores should sit well below COMPAS race's.
    let (g_table, g_pred, g_features) = train(GermanDataset::generate(4000, 63), 63);
    let g_scm = GermanDataset::scm();
    let g_lewis = Engine::builder(g_table.clone())
        .graph(g_scm.graph())
        .prediction(g_pred, 1)
        .features(&g_features)
        .alpha(0.5)
        .build()
        .unwrap();
    let g_report = fairness::audit(&g_lewis, GermanDataset::SEX, &Context::empty(), 0.05).unwrap();

    let (c_table, c_pred, c_features) = train(CompasDataset::generate(4000, 63), 63);
    let c_scm = CompasDataset::scm();
    let c_lewis = Engine::builder(c_table.clone())
        .graph(c_scm.graph())
        .prediction(c_pred, 1)
        .features(&c_features)
        .alpha(0.5)
        .build()
        .unwrap();
    let c_report = fairness::audit(&c_lewis, CompasDataset::RACE, &Context::empty(), 0.05).unwrap();

    assert!(
        g_report.max_sufficiency < c_report.max_sufficiency,
        "german sex SUF {} should be below compas race SUF {}",
        g_report.max_sufficiency,
        c_report.max_sufficiency
    );
}
