//! Recourse validated against the generating causal model: recommended
//! actions must actually flip the decision with the promised
//! probability (the §5.5 recourse analysis as a test).

use lewis::core::blackbox::label_table;
use lewis::core::groundtruth::GroundTruth;
use lewis::core::{ClassifierBox, CostModel, Engine, RecourseOptions};
use lewis::datasets::GermanSynDataset;
use lewis::ml::encode::{Encoding, TableEncoder};
use lewis::ml::forest::ForestParams;
use lewis::ml::RandomForestClassifier;
use lewis::tabular::Context;

#[test]
fn recourse_achieves_ground_truth_sufficiency() {
    let gen = GermanSynDataset::standard();
    let dataset = gen.generate(10_000, 31);
    let scm = dataset.scm;
    let actionable = dataset.actionable.clone();
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
        31,
    )
    .unwrap();
    let bb = ClassifierBox::new(forest, encoder);
    let pred = label_table(&mut table, &bb, "pred").unwrap();

    let engine = Engine::builder(table.clone())
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.25)
        .build()
        .unwrap();
    let gt = GroundTruth::exact(&scm, &bb, 1).unwrap();
    let alpha = 0.9;
    let opts = RecourseOptions {
        alpha,
        cost: CostModel::Unit,
        ..RecourseOptions::default()
    };

    let preds = table.column(pred).unwrap().to_vec();
    let mut produced = 0usize;
    let mut achieved = 0usize;
    for (idx, &p) in preds.iter().enumerate() {
        if p != 0 || produced >= 40 {
            continue;
        }
        let row = table.row(idx).unwrap();
        let Ok(r) = engine.recourse(&row, &actionable, &opts) else {
            continue;
        };
        if r.actions.is_empty() {
            continue;
        }
        produced += 1;
        let mut evidence = Context::empty();
        for &a in &features {
            evidence.set(a, row[a.index()]);
        }
        let actions: Vec<_> = r.actions.iter().map(|a| (a.attr, a.to)).collect();
        if let Ok(s) = gt.intervention_success(&actions, &evidence) {
            if s >= alpha - 0.05 {
                achieved += 1;
            }
        }
    }
    assert!(produced >= 20, "too few recourses produced: {produced}");
    let rate = achieved as f64 / produced as f64;
    assert!(
        rate >= 0.85,
        "only {achieved}/{produced} recourses reach ground-truth sufficiency"
    );
}

#[test]
fn recourse_respects_actionability_boundaries() {
    // actions must only ever touch the declared actionable set
    let gen = GermanSynDataset::standard();
    let dataset = gen.generate(6_000, 32);
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
    let forest =
        RandomForestClassifier::fit(&xs, &labels, 2, &ForestParams::default(), 32).unwrap();
    let bb = ClassifierBox::new(forest, encoder);
    let pred = label_table(&mut table, &bb, "pred").unwrap();
    let engine = Engine::builder(table.clone())
        .graph(scm.graph())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.25)
        .build()
        .unwrap();
    // only saving is actionable
    let actionable = [GermanSynDataset::SAVING];
    let opts = RecourseOptions {
        alpha: 0.5,
        ..RecourseOptions::default()
    };
    let preds = table.column(pred).unwrap().to_vec();
    let mut any = false;
    for (idx, &p) in preds.iter().enumerate().take(2000) {
        if p != 0 {
            continue;
        }
        let row = table.row(idx).unwrap();
        if let Ok(r) = engine.recourse(&row, &actionable, &opts) {
            for a in &r.actions {
                assert_eq!(
                    a.attr,
                    GermanSynDataset::SAVING,
                    "touched non-actionable attr"
                );
            }
            if !r.actions.is_empty() {
                any = true;
                break;
            }
        }
    }
    assert!(any, "no recourse produced at a permissive threshold");
}
