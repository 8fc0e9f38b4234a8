//! Actionable recourse: for applicants the model rejects, compute the
//! minimal-cost changes to their actionable attributes that would flip
//! the decision with high probability — and verify the recommendation
//! against the ground-truth causal model.
//!
//! ```sh
//! cargo run --release --example recourse
//! ```

use lewis::core::groundtruth::GroundTruth;
use lewis::datasets::GermanSynDataset;
use lewis::ml::encode::{Encoding, TableEncoder};
use lewis::ml::forest::ForestParams;
use lewis::ml::RandomForestClassifier;
use lewis::prelude::*;

fn main() {
    let gen = GermanSynDataset::standard();
    let dataset = gen.generate(8_000, 3);
    let mut table = dataset.table;
    let labels: Vec<u32> = table
        .column(GermanSynDataset::SCORE)
        .unwrap()
        .iter()
        .map(|&bin| u32::from(bin >= 5))
        .collect();
    let encoder = TableEncoder::new(table.schema(), &dataset.features, Encoding::Ordinal)
        .expect("encoder builds");
    let xs = encoder.encode_table(&table);
    let forest = RandomForestClassifier::fit(
        &xs,
        &labels,
        2,
        &ForestParams {
            n_trees: 40,
            ..ForestParams::default()
        },
        3,
    )
    .expect("forest trains");
    let black_box = ClassifierBox::new(forest, encoder);
    let pred = label_table(&mut table, &black_box, "pred").expect("labelling");

    // One engine serves every applicant. Recourse requests that share an
    // actionable set share the engine's surrogate cache, so the
    // logit-linear surrogate is fitted once for the whole batch instead
    // of per row.
    let engine = Engine::builder(table.clone())
        .graph(dataset.scm.graph())
        .prediction(pred, 1)
        .features(&dataset.features)
        .alpha(0.25)
        .build()
        .expect("engine builds");
    let gt = GroundTruth::exact(&dataset.scm, &black_box, 1).expect("ground truth engine");

    let opts = RecourseOptions {
        alpha: 0.85,
        cost: CostModel::OrdinalLinear,
        ..RecourseOptions::default()
    };

    let preds = table.column(pred).unwrap().to_vec();
    let rejected: Vec<usize> = preds
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p == 0)
        .map(|(idx, _)| idx)
        .take(8)
        .collect();
    let requests: Vec<ExplainRequest> = rejected
        .iter()
        .map(|&idx| ExplainRequest::Recourse {
            row: table.row(idx).unwrap(),
            actionable: dataset.actionable.clone(),
            opts: opts.clone(),
        })
        .collect();

    let mut shown = 0;
    for (&idx, result) in rejected.iter().zip(engine.run_batch(&requests)) {
        if shown >= 5 {
            break;
        }
        let row = table.row(idx).unwrap();
        match result.map(|resp| resp.into_recourse().expect("recourse response")) {
            Ok(r) if !r.actions.is_empty() => {
                shown += 1;
                println!("--- rejected applicant #{idx} ---");
                for a in &r.actions {
                    println!(
                        "  change {:<8} {:>12} -> {:<12} (cost {:.0})",
                        a.name, a.from_label, a.to_label, a.cost
                    );
                }
                // grade against the true causal model
                let mut evidence = Context::empty();
                for &attr in &dataset.features {
                    evidence.set(attr, row[attr.index()]);
                }
                let actions: Vec<_> = r.actions.iter().map(|a| (a.attr, a.to)).collect();
                let truth = gt
                    .intervention_success(&actions, &evidence)
                    .map(|s| format!("{s:.2}"))
                    .unwrap_or_else(|_| "n/a".into());
                println!(
                    "  total cost {:.0}; estimated sufficiency {}; ground-truth success {}\n",
                    r.total_cost,
                    r.verified_sufficiency
                        .map_or("n/a".into(), |s| format!("{s:.2}")),
                    truth
                );
            }
            Ok(_) => {}
            Err(e) => println!("--- applicant #{idx}: no recourse ({e})\n"),
        }
    }
}
