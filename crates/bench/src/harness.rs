//! Shared experiment setup: train a black box on a dataset, label the
//! table with its predictions, and expose everything the figures need.

use datasets::Dataset;
use lewis_core::blackbox::{label_table, BlackBox};
use ml::encode::{Encoding, TableEncoder};
use ml::forest::ForestParams;
use ml::gbdt::GbdtParams;
use ml::nn::NnParams;
use ml::{Classifier, Regressor};
use std::io::Write as _;
use std::sync::Arc;
use tabular::{AttrId, Table, Value};

/// A model-agnostic positive-probability scorer over code rows.
pub type ScoreFn = Arc<dyn Fn(&[Value]) -> f64 + Send + Sync>;

/// Which black-box family to train (paper §5.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelKind {
    /// Random forest classifier (the default across §5.3).
    RandomForest,
    /// Gradient-boosted trees (the paper's XGBoost, Fig. 8a).
    Gbdt,
    /// Feed-forward neural network (Fig. 8b).
    NeuralNet,
    /// Random forest *regressor* thresholded at the given score
    /// (German-syn, §5.1).
    ForestRegressor {
        /// Positive decision iff predicted score ≥ threshold.
        threshold: f64,
    },
}

/// A dataset with a trained, applied black box.
pub struct Prepared {
    /// Dataset name.
    pub name: String,
    /// The labelled table (original columns + binary `pred`), shared so
    /// engines can reference it without copying.
    pub table: Arc<Table>,
    /// The binary prediction column.
    pub pred: AttrId,
    /// The favourable outcome code (always 1).
    pub positive: Value,
    /// Ground-truth SCM of the generating process.
    pub scm: causal::Scm,
    /// Feature attributes (model inputs).
    pub features: Vec<AttrId>,
    /// Actionable attributes for recourse.
    pub actionable: Vec<AttrId>,
    /// The raw outcome column the model was trained against.
    pub outcome: AttrId,
    /// Model-agnostic positive-probability scorer (for LIME/SHAP).
    pub score: ScoreFn,
    /// The trained black box itself (needed by the ground-truth engine).
    pub model: Box<dyn BlackBox>,
    /// Held-out accuracy of the trained model.
    pub test_accuracy: f64,
}

/// Wraps a multi-class classifier into the binary decision
/// `class ≥ pivot` (the paper's ordinal partition, §4.1).
struct PivotedClassifier<C: Classifier> {
    inner: C,
    encoder: TableEncoder,
    pivot: u32,
}

impl<C: Classifier> PivotedClassifier<C> {
    fn proba_at_or_above(&self, row: &[Value]) -> f64 {
        let x = self.encoder.encode_row(row);
        let mut buf = vec![0.0; self.inner.n_classes()];
        self.inner.predict_proba(&x, &mut buf);
        buf[self.pivot as usize..].iter().sum()
    }
}

impl<C: Classifier> BlackBox for PivotedClassifier<C> {
    fn predict(&self, row: &[Value]) -> Value {
        u32::from(self.proba_at_or_above(row) >= 0.5)
    }

    fn n_outcomes(&self) -> usize {
        2
    }
}

/// Train `kind` on `dataset` and label its table. For multi-class
/// outcomes pass the ordinal `pivot` (favourable = outcome ≥ pivot).
pub fn prepare(dataset: Dataset, kind: ModelKind, pivot: Option<Value>, seed: u64) -> Prepared {
    let Dataset {
        name,
        mut table,
        scm,
        outcome,
        features,
        actionable,
    } = dataset;
    let schema = table.schema().clone();
    let encoder = TableEncoder::new(&schema, &features, Encoding::Ordinal).expect("valid features");
    let xs = encoder.encode_table(&table);
    let raw_ys: Vec<u32> = table.column(outcome).expect("outcome exists").to_vec();
    let n_classes = schema.cardinality(outcome).expect("outcome exists");

    // train/test split
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (train_idx, test_idx) = tabular::train_test_split(table.n_rows(), 0.3, &mut rng);
    let train_x: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
    let train_y: Vec<u32> = train_idx.iter().map(|&i| raw_ys[i]).collect();

    let pivot_value = pivot.unwrap_or(1);
    let to_binary = |y: u32| u32::from(y >= pivot_value);

    let (bb, score): (Box<dyn BlackBox>, ScoreFn) = match kind {
        ModelKind::RandomForest => {
            let params = ForestParams {
                n_trees: 60,
                ..ForestParams::default()
            };
            let clf = ml::RandomForestClassifier::fit(&train_x, &train_y, n_classes, &params, seed)
                .expect("forest trains");
            if n_classes == 2 {
                let clf2 = clf.clone();
                let enc2 = encoder.clone();
                let score = Arc::new(move |row: &[Value]| clf2.proba_of(&enc2.encode_row(row), 1));
                (
                    Box::new(lewis_core::ClassifierBox::new(clf, encoder.clone()))
                        as Box<dyn BlackBox>,
                    score as ScoreFn,
                )
            } else {
                let piv = PivotedClassifier {
                    inner: clf.clone(),
                    encoder: encoder.clone(),
                    pivot: pivot_value,
                };
                let piv2 = PivotedClassifier {
                    inner: clf,
                    encoder: encoder.clone(),
                    pivot: pivot_value,
                };
                (
                    Box::new(piv),
                    Arc::new(move |row: &[Value]| piv2.proba_at_or_above(row)),
                )
            }
        }
        ModelKind::Gbdt => {
            let binary_y: Vec<u32> = train_y.iter().map(|&y| to_binary(y)).collect();
            let params = GbdtParams {
                n_rounds: 60,
                ..GbdtParams::default()
            };
            let clf = ml::GradientBoostedTrees::fit(&train_x, &binary_y, &params, seed)
                .expect("gbdt trains");
            let clf2 = clf.clone();
            let enc2 = encoder.clone();
            let score = Arc::new(move |row: &[Value]| clf2.proba_of(&enc2.encode_row(row), 1));
            (
                Box::new(lewis_core::ClassifierBox::new(clf, encoder.clone())),
                score,
            )
        }
        ModelKind::NeuralNet => {
            let binary_y: Vec<u32> = train_y.iter().map(|&y| to_binary(y)).collect();
            let params = NnParams {
                hidden: vec![32, 16],
                epochs: 15,
                ..NnParams::default()
            };
            let clf =
                ml::NeuralNetwork::fit(&train_x, &binary_y, 2, &params, seed).expect("nn trains");
            let clf2 = clf.clone();
            let enc2 = encoder.clone();
            let score = Arc::new(move |row: &[Value]| clf2.proba_of(&enc2.encode_row(row), 1));
            (
                Box::new(lewis_core::ClassifierBox::new(clf, encoder.clone())),
                score,
            )
        }
        ModelKind::ForestRegressor { threshold } => {
            // regression target: the outcome's bin midpoint
            let dom = schema.domain(outcome).expect("outcome exists").clone();
            let to_score = move |y: u32| dom.bin_midpoint(y).unwrap_or(f64::from(y));
            let train_s: Vec<f64> = train_y.iter().map(|&y| to_score(y)).collect();
            let params = ForestParams {
                n_trees: 60,
                ..ForestParams::default()
            };
            let reg = ml::RandomForestRegressor::fit(&train_x, &train_s, &params, seed)
                .expect("regressor trains");
            let reg2 = reg.clone();
            let enc2 = encoder.clone();
            let score = Arc::new(move |row: &[Value]| reg2.predict(&enc2.encode_row(row)));
            (
                Box::new(lewis_core::RegressorThresholdBox::new(
                    reg,
                    encoder.clone(),
                    threshold,
                )),
                score,
            )
        }
    };

    // held-out accuracy on the binarized task
    let mut correct = 0usize;
    for &i in &test_idx {
        let row = table.row(i).expect("row in range");
        if bb.predict(&row) == to_binary(raw_ys[i]) {
            correct += 1;
        }
    }
    let test_accuracy = correct as f64 / test_idx.len().max(1) as f64;

    let pred = label_table(&mut table, bb.as_ref(), "pred").expect("labelling succeeds");
    Prepared {
        name: name.to_string(),
        table: table.into_shared(),
        pred,
        positive: 1,
        scm,
        features,
        actionable,
        outcome,
        score,
        model: bb,
        test_accuracy,
    }
}

impl Prepared {
    /// Build a LEWIS explanation engine over the labelled table,
    /// sharing it without a copy.
    pub fn engine(&self) -> lewis_core::Engine {
        self.engine_with_alpha(1.0)
    }

    /// Build an engine with explicit Laplace smoothing. The recourse
    /// experiments use 0.25: recourse verification compares
    /// sufficiency against thresholds near 1, where heavy smoothing
    /// would bias genuinely sufficient actions below the bar.
    pub fn engine_with_alpha(&self, alpha: f64) -> lewis_core::Engine {
        lewis_core::Engine::builder(Arc::clone(&self.table))
            .graph(self.scm.graph())
            .prediction(self.pred, self.positive)
            .features(&self.features)
            .alpha(alpha)
            .build()
            .expect("engine builds")
    }

    /// First row index whose prediction equals `wanted` (for picking
    /// example individuals).
    pub fn find_individual(&self, wanted: Value) -> Option<usize> {
        self.table
            .column(self.pred)
            .ok()?
            .iter()
            .position(|&p| p == wanted)
    }

    /// The *borderline* individual with prediction `wanted` — the one
    /// whose positive-probability score is closest to the decision
    /// boundary. Recourse examples use this (a deeply negative
    /// individual may need infeasibly many changes).
    pub fn find_borderline(&self, wanted: Value) -> Option<usize> {
        let preds = self.table.column(self.pred).ok()?;
        let mut best: Option<(usize, f64)> = None;
        for (i, &p) in preds.iter().enumerate() {
            if p != wanted {
                continue;
            }
            let row = self.table.row(i).ok()?;
            let s = (self.score)(&row);
            let gap = (s - 0.5).abs();
            if best.is_none_or(|(_, g)| gap < g) {
                best = Some((i, gap));
            }
        }
        best.map(|(i, _)| i)
    }
}

/// Write experiment output both to stdout and to
/// `target/experiments/<name>.txt`.
pub fn emit(name: &str, body: &str) {
    println!("{body}");
    let dir = std::path::Path::new("target/experiments");
    if std::fs::create_dir_all(dir).is_ok() {
        let path = dir.join(format!("{name}.txt"));
        if let Ok(mut f) = std::fs::File::create(&path) {
            let _ = f.write_all(body.as_bytes());
        }
    }
}

/// Standard section header used by every experiment report.
pub fn header(title: &str) -> String {
    format!("\n=== {title} ===\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasets::GermanSynDataset;

    #[test]
    fn prepare_labels_and_scores() {
        let d = GermanSynDataset::standard().generate(2000, 1);
        let p = prepare(d, ModelKind::ForestRegressor { threshold: 0.5 }, Some(5), 1);
        assert_eq!(p.table.schema().name(p.pred), "pred");
        assert!(p.test_accuracy > 0.7, "accuracy {}", p.test_accuracy);
        let row = p.table.row(0).unwrap();
        let s = (p.score)(&row);
        assert!((0.0..=1.0).contains(&s), "score {s}");
        let _ = p.engine();
    }

    #[test]
    fn prepare_multiclass_pivots() {
        let d = datasets::DrugDataset::generate(1500, 2);
        let p = prepare(d, ModelKind::RandomForest, Some(1), 2);
        // prediction column is binary regardless of the 3-class outcome
        assert_eq!(p.table.schema().cardinality(p.pred).unwrap(), 2);
        assert!(p.test_accuracy > 0.5);
    }
}
