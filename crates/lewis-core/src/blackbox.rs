//! The model-agnostic surface LEWIS audits.
//!
//! LEWIS "makes no assumptions about the internals of an algorithmic
//! system except for the availability of its input-output data" (paper
//! abstract). A [`BlackBox`] therefore exposes exactly one operation:
//! map a full row of attribute codes to an outcome code. Adapters wrap
//! the `ml` crate's classifiers and regressors; any closure works too.

use ml::encode::TableEncoder;
use ml::{Classifier, Regressor};
use tabular::fanout::{available_workers, fan_out, ITEM_ROWS};
use tabular::{AttrId, Domain, Table, Value};

/// A decision-making algorithm `f : Dom(I) → Dom(O)` seen purely through
/// its input-output behaviour.
pub trait BlackBox: Send + Sync {
    /// Predict the outcome code for a full schema row.
    fn predict(&self, row: &[Value]) -> Value;

    /// Number of outcome classes.
    fn n_outcomes(&self) -> usize;
}

impl<F> BlackBox for F
where
    F: Fn(&[Value]) -> Value + Send + Sync,
{
    fn predict(&self, row: &[Value]) -> Value {
        self(row)
    }

    fn n_outcomes(&self) -> usize {
        2
    }
}

/// Adapter: an `ml` classifier + its feature encoder.
pub struct ClassifierBox<C: Classifier> {
    classifier: C,
    encoder: TableEncoder,
}

impl<C: Classifier> ClassifierBox<C> {
    /// Wrap `classifier`, encoding rows with `encoder`.
    pub fn new(classifier: C, encoder: TableEncoder) -> Self {
        ClassifierBox {
            classifier,
            encoder,
        }
    }

    /// Access the wrapped classifier.
    pub fn classifier(&self) -> &C {
        &self.classifier
    }

    /// Probability of a given outcome class for a row (used by baselines
    /// like SHAP that want soft scores, not part of the LEWIS surface).
    pub fn proba_of(&self, row: &[Value], class: u32) -> f64 {
        let x = self.encoder.encode_row(row);
        self.classifier.proba_of(&x, class)
    }
}

impl<C: Classifier> BlackBox for ClassifierBox<C> {
    fn predict(&self, row: &[Value]) -> Value {
        let x = self.encoder.encode_row(row);
        self.classifier.predict(&x)
    }

    fn n_outcomes(&self) -> usize {
        self.classifier.n_classes()
    }
}

/// Adapter: a regressor thresholded into a binary decision
/// (`score ≥ threshold` ⇒ positive). The German-syn experiment (§5.1)
/// uses a random-forest regressor with outcome `o = 0.5` this way.
pub struct RegressorThresholdBox<R: Regressor> {
    regressor: R,
    encoder: TableEncoder,
    threshold: f64,
}

impl<R: Regressor> RegressorThresholdBox<R> {
    /// Wrap `regressor`; predictions `≥ threshold` map to outcome 1.
    pub fn new(regressor: R, encoder: TableEncoder, threshold: f64) -> Self {
        RegressorThresholdBox {
            regressor,
            encoder,
            threshold,
        }
    }

    /// The raw regression score for a row.
    pub fn score(&self, row: &[Value]) -> f64 {
        let x = self.encoder.encode_row(row);
        self.regressor.predict(&x)
    }
}

impl<R: Regressor> BlackBox for RegressorThresholdBox<R> {
    fn predict(&self, row: &[Value]) -> Value {
        u32::from(self.score(row) >= self.threshold)
    }

    fn n_outcomes(&self) -> usize {
        2
    }
}

/// Run the black box over every row and append the predictions as a new
/// `predicted` column, returning its attribute id.
///
/// LEWIS explains the *algorithm*, not the world, so all probability
/// estimation downstream is over this predicted column (paper §5.2).
///
/// The rows are split into [`ITEM_ROWS`]-row ranges that
/// [`fan_out`] labels on every core, each range into its own slice of
/// the new column; a table of at most [`ITEM_ROWS`] rows is one range,
/// labelled on the calling thread. The model sees each row once either
/// way.
pub fn label_table(
    table: &mut Table,
    model: &dyn BlackBox,
    column_name: &str,
) -> tabular::Result<AttrId> {
    label_table_on(table, model, column_name, available_workers())
}

/// [`label_table`] on at most `workers` threads. The column does not
/// depend on `workers`.
fn label_table_on(
    table: &mut Table,
    model: &dyn BlackBox,
    column_name: &str,
    workers: usize,
) -> tabular::Result<AttrId> {
    let columns = table.columns();
    let mut preds: Vec<Value> = vec![0; table.n_rows()];
    let ranges: Vec<(usize, &mut [Value])> = preds
        .chunks_mut(ITEM_ROWS)
        .enumerate()
        .map(|(i, out)| (i * ITEM_ROWS, out))
        .collect();
    fan_out(workers, table.n_rows(), ranges, |(first, out)| {
        let mut row: Vec<Value> = Vec::with_capacity(columns.len());
        for (r, pred) in (first..).zip(out) {
            row.clear();
            row.extend(columns.iter().map(|c| c[r]));
            *pred = model.predict(&row);
        }
    });
    let domain = if model.n_outcomes() == 2 {
        Domain::boolean()
    } else {
        Domain::categorical((0..model.n_outcomes()).map(|i| format!("class_{i}")))
    };
    table.add_column(column_name, domain, preds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ml::encode::Encoding;
    use tabular::{Domain, Schema};

    fn schema() -> Schema {
        let mut s = Schema::new();
        s.push("a", Domain::categorical(["lo", "hi"]));
        s.push("b", Domain::categorical(["lo", "mid", "hi"]));
        s
    }

    #[test]
    fn closures_are_black_boxes() {
        let f = |row: &[Value]| u32::from(row[0] + row[1] >= 2);
        assert_eq!(f.predict(&[1, 1]), 1);
        assert_eq!(f.predict(&[0, 1]), 0);
        assert_eq!(f.n_outcomes(), 2);
    }

    #[test]
    fn label_table_appends_predictions() {
        let mut t = Table::new(schema());
        t.push_row(&[0, 0]).unwrap();
        t.push_row(&[1, 2]).unwrap();
        let f = |row: &[Value]| u32::from(row[0] == 1);
        let pred = label_table(&mut t, &f, "pred").unwrap();
        assert_eq!(t.column(pred).unwrap(), &[0, 1]);
        assert_eq!(t.schema().name(pred), "pred");
    }

    #[test]
    fn classifier_box_predicts_via_encoder() {
        let s = schema();
        let enc = TableEncoder::new(&s, &[AttrId(0), AttrId(1)], Encoding::Ordinal).unwrap();
        // trivial "classifier": logistic with positive weight on feature 0
        let clf = ml::LogisticRegression {
            intercept: -0.5,
            coefficients: vec![1.0, 0.0],
        };
        let bb = ClassifierBox::new(clf, enc);
        assert_eq!(bb.n_outcomes(), 2);
        assert_eq!(bb.predict(&[1, 0]), 1); // sigmoid(0.5) > 0.5
        assert_eq!(bb.predict(&[0, 0]), 0);
        assert!(bb.proba_of(&[1, 0], 1) > 0.5);
    }

    #[test]
    fn regressor_threshold_box() {
        let s = schema();
        let enc = TableEncoder::new(&s, &[AttrId(0), AttrId(1)], Encoding::Ordinal).unwrap();
        let reg = ml::LinearRegression {
            intercept: 0.0,
            coefficients: vec![0.25, 0.25],
        };
        let bb = RegressorThresholdBox::new(reg, enc, 0.5);
        assert_eq!(bb.predict(&[1, 2]), 1); // 0.75 >= 0.5
        assert_eq!(bb.predict(&[0, 1]), 0); // 0.25 < 0.5
        assert!((bb.score(&[1, 1]) - 0.5).abs() < 1e-12);
        assert_eq!(bb.predict(&[1, 1]), 1, "threshold is inclusive");
    }

    #[test]
    fn labels_equal_the_row_loop_on_any_worker_count() {
        let m = tabular::fanout::FANOUT_MIN_ROWS;
        let f = |row: &[Value]| u32::from((row[0] + 2 * row[1]) % 3 == 1);
        let n = ITEM_ROWS;
        for rows in [0, 1, m - 1, m, m + 1, n - 1, n, n + 1, m + 2 * n + 5] {
            let mut t = Table::with_capacity(schema(), rows);
            // a period of 7 rows: no two item ranges start alike
            for i in 0..rows {
                t.push_row(&[(i % 7 % 2) as Value, (i % 7 % 3) as Value])
                    .unwrap();
            }
            let reference: Vec<Value> = t.rows().map(|row| f(&row)).collect();
            for workers in 1..=3 {
                let mut labelled = t.clone();
                let pred = label_table_on(&mut labelled, &f, "pred", workers).unwrap();
                assert!(
                    labelled.column(pred).unwrap() == reference,
                    "{rows} rows on {workers} workers"
                );
            }
        }
    }

    #[test]
    fn multiclass_label_domain() {
        struct ThreeWay;
        impl BlackBox for ThreeWay {
            fn predict(&self, row: &[Value]) -> Value {
                row[1].min(2)
            }
            fn n_outcomes(&self) -> usize {
                3
            }
        }
        let mut t = Table::new(schema());
        t.push_row(&[0, 2]).unwrap();
        let pred = label_table(&mut t, &ThreeWay, "pred").unwrap();
        assert_eq!(t.schema().cardinality(pred).unwrap(), 3);
        assert_eq!(t.get(0, pred).unwrap(), 2);
    }
}
