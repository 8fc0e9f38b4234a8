//! §5.4 recourse comparison: LEWIS vs LinearIP on the German "Maeve"
//! example across success thresholds. The paper: both find the same
//! solution at small thresholds, but "LinearIP did not return any
//! solution for success threshold > 0.8" while LEWIS still does.

use super::Scale;
use crate::harness::{header, prepare, ModelKind};
use datasets::GermanDataset;
use lewis_core::{CostModel, RecourseOptions};
use xai::LinearIpRecourse;

/// Run the comparison.
pub fn run(scale: Scale) -> String {
    let p = prepare(
        GermanDataset::generate(scale.rows(1000), 42),
        ModelKind::RandomForest,
        None,
        42,
    );
    let engine = p.engine_with_alpha(0.25);
    let linear = LinearIpRecourse::fit(&p.table, p.pred, &p.actionable).expect("LinearIP fits");

    let neg = p.find_borderline(0).expect("a rejected applicant exists");
    let row = p.table.row(neg).expect("row in range");

    let thresholds = [0.5, 0.6, 0.7, 0.8, 0.9, 0.95];
    let mut out = header("§5.4 — LEWIS vs LinearIP recourse across thresholds (German)");
    out.push_str(&format!(
        "{:>10}  {:>22}  {:>22}\n",
        "threshold", "LEWIS", "LinearIP"
    ));
    for &t in &thresholds {
        let lewis_result = engine.recourse(
            &row,
            &p.actionable,
            &RecourseOptions {
                alpha: t,
                cost: CostModel::Unit,
                ..RecourseOptions::default()
            },
        );
        let lewis_cell = match &lewis_result {
            Ok(r) => format!("{} actions, cost {:.0}", r.actions.len(), r.total_cost),
            Err(_) => "infeasible".to_string(),
        };
        let linear_result = linear.recourse(&p.table, p.pred, &row, t);
        let linear_cell = match &linear_result {
            Ok(r) => format!("{} actions, cost {:.0}", r.actions.len(), r.total_cost),
            Err(_) => "no solution".to_string(),
        };
        out.push_str(&format!("{t:>10.2}  {lewis_cell:>22}  {linear_cell:>22}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_methods_run_and_low_threshold_is_feasible() {
        let p = prepare(
            GermanDataset::generate(1200, 42),
            ModelKind::RandomForest,
            None,
            42,
        );
        let engine = p.engine_with_alpha(0.25);
        let linear = LinearIpRecourse::fit(&p.table, p.pred, &p.actionable).unwrap();
        let neg = p.find_borderline(0).unwrap();
        let row = p.table.row(neg).unwrap();
        let lr = engine.recourse(
            &row,
            &p.actionable,
            &RecourseOptions {
                alpha: 0.5,
                cost: CostModel::Unit,
                ..RecourseOptions::default()
            },
        );
        assert!(lr.is_ok(), "LEWIS at α=0.5: {lr:?}");
        // LinearIP at a moderate threshold should also produce something
        // for a borderline negative. Which individual clears it depends
        // on the logistic surrogate's fit, so scan the most borderline
        // negatives rather than pinning one row.
        let mut negatives: Vec<(usize, f64)> = (0..p.table.n_rows())
            .filter(|&i| p.table.get(i, p.pred).unwrap() == 0)
            .map(|i| {
                let r = p.table.row(i).unwrap();
                (i, ((p.score)(&r) - 0.5).abs())
            })
            .collect();
        negatives.sort_by(|a, b| a.1.total_cmp(&b.1));
        let feasible = negatives.iter().take(10).any(|&(i, _)| {
            let r = p.table.row(i).unwrap();
            linear.recourse(&p.table, p.pred, &r, 0.6).is_ok()
        });
        assert!(
            feasible,
            "LinearIP at 0.6 infeasible for all borderline negatives"
        );
    }
}
