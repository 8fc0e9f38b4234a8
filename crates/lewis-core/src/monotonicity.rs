//! Monotonicity diagnostics (paper §4.1, §5.5).
//!
//! Proposition 4.2's exact identification assumes the algorithm is
//! *monotone* relative to the contrast: raising `X` from `x'` to `x`
//! never flips a positive decision to negative. §5.5 measures violation
//! as `Λ_viol = Pr(o'_{X←x} | o, x')` and shows LEWIS's estimates stay
//! within 5% of ground truth while `Λ_viol ≤ 0.25`.
//!
//! `Λ_viol` is itself a counterfactual, so from observational data we can
//! only bound it; [`empirical_violation`] reports the *observable* proxy
//! `max(0, Pr(o | x', C) − Pr(o | x, C))` averaged over adjustment cells —
//! zero for monotone algorithms, growing with violation strength.

use crate::scores::ScoreEstimator;
use crate::Result;
use tabular::{AttrId, Context, Value};

/// Observable monotonicity-violation proxy for the contrast `x_hi > x_lo`
/// in context `k`: the adjustment-cell-averaged positive part of
/// `Pr(o | x_lo, c, k) − Pr(o | x_hi, c, k)`.
///
/// Zero when the algorithm is monotone (raising `X` never lowers the
/// positive rate in any stratum); positive otherwise.
pub fn empirical_violation(
    est: &ScoreEstimator,
    attr: AttrId,
    x_hi: Value,
    x_lo: Value,
    k: &Context,
) -> Result<f64> {
    let c_set = est.adjustment_set(&[attr], k);
    let mut attrs = c_set.clone();
    attrs.push(attr);
    attrs.push(est.pred_attr());
    let counter = est.counting_pass(&attrs, k)?;
    let nc = c_set.len();
    let o = est.positive();

    #[derive(Default)]
    struct Cell {
        n: u64,
        n_hi: u64,
        n_hi_o: u64,
        n_lo: u64,
        n_lo_o: u64,
    }
    let mut cells: tabular::FxHashMap<Vec<Value>, Cell> = tabular::FxHashMap::default();
    counter.for_each_nonzero(|values, n| {
        let cell = cells.entry(values[..nc].to_vec()).or_default();
        cell.n += n;
        let xv = values[nc];
        let out = values[nc + 1];
        if xv == x_hi {
            cell.n_hi += n;
            if out == o {
                cell.n_hi_o += n;
            }
        } else if xv == x_lo {
            cell.n_lo += n;
            if out == o {
                cell.n_lo_o += n;
            }
        }
    });
    let total: u64 = cells.values().map(|c| c.n).sum();
    if total == 0 {
        return Ok(0.0);
    }
    let mut acc = 0.0;
    for cell in cells.values() {
        if cell.n_hi == 0 || cell.n_lo == 0 {
            continue; // contrast unobserved in this stratum
        }
        let p_hi = cell.n_hi_o as f64 / cell.n_hi as f64;
        let p_lo = cell.n_lo_o as f64 / cell.n_lo as f64;
        acc += (p_lo - p_hi).max(0.0) * (cell.n as f64 / total as f64);
    }
    Ok(acc)
}

/// Check an inferred value order for empirical monotonicity: returns the
/// worst pairwise violation over adjacent pairs of `order`.
pub fn order_violation(
    est: &ScoreEstimator,
    attr: AttrId,
    order: &[Value],
    k: &Context,
) -> Result<f64> {
    let mut worst = 0.0f64;
    for w in order.windows(2) {
        let v = empirical_violation(est, attr, w[1], w[0], k)?;
        worst = worst.max(v);
    }
    Ok(worst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::label_table;
    use tabular::{Domain, Schema, Table};

    /// Hand-built table where `pred` is monotone (resp. anti-monotone)
    /// in `x`.
    fn table_with(f: impl Fn(u32) -> u32 + Send + Sync + 'static) -> (Table, AttrId, AttrId) {
        let mut s = Schema::new();
        let x = s.push("x", Domain::categorical(["0", "1", "2"]));
        let mut t = Table::new(s);
        for v in 0..3u32 {
            for _ in 0..10 {
                t.push_row(&[v]).unwrap();
            }
        }
        let pred = label_table(&mut t, &move |row: &[Value]| f(row[0]), "pred").unwrap();
        (t, x, pred)
    }

    #[test]
    fn monotone_model_has_zero_violation() {
        let (t, x, pred) = table_with(|v| u32::from(v >= 1));
        let est = ScoreEstimator::from_shared(t.clone().into(), None, pred, 1, 0.0).unwrap();
        let v = empirical_violation(&est, x, 2, 0, &Context::empty()).unwrap();
        assert_eq!(v, 0.0);
        let ov = order_violation(&est, x, &[0, 1, 2], &Context::empty()).unwrap();
        assert_eq!(ov, 0.0);
    }

    #[test]
    fn anti_monotone_model_is_flagged() {
        let (t, x, pred) = table_with(|v| u32::from(v == 0));
        let est = ScoreEstimator::from_shared(t.clone().into(), None, pred, 1, 0.0).unwrap();
        let v = empirical_violation(&est, x, 2, 0, &Context::empty()).unwrap();
        assert!((v - 1.0).abs() < 1e-12, "violation {v}");
    }

    #[test]
    fn partial_violation_is_graded() {
        // p(o | x=0) = 1 but p(o | x=2) = 0.5: violation of the 0 < 2
        // ordering with magnitude exactly 0.5.
        let mut s = Schema::new();
        let x = s.push("x", Domain::categorical(["0", "1", "2"]));
        let mut t = Table::new(s);
        let mut preds = Vec::new();
        for i in 0..10u32 {
            t.push_row(&[0]).unwrap();
            preds.push(1);
            t.push_row(&[2]).unwrap();
            preds.push(u32::from(i % 2 == 0));
        }
        let pred = t.add_column("pred", Domain::boolean(), preds).unwrap();
        let est = ScoreEstimator::from_shared(t.clone().into(), None, pred, 1, 0.0).unwrap();
        let v = empirical_violation(&est, x, 2, 0, &Context::empty()).unwrap();
        assert!((v - 0.5).abs() < 1e-9, "graded violation, got {v}");
    }
}
