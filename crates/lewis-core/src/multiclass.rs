//! Multi-class and regression outcome support (paper §4.1, "Extensions").
//!
//! For an ordinal outcome `Dom(O) = {o₁ > … > o_γ}` the paper partitions
//! the domain at a pivot `o` into `O≥` (favourable) and `O<`
//! (unfavourable) and redefines every score against that binary event,
//! e.g. `NEC(k, o) = Pr(O<_{X←x'} | x, O≥, k)`. Regression outcomes are
//! first binned, then thresholded the same way.

use crate::{LewisError, Result};
use tabular::{AttrId, Domain, Table, Value};

/// Append a derived binary column `name` to `table` that is `1` whenever
/// `outcome ≥ pivot` (favourable), `0` otherwise. Returns the new column's
/// id — pass it to [`crate::EngineBuilder::prediction`].
///
/// `pivot = 0` would make every row favourable, which breaks the scores'
/// contrasts, so it is rejected.
pub fn binarize_outcome(
    table: &mut Table,
    outcome: AttrId,
    pivot: Value,
    name: &str,
) -> Result<AttrId> {
    let card = table.schema().cardinality(outcome)?;
    if pivot == 0 || pivot as usize >= card {
        return Err(LewisError::Invalid(format!(
            "pivot {pivot} must satisfy 1 <= pivot < {card}"
        )));
    }
    let derived: Vec<Value> = table
        .column(outcome)?
        .iter()
        .map(|&v| u32::from(v >= pivot))
        .collect();
    Ok(table.add_column(name, Domain::boolean(), derived)?)
}

/// The favourable/unfavourable partition induced by a pivot, as value
/// lists — useful for reporting.
pub fn partition(card: usize, pivot: Value) -> (Vec<Value>, Vec<Value>) {
    let below = (0..pivot).collect();
    let at_or_above = (pivot..card as Value).collect();
    (below, at_or_above)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tabular::{Context, Schema};

    fn table() -> (Table, AttrId) {
        let mut s = Schema::new();
        s.push("x", Domain::boolean());
        let o = s.push(
            "usage",
            Domain::categorical(["never", "decade_ago", "last_decade"]),
        );
        let mut t = Table::new(s);
        for row in [[0, 0], [0, 1], [1, 2], [1, 1], [0, 2]] {
            t.push_row(&row).unwrap();
        }
        (t, o)
    }

    #[test]
    fn binarizes_at_pivot() {
        let (mut t, o) = table();
        let b = binarize_outcome(&mut t, o, 1, "used_ever").unwrap();
        assert_eq!(t.column(b).unwrap(), &[0, 1, 1, 1, 1]);
        let b2 = binarize_outcome(&mut t, o, 2, "used_recently").unwrap();
        assert_eq!(t.column(b2).unwrap(), &[0, 0, 1, 0, 1]);
    }

    #[test]
    fn rejects_degenerate_pivots() {
        let (mut t, o) = table();
        assert!(binarize_outcome(&mut t, o, 0, "bad").is_err());
        assert!(binarize_outcome(&mut t, o, 3, "bad").is_err());
    }

    #[test]
    fn derived_column_is_usable_by_estimator() {
        let (mut t, o) = table();
        let b = binarize_outcome(&mut t, o, 2, "fav").unwrap();
        let est =
            crate::scores::ScoreEstimator::from_shared(t.clone().into(), None, b, 1, 1.0).unwrap();
        let s = est.scores(AttrId(0), 1, 0, &Context::empty()).unwrap();
        assert!((0.0..=1.0).contains(&s.sufficiency));
    }

    #[test]
    fn partition_layout() {
        let (below, above) = partition(4, 2);
        assert_eq!(below, vec![0, 1]);
        assert_eq!(above, vec![2, 3]);
    }
}
