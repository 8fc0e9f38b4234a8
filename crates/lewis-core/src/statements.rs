//! Natural-language contrastive counterfactual statements.
//!
//! The paper's explanations are delivered to end users as sentences of
//! the canonical form (1):
//!
//! > "For individual(s) with attribute(s) `<actual-value>` for whom an
//! > algorithm made the decision `<actual-outcome>`, the decision would
//! > have been `<foil-outcome>` with probability `<score>` had the
//! > attribute been `<counterfactual-value>`."
//!
//! Figure 1 renders these for Maeve and Irrfan ("Your loan would have
//! been approved with 28% probability were Purpose = 'Furniture'").
//! This module turns scores back into those sentences.

use crate::scores::{ScoreEstimator, ScoreKind};
use crate::Result;
use tabular::{AttrId, Context, Value};

/// Vocabulary for rendering outcomes in sentences.
#[derive(Debug, Clone)]
pub struct OutcomeWords {
    /// Noun phrase for the decision subject, e.g. "your loan".
    pub subject: String,
    /// Verb phrase for the positive decision, e.g. "been approved".
    pub positive: String,
    /// Verb phrase for the negative decision, e.g. "been rejected".
    pub negative: String,
}

impl Default for OutcomeWords {
    fn default() -> Self {
        OutcomeWords {
            subject: "the decision".into(),
            positive: "been positive".into(),
            negative: "been negative".into(),
        }
    }
}

/// A rendered contrastive statement plus its underlying quantities.
#[derive(Debug, Clone, PartialEq)]
pub struct Statement {
    /// The sentence shown to the user.
    pub text: String,
    /// The probability the sentence quotes.
    pub probability: f64,
    /// Which score produced it.
    pub kind: ScoreKind,
    /// The attribute and counterfactual value the sentence references.
    pub attr: AttrId,
    /// The counterfactual value.
    pub counterfactual: Value,
}

/// Render a **sufficiency** statement for a negatively-decided
/// individual: "X would have `<positive>` with probability p were
/// `<attr>` = `<hi label>`."
pub fn sufficiency_statement(
    est: &ScoreEstimator,
    words: &OutcomeWords,
    attr: AttrId,
    current: Value,
    counterfactual: Value,
    k: &Context,
) -> Result<Statement> {
    let p = est.sufficiency(attr, counterfactual, current, k)?;
    let schema = est.table().schema();
    let name = schema.name(attr);
    let label = schema.attr(attr)?.domain.label(counterfactual);
    let text = format!(
        "{} would have {} with {:.0}% probability were {} = '{}'.",
        capitalize(&words.subject),
        words.positive,
        p * 100.0,
        name,
        label
    );
    Ok(Statement {
        text,
        probability: p,
        kind: ScoreKind::Sufficiency,
        attr,
        counterfactual,
    })
}

/// Render a **necessity** statement for a positively-decided individual:
/// "X would have `<negative>` with probability p were `<attr>` =
/// `<lo label>`."
pub fn necessity_statement(
    est: &ScoreEstimator,
    words: &OutcomeWords,
    attr: AttrId,
    current: Value,
    counterfactual: Value,
    k: &Context,
) -> Result<Statement> {
    let p = est.necessity(attr, current, counterfactual, k)?;
    let schema = est.table().schema();
    let name = schema.name(attr);
    let label = schema.attr(attr)?.domain.label(counterfactual);
    let text = format!(
        "{} would have {} with {:.0}% probability were {} = '{}'.",
        capitalize(&words.subject),
        words.negative,
        p * 100.0,
        name,
        label
    );
    Ok(Statement {
        text,
        probability: p,
        kind: ScoreKind::Necessity,
        attr,
        counterfactual,
    })
}

/// The strongest statement for one individual and attribute: sweeps the
/// value order and returns the maximal-probability counterfactual (the
/// kind is chosen by the individual's current decision).
pub fn best_statement(
    est: &ScoreEstimator,
    words: &OutcomeWords,
    row: &[Value],
    attr: AttrId,
    order: &[Value],
    min_support: usize,
) -> Result<Option<Statement>> {
    let outcome = row[est.pred_attr().index()];
    let favourable = outcome == est.positive();
    let current = row[attr.index()];
    let k = est.local_context(row, attr, min_support);
    let pos = order.iter().position(|&v| v == current).unwrap_or(0);
    let mut best: Option<Statement> = None;
    for (rank, &v) in order.iter().enumerate() {
        if v == current {
            continue;
        }
        let stmt = if favourable {
            if rank >= pos {
                continue; // necessity contrasts go downward
            }
            necessity_statement(est, words, attr, current, v, &k)
        } else {
            if rank <= pos {
                continue; // sufficiency contrasts go upward
            }
            sufficiency_statement(est, words, attr, current, v, &k)
        };
        match stmt {
            Ok(s) => {
                if best.as_ref().is_none_or(|b| s.probability > b.probability) {
                    best = Some(s);
                }
            }
            Err(crate::LewisError::Unsupported(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(best)
}

fn capitalize(s: &str) -> String {
    let mut chars = s.chars();
    match chars.next() {
        Some(first) => first.to_uppercase().collect::<String>() + chars.as_str(),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::label_table;
    use crate::ordering::infer_value_order;
    use tabular::{Domain, Schema, Table};

    fn fixture() -> (Table, AttrId) {
        let mut s = Schema::new();
        s.push("purpose", Domain::categorical(["repairs", "furniture"]));
        let mut t = Table::new(s);
        // approvals: repairs 1/4, furniture 3/4
        for (purpose, reps_pos, reps_neg) in [(0u32, 1, 3), (1u32, 3, 1)] {
            for _ in 0..reps_pos * 25 {
                t.push_row(&[purpose]).unwrap();
            }
            let _ = reps_neg;
        }
        // relabel with a model that approves furniture 75% deterministically
        // by row position: simpler — explicit predictions
        let preds: Vec<u32> = (0..t.n_rows())
            .map(|r| {
                let v = t.get(r, AttrId(0)).unwrap();
                if v == 1 {
                    u32::from(r % 4 != 0)
                } else {
                    u32::from(r % 4 == 0)
                }
            })
            .collect();
        let pred = t.add_column("pred", Domain::boolean(), preds).unwrap();
        (t, pred)
    }

    #[test]
    fn sufficiency_statement_quotes_probability() {
        let (t, pred) = fixture();
        let est = ScoreEstimator::from_shared(t.clone().into(), None, pred, 1, 0.0).unwrap();
        let words = OutcomeWords {
            subject: "your loan".into(),
            positive: "been approved".into(),
            negative: "been rejected".into(),
        };
        let stmt = sufficiency_statement(&est, &words, AttrId(0), 0, 1, &Context::empty()).unwrap();
        assert!(stmt
            .text
            .starts_with("Your loan would have been approved with"));
        assert!(stmt.text.contains("purpose = 'furniture'"));
        assert!((0.0..=1.0).contains(&stmt.probability));
        let quoted = format!("{:.0}%", stmt.probability * 100.0);
        assert!(stmt.text.contains(&quoted));
    }

    #[test]
    fn best_statement_picks_direction_from_outcome() {
        let (t, pred) = fixture();
        let est = ScoreEstimator::from_shared(t.clone().into(), None, pred, 1, 0.0).unwrap();
        let words = OutcomeWords::default();
        let order = infer_value_order(&t, AttrId(0), pred, 1).unwrap();
        // negative individual with purpose = repairs: sufficiency upward
        let neg_row = [0u32, 0];
        let stmt = best_statement(&est, &words, &neg_row, AttrId(0), &order, 5)
            .unwrap()
            .expect("statement exists");
        assert_eq!(stmt.kind, ScoreKind::Sufficiency);
        assert_eq!(stmt.counterfactual, 1);
        // positive individual with purpose = furniture: necessity downward
        let pos_row = [1u32, 1];
        let stmt2 = best_statement(&est, &words, &pos_row, AttrId(0), &order, 5)
            .unwrap()
            .expect("statement exists");
        assert_eq!(stmt2.kind, ScoreKind::Necessity);
        assert_eq!(stmt2.counterfactual, 0);
    }

    #[test]
    fn no_statement_for_extreme_values() {
        let (t, pred) = fixture();
        let est = ScoreEstimator::from_shared(t.clone().into(), None, pred, 1, 0.0).unwrap();
        let order = infer_value_order(&t, AttrId(0), pred, 1).unwrap();
        // a negative individual already holding the best value has no
        // upward contrast
        let row = [1u32, 0];
        let stmt =
            best_statement(&est, &OutcomeWords::default(), &row, AttrId(0), &order, 5).unwrap();
        assert!(stmt.is_none());
    }

    #[test]
    fn label_table_roundtrip_consistency() {
        // make sure the fixture's derived column behaves like label_table
        let mut s = Schema::new();
        s.push("x", Domain::boolean());
        let mut t = Table::new(s);
        t.push_row(&[1]).unwrap();
        let f = |row: &[Value]| row[0];
        let pred = label_table(&mut t, &f, "pred").unwrap();
        assert_eq!(t.get(0, pred).unwrap(), 1);
    }
}
