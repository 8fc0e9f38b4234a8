//! Global, contextual and local explanation *result* types (paper §3.2).
//!
//! * **Global** (`K = ∅`): for every attribute, the maximum of each score
//!   over all ordered value pairs — Figure 3's rankings.
//! * **Contextual** (user-defined `K = k`): the same scores inside a
//!   sub-population — Figure 4's group comparisons.
//! * **Local** (`K = V`): per-attribute positive/negative contributions
//!   for one individual — Figures 5–7's bar charts.
//!
//! The queries themselves are answered by [`crate::Engine`] — the owned,
//! `Send + Sync` entry point built with [`crate::Engine::builder`].

use crate::scores::Scores;
use tabular::{AttrId, Context, Value};

/// Scores for one attribute, maximized over value contrasts.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributeScores {
    /// The attribute.
    pub attr: AttrId,
    /// Its display name.
    pub name: String,
    /// Component-wise maximum scores over all ordered value pairs.
    pub scores: Scores,
    /// The contrast `(hi, lo)` achieving the maximum NESUF, or `None`
    /// when no ordered pair of this attribute had data support (in which
    /// case every score is zero).
    pub best_pair: Option<(Value, Value)>,
}

/// A full global explanation: every feature, ranked by NESUF.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalExplanation {
    /// Per-attribute maxima, sorted by descending NESUF.
    pub attributes: Vec<AttributeScores>,
}

impl GlobalExplanation {
    /// 1-based rank of an attribute under a score component extractor.
    pub fn rank_by(&self, attr: AttrId, component: impl Fn(&Scores) -> f64) -> Option<usize> {
        let mut scored: Vec<(f64, AttrId)> = self
            .attributes
            .iter()
            .map(|a| (component(&a.scores), a.attr))
            .collect();
        scored.sort_by(|a, b| b.0.total_cmp(&a.0));
        scored.iter().position(|&(_, a)| a == attr).map(|i| i + 1)
    }
}

/// Scores for one attribute inside one sub-population.
#[derive(Debug, Clone, PartialEq)]
pub struct ContextualExplanation {
    /// The probed attribute.
    pub attr: AttrId,
    /// The sub-population.
    pub context: Context,
    /// Maximum scores over value pairs within the context.
    pub scores: Scores,
}

/// One attribute's contribution to an individual's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalContribution {
    /// The attribute.
    pub attr: AttrId,
    /// Display name.
    pub name: String,
    /// The individual's value of the attribute.
    pub value: Value,
    /// Display label of the value.
    pub label: String,
    /// Positive contribution in `[0, 1]` — how much holding this value
    /// (rather than a worse one) supports the current outcome direction.
    pub positive: f64,
    /// Negative contribution in `[0, 1]` — how much a better value would
    /// change the outcome.
    pub negative: f64,
}

/// A local explanation for one individual.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalExplanation {
    /// The algorithm's decision for this individual.
    pub outcome: Value,
    /// Per-attribute contributions, sorted by descending
    /// `max(positive, negative)`.
    pub contributions: Vec<LocalContribution>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_by_survives_nan_components() {
        // total_cmp ordering: a NaN-producing extractor must not panic
        let g = GlobalExplanation {
            attributes: vec![
                AttributeScores {
                    attr: AttrId(0),
                    name: "a".into(),
                    scores: Scores {
                        necessity: 0.2,
                        sufficiency: 0.1,
                        nesuf: 0.5,
                    },
                    best_pair: Some((1, 0)),
                },
                AttributeScores {
                    attr: AttrId(1),
                    name: "b".into(),
                    scores: Scores {
                        necessity: 0.0,
                        sufficiency: 0.0,
                        nesuf: 0.1,
                    },
                    best_pair: None,
                },
            ],
        };
        // extractor yields 2.0 for `a` and NaN (0/0) for `b`: the old
        // partial_cmp comparator panicked here; total_cmp ranks the NaN
        // deterministically (at whichever extreme its sign bit puts it)
        let rank_a = g.rank_by(AttrId(0), |s| s.necessity / s.sufficiency);
        let rank_b = g.rank_by(AttrId(1), |s| s.necessity / s.sufficiency);
        let mut ranks = [rank_a.unwrap(), rank_b.unwrap()];
        ranks.sort_unstable();
        assert_eq!(ranks, [1, 2], "both attributes ranked, no panic");
        assert_eq!(g.rank_by(AttrId(7), |s| s.nesuf), None);
    }
}
