//! Counterfactual-fairness auditing (paper §6, "Algorithmic fairness").
//!
//! The paper observes that Kusner et al.'s counterfactual fairness is
//! expressible in LEWIS's vocabulary: *an algorithm is counterfactually
//! fair w.r.t. a protected attribute iff both the sufficiency score and
//! the necessity score of that attribute are zero*. This module wraps
//! that check and quantifies contextual disparities between protected
//! groups (the Fig. 4c/d analysis).

use crate::engine::Engine;
use crate::ordering::ordered_pairs;
use crate::scores::Contrast;
use crate::Result;
use tabular::{AttrId, Context, Value};

/// The verdict of a counterfactual-fairness audit.
#[derive(Debug, Clone, PartialEq)]
pub struct FairnessReport {
    /// The audited protected attribute.
    pub protected: AttrId,
    /// Maximum necessity score over protected-value contrasts.
    pub max_necessity: f64,
    /// Maximum sufficiency score over protected-value contrasts.
    pub max_sufficiency: f64,
    /// The tolerance used for the verdict.
    pub tolerance: f64,
    /// `true` iff both maxima are below tolerance.
    pub counterfactually_fair: bool,
}

/// Audit `protected` for counterfactual fairness within context `k`,
/// using `engine`'s estimator (and its counting-pass cache).
///
/// The scores capture both the direct and the *proxy* influence of the
/// protected attribute (paper Remark 3.2) — a model that never reads
/// race still fails this audit if race reaches its inputs causally.
pub fn audit(
    engine: &Engine,
    protected: AttrId,
    k: &Context,
    tolerance: f64,
) -> Result<FairnessReport> {
    let scores = engine.attribute_scores(protected, k)?;
    Ok(FairnessReport {
        protected,
        max_necessity: scores.scores.necessity,
        max_sufficiency: scores.scores.sufficiency,
        tolerance,
        counterfactually_fair: scores.scores.necessity < tolerance
            && scores.scores.sufficiency < tolerance,
    })
}

/// Disparity of one attribute's sufficiency across protected groups:
/// for each value `g` of `protected`, the sufficiency of `attr` within
/// the sub-population `protected = g`. Returns `(group value, score)`
/// pairs — the Fig. 4c/d bars.
pub fn group_sufficiency_disparity(
    engine: &Engine,
    attr: AttrId,
    protected: AttrId,
    k: &Context,
) -> Result<Vec<(Value, f64)>> {
    let card = engine.table().schema().cardinality(protected)?;
    let mut out = Vec::with_capacity(card);
    for g in 0..card as Value {
        let ctx = k.with(protected, g);
        let c = engine.contextual(attr, &ctx)?;
        out.push((g, c.scores.sufficiency));
    }
    Ok(out)
}

/// The largest absolute sufficiency gap between any two protected
/// groups — a single-number disparate-impact indicator.
pub fn max_disparity(engine: &Engine, attr: AttrId, protected: AttrId, k: &Context) -> Result<f64> {
    let groups = group_sufficiency_disparity(engine, attr, protected, k)?;
    let mut max_gap = 0.0f64;
    for (i, &(_, a)) in groups.iter().enumerate() {
        for &(_, b) in &groups[i + 1..] {
            max_gap = max_gap.max((a - b).abs());
        }
    }
    Ok(max_gap)
}

/// All ordered contrasts of the protected attribute with their scores —
/// the detailed evidence behind a failed audit. The contrasts share one
/// counting pass from `engine`'s cache, the pass [`audit`] reads.
pub fn contrast_evidence(
    engine: &Engine,
    protected: AttrId,
    k: &Context,
) -> Result<Vec<((Value, Value), crate::Scores)>> {
    let pairs = ordered_pairs(
        engine
            .value_order(protected)
            .ok_or_else(|| crate::LewisError::Invalid(format!("{protected} is not a feature")))?,
    );
    let contrasts: Vec<Contrast> = pairs
        .iter()
        .map(|&(hi, lo)| Contrast::single(protected, hi, lo))
        .collect();
    let mut out = Vec::new();
    for (&pair, result) in pairs.iter().zip(engine.scores_batch(&contrasts, k)) {
        match result {
            Ok(s) => out.push((pair, s)),
            Err(crate::LewisError::Unsupported(_)) => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::label_table;
    use causal::{Mechanism, Scm, ScmBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::{Domain, Schema, Table};

    /// protected `g` (node 0) → qualification `q` (node 1); model either
    /// reads only q (biased via proxy) or a fair coin over q's noise.
    fn world() -> Scm {
        let mut schema = Schema::new();
        schema.push("g", Domain::boolean());
        schema.push("q", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.5, 0.5])).unwrap();
        // qualification flows mostly to group 1: q = g unless degraded
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.6, 0.4], |pa, u| pa[0] & (1 - u as Value)),
        )
        .unwrap();
        b.build().unwrap()
    }

    fn setup(f: impl Fn(&[Value]) -> Value + Send + Sync + 'static) -> (Table, AttrId) {
        let scm = world();
        let mut rng = StdRng::seed_from_u64(9);
        let mut t = scm.generate(8000, &mut rng);
        let pred = label_table(&mut t, &f, "pred").unwrap();
        (t, pred)
    }

    fn engine_for(t: Table, scm: &Scm, pred: AttrId) -> Engine {
        Engine::builder(t)
            .graph(scm.graph())
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1)])
            .alpha(0.5)
            .build()
            .unwrap()
    }

    #[test]
    fn proxy_bias_is_caught() {
        // model reads only q, but q is causally downstream of g
        let (t, pred) = setup(|row| row[1]);
        let scm = world();
        let engine = engine_for(t, &scm, pred);
        let report = audit(&engine, AttrId(0), &Context::empty(), 0.05).unwrap();
        assert!(!report.counterfactually_fair, "{report:?}");
        assert!(report.max_sufficiency > 0.1);
        let evidence = contrast_evidence(&engine, AttrId(0), &Context::empty()).unwrap();
        assert!(!evidence.is_empty());
    }

    #[test]
    fn contrast_evidence_scores_through_the_pass_cache() {
        let (t, pred) = setup(|row| row[1]);
        let scm = world();
        let engine = engine_for(t, &scm, pred);
        let first = contrast_evidence(&engine, AttrId(0), &Context::empty()).unwrap();
        let before = engine.cache_stats();
        let again = contrast_evidence(&engine, AttrId(0), &Context::empty()).unwrap();
        let after = engine.cache_stats();
        assert_eq!(first, again);
        assert!(after.hits > before.hits, "{before:?} -> {after:?}");
        assert_eq!(after.misses, before.misses, "{before:?} -> {after:?}");
        // bit-identical to the uncached scoring view
        for ((hi, lo), s) in first {
            let cold = engine
                .estimator()
                .scores(AttrId(0), hi, lo, &Context::empty());
            assert_eq!(cold.unwrap(), s);
        }
    }

    #[test]
    fn constant_model_is_fair() {
        let (t, pred) = setup(|_| 1);
        let scm = world();
        let engine = engine_for(t, &scm, pred);
        let report = audit(&engine, AttrId(0), &Context::empty(), 0.05).unwrap();
        assert!(report.counterfactually_fair, "{report:?}");
    }

    #[test]
    fn disparity_is_zero_for_symmetric_models_and_positive_for_biased() {
        // biased: q matters only when g = 1
        let (t, pred) = setup(|row| row[0] & row[1]);
        let scm = world();
        let engine = engine_for(t, &scm, pred);
        let gap = max_disparity(&engine, AttrId(1), AttrId(0), &Context::empty()).unwrap();
        assert!(gap > 0.3, "q helps only group 1: gap {gap}");
        let groups =
            group_sufficiency_disparity(&engine, AttrId(1), AttrId(0), &Context::empty()).unwrap();
        assert_eq!(groups.len(), 2);
        assert!(groups[1].1 > groups[0].1);
    }
}
