//! Backdoor adjustment: estimating `Pr(y | do(x), k)` from data.
//!
//! Implements the paper's eq. (4): if `C ∪ K` satisfies the backdoor
//! criterion relative to `X` and `Y`, then
//!
//! `Pr(y | do(x), k) = Σ_c Pr(y | c, x, k) Pr(c | k)`.
//!
//! The conditionals are counted from a [`Table`] with Laplace smoothing.

use crate::dsep::satisfies_backdoor;
use crate::graph::{Dag, NodeId};
use crate::{CausalError, Result};
use tabular::{AttrId, Context, Counter, Table, Value};

/// Estimate `Pr(outcome_attr = outcome_value | do(x_attr = x_value), k)`
/// by backdoor adjustment over the set `adjust`.
///
/// `adjust ∪ k.attrs()` must satisfy the backdoor criterion relative to
/// `x_attr` and `outcome_attr` in `graph` — this is *checked*, returning
/// [`CausalError::NotABackdoorSet`] otherwise. `alpha` is the Laplace
/// smoothing pseudo-count for the inner conditionals.
#[allow(clippy::too_many_arguments)] // mirrors the estimand Pr(y | do(x), k)
pub fn interventional_probability(
    table: &Table,
    graph: &Dag,
    x_attr: AttrId,
    x_value: Value,
    outcome_attr: AttrId,
    outcome_value: Value,
    k: &Context,
    adjust: &[AttrId],
    alpha: f64,
) -> Result<f64> {
    let mut z: Vec<NodeId> = adjust.iter().map(|a| a.index()).collect();
    z.extend(k.attrs().map(|a| a.index()));
    z.sort_unstable();
    z.dedup();
    if !satisfies_backdoor(graph, &[x_attr.index()], &[outcome_attr.index()], &z) {
        return Err(CausalError::NotABackdoorSet(format!(
            "{z:?} relative to ({}, {})",
            x_attr.index(),
            outcome_attr.index()
        )));
    }
    estimate_adjusted(
        table,
        x_attr,
        x_value,
        outcome_attr,
        outcome_value,
        k,
        adjust,
        alpha,
    )
}

/// The adjustment estimator itself, without the graphical check — used
/// directly by `lewis-core` when the adjustment set was already validated
/// (or deliberately assumed, e.g. the no-confounding fallback of §6).
#[allow(clippy::too_many_arguments)]
pub fn estimate_adjusted(
    table: &Table,
    x_attr: AttrId,
    x_value: Value,
    outcome_attr: AttrId,
    outcome_value: Value,
    k: &Context,
    adjust: &[AttrId],
    alpha: f64,
) -> Result<f64> {
    if adjust.is_empty() {
        // Pr(y | x, k) directly.
        return Ok(table.conditional_probability(
            outcome_attr,
            outcome_value,
            &k.with(x_attr, x_value),
            alpha,
        )?);
    }
    // One scan: group by (adjust..., x, y) within k.
    let mut attrs: Vec<AttrId> = adjust.to_vec();
    attrs.push(x_attr);
    attrs.push(outcome_attr);
    let counter = Counter::build(table, &attrs, k)?;
    let n_adjust = adjust.len();
    let total = counter.total();
    if total == 0 {
        return Err(CausalError::Tabular(tabular::TabularError::EmptySelection(
            "no rows match the context for adjustment".into(),
        )));
    }

    // Collect counts per adjustment cell: n(c), n(c, x), n(c, x, y).
    let mut cells: tabular::FxHashMap<Vec<Value>, (u64, u64, u64)> = tabular::FxHashMap::default();
    counter.for_each_nonzero(|values, n| {
        let c = values[..n_adjust].to_vec();
        let entry = cells.entry(c).or_insert((0, 0, 0));
        entry.0 += n;
        if values[n_adjust] == x_value {
            entry.1 += n;
            if values[n_adjust + 1] == outcome_value {
                entry.2 += n;
            }
        }
    });

    let card_o = table.schema().cardinality(outcome_attr)? as f64;
    let mut acc = 0.0f64;
    for (_c, (n_c, n_cx, n_cxy)) in cells {
        let pr_c = n_c as f64 / total as f64; // Pr(c | k)
        let denom = n_cx as f64 + alpha * card_o;
        let pr_y = if denom == 0.0 {
            1.0 / card_o // unsupported cell: uniform fallback
        } else {
            (n_cxy as f64 + alpha) / denom
        };
        acc += pr_y * pr_c;
    }
    Ok(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scm::{Mechanism, ScmBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tabular::{Domain, Schema};

    /// Confounded model: C → X, C → Y, X → Y.
    /// C ~ Bern(0.5); X = C with flip prob 0.25; Y = OR(X, C) with flip 0.1.
    fn confounded() -> crate::scm::Scm {
        let mut schema = Schema::new();
        schema.push("c", Domain::boolean());
        schema.push("x", Domain::boolean());
        schema.push("y", Domain::boolean());
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.edge(0, 2).unwrap();
        b.edge(1, 2).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.5, 0.5])).unwrap();
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.75, 0.25], |pa, u| pa[0] ^ (u as Value)),
        )
        .unwrap();
        b.mechanism(
            2,
            Mechanism::with_noise(vec![0.9, 0.1], |pa, u| (pa[0] | pa[1]) ^ (u as Value)),
        )
        .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn adjustment_recovers_interventional_truth() {
        let scm = confounded();
        let mut rng = StdRng::seed_from_u64(42);
        let data = scm.generate(60_000, &mut rng);

        // Ground truth from the SCM itself: do(x = 0) has a heterogeneous
        // effect (y = OR(0, c) = c up to flips), so confounding matters.
        let eng = crate::counterfactual::CounterfactualEngine::exact(&scm).unwrap();
        let truth = eng.interventional(&[(1, 0)], |w| w[2] == 1).unwrap();

        // Naive conditional is confounded and should differ: x = 0 biases
        // the population toward c = 0.
        let naive = data
            .conditional_probability(AttrId(2), 1, &Context::of([(AttrId(1), 0)]), 0.0)
            .unwrap();

        // Backdoor adjustment over C recovers the truth.
        let adjusted = interventional_probability(
            &data,
            scm.graph(),
            AttrId(1),
            0,
            AttrId(2),
            1,
            &Context::empty(),
            &[AttrId(0)],
            0.0,
        )
        .unwrap();

        assert!(
            (adjusted - truth).abs() < 0.01,
            "adjusted {adjusted} vs truth {truth}"
        );
        assert!(
            (naive - truth).abs() > 0.03,
            "confounding should bias the naive estimate: naive {naive} vs truth {truth}"
        );
    }

    #[test]
    fn invalid_adjustment_set_is_rejected() {
        let scm = confounded();
        let mut rng = StdRng::seed_from_u64(1);
        let data = scm.generate(1000, &mut rng);
        // Empty set does not block C → X, C → Y.
        let r = interventional_probability(
            &data,
            scm.graph(),
            AttrId(1),
            1,
            AttrId(2),
            1,
            &Context::empty(),
            &[],
            0.0,
        );
        assert!(matches!(r, Err(CausalError::NotABackdoorSet(_))));
    }

    #[test]
    fn context_constrains_estimation() {
        let scm = confounded();
        let mut rng = StdRng::seed_from_u64(7);
        let data = scm.generate(40_000, &mut rng);
        // Within stratum c = 1 there is no confounding left; adjustment
        // with empty C and K = {c = 1} is valid and equals Pr(y|x, c).
        let k = Context::of([(AttrId(0), 1)]);
        let adjusted = interventional_probability(
            &data,
            scm.graph(),
            AttrId(1),
            1,
            AttrId(2),
            1,
            &k,
            &[],
            0.0,
        )
        .unwrap();
        let direct = data
            .conditional_probability(AttrId(2), 1, &k.with(AttrId(1), 1), 0.0)
            .unwrap();
        assert!((adjusted - direct).abs() < 1e-12);
        // and it approximates Pr(y | do(x), c=1) = 0.9 (OR is 1 when c=1)
        assert!((adjusted - 0.9).abs() < 0.02, "got {adjusted}");
    }

    #[test]
    fn empty_data_errors() {
        let scm = confounded();
        let data = Table::new(scm.schema().clone());
        let r = estimate_adjusted(
            &data,
            AttrId(1),
            1,
            AttrId(2),
            1,
            &Context::empty(),
            &[AttrId(0)],
            0.0,
        );
        assert!(r.is_err());
    }
}
