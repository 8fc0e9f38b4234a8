//! Counterfactual recourse (paper §3.2 "Counterfactual recourse", §4.2).
//!
//! For an individual with a negative decision, find the minimal-cost
//! intervention on a user-specified set of *actionable* attributes `A`
//! whose sufficiency score clears a threshold `α`:
//!
//! ```text
//!   argmin  Σ_A φ_A(a, â)      s.t.  SUF_â(v) ≥ α          (eq. 8)
//! ```
//!
//! Following §4.2, the sufficiency constraint is linearized through a
//! logit-linear surrogate of `Pr(o | â, k)` (eq. 28):
//!
//! ```text
//!   Pr(o | â, k) ≥ Pr(o | a, k) + α · Pr(o' | a, k)
//! ```
//!
//! which turns into a covering constraint over per-value logit gains,
//! solved exactly by the `optim` crate's branch-and-bound. Because the
//! surrogate is approximate, every candidate solution is **verified**
//! against the counting sufficiency estimator; rejected candidates are
//! excluded and the search continues (a lazy no-good cut), escalating the
//! covering target if the surrogate was too optimistic.
//!
//! Recourse is served by [`Engine::recourse`]: the surrogate
//! comes from the engine's surrogate cache, and verification scores its
//! contrast like every other engine query, reading the pass from the
//! engine's counting-pass cache (counted, shared, topped up on live
//! tables).

use crate::scores::{Contrast, ScoreEstimator};
use crate::{Engine, LewisError, Result};
use causal::Dag;
use ml::linalg::dot;
use ml::linear::{
    logit, sigmoid, LogisticRegression, NewtonOptions, OneHotBlock, OneHotDesign, OrdinalFeature,
    Patterns,
};
use optim::{Group, IpError, Item, MckpSolver};
use std::sync::Arc;
use tabular::{AttrId, Context, Table, Value};

/// Cost model `φ_A(a, â)` for changing an actionable attribute.
#[derive(Debug, Clone)]
pub enum CostModel {
    /// Every change costs 1 regardless of distance.
    Unit,
    /// Cost = ordinal rank distance under the inferred value order.
    OrdinalLinear,
    /// Cost = squared ordinal rank distance.
    OrdinalQuadratic,
    /// Per-attribute weights multiplying the ordinal rank distance.
    Weighted(Vec<(AttrId, f64)>),
}

impl CostModel {
    fn cost(&self, attr: AttrId, rank_from: usize, rank_to: usize) -> f64 {
        let dist = rank_from.abs_diff(rank_to) as f64;
        match self {
            CostModel::Unit => 1.0,
            CostModel::OrdinalLinear => dist,
            CostModel::OrdinalQuadratic => dist * dist,
            CostModel::Weighted(ws) => {
                let w = ws
                    .iter()
                    .find(|&&(a, _)| a == attr)
                    .map_or(1.0, |&(_, w)| w);
                w * dist
            }
        }
    }
}

/// Options controlling recourse generation.
#[derive(Debug, Clone)]
pub struct RecourseOptions {
    /// Required sufficiency `α` of the recommended action (eq. 8).
    pub alpha: f64,
    /// The action cost model.
    pub cost: CostModel,
    /// Minimum support for the individual's context back-off.
    pub min_support: usize,
    /// Maximum verification rejections before escalating the target.
    pub max_rejections: usize,
    /// Target scaling factors tried in order. Factors **below 1** relax
    /// the surrogate's covering constraint but make data verification
    /// *mandatory* (the surrogate may be pessimistic about cheap actions
    /// the data proves sufficient); factors **at or above 1** tighten
    /// the constraint and fall back to trusting it when verification has
    /// no support.
    pub escalations: Vec<f64>,
}

impl Default for RecourseOptions {
    fn default() -> Self {
        RecourseOptions {
            alpha: 0.75,
            cost: CostModel::OrdinalLinear,
            min_support: 30,
            max_rejections: 200,
            escalations: vec![0.35, 0.7, 1.0, 1.6, 2.5, 4.0],
        }
    }
}

/// One recommended change.
#[derive(Debug, Clone, PartialEq)]
pub struct Action {
    /// The actionable attribute.
    pub attr: AttrId,
    /// Display name.
    pub name: String,
    /// Current value code and label.
    pub from: Value,
    /// Recommended value code.
    pub to: Value,
    /// Display labels for `from` / `to`.
    pub from_label: String,
    /// Display label for the recommended value.
    pub to_label: String,
    /// This action's cost under the configured model.
    pub cost: f64,
}

/// A complete recourse recommendation.
#[derive(Debug, Clone, PartialEq)]
pub struct Recourse {
    /// The recommended actions (possibly empty when the individual is
    /// already positively classified).
    pub actions: Vec<Action>,
    /// Total cost.
    pub total_cost: f64,
    /// The *verified* sufficiency of the action set (counting estimator),
    /// `None` when the context had too little support to verify and the
    /// surrogate constraint was trusted instead.
    pub verified_sufficiency: Option<f64>,
    /// The surrogate model's predicted positive probability after acting.
    pub surrogate_probability: f64,
    /// Number of IP constraints in the solved program (reported in the
    /// scalability experiment, §5.5).
    pub n_constraints: usize,
}

/// A fitted recourse surrogate for one *ordered* actionable set: the
/// logit-linear coefficients over the `[one-hot per actionable attr
/// ...][ordinal context]` layout (the order of `actionable` fixes the
/// layout, so the fit is only valid for that exact order), plus the
/// inferred value orders the cost model ranks against. Plain data —
/// cacheable on the engine, exportable through snapshots and `.lewis`
/// packs, so a restored server answers recourse from warm coefficients
/// without refitting.
#[derive(Debug, Clone, PartialEq)]
pub struct SurrogateFit {
    /// Surrogate intercept.
    pub intercept: f64,
    /// Coefficients over the one-hot + ordinal-context layout.
    pub coefficients: Vec<f64>,
    /// Inferred value order per actionable attribute.
    pub orders: Vec<Vec<Value>>,
}

/// The surrogate's feature layout for one actionable set — derivable
/// from schema + graph alone, no table scan.
pub(crate) struct SurrogatePlan {
    /// One-hot start slot per actionable attribute.
    offsets: Vec<usize>,
    /// Ordinal context attributes appended after the one-hot block.
    context_attrs: Vec<AttrId>,
    /// First ordinal slot.
    ctx_base: usize,
    /// Total feature width.
    width: usize,
}

/// Check the actionable set and derive the surrogate feature layout:
/// one-hot slots for each actionable attribute, then one ordinal slot
/// per context attribute (`K` = the non-descendants of `A` per §4.2;
/// with no graph, every non-prediction non-actionable attribute). The
/// fit counts `n(a, k, o)` under one `u64` key, so a layout whose grid
/// over `A ∪ K ∪ {pred}` overflows it is `Invalid`.
pub(crate) fn surrogate_plan(
    table: &Table,
    graph: Option<&Dag>,
    pred: AttrId,
    actionable: &[AttrId],
) -> Result<SurrogatePlan> {
    if actionable.is_empty() {
        return Err(LewisError::Invalid("no actionable attributes".into()));
    }
    for (i, &a) in actionable.iter().enumerate() {
        // a repeat would get a second one-hot block and IP group
        if actionable[..i].contains(&a) {
            return Err(LewisError::Invalid(format!(
                "actionable attribute {a} is listed twice"
            )));
        }
        if a == pred {
            return Err(LewisError::Invalid(
                "prediction column is not actionable".into(),
            ));
        }
        if a.index() >= table.schema().len() {
            return Err(LewisError::Invalid(format!(
                "actionable attribute {a} is not in the schema"
            )));
        }
    }
    if let Some(g) = graph {
        for &a in actionable {
            if a.index() >= g.n_nodes() {
                return Err(LewisError::Invalid(format!(
                    "actionable attribute {a} is not a causal-graph node"
                )));
            }
        }
    }
    // K = non-descendants of every actionable attribute (derived
    // columns outside the graph are excluded — they may leak the
    // outcome).
    let context_attrs: Vec<AttrId> = match graph {
        Some(g) => table
            .schema()
            .attr_ids()
            .filter(|&a| {
                a != pred
                    && a.index() < g.n_nodes()
                    && !actionable.contains(&a)
                    && !actionable
                        .iter()
                        .any(|&x| g.is_strict_descendant(a.index(), x.index()))
            })
            .collect(),
        None => table
            .schema()
            .attr_ids()
            .filter(|&a| a != pred && !actionable.contains(&a))
            .collect(),
    };
    let mut cells = Some(1u64);
    for &a in actionable.iter().chain(&context_attrs).chain([&pred]) {
        let card = table.schema().cardinality(a)? as u64;
        cells = cells.and_then(|c| c.checked_mul(card));
    }
    if cells.is_none() {
        return Err(LewisError::Invalid(format!(
            "the surrogate's grid over {} actionable, {} context and the prediction \
             attribute overflows u64",
            actionable.len(),
            context_attrs.len()
        )));
    }
    let mut offsets = Vec::with_capacity(actionable.len());
    let mut width = 0usize;
    for &a in actionable {
        offsets.push(width);
        width += table.schema().cardinality(a)?;
    }
    let ctx_base = width;
    width += context_attrs.len();
    Ok(SurrogatePlan {
        offsets,
        context_attrs,
        ctx_base,
        width,
    })
}

/// The surrogate's feature width for `actionable` on this table/graph —
/// what `coefficients.len()` of a valid [`SurrogateFit`] must equal.
/// The pack reader uses this to reject foreign-engine surrogate
/// sections (typed `Mismatch`) before anything is restored.
pub fn surrogate_width(
    table: &Table,
    graph: Option<&Dag>,
    pred: AttrId,
    actionable: &[AttrId],
) -> Result<usize> {
    Ok(surrogate_plan(table, graph, pred, actionable)?.width)
}

/// Fit the logit-linear surrogate `Pr(o | a, k)` (eq. 28) for one
/// actionable set. Its sufficient statistic is the count `n(a, k, o)`,
/// so the rows come grouped from one counting pass of the estimator over
/// `actionable ++ context ++ [pred]` (the index's cube, walk or scan,
/// over the base and any appended rows), read into
/// [`Patterns::from_counter`]; the grouped Newton/IRLS fit of
/// [`LogisticRegression::fit_patterns`] runs over those. The patterns
/// depend only on the multiset of rows, so the fit is bit-identical to
/// a cold fit over the concatenated table, under any shard layout or
/// row order.
///
/// `kept` carries the patterns of an earlier fit over the first `w`
/// logical rows: the pass then counts only rows `w..`
/// ([`ScoreEstimator::counting_pass_since`]), and its patterns are
/// merged into the kept ones before Newton runs — the same patterns,
/// and so the same coefficients, as counting every row. Returns the fit
/// and the patterns of every row, to keep for the next refit.
pub(crate) fn fit_surrogate(
    est: &ScoreEstimator,
    actionable: &[AttrId],
    kept: Option<(&Patterns, usize)>,
) -> Result<(SurrogateFit, Patterns)> {
    let table = est.table();
    let pred = est.pred_attr();
    let plan = surrogate_plan(table, est.graph(), pred, actionable)?;
    // pattern key order: one-hot blocks [actionable…], then the ordinal
    // context attributes; the label last
    let attrs: Vec<AttrId> = actionable
        .iter()
        .chain(&plan.context_attrs)
        .chain([&pred])
        .copied()
        .collect();
    let all = Context::empty();
    let patterns = match kept {
        Some((kept, w)) => {
            let (more, _) = est.counting_pass_since(&attrs, &all, w)?;
            kept.merge(&Patterns::from_counter(&more, est.positive())?)?
        }
        None => Patterns::from_counter(&est.counting_pass(&attrs, &all)?, est.positive())?,
    };
    let mut blocks = Vec::with_capacity(actionable.len());
    for (i, &a) in actionable.iter().enumerate() {
        blocks.push(OneHotBlock {
            offset: plan.offsets[i],
            cardinality: table.schema().cardinality(a)?,
        });
    }
    let mut ordinals = Vec::with_capacity(plan.context_attrs.len());
    for (j, &a) in plan.context_attrs.iter().enumerate() {
        ordinals.push(OrdinalFeature {
            slot: plan.ctx_base + j,
            cardinality: table.schema().cardinality(a)?,
        });
    }
    let design = OneHotDesign {
        width: plan.width,
        blocks,
        ordinals,
    };
    let model = LogisticRegression::fit_patterns(&design, &patterns, &NewtonOptions::default())?;
    let mut orders = Vec::with_capacity(actionable.len());
    for &a in actionable {
        // Through the counting chokepoint: index-accelerated and
        // delta-aware, bit-identical to the table-scan inference.
        orders.push(est.infer_order(a)?);
    }
    let fit = SurrogateFit {
        intercept: model.intercept,
        coefficients: model.coefficients,
        orders,
    };
    Ok((fit, patterns))
}

/// Check `fit`'s shape against `est`'s surrogate layout for
/// `actionable` and return the layout, so a foreign engine's fit is
/// rejected as `Invalid` rather than silently mis-indexed.
pub(crate) fn check_fit(
    est: &ScoreEstimator,
    actionable: &[AttrId],
    fit: &SurrogateFit,
) -> Result<SurrogatePlan> {
    let table = est.table();
    let plan = surrogate_plan(table, est.graph(), est.pred_attr(), actionable)?;
    if fit.coefficients.len() != plan.width {
        return Err(LewisError::Invalid(format!(
            "surrogate has {} coefficients, layout needs {}",
            fit.coefficients.len(),
            plan.width
        )));
    }
    if fit.orders.len() != actionable.len() {
        return Err(LewisError::Invalid(format!(
            "surrogate has {} value orders for {} actionable attributes",
            fit.orders.len(),
            actionable.len()
        )));
    }
    for (&a, order) in actionable.iter().zip(&fit.orders) {
        let card = table.schema().cardinality(a)?;
        if order.len() != card || (0..card as Value).any(|v| !order.contains(&v)) {
            return Err(LewisError::Invalid(format!(
                "surrogate value order for attribute {a} is not a permutation of its domain"
            )));
        }
    }
    Ok(plan)
}

/// Check a recourse request against `table`'s schema: `alpha` in
/// `[0, 1)`, and `row` a full row whose every code lies in its
/// attribute's domain. Cheap, so [`Engine::recourse`] runs it before a
/// surrogate is fitted (or a cached one evicted) for a request that
/// would fail anyway.
pub(crate) fn check_request(table: &Table, row: &[Value], opts: &RecourseOptions) -> Result<()> {
    if !(0.0..1.0).contains(&opts.alpha) {
        return Err(LewisError::Invalid("alpha must be in [0, 1)".into()));
    }
    if row.len() < table.schema().len() {
        return Err(LewisError::Invalid("row too short for schema".into()));
    }
    for (a, &v) in table.schema().attr_ids().zip(row) {
        if !table.schema().domain(a)?.contains(v) {
            return Err(LewisError::Invalid(format!(
                "row value {v} of attribute {a} is outside its domain"
            )));
        }
    }
    Ok(())
}

/// The recourse generator for one actionable set: the engine's fitted
/// surrogate for it, verifying candidates through the engine's
/// counting-pass cache. Built per query by [`Engine::recourse`].
pub(crate) struct RecourseEngine<'a> {
    engine: &'a Engine,
    actionable: Vec<AttrId>,
    fit: Arc<SurrogateFit>,
    /// one-hot feature offsets: per actionable attr, start index
    offsets: Vec<usize>,
    /// context attributes appended after the one-hot block
    context_attrs: Vec<AttrId>,
}

impl<'a> RecourseEngine<'a> {
    /// Assemble the generator from the engine's fitted surrogate for
    /// `actionable` (freshly fitted, cached, or restored from a
    /// `.lewis` pack).
    pub(crate) fn with_fit(
        engine: &'a Engine,
        actionable: &[AttrId],
        fit: Arc<SurrogateFit>,
    ) -> Result<Self> {
        let plan = check_fit(engine.estimator(), actionable, &fit)?;
        Ok(RecourseEngine {
            engine,
            actionable: actionable.to_vec(),
            fit,
            offsets: plan.offsets,
            context_attrs: plan.context_attrs,
        })
    }

    /// The surrogate's positive probability for a feature vector.
    fn predict(&self, feat: &[f64]) -> f64 {
        sigmoid(self.fit.intercept + dot(&self.fit.coefficients, feat))
    }

    fn features_for(&self, row: &[Value], overrides: &[(AttrId, Value)]) -> Vec<f64> {
        let width = self.fit.coefficients.len();
        let mut feat = vec![0.0f64; width];
        let value_of = |a: AttrId| -> Value {
            overrides
                .iter()
                .find(|&&(oa, _)| oa == a)
                .map_or(row[a.index()], |&(_, v)| v)
        };
        for (i, &a) in self.actionable.iter().enumerate() {
            feat[self.offsets[i] + value_of(a) as usize] = 1.0;
        }
        let ctx_base = width - self.context_attrs.len();
        for (j, &a) in self.context_attrs.iter().enumerate() {
            feat[ctx_base + j] = f64::from(row[a.index()]);
        }
        feat
    }

    /// Compute recourse for `row` (a full schema row of the labelled
    /// table — including the prediction cell, which identifies
    /// already-positive individuals). `row` and `opts` have passed
    /// [`check_request`].
    pub fn recourse(&self, row: &[Value], opts: &RecourseOptions) -> Result<Recourse> {
        let est = self.engine.estimator();
        let table = est.table();
        // one per actionable attribute plus the covering constraint
        let n_constraints = self.actionable.len() + 1;
        // Recourse targets negative decisions (§3.2); a positive
        // individual needs no action — constraint (25) holds with δ = 0.
        if row[est.pred_attr().index()] == est.positive() {
            let p = self.predict(&self.features_for(row, &[]));
            return Ok(Recourse {
                actions: Vec::new(),
                total_cost: 0.0,
                verified_sufficiency: None,
                surrogate_probability: p,
                n_constraints,
            });
        }

        // Individual context: values on the non-descendant attributes,
        // backed off to keep support.
        let k = self.context_with_support(row, opts.min_support);

        // Current surrogate probability and required target (eq. 28).
        let base_feat = self.features_for(row, &[]);
        let p_cur = self.predict(&base_feat);
        let target_p = (p_cur + opts.alpha * (1.0 - p_cur)).min(1.0 - 1e-6);
        let required_gain = logit(target_p) - logit(p_cur);
        if required_gain <= 0.0 {
            return Ok(Recourse {
                actions: Vec::new(),
                total_cost: 0.0,
                verified_sufficiency: None,
                surrogate_probability: p_cur,
                n_constraints,
            });
        }

        // Build IP groups: per actionable attr, one item per alternative
        // value with its logit gain and cost.
        let mut groups = Vec::with_capacity(self.actionable.len());
        for (i, &a) in self.actionable.iter().enumerate() {
            let card = table.schema().cardinality(a)?;
            let current = row[a.index()];
            let beta_cur = self.fit.coefficients[self.offsets[i] + current as usize];
            let order = &self.fit.orders[i];
            let rank_of = |v: Value| order.iter().position(|&o| o == v).unwrap_or(0);
            let cur_rank = rank_of(current);
            let mut items = Vec::with_capacity(card.saturating_sub(1));
            for v in 0..card as Value {
                if v == current {
                    continue;
                }
                let gain = self.fit.coefficients[self.offsets[i] + v as usize] - beta_cur;
                let cost = opts.cost.cost(a, cur_rank, rank_of(v));
                items.push(Item {
                    id: v as usize,
                    cost,
                    gain,
                });
            }
            groups.push(Group {
                id: a.0 as usize,
                items,
            });
        }

        // Solve with lazy verification across the target ladder: relaxed
        // targets (< 1) require data verification to pass; tightened
        // targets (≥ 1) trust the surrogate when the data cannot verify.
        //
        // Relaxed-strict rungs are only tractable when the IP is small:
        // with the covering constraint loosened, cost pruning is the only
        // thing bounding the branch-and-bound, and an all-rejecting
        // validator (exhausted budget) would make the search enumerate an
        // exponential space on large instances.
        let n_items: usize = groups.iter().map(|g| g.items.len()).sum();
        let relaxed_ok = n_items <= 64;
        let mut last_err: LewisError = LewisError::NoRecourse("no feasible action set".into());
        for &esc in &opts.escalations {
            let strict = esc < 1.0;
            if strict && !relaxed_ok {
                continue;
            }
            let solver =
                MckpSolver::new(groups.clone(), required_gain * esc).map_err(LewisError::Optim)?;
            let mut rejections = 0usize;
            let mut verified: Option<f64> = None;
            let result = solver.solve_with(|cand| {
                if cand.chosen.is_empty() {
                    return false; // the individual is negative: act
                }
                if rejections >= opts.max_rejections {
                    // Budget exhausted: accept so the solver terminates
                    // (an incumbent enables cost pruning). In strict mode
                    // the unverified result is discarded below.
                    verified = None;
                    return true;
                }
                match self.verify(row, &cand.chosen, &k, opts.alpha) {
                    Verification::Passed(s) => {
                        verified = Some(s);
                        true
                    }
                    Verification::Failed => {
                        rejections += 1;
                        false
                    }
                    Verification::NoSupport => {
                        rejections += 1;
                        verified = None;
                        !strict
                    }
                }
            });
            if strict && verified.is_none() && result.is_ok() {
                // exhausted the verification budget on a relaxed rung
                // without a data-verified solution: move on
                last_err = LewisError::NoRecourse(format!(
                    "verification budget exhausted at relaxed target ×{esc}"
                ));
                continue;
            }
            match result {
                Ok(solution) => {
                    let actions: Vec<Action> = solution
                        .chosen
                        .iter()
                        .map(|&(gid, vid)| {
                            let attr = AttrId(gid as u32);
                            let from = row[attr.index()];
                            let to = vid as Value;
                            let dom = table.schema().attr(attr).expect("valid").domain.clone();
                            let i = self.actionable.iter().position(|&a| a == attr).unwrap();
                            let order = &self.fit.orders[i];
                            let rank_of =
                                |v: Value| order.iter().position(|&o| o == v).unwrap_or(0);
                            Action {
                                attr,
                                name: table.schema().name(attr).to_string(),
                                from,
                                to,
                                from_label: dom.label(from),
                                to_label: dom.label(to),
                                cost: opts.cost.cost(attr, rank_of(from), rank_of(to)),
                            }
                        })
                        .collect();
                    let overrides: Vec<(AttrId, Value)> =
                        actions.iter().map(|a| (a.attr, a.to)).collect();
                    let p_new = self.predict(&self.features_for(row, &overrides));
                    return Ok(Recourse {
                        actions,
                        total_cost: solution.total_cost,
                        verified_sufficiency: verified,
                        surrogate_probability: p_new,
                        n_constraints,
                    });
                }
                Err(IpError::Infeasible) => {
                    last_err = LewisError::NoRecourse(format!(
                        "no action set reaches sufficiency {} (escalation {esc})",
                        opts.alpha
                    ));
                    continue;
                }
                Err(e) => return Err(LewisError::Optim(e)),
            }
        }
        Err(last_err)
    }

    /// Verify a candidate action set with the counting sufficiency
    /// estimator, through the engine's counting-pass cache (candidates
    /// of one individual, and individuals whose backed-off contexts
    /// match, share its passes). The evidence context is the
    /// individual's backed-off non-descendant context *plus* the
    /// current values of actionable attributes that are not being
    /// changed (they are part of the individual `v` in `SUF_â(v)`, and
    /// they are non-descendants of the changed set whenever the graph
    /// says so).
    fn verify(
        &self,
        row: &[Value],
        chosen: &[(usize, usize)],
        k: &Context,
        alpha: f64,
    ) -> Verification {
        let hi: Vec<(AttrId, Value)> = chosen
            .iter()
            .map(|&(gid, vid)| (AttrId(gid as u32), vid as Value))
            .collect();
        let lo: Vec<(AttrId, Value)> = hi.iter().map(|&(a, _)| (a, row[a.index()])).collect();
        // context must not constrain the intervened attributes
        let mut k2 = k.clone();
        for &(a, _) in &hi {
            k2.unset(a);
        }
        // condition on unchanged actionable attributes (when they are not
        // downstream of the changed ones)
        for &a in &self.actionable {
            if hi.iter().any(|&(c, _)| c == a) {
                continue;
            }
            let is_descendant = self.engine.graph().is_some_and(|g| {
                hi.iter()
                    .any(|&(c, _)| g.is_strict_descendant(a.index(), c.index()))
            });
            if !is_descendant {
                k2.set(a, row[a.index()]);
            }
        }
        match self.engine.scores_batch(&[Contrast { hi, lo }], &k2).pop() {
            Some(Ok(s)) if s.sufficiency >= alpha => Verification::Passed(s.sufficiency),
            Some(Ok(_)) => Verification::Failed,
            _ => Verification::NoSupport,
        }
    }

    /// The individual's context on non-descendants of the actionable set,
    /// greedily backed off to keep at least `min_support` matching rows.
    /// Support probes go through the estimator's chokepoint — the
    /// per-(feature, code) bitmap index when one is installed, a table
    /// scan otherwise, plus the delta shard on live tables — so the
    /// back-off sees the same integers a scan of the (concatenated)
    /// table would.
    fn context_with_support(&self, row: &[Value], min_support: usize) -> Context {
        let mut ctx = Context::empty();
        for &a in &self.context_attrs {
            let trial = ctx.with(a, row[a.index()]);
            if self.engine.estimator().has_support(&trial, min_support) {
                ctx = trial;
            }
        }
        ctx
    }
}

enum Verification {
    Passed(f64),
    Failed,
    NoSupport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::label_table;
    use causal::scm::{Mechanism, ScmBuilder};
    use causal::Scm;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use tabular::{Domain, Schema, Table};

    /// age (non-actionable root), savings (actionable, 3 levels),
    /// duration (actionable, 2 levels); approval = savings >= 1 && dur == 1,
    /// with age opening an extra path: age=1 && savings >= 2 also approves.
    fn world() -> Scm {
        let mut schema = Schema::new();
        schema.push("age", Domain::boolean());
        schema.push("savings", Domain::categorical(["none", "some", "lots"]));
        schema.push("duration", Domain::categorical(["short", "long"]));
        let mut b = ScmBuilder::new(schema);
        b.edge(0, 1).unwrap();
        b.mechanism(0, Mechanism::root(vec![0.5, 0.5])).unwrap();
        b.mechanism(
            1,
            Mechanism::with_noise(vec![0.4, 0.35, 0.25], move |pa, u| {
                // older people save a bit more
                ((u as Value) + pa[0]).min(2)
            }),
        )
        .unwrap();
        b.mechanism(2, Mechanism::root(vec![0.5, 0.5])).unwrap();
        b.build().unwrap()
    }

    fn approve(row: &[Value]) -> Value {
        u32::from((row[1] >= 1 && row[2] == 1) || (row[0] == 1 && row[1] >= 2))
    }

    fn setup(n: usize) -> (Table, AttrId) {
        let scm = world();
        let mut rng = StdRng::seed_from_u64(21);
        let mut t = scm.generate(n, &mut rng);
        let pred = label_table(&mut t, &approve, "pred").unwrap();
        (t, pred)
    }

    /// An engine over every non-prediction attribute, with or without
    /// the world's graph.
    fn engine(t: Table, pred: AttrId, graph: Option<&Dag>) -> Engine {
        let builder = Engine::builder(t)
            .prediction(pred, 1)
            .features(&[AttrId(0), AttrId(1), AttrId(2)])
            .alpha(1.0);
        match graph {
            Some(g) => builder.graph(g),
            None => builder,
        }
        .build()
        .unwrap()
    }

    #[test]
    fn recourse_flips_the_decision() {
        let (t, pred) = setup(20_000);
        let scm = world();
        let engine = engine(t, pred, Some(scm.graph()));
        // a young individual with no savings, short duration: rejected
        let row = [0u32, 0, 0, 0];
        assert_eq!(approve(&row), 0);
        let opts = RecourseOptions {
            alpha: 0.8,
            ..RecourseOptions::default()
        };
        let r = engine
            .recourse(&row, &[AttrId(1), AttrId(2)], &opts)
            .unwrap();
        assert!(!r.actions.is_empty(), "rejected individual needs action");
        // applying the actions must actually flip the black box
        let mut new_row = row;
        for a in &r.actions {
            new_row[a.attr.index()] = a.to;
        }
        assert_eq!(
            approve(&new_row),
            1,
            "recourse {:?} must flip decision",
            r.actions
        );
        // verified sufficiency clears the threshold
        if let Some(s) = r.verified_sufficiency {
            assert!(s >= 0.8, "verified sufficiency {s}");
        }
        assert_eq!(r.n_constraints, 3);
    }

    #[test]
    fn already_positive_needs_no_action() {
        let (t, pred) = setup(10_000);
        let engine = engine(t, pred, None);
        // savings=lots, duration=long, prediction cell = 1: approved
        let row = [1u32, 2, 1, 1];
        assert_eq!(approve(&row), 1);
        let opts = RecourseOptions {
            alpha: 0.5,
            ..RecourseOptions::default()
        };
        let r = engine
            .recourse(&row, &[AttrId(1), AttrId(2)], &opts)
            .unwrap();
        assert!(r.actions.is_empty(), "positive individual needs no action");
        assert_eq!(r.total_cost, 0.0);
        assert!(r.surrogate_probability > 0.8);
    }

    #[test]
    fn minimal_cost_action_is_chosen() {
        let (t, pred) = setup(20_000);
        let scm = world();
        let engine = engine(t, pred, Some(scm.graph()));
        // savings=some already; only duration needs fixing. The minimal
        // unit-cost action is {duration -> long}.
        let row = [0u32, 1, 0, 0];
        assert_eq!(approve(&row), 0);
        let opts = RecourseOptions {
            alpha: 0.7,
            cost: CostModel::Unit,
            ..RecourseOptions::default()
        };
        let r = engine
            .recourse(&row, &[AttrId(1), AttrId(2)], &opts)
            .unwrap();
        assert_eq!(r.actions.len(), 1, "one action suffices: {:?}", r.actions);
        assert_eq!(r.actions[0].attr, AttrId(2));
        assert_eq!(r.actions[0].to, 1);
        assert!((r.total_cost - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_when_no_action_helps() {
        // actionable attribute that the model ignores
        let (t, pred) = setup(5_000);
        let engine = engine(t, pred, None);
        // age is causal for savings but with savings/duration fixed it
        // cannot flip the model output for this individual... instead use
        // the truly ignored scenario: only `age` actionable, and request
        // very high alpha.
        let row = [0u32, 0, 0, 0];
        let opts = RecourseOptions {
            alpha: 0.95,
            ..RecourseOptions::default()
        };
        let r = engine.recourse(&row, &[AttrId(0)], &opts);
        assert!(
            matches!(
                r,
                Err(LewisError::NoRecourse(_)) | Err(LewisError::Optim(_))
            ),
            "age alone cannot guarantee approval: {r:?}"
        );
    }

    #[test]
    fn cost_models_change_selection() {
        let (t, pred) = setup(20_000);
        let engine = engine(t, pred, None);
        let row = [0u32, 0, 0, 0];
        // make changing duration prohibitively expensive: savings path wins
        let opts = RecourseOptions {
            alpha: 0.5,
            cost: CostModel::Weighted(vec![(AttrId(1), 1.0), (AttrId(2), 100.0)]),
            ..RecourseOptions::default()
        };
        match engine.recourse(&row, &[AttrId(1), AttrId(2)], &opts) {
            Ok(r) => {
                // whatever is chosen, it should avoid the expensive attr
                // unless strictly necessary; verify cost sanity
                assert!(r.total_cost < 200.0);
            }
            Err(LewisError::NoRecourse(_)) => {} // acceptable: savings alone may not verify
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn input_validation() {
        let (t, pred) = setup(1_000);
        let engine = engine(t, pred, None);
        let row = [0, 0, 0, 0];
        let defaults = RecourseOptions::default();
        assert!(engine.recourse(&row, &[], &defaults).is_err());
        assert!(engine.recourse(&row, &[pred], &defaults).is_err());
        let opts = RecourseOptions {
            alpha: 1.5,
            ..RecourseOptions::default()
        };
        assert!(engine.recourse(&row, &[AttrId(1)], &opts).is_err());
        assert!(engine.recourse(&[0, 0], &[AttrId(1)], &defaults).is_err());
    }

    #[test]
    fn repeated_actionable_attributes_are_invalid() {
        let (t, pred) = setup(1_000);
        let width = surrogate_width(&t, None, pred, &[AttrId(1), AttrId(1)]);
        assert!(matches!(width, Err(LewisError::Invalid(_))), "{width:?}");
        let engine = engine(t, pred, None);
        let opts = RecourseOptions::default();
        for actionable in [
            &[AttrId(1), AttrId(1)][..],
            &[AttrId(1), AttrId(2), AttrId(1)],
        ] {
            match engine.recourse(&[0, 0, 0, 0], actionable, &opts) {
                Err(LewisError::Invalid(m)) => assert!(m.contains("listed twice"), "{m}"),
                other => panic!("{actionable:?}: expected Invalid, got {other:?}"),
            }
        }
        // rejected before any surrogate is fitted or cached
        assert_eq!(engine.surrogate_stats().entries, 0);
    }

    #[test]
    fn out_of_domain_row_values_are_invalid_not_a_panic() {
        let (t, pred) = setup(1_000);
        let engine = engine(t, pred, None);
        let opts = RecourseOptions::default();
        // an actionable code, a context code and a prediction code, each
        // past its attribute's domain
        for row in [[0, 99, 0, 0], [7, 0, 0, 0], [0, 0, 0, 2]] {
            match engine.recourse(&row, &[AttrId(1)], &opts) {
                Err(LewisError::Invalid(m)) => assert!(m.contains("outside its domain"), "{m}"),
                other => panic!("{row:?}: expected Invalid, got {other:?}"),
            }
        }
    }

    #[test]
    fn layouts_whose_count_key_overflows_are_invalid_before_any_count() {
        // 70 binary features and the prediction: with no graph every
        // other feature is context, so each surrogate's grid is 2^71
        let n_features = 70;
        let mut schema = Schema::new();
        for i in 0..n_features {
            schema.push(format!("f{i}"), Domain::boolean());
        }
        let pred = schema.push("pred", Domain::boolean());
        let mut t = Table::new(schema);
        for r in 0..40u32 {
            let row: Vec<Value> = (0..=n_features).map(|i| (r >> (i % 5)) & 1).collect();
            t.push_row(&row).unwrap();
        }
        let width = surrogate_width(&t, None, pred, &[AttrId(0)]);
        assert!(matches!(width, Err(LewisError::Invalid(_))), "{width:?}");
        let features: Vec<AttrId> = (0..n_features).map(AttrId).collect();
        let engine = Engine::builder(t)
            .prediction(pred, 1)
            .features(&features)
            .build()
            .unwrap();
        let row = vec![0; n_features as usize + 1];
        match engine.recourse(&row, &[AttrId(0)], &RecourseOptions::default()) {
            Err(LewisError::Invalid(m)) => assert!(m.contains("overflows u64"), "{m}"),
            other => panic!("expected Invalid, got {other:?}"),
        }
        assert!(matches!(
            engine.prepare_surrogate(&[AttrId(1), AttrId(2)]),
            Err(LewisError::Invalid(_))
        ));
        // refused before any count: the recourse never reached the
        // surrogate cache, and the pre-fit cached nothing
        let stats = engine.surrogate_stats();
        assert_eq!((stats.misses, stats.entries), (1, 0), "{stats:?}");
    }

    /// The concatenated table's rows grouped one by one, in key order:
    /// `(values of key_attrs, rows, rows with the positive prediction)`.
    fn rowwise_patterns(
        rows: &[Vec<Value>],
        key_attrs: &[AttrId],
        pred: AttrId,
    ) -> Vec<(Vec<Value>, u64, u64)> {
        let mut groups: BTreeMap<Vec<Value>, (u64, u64)> = BTreeMap::new();
        for row in rows {
            let key = key_attrs.iter().map(|a| row[a.index()]).collect();
            let cell = groups.entry(key).or_default();
            cell.0 += 1;
            cell.1 += u64::from(row[pred.index()] == 1);
        }
        groups.into_iter().map(|(k, (n, p))| (k, n, p)).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// An engine grown batch by batch — indexed or not, over 1 or 2
        /// shards, with or without the graph, its appended rows crossing
        /// their index's 24-cell cube gate — fits every surrogate from
        /// the patterns of the concatenated table: after each batch, a
        /// full fit and a refit from the previous fit's patterns both
        /// hold exactly the row-wise grouping, and equal coefficients.
        #[test]
        fn fits_hold_the_patterns_of_the_concatenated_table(seed in 0u64..1_000_000) {
            let mut rng = StdRng::seed_from_u64(seed);
            let scm = world();
            let n_base = rng.gen_range(1..60usize);
            let mut all = scm.generate(n_base + rng.gen_range(30..90usize), &mut rng);
            let pred = label_table(&mut all, &approve, "pred").unwrap();
            let rows: Vec<Vec<Value>> = all.rows().collect();
            let base: Vec<usize> = (0..n_base).collect();
            let mut builder = Engine::builder(all.select(&base).unwrap())
                .prediction(pred, 1)
                .features(&[AttrId(0), AttrId(1), AttrId(2)])
                .alpha(1.0)
                .shards(rng.gen_range(1..=2usize))
                .index(rng.gen_bool(0.5));
            if rng.gen_bool(0.5) {
                builder = builder.graph(scm.graph());
            }
            let mut engine = builder.build().unwrap();
            let sets = [vec![AttrId(1)], vec![AttrId(1), AttrId(2)], vec![AttrId(2), AttrId(0)]];
            let mut kept: Vec<Option<(Patterns, usize)>> = vec![None; sets.len()];
            let mut served = n_base;
            loop {
                let est = engine.estimator();
                for (actionable, kept) in sets.iter().zip(&mut kept) {
                    let plan = surrogate_plan(est.table(), est.graph(), pred, actionable).unwrap();
                    let key_attrs: Vec<AttrId> =
                        actionable.iter().chain(&plan.context_attrs).copied().collect();
                    let want = rowwise_patterns(&rows[..served], &key_attrs, pred);
                    let (fit, full) = fit_surrogate(est, actionable, None).unwrap();
                    let got: Vec<(Vec<Value>, u64, u64)> =
                        full.iter().map(|(k, n, p)| (k.to_vec(), n, p)).collect();
                    prop_assert_eq!(&got, &want, "full fit of {:?} over {} rows", actionable, served);
                    if let Some((patterns, w)) = kept.as_ref() {
                        let (refit, merged) =
                            fit_surrogate(est, actionable, Some((patterns, *w))).unwrap();
                        prop_assert_eq!(&merged, &full, "refit of {:?} from row {}", actionable, w);
                        prop_assert_eq!(&refit, &fit);
                    }
                    *kept = Some((full, served));
                }
                if served == rows.len() {
                    break;
                }
                let next = (served + rng.gen_range(1..20usize)).min(rows.len());
                engine = engine.with_delta(&rows[served..next]).unwrap();
                served = next;
            }
        }
    }
}
