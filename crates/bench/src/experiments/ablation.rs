//! Ablation: how much does each modelling ingredient buy?
//!
//! On German-syn (where exact ground truth exists) we compare, per
//! attribute, the NESUF estimate under:
//!
//! 1. **full LEWIS** — causal graph + backdoor adjustment (eq. 21);
//! 2. **no-graph fallback** (§6) — the no-confounding approximation;
//! 3. **Fréchet bounds** (Prop. 4.1) — assumption-free interval width.
//!
//! And separately, the smoothing ablation: estimate error as the Laplace
//! pseudo-count α grows.

use super::Scale;
use crate::harness::{header, prepare, ModelKind, Prepared};
use datasets::GermanSynDataset;
use lewis_core::groundtruth::GroundTruth;
use lewis_core::{Engine, ScoreKind};
use std::sync::Arc;
use tabular::Context;

fn nesuf_or_nan(engine: &Engine, attr: tabular::AttrId, hi: u32, lo: u32) -> f64 {
    engine
        .estimator()
        .scores(attr, hi, lo, &Context::empty())
        .map(|s| s.nesuf)
        .unwrap_or(f64::NAN)
}

/// The no-graph fallback (§6): an engine built without `.graph`.
fn no_graph_engine(p: &Prepared) -> Engine {
    Engine::builder(Arc::clone(&p.table))
        .prediction(p.pred, p.positive)
        .features(&p.features)
        .alpha(0.25)
        .build()
        .expect("engine builds")
}

/// Run the ablation.
pub fn run(scale: Scale) -> String {
    let gen = GermanSynDataset::standard();
    let p: Prepared = prepare(
        gen.generate(scale.rows(10_000), 42),
        ModelKind::ForestRegressor { threshold: 0.5 },
        Some(5),
        42,
    );
    let gt = GroundTruth::exact(&p.scm, p.model.as_ref(), p.positive).expect("enumerable");
    let with_graph = p.engine_with_alpha(0.25);
    let no_graph = no_graph_engine(&p);

    let contrasts: Vec<(tabular::AttrId, u32, u32)> = vec![
        (GermanSynDataset::STATUS, 3, 0),
        (GermanSynDataset::SAVING, 3, 0),
        (GermanSynDataset::HOUSING, 2, 0),
        (GermanSynDataset::AGE, 2, 0),
    ];

    let mut out = header("Ablation — graph vs no-graph vs bounds (German-syn, NESUF)");
    out.push_str(&format!(
        "{:<9}  {:>7}  {:>9}  {:>9}  {:>16}\n",
        "attribute", "truth", "w/ graph", "no graph", "bounds [lo, hi]"
    ));
    for &(attr, hi, lo) in &contrasts {
        let truth = gt
            .nesuf(attr, hi, lo, &Context::empty())
            .unwrap_or(f64::NAN);
        let adjusted = nesuf_or_nan(&with_graph, attr, hi, lo);
        let naive = nesuf_or_nan(&no_graph, attr, hi, lo);
        let bounds = with_graph
            .estimator()
            .bounds(
                ScoreKind::NecessityAndSufficiency,
                attr,
                hi,
                lo,
                &Context::empty(),
            )
            .map(|b| format!("[{:.2}, {:.2}]", b.lower, b.upper))
            .unwrap_or_else(|_| "n/a".into());
        out.push_str(&format!(
            "{:<9}  {truth:>7.3}  {adjusted:>9.3}  {naive:>9.3}  {bounds:>16}\n",
            p.table.schema().name(attr)
        ));
    }

    // smoothing ablation on the strongest contrast
    out.push_str(&header(
        "Ablation — Laplace smoothing α vs estimation error",
    ));
    out.push_str(&format!(
        "{:>6}  {:>9}  {:>9}\n",
        "alpha", "estimate", "|err|"
    ));
    let truth = gt
        .nesuf(GermanSynDataset::STATUS, 3, 0, &Context::empty())
        .unwrap_or(f64::NAN);
    for &alpha in &[0.0, 0.25, 1.0, 5.0, 20.0] {
        let engine = p.engine_with_alpha(alpha);
        let v = nesuf_or_nan(&engine, GermanSynDataset::STATUS, 3, 0);
        out.push_str(&format!(
            "{alpha:>6.2}  {v:>9.3}  {:>9.3}\n",
            (v - truth).abs()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_beats_no_graph_on_confounded_attributes() {
        let gen = GermanSynDataset::standard();
        let p = prepare(
            gen.generate(8_000, 42),
            ModelKind::ForestRegressor { threshold: 0.5 },
            Some(5),
            42,
        );
        let gt = GroundTruth::exact(&p.scm, p.model.as_ref(), p.positive).unwrap();
        let with_graph = p.engine_with_alpha(0.25);
        let no_graph = no_graph_engine(&p);
        // status is confounded by (age, sex): adjustment must reduce error
        let truth = gt
            .nesuf(GermanSynDataset::STATUS, 3, 0, &Context::empty())
            .unwrap();
        let err_graph = (nesuf_or_nan(&with_graph, GermanSynDataset::STATUS, 3, 0) - truth).abs();
        let err_naive = (nesuf_or_nan(&no_graph, GermanSynDataset::STATUS, 3, 0) - truth).abs();
        assert!(
            err_graph < err_naive,
            "adjustment should help: graph err {err_graph} vs naive {err_naive}"
        );
    }

    #[test]
    fn heavy_smoothing_hurts() {
        let gen = GermanSynDataset::standard();
        let p = prepare(
            gen.generate(8_000, 43),
            ModelKind::ForestRegressor { threshold: 0.5 },
            Some(5),
            43,
        );
        let gt = GroundTruth::exact(&p.scm, p.model.as_ref(), p.positive).unwrap();
        let truth = gt
            .nesuf(GermanSynDataset::STATUS, 3, 0, &Context::empty())
            .unwrap();
        let light = p.engine_with_alpha(0.25);
        let heavy = p.engine_with_alpha(50.0);
        let err_light = (nesuf_or_nan(&light, GermanSynDataset::STATUS, 3, 0) - truth).abs();
        let err_heavy = (nesuf_or_nan(&heavy, GermanSynDataset::STATUS, 3, 0) - truth).abs();
        assert!(err_heavy > err_light, "α=50 should wash out the signal");
    }
}
