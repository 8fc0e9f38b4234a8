//! §5.5 "Recourse scalability": a 100+-variable causal graph with the
//! number of actionable variables swept 5 → 100. The paper reports the
//! constraint count growing linearly (6 → 101) and runtime growing from
//! 1.65s to 8.35s.

use super::Scale;
use crate::harness::{header, prepare, ModelKind};
use datasets::ScalableDataset;
use lewis_core::{CostModel, RecourseOptions};
use std::time::Instant;

/// One sweep point: build the engine, then time one recourse instance
/// (the surrogate fit plus the solve).
pub fn sweep_point(n_actionable: usize, scale: Scale, seed: u64) -> (usize, f64, bool) {
    let gen = ScalableDataset::new(n_actionable);
    let p = prepare(
        gen.generate(scale.rows(5_000), seed),
        ModelKind::RandomForest,
        None,
        seed,
    );
    let engine = p.engine_with_alpha(0.25);
    let opts = RecourseOptions {
        alpha: 0.7,
        cost: CostModel::Unit,
        ..RecourseOptions::default()
    };
    let neg = p.find_individual(0).expect("a rejected individual exists");
    let row = p.table.row(neg).expect("row in range");
    let t0 = Instant::now();
    let result = engine.recourse(&row, &p.actionable, &opts);
    let seconds = t0.elapsed().as_secs_f64();
    // an unsolved program still had one constraint per actionable
    // attribute plus the covering one
    let n_constraints = result
        .as_ref()
        .map_or(p.actionable.len() + 1, |r| r.n_constraints);
    (n_constraints, seconds, result.is_ok())
}

/// Run the sweep.
pub fn run(scale: Scale) -> String {
    let sizes: &[usize] = match scale {
        Scale::Paper => &[5, 10, 25, 50, 75, 100],
        Scale::Fast => &[5, 15, 30],
    };
    let mut out = header("§5.5 — recourse scalability (5 → 100 actionable variables)");
    out.push_str(&format!(
        "{:>11}  {:>12}  {:>10}  {:>7}\n",
        "actionable", "constraints", "seconds", "solved"
    ));
    for &n in sizes {
        let (constraints, secs, solved) = sweep_point(n, scale, 42);
        out.push_str(&format!(
            "{n:>11}  {constraints:>12}  {secs:>10.2}  {solved:>7}\n"
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_grow_linearly() {
        let (c5, _, _) = sweep_point(5, Scale::Fast, 42);
        assert_eq!(c5, 6, "5 actionable vars -> 6 constraints");
        let (c15, _, _) = sweep_point(15, Scale::Fast, 42);
        assert_eq!(c15, 16);
    }
}
