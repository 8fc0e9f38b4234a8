//! Figure 1: the paper's opening example — local explanations for two
//! German-credit individuals ("Maeve", rejected; "Irrfan", approved), a
//! contextual statement about checking-account status across sexes, and
//! an actionable recourse for the rejected individual.

use super::{local_table, Scale};
use crate::harness::{header, prepare, ModelKind};
use datasets::GermanDataset;
use lewis_core::{CostModel, RecourseOptions};
use tabular::Context;

/// Run the full figure.
pub fn run(scale: Scale) -> String {
    let p = prepare(
        GermanDataset::generate(scale.rows(1000), 42),
        ModelKind::RandomForest,
        None,
        42,
    );
    let lewis = p.engine();
    let mut out = String::new();

    // "Maeve": a rejected applicant
    if let Some(maeve) = p.find_borderline(0) {
        let row = p.table.row(maeve).expect("row in range");
        out.push_str(&header("Fig 1 — Maeve (loan rejected): sufficiency view"));
        out.push_str(&local_table(&lewis.local(&row).expect("local")));

        // recourse over the actionable attributes
        let engine = p.engine_with_alpha(0.25);
        let opts = RecourseOptions {
            alpha: 0.75,
            cost: CostModel::OrdinalLinear,
            ..RecourseOptions::default()
        };
        out.push_str(&header("Fig 1 — recommended recourse for Maeve (α = 0.75)"));
        match engine.recourse(&row, &p.actionable, &opts) {
            Ok(r) => {
                out.push_str(&format!(
                    "{:<16}  {:<16}  {:<16}  {:>6}\n",
                    "attribute", "current", "required", "cost"
                ));
                for a in &r.actions {
                    out.push_str(&format!(
                        "{:<16}  {:<16}  {:<16}  {:>6.1}\n",
                        a.name, a.from_label, a.to_label, a.cost
                    ));
                }
                out.push_str(&format!(
                    "total cost = {:.1}; verified sufficiency = {}; surrogate Pr = {:.2}\n",
                    r.total_cost,
                    r.verified_sufficiency
                        .map_or("n/a (surrogate)".to_string(), |s| format!("{s:.2}")),
                    r.surrogate_probability,
                ));
            }
            Err(e) => out.push_str(&format!("no recourse: {e}\n")),
        }
    }

    // "Irrfan": an approved applicant — necessity view
    if let Some(irrfan) = p.find_individual(1) {
        let row = p.table.row(irrfan).expect("row in range");
        out.push_str(&header("Fig 1 — Irrfan (loan approved): necessity view"));
        out.push_str(&local_table(&lewis.local(&row).expect("local")));
    }

    // contextual statement: status sufficiency per sex
    out.push_str(&header("Fig 1 — status sufficiency by sex (contextual)"));
    for (code, label) in [(1u32, "male"), (0u32, "female")] {
        let ctx = Context::of([(GermanDataset::SEX, code)]);
        let c = lewis
            .contextual(GermanDataset::STATUS, &ctx)
            .expect("contextual");
        out.push_str(&format!(
            "sex={label:<7}  SUF(status) = {:.3}\n",
            c.scores.sufficiency
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_one_story_renders() {
        let s = run(Scale::Fast);
        assert!(s.contains("Maeve"));
        assert!(s.contains("Irrfan"));
        assert!(s.contains("recourse"));
    }
}
