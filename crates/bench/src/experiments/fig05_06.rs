//! Figures 5 and 6: local explanations for one negative-outcome and one
//! positive-outcome individual on German (Fig 5) and Adult (Fig 6).

use super::{local_table, Scale};
use crate::harness::{header, prepare, ModelKind, Prepared};

fn locals(p: &Prepared, fig: &str) -> String {
    let lewis = p.engine();
    let mut out = String::new();
    for (wanted, label) in [(0u32, "negative"), (1u32, "positive")] {
        let Some(idx) = p.find_individual(wanted) else {
            out.push_str(&format!("no {label} individual found\n"));
            continue;
        };
        let row = p.table.row(idx).expect("row in range");
        let local = lewis.local(&row).expect("local explanation");
        out.push_str(&header(&format!(
            "{fig} — local explanation, {label} output example ({})",
            p.name
        )));
        out.push_str(&local_table(&local));
    }
    out
}

/// Run Figure 5 (German).
pub fn run_fig05(scale: Scale) -> String {
    let german = prepare(
        datasets::GermanDataset::generate(scale.rows(1000), 42),
        ModelKind::RandomForest,
        None,
        42,
    );
    locals(&german, "Fig 5")
}

/// Run Figure 6 (Adult), including the §5.3 recourse vignette ("we
/// calculated the recourse for the individual with negative outcome and
/// identified that increasing the hours … would result in a high-income
/// prediction").
pub fn run_fig06(scale: Scale) -> String {
    let adult = prepare(
        datasets::AdultDataset::generate(scale.rows(48_000), 42),
        ModelKind::RandomForest,
        None,
        42,
    );
    let mut out = locals(&adult, "Fig 6");
    if let Some(neg) = adult.find_borderline(0) {
        let row = adult.table.row(neg).expect("row in range");
        let engine = adult.engine_with_alpha(0.25);
        out.push_str(&header("Fig 6 — recourse for the negative example (Adult)"));
        match engine.recourse(
            &row,
            &adult.actionable,
            &lewis_core::RecourseOptions::default(),
        ) {
            Ok(r) => {
                for a in &r.actions {
                    out.push_str(&format!(
                        "  change {:<8} {} -> {}\n",
                        a.name, a.from_label, a.to_label
                    ));
                }
                out.push_str(&format!(
                    "  surrogate Pr(high income) after acting = {:.2}\n",
                    r.surrogate_probability
                ));
            }
            Err(e) => out.push_str(&format!("  no recourse: {e}\n")),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_explanations_exist_for_both_outcomes() {
        let p = prepare(
            datasets::GermanDataset::generate(2000, 42),
            ModelKind::RandomForest,
            None,
            42,
        );
        let report = locals(&p, "Fig 5");
        assert!(report.contains("negative output example"));
        assert!(report.contains("positive output example"));
        assert!(report.contains("status"));
    }
}
