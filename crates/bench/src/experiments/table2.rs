//! Table 2: end-to-end runtime of LEWIS's global explanations, local
//! explanations, and recourse per dataset (seconds).

use super::Scale;
use crate::harness::{header, prepare, ModelKind, Prepared};
use lewis_core::RecourseOptions;
use std::time::Instant;

struct Row {
    name: String,
    attrs: usize,
    rows: usize,
    global_s: f64,
    local_s: f64,
    recourse_s: Option<f64>,
}

fn measure(p: &Prepared) -> Row {
    let lewis = p.engine();
    let t0 = Instant::now();
    let _g = lewis.global().expect("global");
    let global_s = t0.elapsed().as_secs_f64();

    let idx = p
        .find_individual(0)
        .or_else(|| p.find_individual(1))
        .expect("rows exist");
    let row = p.table.row(idx).expect("row in range");
    let t1 = Instant::now();
    let _l = lewis.local(&row).expect("local");
    let local_s = t1.elapsed().as_secs_f64();

    // the timed span is the surrogate fit plus the solve, for the same
    // (negative when one exists) individual; recourse may legitimately
    // be infeasible at the default alpha — we time the attempt either way
    let recourse_s = (!p.actionable.is_empty()).then(|| {
        let engine = p.engine_with_alpha(0.25);
        let t2 = Instant::now();
        let _ = engine.recourse(&row, &p.actionable, &RecourseOptions::default());
        t2.elapsed().as_secs_f64()
    });

    Row {
        name: p.name.clone(),
        attrs: p.features.len(),
        rows: p.table.n_rows(),
        global_s,
        local_s,
        recourse_s,
    }
}

/// A runtime cell: three significant figures as a plain decimal that
/// always has a point and a digit after it (`0.000412`, `0.0123`,
/// `12.3`, `123.4`), so sub-millisecond LEWIS runtimes do not print as
/// `0.00`.
fn seconds(s: f64) -> String {
    let magnitude = if s > 0.0 { s.log10().floor() as i32 } else { 0 };
    let decimals = (2 - magnitude).max(1) as usize;
    format!("{s:.decimals$}")
}

/// Run the full table.
pub fn run(scale: Scale) -> String {
    let preps = vec![
        prepare(
            datasets::AdultDataset::generate(scale.rows(48_000), 42),
            ModelKind::RandomForest,
            None,
            42,
        ),
        prepare(
            datasets::GermanDataset::generate(scale.rows(1_000), 42),
            ModelKind::RandomForest,
            None,
            42,
        ),
        prepare(
            datasets::CompasDataset::generate(scale.rows(5_200), 42),
            ModelKind::RandomForest,
            None,
            42,
        ),
        prepare(
            datasets::DrugDataset::generate(scale.rows(1_886), 42),
            ModelKind::RandomForest,
            Some(1),
            42,
        ),
        prepare(
            datasets::GermanSynDataset::standard().generate(scale.rows(10_000), 42),
            ModelKind::ForestRegressor { threshold: 0.5 },
            Some(5),
            42,
        ),
    ];
    let mut out = header("Table 2 — LEWIS runtime in seconds");
    out.push_str(&format!(
        "{:<12}  {:>6}  {:>7}  {:>8}  {:>8}  {:>8}\n",
        "dataset", "attrs", "rows", "global", "local", "recourse"
    ));
    for p in &preps {
        let r = measure(p);
        out.push_str(&format!(
            "{:<12}  {:>6}  {:>7}  {:>8}  {:>8}  {:>8}\n",
            r.name,
            r.attrs,
            r.rows,
            seconds(r.global_s),
            seconds(r.local_s),
            r.recourse_s.map_or("-".to_string(), seconds)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runtime_cells_keep_three_significant_figures_and_a_point() {
        assert_eq!(seconds(0.000_412_3), "0.000412");
        assert_eq!(seconds(0.012_34), "0.0123");
        assert_eq!(seconds(0.5), "0.500");
        assert_eq!(seconds(12.34), "12.3");
        assert_eq!(seconds(123.4), "123.4");
        assert_eq!(seconds(0.0), "0.00");
    }

    #[test]
    fn timings_are_positive_and_bounded() {
        let p = prepare(
            datasets::GermanDataset::generate(800, 42),
            ModelKind::RandomForest,
            None,
            42,
        );
        let r = measure(&p);
        assert!(r.global_s > 0.0 && r.global_s < 120.0);
        assert!(r.local_s > 0.0 && r.local_s < 120.0);
        assert!(r.recourse_s.is_some(), "german has actionable attributes");
    }
}
