//! One module per paper table/figure. Every `run*` function returns the
//! formatted report `all_experiments` prints under the experiment's
//! name, so experiments are testable on their own.

pub mod ablation;
pub mod fig01;
pub mod fig03;
pub mod fig04;
pub mod fig05_06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod linearip;
pub mod monotonicity;
pub mod recourse_eval;
pub mod scalability;
pub mod table2;

use lewis_core::explain::GlobalExplanation;
use lewis_core::report::ranks_desc;

/// Experiment scale: `Paper` uses the paper's dataset sizes; `Fast`
/// shrinks them for smoke-testing (set `LEWIS_FAST=1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized datasets (Table 2's row counts).
    Paper,
    /// Reduced sizes for quick runs and CI.
    Fast,
}

impl Scale {
    /// Read the scale from the `LEWIS_FAST` environment variable.
    pub fn from_env() -> Self {
        if std::env::var("LEWIS_FAST").is_ok_and(|v| v != "0" && !v.is_empty()) {
            Scale::Fast
        } else {
            Scale::Paper
        }
    }

    /// Scale a paper-sized row count.
    pub fn rows(self, paper: usize) -> usize {
        match self {
            Scale::Paper => paper,
            Scale::Fast => (paper / 8).max(600),
        }
    }

    /// Scale an iteration/repetition count.
    pub fn reps(self, paper: usize) -> usize {
        match self {
            Scale::Paper => paper,
            Scale::Fast => (paper / 5).max(3),
        }
    }
}

/// Format a global explanation as the Fig. 3-style table: per attribute,
/// the three scores plus their per-score ranks.
pub fn global_table(g: &GlobalExplanation) -> String {
    let nec: Vec<f64> = g.attributes.iter().map(|a| a.scores.necessity).collect();
    let suf: Vec<f64> = g.attributes.iter().map(|a| a.scores.sufficiency).collect();
    let nes: Vec<f64> = g.attributes.iter().map(|a| a.scores.nesuf).collect();
    let r_nec = ranks_desc(&nec);
    let r_suf = ranks_desc(&suf);
    let r_nes = ranks_desc(&nes);
    let width = g
        .attributes
        .iter()
        .map(|a| a.name.len())
        .chain(std::iter::once(9))
        .max()
        .unwrap_or(9);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>7} {:>4}  {:>7} {:>4}  {:>7} {:>4}\n",
        "attribute", "Nec", "rk", "Suf", "rk", "NeSuf", "rk"
    ));
    for (i, a) in g.attributes.iter().enumerate() {
        out.push_str(&format!(
            "{:<width$}  {:>7.3} {:>4}  {:>7.3} {:>4}  {:>7.3} {:>4}\n",
            a.name, nec[i], r_nec[i], suf[i], r_suf[i], nes[i], r_nes[i]
        ));
    }
    out
}

/// Format method-comparison rows: attribute, one score column per
/// method, with ranks.
pub fn comparison_table(attr_names: &[String], methods: &[(&str, Vec<f64>)]) -> String {
    let width = attr_names
        .iter()
        .map(String::len)
        .chain(std::iter::once(9))
        .max()
        .unwrap_or(9);
    let mut out = String::new();
    out.push_str(&format!("{:<width$}", "attribute"));
    for (name, _) in methods {
        out.push_str(&format!("  {name:>10} {:>4}", "rk"));
    }
    out.push('\n');
    let ranks: Vec<Vec<usize>> = methods.iter().map(|(_, s)| ranks_desc(s)).collect();
    for (i, attr) in attr_names.iter().enumerate() {
        out.push_str(&format!("{attr:<width$}"));
        for (m, (_, scores)) in methods.iter().enumerate() {
            out.push_str(&format!("  {:>10.3} {:>4}", scores[i], ranks[m][i]));
        }
        out.push('\n');
    }
    out
}

/// Format a local explanation as signed contribution bars (Fig. 5–7).
pub fn local_table(local: &lewis_core::explain::LocalExplanation) -> String {
    let width = local
        .contributions
        .iter()
        .map(|c| c.name.len() + c.label.len() + 1)
        .chain(std::iter::once(16))
        .max()
        .unwrap_or(16);
    let mut out = String::new();
    out.push_str(&format!(
        "outcome = {} ({})\n",
        local.outcome,
        if local.outcome == 1 {
            "positive"
        } else {
            "negative"
        }
    ));
    out.push_str(&format!(
        "{:<width$}  {:>8}  {:>8}  contribution\n",
        "attribute=value", "neg", "pos"
    ));
    for c in &local.contributions {
        let label = format!("{}={}", c.name, c.label);
        let neg_bar: String = lewis_core::report::bar(c.negative, 10)
            .chars()
            .rev()
            .collect();
        let pos_bar = lewis_core::report::bar(c.positive, 10);
        out.push_str(&format!(
            "{label:<width$}  {:>8.3}  {:>8.3}  {neg_bar}|{pos_bar}\n",
            c.negative, c.positive
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_and_rows() {
        assert_eq!(Scale::Paper.rows(48_000), 48_000);
        assert_eq!(Scale::Fast.rows(48_000), 6_000);
        assert_eq!(Scale::Fast.rows(1_000), 600);
        assert_eq!(Scale::Fast.reps(20), 4);
    }

    #[test]
    fn comparison_table_renders_ranks() {
        let names = vec!["a".to_string(), "b".to_string()];
        let s = comparison_table(
            &names,
            &[("Lewis", vec![0.9, 0.1]), ("SHAP", vec![0.2, 0.8])],
        );
        assert!(s.contains("Lewis"));
        // a is rank 1 for Lewis, rank 2 for SHAP
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[1].starts_with('a'));
        assert!(lines[1].contains("0.900"));
    }
}
