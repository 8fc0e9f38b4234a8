//! Runs the experiments of the paper's evaluation section, printing each
//! report and writing it to `target/experiments/<name>.txt`.
//!
//! `all_experiments [NAME…]` runs the named experiments in the canonical
//! order below, or all of them when no name is given. An unknown name
//! lists the valid ones and exits non-zero before anything runs.
//!
//! Set `LEWIS_FAST=1` for a quick smoke run with reduced dataset sizes.

use bench::experiments::{self, Scale};
use std::process::ExitCode;

/// One experiment: its report for a scale.
type Run = fn(Scale) -> String;

/// Every experiment, by the name its report is written under.
const EXPERIMENTS: [(&str, Run); 16] = [
    ("table2", experiments::table2::run),
    ("fig01", experiments::fig01::run),
    ("fig03", experiments::fig03::run),
    ("fig04", experiments::fig04::run),
    ("fig05", experiments::fig05_06::run_fig05),
    ("fig06", experiments::fig05_06::run_fig06),
    ("fig07", experiments::fig07::run),
    ("fig08", experiments::fig08::run),
    ("fig09", experiments::fig09::run),
    ("fig10", experiments::fig10::run),
    ("fig11", experiments::fig11::run),
    ("exp_monotonicity", experiments::monotonicity::run),
    ("exp_recourse", experiments::recourse_eval::run),
    ("exp_scalability", experiments::scalability::run),
    ("exp_linearip", experiments::linearip::run),
    ("exp_ablation", experiments::ablation::run),
];

fn main() -> ExitCode {
    let names: Vec<String> = std::env::args().skip(1).collect();
    let known = |name: &str| EXPERIMENTS.iter().any(|(n, _)| *n == name);
    let unknown: Vec<&str> = names
        .iter()
        .map(String::as_str)
        .filter(|n| !known(n))
        .collect();
    if !unknown.is_empty() {
        let valid: Vec<&str> = EXPERIMENTS.iter().map(|(n, _)| *n).collect();
        eprintln!(
            "unknown experiment(s): {}\nvalid experiments: {}",
            unknown.join(", "),
            valid.join(", ")
        );
        return ExitCode::FAILURE;
    }

    let scale = Scale::from_env();
    let all = names.is_empty();
    let what = if all {
        "all experiments".to_string()
    } else {
        names.join(", ")
    };
    println!("running {what} at {scale:?} scale\n");
    for (name, run) in EXPERIMENTS {
        if !all && !names.iter().any(|n| n == name) {
            continue;
        }
        eprintln!(">>> {name}");
        let t0 = std::time::Instant::now();
        let report = run(scale);
        bench::emit(name, &report);
        eprintln!("<<< {name} done in {:.1}s", t0.elapsed().as_secs_f64());
    }
    if all {
        println!("\nall experiment reports written to target/experiments/");
    }
    ExitCode::SUCCESS
}
