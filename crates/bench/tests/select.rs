//! `all_experiments NAME…` runs just the named experiments, with the
//! same report bytes as the full run, and refuses unknown names before
//! anything runs.

use std::path::PathBuf;
use std::process::{Command, Output};

/// Run `all_experiments` at fast scale in a fresh working directory
/// (reports land under `<dir>/target/experiments/`).
fn all_experiments(dir: &str, args: &[&str]) -> (Output, PathBuf) {
    let cwd = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir);
    let _ = std::fs::remove_dir_all(&cwd);
    std::fs::create_dir_all(&cwd).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_all_experiments"))
        .args(args)
        .env("LEWIS_FAST", "1")
        .current_dir(&cwd)
        .output()
        .unwrap();
    (out, cwd.join("target/experiments"))
}

#[test]
fn a_named_experiment_prints_its_slice_of_the_full_run() {
    let (out, reports) = all_experiments("select_fig01", &["fig01"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let (banner, report) = stdout.split_once('\n').unwrap();
    assert!(banner.starts_with("running fig01 "), "{banner}");
    assert!(report.contains("=== "), "{report}");
    let golden = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/goldens/paper_fast.golden"
    ))
    .unwrap();
    assert!(
        golden.contains(report),
        "fig01's stdout is not a slice of the golden:\n{report}"
    );
    assert!(reports.join("fig01.txt").is_file());
    assert!(!reports.join("table2.txt").exists());
}

#[test]
fn an_unknown_name_runs_nothing() {
    let (out, reports) = all_experiments("select_unknown", &["fig01", "nope"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("nope"), "{stderr}");
    for name in ["table2", "fig01", "fig11", "exp_ablation"] {
        assert!(stderr.contains(name), "{name} missing from: {stderr}");
    }
    assert!(
        out.stdout.is_empty(),
        "{:?}",
        String::from_utf8_lossy(&out.stdout)
    );
    assert!(!reports.exists(), "nothing may be written");
}
