//! `lewisbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Prints provenance and every metric by name with its unit, then, as
//! the last line, one JSON object with `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). Exits non-zero, printing no
//! result, when the run cannot be carried out.

use lewisbench::workloads::{self, Workload};
use std::path::{Path, PathBuf};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value:?} (one of {})",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed expects an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds expects an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace expects 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The run's scratch directory, removed when the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--boot-child") {
        let result = workloads::BootSpec::from_args(&argv[1..])
            .ok_or_else(|| {
                "--boot-child: expected builtin NAME ROWS or pack PATH REPLICAS".to_string()
            })
            .and_then(|spec| workloads::boot_child(&spec));
        match result {
            Ok(secs) => println!("boot_s={secs}"),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(1);
            }
        }
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let scratch = Scratch(out.join(format!("run-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&scratch.0) {
        eprintln!("error: {}: {e}", scratch.0.display());
        std::process::exit(1);
    }
    let result = lewisbench::execute(
        args.workload,
        args.seed,
        args.seconds,
        args.trace,
        &scratch.0,
        &out,
    );
    drop(scratch);
    match result {
        Ok((report, line)) => {
            for l in report.render() {
                println!("{l}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}
