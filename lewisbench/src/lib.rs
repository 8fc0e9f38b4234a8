//! lewisbench — one benchmark for the LEWIS explanation service.
//!
//! Four seeded workloads drive LEWIS, booted in its default
//! configuration, over real sockets from one process. An untraced run
//! prints the end-to-end metrics; a separate traced run replays each
//! workload in-process through the calls the server makes and times
//! every layer through its public functions. Every run checks that the
//! served answers are byte-identical to a cold reference engine.

pub mod client;
pub mod drive;
pub mod gen;
pub mod parity;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;

use report::Report;
use std::path::Path;
use workloads::Workload;

/// Run one workload, untraced or traced, using `scratch` for the run's
/// files and writing spans under `out`. Returns the report and the
/// closing JSON line: the end-to-end metrics untraced, the per-layer
/// metrics traced.
pub fn execute(
    workload: Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    scratch: &Path,
    out: &Path,
) -> Result<(Report, String), String> {
    if let Some((name, _)) = std::env::vars().find(|(k, _)| k.starts_with("LEWIS_TEST_")) {
        return Err(format!(
            "{name} is set; the benchmark measures LEWIS in its default configuration"
        ));
    }
    let mut report = Report::default();
    report.note(format!(
        "lewisbench workload={} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(traced)
    ));
    report::provenance(&mut report);
    report.note(format!(
        "generator threads and connections: at most {}",
        workloads::generator_threads()
    ));
    if traced {
        trace::run(workload, seed, seconds, scratch, out, &mut report)?;
    } else {
        workloads::run(workload, seed, seconds, scratch, &mut report)?;
    }
    report.correct = true;
    let names: &[(&str, &str)] = if traced {
        &trace::PER_LAYER
    } else {
        &report::END_TO_END
    };
    let line = report.json_line(names)?;
    Ok((report, line))
}
