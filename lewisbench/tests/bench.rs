//! The benchmark's own tests. They boot million-row engines, so run
//! them optimised: `cargo test --release --manifest-path lewisbench/Cargo.toml`.

use lewis_serve::Json;
use lewisbench::client::Reply;
use lewisbench::gen::{self, Kind};
use lewisbench::parity::{self, Source};
use lewisbench::trace::{self, Tracer};
use lewisbench::workloads::{self, boot_builtin, Workload, TABLE_SEED, WARM_MIX, WARM_ROWS};
use std::path::{Path, PathBuf};

/// A directory of this test's own, emptied first.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn json_line(line: &str) -> Json {
    Json::parse(line).expect("the closing line is JSON")
}

fn smoke(workload: Workload, traced: bool) {
    workloads::set_boot_exe(PathBuf::from(env!("CARGO_BIN_EXE_lewisbench")));
    let dir = scratch(&format!("{}-{}", workload.name(), u8::from(traced)));
    let (report, line) = lewisbench::execute(workload, 3, 1, traced, &dir, &dir)
        .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
    let json = json_line(&line);
    assert_eq!(json.get("correct"), Some(&Json::Bool(true)));
    assert!(json.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    let metrics = json.get("metrics").unwrap();
    let names: &[(&str, &str)] = if traced {
        &trace::PER_LAYER
    } else {
        &lewisbench::report::END_TO_END
    };
    for (name, unit) in names {
        let metric = metrics
            .get(name)
            .unwrap_or_else(|| panic!("{name} missing"));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(*unit));
        assert!(metric
            .get("value")
            .and_then(Json::as_f64)
            .unwrap()
            .is_finite());
    }
    if !traced {
        // the nine end-to-end metrics are all reported by name, with a
        // value or as not applicable
        for name in [
            "setup_s",
            "peak_rss_mb",
            "goodput_qps",
            "read_p50_us",
            "read_tail_us",
            "recourse_p50_us",
            "append_p50_us",
            "append_tail_us",
            "failed_share",
        ] {
            assert!(
                report.metrics.iter().any(|m| m.name == name),
                "{name} not reported for {}",
                workload.name()
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_warm_mix() {
    smoke(Workload::WarmMix, false);
    smoke(Workload::WarmMix, true);
}

#[test]
fn smoke_cold_1m() {
    smoke(Workload::Cold1m, false);
    smoke(Workload::Cold1m, true);
}

#[test]
fn smoke_live_append() {
    smoke(Workload::LiveAppend, false);
    smoke(Workload::LiveAppend, true);
}

#[test]
fn smoke_fleet_mix() {
    smoke(Workload::FleetMix, false);
    smoke(Workload::FleetMix, true);
}

fn bodies(queries: &[&gen::Query]) -> Vec<String> {
    queries.iter().map(|q| q.body.clone()).collect()
}

#[test]
fn the_seed_alone_fixes_every_stream() {
    let deployment = boot_builtin(Source::GermanSyn, WARM_ROWS).unwrap();
    let engine = deployment.engine();
    let warm = |seed| {
        let pool = gen::pool(&engine, seed, 48, 64, 24);
        let stream = gen::stream(&pool, WARM_MIX, 2000, seed);
        let picked: Vec<&gen::Query> = stream.iter().map(|&i| &pool.queries[i]).collect();
        let mut per_kind = [0usize; 4];
        for q in &picked {
            per_kind[q.kind.index()] += 1;
        }
        (bodies(&picked), per_kind)
    };
    let (a, kinds_a) = warm(7);
    let (b, kinds_b) = warm(7);
    assert_eq!(a, b, "same seed, same warm stream");
    assert_eq!(kinds_a, kinds_b, "same seed, same per-kind counts");
    assert!(
        kinds_a.iter().all(|&n| n > 0),
        "every kind is sent: {kinds_a:?}"
    );
    let (c, _) = warm(8);
    assert_ne!(a, c, "another seed, another stream");

    let cold = |seed| bodies(&gen::cold_list(&engine, seed, 64).iter().collect::<Vec<_>>());
    assert_eq!(cold(7), cold(7));
    assert_ne!(cold(7), cold(8));

    let live = |seed| {
        workloads::live_schedule(&engine, seed, 2)
            .iter()
            .map(|s| {
                let what = match &s.what {
                    workloads::LiveItem::Read(q) => format!("read {}", q.body),
                    workloads::LiveItem::Job(q) => format!("job {}", q.body),
                    workloads::LiveItem::Append(rows) => format!("append {}", gen::rows_body(rows)),
                };
                format!("{:?} {what}", s.due)
            })
            .collect::<Vec<_>>()
    };
    assert_eq!(live(7), live(7));
    assert_ne!(live(7), live(8));
    deployment.stop();
}

#[test]
fn the_traced_replay_counts_cache_traffic_identically_per_seed() {
    let counts = |seed| {
        let dir = scratch(&format!("replay-{seed}"));
        let plan = trace::plan(Workload::WarmMix, seed, 1, &dir).unwrap();
        let registry = std::sync::Arc::clone(&plan.deployment.registries[0]);
        let mut tracer = Tracer::new(true);
        let replayed = trace::replay(&registry, &plan.steps, &mut tracer, 0).unwrap();
        plan.deployment.stop();
        let _ = std::fs::remove_dir_all(&dir);
        (replayed.cache, plan_kinds(&plan.steps))
    };
    let (a, kinds_a) = counts(5);
    let (b, kinds_b) = counts(5);
    assert_eq!(a, b, "same seed, same cache hits and misses");
    assert_eq!(kinds_a, kinds_b);
    assert!(a.hits > 0);
}

fn plan_kinds(steps: &[trace::Step]) -> [usize; 4] {
    let mut kinds = [0; 4];
    for step in steps {
        if let trace::Step::Explain(q) = step {
            kinds[q.kind.index()] += 1;
        }
    }
    kinds
}

#[test]
fn parity_rejects_an_injected_wrong_answer() {
    let reference =
        parity::reference_engine(Source::GermanSyn, WARM_ROWS, TABLE_SEED, &[]).unwrap();
    let pool = gen::pool(&reference, 9, 8, 8, 2);
    let queries: Vec<&gen::Query> = pool.queries.iter().collect();
    let expected: Vec<(u16, String)> = queries
        .iter()
        .map(|q| parity::expected(&reference, q))
        .collect();
    let honest = |q: &gen::Query| {
        let (status, body) = parity::expected(&reference, q);
        Ok(Reply {
            status,
            body: body.into_bytes(),
        })
    };
    assert_eq!(
        parity::check("honest", &expected, queries.iter().copied(), honest),
        Ok(queries.len())
    );

    // flip one digit in one answer
    let target = queries
        .iter()
        .position(|q| q.kind == Kind::Local)
        .expect("the pool has locals");
    let mut seen = 0;
    let lying = |q: &gen::Query| {
        let (status, body) = parity::expected(&reference, q);
        let mut body = body.into_bytes();
        if seen == target {
            let digit = body
                .iter()
                .position(u8::is_ascii_digit)
                .expect("answers carry numbers");
            body[digit] = if body[digit] == b'9' {
                b'8'
            } else {
                body[digit] + 1
            };
        }
        seen += 1;
        Ok(Reply { status, body })
    };
    let verdict = parity::check("lying", &expected, queries.iter().copied(), lying);
    assert!(
        verdict.is_err(),
        "an injected wrong answer must fail parity"
    );

    // a wrong status fails too
    let wrong_status = |q: &gen::Query| {
        let (_, body) = parity::expected(&reference, q);
        Ok(Reply {
            status: 500,
            body: body.into_bytes(),
        })
    };
    assert!(parity::check("status", &expected, queries.iter().copied(), wrong_status).is_err());
}

#[test]
fn benchmark_json_names_what_the_code_reports() {
    let text =
        std::fs::read_to_string(Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
            .unwrap();
    let json = Json::parse(&text).unwrap();
    let names = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap().to_string(),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect()
    };
    let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), own(&lewisbench::report::END_TO_END));
    assert_eq!(names("per_layer"), own(&trace::PER_LAYER));
    // the steady workloads are listed; every listed one exists
    let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
    assert_eq!(workloads, ["cold_1m", "live_append"]);
    assert!(workloads.iter().all(|w| Workload::parse(w).is_some()));
}
