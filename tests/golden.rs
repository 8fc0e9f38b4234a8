//! Golden conformance suite: end-to-end `ExplainResponse` JSON for a
//! fixed query mix over every builtin dataset, pinned to checked-in
//! golden files. Any future refactor that silently changes a score —
//! a re-ordered float sum, a tweaked tie-break, a "harmless" estimator
//! cleanup — fails this suite loudly instead of shipping drift.
//!
//! The pinned bytes go through the deterministic wire codec
//! (`lewis_serve::wire`), which serializes every finite f64 with
//! shortest-round-trip precision, so the goldens capture scores to the
//! bit. Errors are pinned too (as `err:<message>` lines): changing an
//! error message or variant for a fixed input is also an observable
//! behavior change.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! UPDATE_GOLDENS=1 cargo test --test golden
//! ```
//!
//! and review the diff like any other code change.

use lewis_core::{Engine, ExplainRequest, ExplainResponse, LewisError, RecourseOptions};
use lewis_serve::wire;
use lewis_serve::EngineRegistry;
use std::path::PathBuf;
use tabular::Context;

/// Rows per dataset: small enough to build every engine in seconds,
/// large enough that every query kind has support somewhere.
const ROWS: usize = 400;
const SEED: u64 = 42;

/// The original five paper datasets plus the scaled generator — every
/// name `lewis-serve --builtin` accepts ships a golden.
const DATASETS: [&str; 6] = [
    "german_syn",
    "german_syn_scaled",
    "german",
    "adult",
    "compas",
    "drug",
];

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

fn render(result: &Result<ExplainResponse, LewisError>) -> String {
    match result {
        Ok(response) => wire::response_to_json(response).to_json(),
        Err(e) => format!("err:{e}"),
    }
}

/// The fixed query mix: every kind, deterministic targets, plus one
/// deliberately unsupported context.
fn golden_queries(engine: &lewis_core::Engine) -> Vec<(String, ExplainRequest)> {
    let table = engine.table();
    let features = engine.features();
    let a = features[0];
    let b = features[1 % features.len()];
    let row0 = table.row(0).unwrap();
    let row7 = table.row(7 % table.n_rows()).unwrap();
    vec![
        ("global".to_string(), ExplainRequest::Global),
        (
            "contextual_global".to_string(),
            ExplainRequest::ContextualGlobal {
                k: Context::of([(a, row0[a.index()])]),
            },
        ),
        (
            "contextual".to_string(),
            ExplainRequest::Contextual {
                attr: b,
                k: Context::of([(a, row7[a.index()])]),
            },
        ),
        (
            "local".to_string(),
            ExplainRequest::Local { row: row0.clone() },
        ),
        (
            "recourse".to_string(),
            ExplainRequest::Recourse {
                row: row7,
                actionable: vec![a, b],
                opts: RecourseOptions::default(),
            },
        ),
        (
            "tight_context".to_string(),
            ExplainRequest::Contextual {
                attr: b,
                k: Context::of(
                    features
                        .iter()
                        .filter(|f| **f != b)
                        .map(|&f| (f, row0[f.index()])),
                ),
            },
        ),
    ]
}

fn actual_for(name: &str) -> String {
    let mut registry = EngineRegistry::new();
    registry.load_builtin(name, ROWS, SEED).unwrap();
    let engine = registry.get(name).unwrap().engine();
    let mut out = String::new();
    for (label, request) in golden_queries(&engine) {
        out.push_str(&label);
        out.push('\t');
        out.push_str(&render(&engine.run(&request)));
        out.push('\n');
    }
    out
}

#[test]
fn explain_responses_match_checked_in_goldens() {
    let update = std::env::var("UPDATE_GOLDENS").ok().as_deref() == Some("1");
    let dir = goldens_dir();
    if update {
        std::fs::create_dir_all(&dir).unwrap();
    }
    let mut failures = Vec::new();
    for name in DATASETS {
        let actual = actual_for(name);
        let path = dir.join(format!("{name}.golden"));
        if update {
            std::fs::write(&path, &actual).unwrap();
            eprintln!("wrote {}", path.display());
            continue;
        }
        let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); regenerate with UPDATE_GOLDENS=1 cargo test --test golden",
                path.display()
            )
        });
        if actual != expected {
            // name the first diverging line so the failure is readable
            let diverged = actual
                .lines()
                .zip(expected.lines())
                .find(|(a, e)| a != e)
                .map(|(a, e)| format!("\n  actual:   {a}\n  expected: {e}"))
                .unwrap_or_else(|| "\n  (line counts differ)".to_string());
            failures.push(format!("{name}: first divergence:{diverged}"));
        }
    }
    assert!(
        failures.is_empty(),
        "golden mismatch — a score-visible behavior changed. If intentional, \
         regenerate with UPDATE_GOLDENS=1 and review the diff.\n{}",
        failures.join("\n")
    );
}

/// The async job lane is part of the conformance surface too: the
/// golden recourse query for `drug`, submitted with `?mode=async` and
/// polled to completion over a real socket, must replay exactly the
/// pinned golden bytes — the ticket carries the same serialized answer
/// the synchronous route (and the golden) pins.
#[test]
fn the_job_lane_replays_the_golden_recourse_answer() {
    use lewis_serve::{serve, Client, ServerConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let name = "drug";
    let mut registry = EngineRegistry::new();
    registry.load_builtin(name, ROWS, SEED).unwrap();
    let engine = registry.get(name).unwrap().engine();
    let server = serve(&ServerConfig::default(), Arc::new(registry)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    let (_, request) = golden_queries(&engine)
        .into_iter()
        .find(|(label, _)| label == "recourse")
        .unwrap();
    let body = wire::request_to_json(&request).to_json();
    let (status, answer) = client
        .post(&format!("/v1/engines/{name}/explain?mode=async"), &body)
        .unwrap();
    assert_eq!(status, 202, "submission: {answer:?}");
    let id = answer.get("job_id").unwrap().as_str().unwrap().to_string();

    let deadline = Instant::now() + Duration::from_secs(30);
    let view = loop {
        let (status, view) = client.get(&format!("/v1/jobs/{id}")).unwrap();
        assert_eq!(status, 200, "poll: {view:?}");
        match view.get("state").unwrap().as_str() {
            Some("done") | Some("failed") => break view,
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(2));
            }
        }
    };
    assert_eq!(view.get("state").unwrap().as_str(), Some("done"));
    assert_eq!(view.get("status").unwrap().as_f64(), Some(200.0));

    let golden = std::fs::read_to_string(goldens_dir().join(format!("{name}.golden"))).unwrap();
    let want = golden
        .lines()
        .find_map(|l| l.strip_prefix("recourse\t"))
        .expect("the golden has a recourse line");
    assert_eq!(
        view.get("result").unwrap().to_json(),
        want,
        "the async replay matches the pinned golden bytes"
    );
    server.shutdown();
}

/// Hot lifecycle churn must be invisible to the conformance surface:
/// an engine packed from the golden build, then hot-loaded, swapped to
/// the same pack, unloaded, and reloaded through the admin lifecycle,
/// answers the pinned golden mix byte-for-byte. Generations advance at
/// every step (the registry's monotonic counter) while the bytes stand
/// still.
#[test]
fn goldens_survive_hot_lifecycle_churn() {
    let name = "german_syn";
    let dir = std::env::temp_dir().join(format!("lewis-golden-churn-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pack = dir.join(format!("{name}.lewis"));
    let pack = pack.to_str().unwrap().to_string();

    let mut registry = EngineRegistry::new();
    registry.load_builtin(name, ROWS, SEED).unwrap();
    registry.save_pack(name, &pack).unwrap();
    let queries = golden_queries(&registry.get(name).unwrap().engine());

    // load → swap (same pack) → unload → reload, watching generations
    let g1 = registry.admin_load_pack("churn", &pack).unwrap();
    let g2 = registry.swap_pack("churn", &pack).unwrap();
    registry.unload("churn").unwrap();
    let g3 = registry.admin_load_pack("churn", &pack).unwrap();
    assert!(g1 < g2 && g2 < g3, "generations advance: {g1} {g2} {g3}");

    let golden = std::fs::read_to_string(goldens_dir().join(format!("{name}.golden"))).unwrap();
    let engine = registry.get("churn").unwrap().engine();
    for (label, request) in queries {
        let want = golden
            .lines()
            .find_map(|l| l.strip_prefix(&format!("{label}\t")))
            .unwrap_or_else(|| panic!("the golden has a {label} line"));
        assert_eq!(
            render(&engine.run(&request)),
            want,
            "{name}/{label} drifted through the load→swap→unload→reload churn"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The goldens must be layout-invariant: registry engines serve them
/// indexed and unsharded, and a 3-shard scan twin (the same engine
/// restored from its snapshot with the index dropped) must answer every
/// golden query byte for byte the same — otherwise the determinism
/// contract broke.
#[test]
fn goldens_are_shard_invariant() {
    for name in ["german_syn", "compas"] {
        let mut registry = EngineRegistry::new();
        registry.load_builtin(name, ROWS, SEED).unwrap();
        let served = registry.get(name).unwrap().engine();
        assert!(served.index_enabled());
        let mut snapshot = served.snapshot();
        snapshot.shards = 3;
        snapshot.index = None;
        let scan_twin = Engine::restore(snapshot).unwrap();
        assert!(!scan_twin.index_enabled());
        for (label, request) in golden_queries(&served) {
            assert_eq!(
                render(&served.run(&request)),
                render(&scan_twin.run(&request)),
                "{name}/{label} diverged between the indexed engine and a 3-shard scan"
            );
        }
    }
}
