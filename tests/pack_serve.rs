//! Serving parity: an engine compiled from a CSV into a `.lewis` pack
//! and served from that pack answers **byte-identically** to the same
//! CSV loaded directly — verified over real sockets against one server
//! hosting both engines (the in-process half of the CI pack smoke).

use lewis_serve::warm::warm_engine;
use lewis_serve::ServeError;
use lewis_serve::{serve, Client, EngineRegistry, GraphSpec, ServerConfig};
use std::sync::Arc;

#[test]
fn pack_served_engine_is_byte_identical_to_csv_served_engine() {
    let dir = std::env::temp_dir().join(format!("lewis-pack-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv_path = dir.join("german_syn.csv");
    let pack_path = dir.join("german_syn.lewis");

    // materialize the tiny german_syn table as a user CSV
    {
        let mut seedreg = EngineRegistry::new();
        seedreg.load_builtin("german_syn", 700, 13).unwrap();
        tabular::write_csv_file(
            seedreg.get("german_syn").unwrap().engine().table(),
            &csv_path,
        )
        .unwrap();
    }

    // one registry, two engines: the CSV directly, and a pack compiled
    // from that same CSV (with a warm cache — fidelity must hold for
    // cache hits and misses alike)
    let mut registry = EngineRegistry::new();
    registry
        .load_csv(
            "from_csv",
            csv_path.to_str().unwrap(),
            "pred",
            "true",
            GraphSpec::FullyConnected,
        )
        .unwrap();
    warm_engine(&registry.get("from_csv").unwrap().engine(), 32, 13).unwrap();
    registry
        .save_pack("from_csv", pack_path.to_str().unwrap())
        .unwrap();
    registry
        .load_pack("from_pack", pack_path.to_str().unwrap())
        .unwrap();

    let server = serve(
        &ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(registry),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();

    // the listing shows both, with pack provenance
    let (status, list) = client.get("/v1/engines").unwrap();
    assert_eq!(status, 200);
    let engines = list.get("engines").unwrap().as_arr().unwrap();
    assert_eq!(engines.len(), 2);
    assert!(engines[1]
        .get("source")
        .unwrap()
        .as_str()
        .unwrap()
        .starts_with("pack:"));

    // identical bodies to both engines must produce identical bytes —
    // the wire codec is deterministic, so string equality is byte
    // equality
    let bodies = [
        r#"{"kind":"global"}"#.to_string(),
        r#"{"kind":"contextual_global","context":[[1,1]]}"#.to_string(),
        r#"{"kind":"contextual","attr":2,"context":[[1,0]]}"#.to_string(),
        r#"{"kind":"local","row":[1,1,2,1,1,5,1]}"#.to_string(),
        r#"{"kind":"recourse","row":[1,0,0,0,0,2,0],"actionable":[2,3]}"#.to_string(),
        // batch of everything at once
        r#"{"batch":[{"kind":"global"},{"kind":"contextual","attr":3,"context":[[1,1]]},{"kind":"local","row":[0,1,1,1,0,3,0]}]}"#
            .to_string(),
    ];
    for body in &bodies {
        let (s_csv, r_csv) = client.post("/v1/engines/from_csv/explain", body).unwrap();
        let (s_pack, r_pack) = client.post("/v1/engines/from_pack/explain", body).unwrap();
        assert_eq!(s_csv, s_pack, "status parity for {body}");
        assert_eq!(r_csv.to_json(), r_pack.to_json(), "byte parity for {body}");
    }

    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn registry_load_pack_reports_corrupt_files_with_typed_errors() {
    let dir = std::env::temp_dir().join(format!("lewis-pack-serve-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pack_path = dir.join("corrupt.lewis");

    let mut registry = EngineRegistry::new();
    registry.load_builtin("german_syn", 300, 1).unwrap();
    registry
        .save_pack("german_syn", pack_path.to_str().unwrap())
        .unwrap();

    // flip one byte in the middle of the file: the registry must refuse
    // with a typed store error, never serve a corrupted engine
    let mut bytes = std::fs::read(&pack_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&pack_path, &bytes).unwrap();
    let err = registry
        .load_pack("bad", pack_path.to_str().unwrap())
        .unwrap_err();
    match err {
        ServeError::Store(inner) => {
            let text = inner.to_string();
            assert!(
                text.contains("checksum") || text.contains("corrupt") || text.contains("truncated"),
                "typed store error: {text}"
            );
        }
        other => panic!("expected a store error, got {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn warm_packed_metrics_expose_the_carried_cache() {
    // a pack-loaded engine starts with the donor's cache counters — the
    // /metrics route must show non-zero residency before any traffic
    let dir = std::env::temp_dir().join(format!("lewis-pack-serve-warm-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let pack_path = dir.join("warm.lewis");

    let mut donor_reg = EngineRegistry::new();
    donor_reg.load_builtin("german_syn", 500, 2).unwrap();
    warm_engine(&donor_reg.get("german_syn").unwrap().engine(), 24, 2).unwrap();
    donor_reg
        .save_pack("german_syn", pack_path.to_str().unwrap())
        .unwrap();

    let mut registry = EngineRegistry::new();
    registry
        .load_pack("warm", pack_path.to_str().unwrap())
        .unwrap();
    let server = serve(&ServerConfig::default(), Arc::new(registry)).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let (status, metrics) = client.get("/metrics").unwrap();
    assert_eq!(status, 200);
    let engine = metrics.get("engines").unwrap().get("warm").unwrap();
    let cache = engine.get("counting_cache").unwrap();
    let entries = cache.get("entries").unwrap().as_f64().unwrap();
    assert!(entries > 0.0, "cache arrives warm: {entries}");
    // the index names the bitmap kernel tier this process dispatches to
    let kernels = engine.get("index").unwrap().get("kernels").unwrap();
    assert_eq!(kernels.as_str(), Some(tabular::bitmap::kernel_tier()));
    // 500 rows are fewer than german_syn's 5,760 joint cells: no cube
    let cube_cells = engine.get("index").unwrap().get("cube_cells").unwrap();
    assert_eq!(cube_cells.as_f64(), Some(0.0));
    server.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
