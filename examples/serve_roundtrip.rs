//! Serving in one file: start an explanation server in-process, speak
//! its wire protocol over a real socket, shut it down gracefully.
//!
//! ```sh
//! cargo run --release --example serve_roundtrip
//! ```
//!
//! For the standalone deployment, see the `lewis-serve` binary
//! (`cargo run --release -p lewis-serve --bin lewis-serve`).

use lewis_serve::wire::{self, Json};
use lewis_serve::{serve, Client, EngineRegistry, ServerConfig};
use std::sync::Arc;
use tabular::{AttrId, Context};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One process can serve many engines; here, one built-in dataset.
    let mut registry = EngineRegistry::new();
    registry.load_builtin("german_syn", 2000, 42)?;
    let server = serve(
        &ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        },
        Arc::new(registry),
    )?;
    println!("serving on http://{}\n", server.addr());

    let mut client = Client::connect(server.addr())?;

    // What is registered? (names, schemas, feature ids)
    let (_, engines) = client.get("/v1/engines")?;
    let engine = &engines.get("engines").unwrap().as_arr().unwrap()[0];
    println!(
        "engine {:?}: {} rows, features {}",
        engine.get("name").unwrap().as_str().unwrap(),
        engine.get("n_rows").unwrap().as_f64().unwrap(),
        engine.get("features").unwrap().to_json(),
    );

    // A global ranking, requested through the typed codec.
    let request = wire::request_to_json(&lewis_core::ExplainRequest::Global).to_json();
    let (status, answer) = client.post("/v1/engines/german_syn/explain", &request)?;
    println!("\nGET global ranking → {status}");
    for attr in answer.get("attributes").unwrap().as_arr().unwrap() {
        println!(
            "  {:<8} nesuf {:.3}",
            attr.get("name").unwrap().as_str().unwrap(),
            attr.get("scores")
                .unwrap()
                .get("nesuf")
                .unwrap()
                .as_f64()
                .unwrap(),
        );
    }

    // A batched body: two contextual probes answered positionally,
    // sharing counting passes server-side via Engine::run_batch.
    let probe = |sex: u32| {
        wire::request_to_json(&lewis_core::ExplainRequest::Contextual {
            attr: AttrId(2), // status
            k: Context::of([(AttrId(1), sex)]),
        })
    };
    let body = Json::obj([("batch", Json::Arr(vec![probe(0), probe(1)]))]).to_json();
    let (_, answer) = client.post("/v1/engines/german_syn/explain", &body)?;
    println!("\nstatus sufficiency by sex:");
    for (sex, result) in answer
        .get("results")
        .unwrap()
        .as_arr()
        .unwrap()
        .iter()
        .enumerate()
    {
        println!(
            "  sex={sex}: {:.3}",
            result
                .get("scores")
                .unwrap()
                .get("sufficiency")
                .unwrap()
                .as_f64()
                .unwrap(),
        );
    }

    // Observability, then a graceful stop.
    let (_, metrics) = client.get("/metrics")?;
    let cache = metrics
        .get("engines")
        .unwrap()
        .get("german_syn")
        .unwrap()
        .get("counting_cache")
        .unwrap();
    println!(
        "\ncounting-cache hit rate so far: {:.1}%",
        cache.get("hit_rate").unwrap().as_f64().unwrap() * 100.0
    );
    client.post("/admin/shutdown", "")?;
    server.join();
    println!("server stopped cleanly");
    Ok(())
}
