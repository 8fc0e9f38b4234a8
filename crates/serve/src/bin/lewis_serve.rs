//! The `lewis-serve` binary: load engines, bind, serve until asked to
//! stop (`POST /admin/shutdown`).

use lewis_serve::{serve, AdmissionConfig, EngineRegistry, GraphSpec, ServerConfig, BUILTINS};
use std::time::Duration;

const USAGE: &str = "\
lewis-serve — HTTP explanation service over LEWIS engines

USAGE:
    lewis-serve [OPTIONS]

OPTIONS:
    --listen ADDR          bind address (default 127.0.0.1:7878; port 0 = ephemeral)
    --workers N            worker threads (default 4)
    --builtin NAME=ROWS    register a built-in dataset engine (repeatable);
                           NAME ∈ {german_syn, german_syn_scaled, german,
                           adult, compas, drug}
    --csv NAME=PATH=PRED=POSITIVE[=discover]
                           register an engine from a CSV file: PRED is the
                           binary prediction column, POSITIVE its favourable
                           label; append =discover to learn a causal graph
                           with the PC algorithm instead of the §6
                           no-graph fallback (repeatable)
    --pack NAME=PATH       register an engine from a .lewis pack written by
                           lewis-pack — instant start, warm cache included
                           (repeatable)
    --pack-dir DIR         register every .lewis pack found in DIR, named by
                           file stem — how fleet replicas boot identical
                           engine sets from a shared pack directory
    --admission NAME=SPEC  admission control for engine NAME; SPEC is
                           comma-separated knobs, e.g.
                           rate:1200,inflight:64,queue:16,deadline_ms:50
                           (rate:0 = uncapped; repeatable)
    --seed N               generation seed for built-ins (default 42)
    --max-body BYTES       request body limit (default 1048576)
    -h, --help             this text

With no --builtin/--csv, serves german_syn=5000. Builtin and CSV engines
are built with per-(feature, code) bitmap indexes, and each request is
scored on the worker thread that serves it; pack engines keep the layout
recorded in their pack.

ROUTES:
    GET  /healthz                         liveness
    GET  /v1/engines                      engines + schemas
    POST /v1/engines/{name}/explain       one request or {\"batch\": [...]}
    POST /v1/engines/{name}/explain?mode=async
                                          the same explain, answer kept under
                                          a ticket: 202 + job id
    GET  /v1/jobs/{id}                    read a ticket's state and answer
    POST /v1/engines/{name}/rows          append rows {\"rows\": [[...], ...]} (≤256)
    POST /v1/engines/{name}/compact       fold the pending appended rows now
    GET  /metrics                         counters, latency quantiles, cache stats
    POST /admin/engines/{name}/load       hot-load a pack  {\"path\": \"...\"}
    POST /admin/engines/{name}/swap       hot-swap a pack  {\"path\": \"...\"}
    POST /admin/engines/{name}/unload     drop an engine
    POST /admin/shutdown                  graceful stop
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(1)
}

fn main() {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".to_string(),
        ..ServerConfig::default()
    };
    let mut seed = 42u64;
    let mut builtins: Vec<(String, usize)> = Vec::new();
    let mut csvs: Vec<(String, String, String, String, bool)> = Vec::new();
    let mut packs: Vec<(String, String)> = Vec::new();
    let mut pack_dirs: Vec<String> = Vec::new();
    let mut admissions: Vec<(String, AdmissionConfig)> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return;
            }
            "--listen" => config.addr = value("--listen"),
            "--workers" => {
                config.workers = value("--workers")
                    .parse()
                    .unwrap_or_else(|_| fail("--workers expects an integer"))
            }
            "--max-body" => {
                config.max_body = value("--max-body")
                    .parse()
                    .unwrap_or_else(|_| fail("--max-body expects an integer"))
            }
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed expects an integer"))
            }
            "--builtin" => {
                let spec = value("--builtin");
                let Some((name, rows)) = spec.split_once('=') else {
                    fail(&format!("--builtin {spec:?}: expected NAME=ROWS"));
                };
                let rows = rows
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--builtin {spec:?}: bad row count")));
                builtins.push((name.to_string(), rows));
            }
            "--csv" => {
                let spec = value("--csv");
                let parts: Vec<&str> = spec.split('=').collect();
                let (name, path, pred, positive, discover) = match parts.as_slice() {
                    [name, path, pred, positive] => (name, path, pred, positive, false),
                    [name, path, pred, positive, "discover"] => (name, path, pred, positive, true),
                    _ => fail(&format!(
                        "--csv {spec:?}: expected NAME=PATH=PRED=POSITIVE[=discover]"
                    )),
                };
                csvs.push((
                    name.to_string(),
                    path.to_string(),
                    pred.to_string(),
                    positive.to_string(),
                    discover,
                ));
            }
            "--pack" => {
                let spec = value("--pack");
                let Some((name, path)) = spec.split_once('=') else {
                    fail(&format!("--pack {spec:?}: expected NAME=PATH"));
                };
                packs.push((name.to_string(), path.to_string()));
            }
            "--pack-dir" => pack_dirs.push(value("--pack-dir")),
            "--admission" => {
                let spec = value("--admission");
                let Some((name, knobs)) = spec.split_once('=') else {
                    fail(&format!("--admission {spec:?}: expected NAME=SPEC"));
                };
                let config = AdmissionConfig::parse(knobs)
                    .unwrap_or_else(|e| fail(&format!("--admission {spec:?}: {e}")));
                admissions.push((name.to_string(), config));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    if builtins.is_empty() && csvs.is_empty() && packs.is_empty() && pack_dirs.is_empty() {
        builtins.push(("german_syn".to_string(), 5000));
    }

    let mut registry = EngineRegistry::new();
    for (name, rows) in &builtins {
        eprintln!("loading builtin {name} ({rows} rows, seed {seed})...");
        if let Err(e) = registry.load_builtin(name, *rows, seed) {
            fail(&e.to_string());
        }
    }
    for (name, path, pred, positive, discover) in &csvs {
        let graph = if *discover {
            eprintln!("loading csv {name} from {path} (discovering a causal graph)...");
            GraphSpec::Discovered(Default::default())
        } else {
            eprintln!("loading csv {name} from {path}...");
            GraphSpec::FullyConnected
        };
        if let Err(e) = registry.load_csv(name, path, pred, positive, graph) {
            fail(&e.to_string());
        }
    }
    for (name, path) in &packs {
        eprintln!("loading pack {name} from {path}...");
        if let Err(e) = registry.load_pack(name, path) {
            fail(&e.to_string());
        }
    }
    for dir in &pack_dirs {
        let found = match lewis_store::discover_packs(dir) {
            Ok(found) => found,
            Err(e) => fail(&e.to_string()),
        };
        if found.is_empty() {
            fail(&format!("--pack-dir {dir:?}: no .lewis packs found"));
        }
        for (name, path) in found {
            eprintln!("loading pack {name} from {}...", path.display());
            if let Err(e) = registry.load_pack(&name, &path.to_string_lossy()) {
                fail(&e.to_string());
            }
        }
    }
    for (name, admission) in &admissions {
        if let Err(e) = registry.set_admission(name, admission.clone()) {
            fail(&format!("--admission {name}: {e}"));
        }
    }

    let known: Vec<&str> = BUILTINS.iter().map(|&(n, _)| n).collect();
    eprintln!("built-ins available: {}", known.join(", "));

    config.read_timeout = Duration::from_secs(5);
    let server = match serve(&config, std::sync::Arc::new(registry)) {
        Ok(s) => s,
        Err(e) => fail(&format!("cannot bind {}: {e}", config.addr)),
    };
    // the address line goes to stdout so scripts can scrape the port
    println!("listening on http://{}", server.addr());
    eprintln!(
        "stop with: curl -X POST http://{}/admin/shutdown",
        server.addr()
    );
    server.join();
    eprintln!("bye");
}
