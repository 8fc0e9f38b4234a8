//! The `lewis-pack` binary: compile CSVs (or built-in datasets) into
//! `.lewis` packs — optionally discovering a causal graph and pre-warming
//! the counting cache — and inspect existing packs.

use lewis_serve::warm::warm_engine;
use lewis_serve::{EngineRegistry, GraphSpec};
use lewis_store::Pack;

const USAGE: &str = "\
lewis-pack — compile data into .lewis packs for instant engine cold-starts

USAGE:
    lewis-pack compile [OPTIONS] --out PATH
    lewis-pack inspect PATH
    lewis-pack export-csv --builtin NAME=ROWS [--seed N] --out PATH

COMPILE OPTIONS:
    --out PATH            where to write the pack (required)
    --csv PATH            source CSV; requires --pred and --positive
    --pred COL            the CSV's binary prediction column
    --positive LABEL      the favourable label of --pred
    --builtin NAME=ROWS   source a built-in dataset instead of a CSV;
                          NAME ∈ {german_syn, german_syn_scaled, german,
                          adult, compas, drug}
    --discover            learn a causal graph from the CSV with the PC
                          algorithm instead of the §6 no-graph fallback
    --warm N              pre-run N seeded queries so the pack ships with
                          a warm counting cache (default 256; 0 = cold)
    --warm-recourse       pre-fit one recourse surrogate per feature (the
                          singleton actionable sets) so the pack ships
                          with precompiled recourse: a restored engine
                          answers those sets without a fitting pass
    --seed N              seed for --warm and --builtin generation
                          (default 42)

The pack bundles the dictionary-encoded table, schema and domains, the
causal graph, the engine configuration, inferred value orders, the
per-(feature, code) bitmap index every engine is built with, and the
warm cache — checksummed per section. Serve it with:
    lewis-serve --pack NAME=PATH

export-csv writes a built-in dataset (oracle-labelled, like --builtin)
as a plain CSV — handy for exercising the CSV → pack pipeline end to
end without external data.
";

fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run with --help for usage");
    std::process::exit(1)
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("-h") | Some("--help") | None => println!("{USAGE}"),
        Some("compile") => compile(args),
        Some("inspect") => {
            let Some(path) = args.next() else {
                fail("inspect needs a pack path");
            };
            inspect(&path);
        }
        Some("export-csv") => export_csv(args),
        Some(other) => fail(&format!("unknown command {other:?}")),
    }
}

fn export_csv(mut args: std::iter::Skip<std::env::Args>) {
    let mut out: Option<String> = None;
    let mut builtin: Option<(String, usize)> = None;
    let mut seed = 42u64;
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| fail(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--out" => out = Some(value("--out")),
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
                builtin = Some((name.to_string(), rows));
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(out), Some((name, rows))) = (out, builtin) else {
        fail("export-csv requires --builtin NAME=ROWS and --out PATH");
    };
    let mut registry = EngineRegistry::new();
    if let Err(e) = registry.load_builtin_as("engine", &name, rows, seed) {
        fail(&e.to_string());
    }
    let engine = registry.get("engine").expect("just registered").engine();
    if let Err(e) = tabular::write_csv_file(engine.table(), &out) {
        fail(&e.to_string());
    }
    println!("wrote {out} ({} rows)", engine.table().n_rows());
}

fn compile(mut args: std::iter::Skip<std::env::Args>) {
    let mut out: Option<String> = None;
    let mut csv: Option<String> = None;
    let mut pred: Option<String> = None;
    let mut positive: Option<String> = None;
    let mut builtin: Option<(String, usize)> = None;
    let mut discover = false;
    let mut warm = 256usize;
    let mut warm_recourse = false;
    let mut seed = 42u64;

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
            "--out" => out = Some(value("--out")),
            "--csv" => csv = Some(value("--csv")),
            "--pred" => pred = Some(value("--pred")),
            "--positive" => positive = Some(value("--positive")),
            "--builtin" => {
                let spec = value("--builtin");
                let Some((name, rows)) = spec.split_once('=') else {
                    fail(&format!("--builtin {spec:?}: expected NAME=ROWS"));
                };
                let rows = rows
                    .parse()
                    .unwrap_or_else(|_| fail(&format!("--builtin {spec:?}: bad row count")));
                builtin = Some((name.to_string(), rows));
            }
            "--discover" => discover = true,
            "--warm" => {
                warm = value("--warm")
                    .parse()
                    .unwrap_or_else(|_| fail("--warm expects an integer"))
            }
            "--warm-recourse" => warm_recourse = true,
            "--seed" => {
                seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| fail("--seed expects an integer"))
            }
            other => fail(&format!("unknown argument {other:?}")),
        }
    }

    let Some(out) = out else {
        fail("--out PATH is required");
    };
    const NAME: &str = "engine";
    let mut registry = EngineRegistry::new();
    match (&csv, &builtin) {
        (Some(_), Some(_)) => fail("--csv and --builtin are mutually exclusive"),
        (None, None) => fail("one of --csv or --builtin is required"),
        (Some(path), None) => {
            let (Some(pred), Some(positive)) = (&pred, &positive) else {
                fail("--csv requires --pred and --positive");
            };
            let graph = if discover {
                eprintln!("discovering a causal graph over {path} (PC algorithm)...");
                GraphSpec::Discovered(Default::default())
            } else {
                GraphSpec::FullyConnected
            };
            if let Err(e) = registry.load_csv(NAME, path, pred, positive, graph) {
                fail(&e.to_string());
            }
        }
        (None, Some((name, rows))) => {
            if discover {
                fail("--discover applies to --csv sources (built-ins ship their SCM graph)");
            }
            if let Err(e) = registry.load_builtin_as(NAME, name, *rows, seed) {
                fail(&e.to_string());
            }
        }
    }

    let entry = registry.get(NAME).expect("just registered");
    let engine = entry.engine();
    eprintln!(
        "engine built: {} rows, {} features, graph: {}",
        engine.table().n_rows(),
        engine.features().len(),
        entry.graph,
    );
    if warm > 0 {
        match warm_engine(&engine, warm, seed) {
            Ok((answered, unsupported)) => eprintln!(
                "warmed with {warm} queries (seed {seed}): {answered} answered, \
                 {unsupported} unsupported; cache {}",
                engine.cache_stats()
            ),
            Err(e) => fail(&format!("warm-up failed: {e}")),
        }
    }
    if warm_recourse {
        for &feature in engine.features() {
            if let Err(e) = engine.prepare_surrogate(&[feature]) {
                fail(&format!("surrogate pre-fit failed: {e}"));
            }
        }
        eprintln!(
            "precompiled {} recourse surrogates (one per feature); cache {}",
            engine.features().len(),
            engine.surrogate_stats()
        );
    }
    if let Err(e) = registry.save_pack(NAME, &out) {
        fail(&e.to_string());
    }
    match std::fs::metadata(&out) {
        Ok(meta) => println!("wrote {out} ({} bytes)", meta.len()),
        Err(_) => println!("wrote {out}"),
    }
}

fn inspect(path: &str) {
    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => fail(&format!("cannot read {path}: {e}")),
    };
    let pack = match Pack::from_bytes(&bytes) {
        Ok(p) => p,
        Err(e) => fail(&e.to_string()),
    };
    let sections = match lewis_store::section_sizes(&bytes) {
        Ok(s) => s,
        Err(e) => fail(&e.to_string()),
    };
    let (version, watermark) = match lewis_store::version_info(&bytes) {
        Ok(v) => v,
        Err(e) => fail(&e.to_string()),
    };
    let s = &pack.snapshot;
    let schema = s.table.schema();
    let delta_rows = s.delta.as_ref().map_or(0, |d| d.n_rows());
    println!("pack: {path}");
    println!("format: v{version}");
    println!("source: {}", pack.meta.source);
    println!("graph:  {}", pack.meta.graph);
    println!(
        "table:  {} rows × {} attributes",
        s.table.n_rows(),
        schema.len()
    );
    match watermark {
        Some(w) => println!(
            "live:   watermark {w} ({} base + {delta_rows} delta rows)",
            s.table.n_rows()
        ),
        None => println!("live:   no watermark (pre-v5 pack, frozen table)"),
    }
    println!(
        "engine: pred={} positive={} alpha={} min_support={} features={} shards={}",
        schema.name(s.pred),
        s.positive,
        s.alpha,
        s.min_support,
        s.features.len(),
        s.shards,
    );
    println!(
        "cache:  {} resident passes, {} lifetime hits / {} misses (capacity {})",
        s.cache.passes.len(),
        s.cache.hits,
        s.cache.misses,
        s.cache_capacity,
    );
    println!(
        "recourse: {} precompiled surrogates, {} lifetime hits / {} misses (capacity {})",
        s.surrogates.fits.len(),
        s.surrogates.hits,
        s.surrogates.misses,
        s.surrogate_capacity,
    );
    // the restored engine's indexes, as `/metrics` counts them: the
    // base index with its cube, plus a live table's appended rows' index
    let engine = match pack.restore_engine() {
        Ok((engine, _)) => engine,
        Err(e) => fail(&e.to_string()),
    };
    match engine.estimator().index() {
        Some(index) => println!(
            "index:  enabled, {} bitmaps over {} rows ({} bytes resident)",
            index.cardinalities().iter().map(|&c| c as u64).sum::<u64>(),
            index.n_rows(),
            engine.index_memory_bytes(),
        ),
        None => println!("index:  none"),
    }
    let has = |name: &str| sections.iter().any(|&(n, _)| n == name);
    println!(
        "sections ({} total, optional: cache={} index={} surrogates={} delta={}):",
        sections.len(),
        if has("cache") { "present" } else { "absent" },
        if has("index") { "present" } else { "absent" },
        if has("surrogates") {
            "present"
        } else {
            "absent"
        },
        if has("delta") { "present" } else { "absent" },
    );
    for (name, size) in &sections {
        println!("  {name:<12} {size} bytes");
    }
}
