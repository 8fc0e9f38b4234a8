//! Cold-start paths: pack-restore vs CSV-rebuild-and-rewarm.
//!
//! The serving story before packs: every `lewis-serve` boot parsed the
//! CSV, rebuilt the engine (value-order inference included) and started
//! with a cold counting cache that only traffic could warm. The pack
//! path reads one checksummed binary file and is ready to serve — warm
//! cache included — so restarts stop costing throughput.
//!
//! Acceptance: pack-restore to ready-to-serve must be ≥ 5× faster than
//! CSV-rebuild + rewarm on the same dataset. `lewisbench` reports the
//! restore time of its own packs as `store.pack.restore_ms`.

use criterion::{criterion_group, criterion_main, Criterion};
use lewis_serve::warm::warm_engine;
use lewis_serve::{EngineRegistry, GraphSpec};

const ROWS: usize = 5000;
const WARM_QUERIES: usize = 128;
const SEED: u64 = 42;

struct Fixture {
    dir: std::path::PathBuf,
    csv: std::path::PathBuf,
    pack: std::path::PathBuf,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Materialize the german_syn CSV and its compiled pack once.
fn fixture() -> Fixture {
    let dir = std::env::temp_dir().join(format!("lewis-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("german_syn.csv");
    let pack = dir.join("german_syn.lewis");

    let mut reg = EngineRegistry::new();
    reg.load_builtin("german_syn", ROWS, SEED).unwrap();
    tabular::write_csv_file(reg.get("german_syn").unwrap().engine().table(), &csv).unwrap();

    let mut compile = EngineRegistry::new();
    compile
        .load_csv(
            "engine",
            csv.to_str().unwrap(),
            "pred",
            "true",
            GraphSpec::FullyConnected,
        )
        .unwrap();
    warm_engine(&compile.get("engine").unwrap().engine(), WARM_QUERIES, SEED).unwrap();
    compile.save_pack("engine", pack.to_str().unwrap()).unwrap();
    Fixture { dir, csv, pack }
}

/// The pre-pack boot path, exactly as `lewis-serve --csv` does it:
/// parse the CSV through the registry, build the engine, re-warm the
/// cache with the query mix. Returns resident cache entries (so the
/// work cannot be optimized away).
fn csv_rebuild_rewarm(csv: &std::path::Path) -> usize {
    let mut reg = EngineRegistry::new();
    reg.load_csv(
        "engine",
        csv.to_str().unwrap(),
        "pred",
        "true",
        GraphSpec::FullyConnected,
    )
    .unwrap();
    let engine = reg.get("engine").unwrap().engine();
    warm_engine(&engine, WARM_QUERIES, SEED).unwrap();
    engine.cache_stats().entries
}

/// The pack boot path: read + restore; the cache arrives warm.
fn pack_restore(pack: &std::path::Path) -> usize {
    let (engine, _meta) = lewis_store::load_engine(pack).unwrap();
    engine.cache_stats().entries
}

fn bench_cold_start(c: &mut Criterion) {
    let fx = fixture();

    // sanity: both paths come up with the same resident passes, and the
    // restored engine answers like the rebuilt one
    let rebuilt = csv_rebuild_rewarm(&fx.csv);
    let restored = pack_restore(&fx.pack);
    assert_eq!(rebuilt, restored, "both boots end at the same warm state");

    let csv_size = std::fs::metadata(&fx.csv).unwrap().len();
    let pack_size = std::fs::metadata(&fx.pack).unwrap().len();
    println!(
        "file sizes: csv {csv_size} bytes, pack {pack_size} bytes \
         ({:.2}x of csv, warm cache included)",
        pack_size as f64 / csv_size as f64
    );

    let name = format!("cold_start_{ROWS}_rows");
    let mut group = c.benchmark_group(&name);
    group.sample_size(10);
    group.bench_function("csv_rebuild_rewarm", |b| {
        b.iter(|| csv_rebuild_rewarm(&fx.csv))
    });
    group.bench_function("pack_restore", |b| b.iter(|| pack_restore(&fx.pack)));
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_cold_start
}
criterion_main!(benches);
