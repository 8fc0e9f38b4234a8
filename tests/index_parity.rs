//! Acceptance: an engine answering counting passes and support probes
//! from per-(feature, code) bitmap indexes is **byte-for-byte
//! identical** to the plain scanning engine — for every query kind
//! (global, contextual global, contextual, local, recourse), for shard
//! counts {1, 2, 4, 7}, over proptest-generated tables and seeds, with
//! the counting-pass cache cold *and* warm.
//!
//! Why this is exact (not approximate): a conjunctive count is an
//! AND-of-bitmaps popcount — an integer — and per-shard popcounts are
//! summed in shard-index order, so the indexed path materializes
//! literally the same `Counter` a row scan would. The routing decision
//! (index vs scan) is a pure function of the query's grid size, never
//! of timing, so answers cannot drift between runs either.

use lewis_core::{Engine, ExplainRequest, ExplainResponse, LewisError, RecourseOptions};
use lewis_serve::wire;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{AttrId, Context, Domain, Schema, Table, Value};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// Render one engine answer into comparable bytes via the deterministic
/// wire codec; errors render too — the indexed engine must reproduce
/// the scan engine's failures exactly, not just its successes.
fn response_bytes(result: &Result<ExplainResponse, LewisError>) -> String {
    match result {
        Ok(response) => wire::response_to_json(response).to_json(),
        Err(e) => format!("err:{e}"),
    }
}

/// A random labelled table: 2–4 feature attributes of cardinality 2–4,
/// a binary prediction column correlated with the first feature, and
/// optionally a random DAG over the features.
fn random_world(seed: u64) -> (Table, Option<causal::Dag>, AttrId) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n_features = rng.gen_range(2..5usize);
    let mut schema = Schema::new();
    let mut cards = Vec::new();
    for i in 0..n_features {
        let card = rng.gen_range(2..5usize);
        let labels: Vec<String> = (0..card).map(|v| format!("v{v}")).collect();
        schema.push(format!("f{i}"), Domain::categorical(labels));
        cards.push(card);
    }
    schema.push("pred", Domain::boolean());
    let pred = AttrId(n_features as u32);
    let mut table = Table::new(schema);
    let n_rows = rng.gen_range(30..200usize);
    for _ in 0..n_rows {
        let mut row: Vec<Value> = cards
            .iter()
            .map(|&card| rng.gen_range(0..card as Value))
            .collect();
        let p = if row[0] as usize * 2 >= cards[0] {
            0.8
        } else {
            0.25
        };
        row.push(Value::from(rng.gen_range(0.0..1.0) < p));
        table.push_row(&row).unwrap();
    }
    let graph = if rng.gen_range(0..2) == 1 {
        let mut g = causal::Dag::new(n_features);
        for i in 0..n_features {
            for j in (i + 1)..n_features {
                if rng.gen_range(0..3) == 0 {
                    g.add_edge(i, j).unwrap();
                }
            }
        }
        Some(g)
    } else {
        None
    };
    (table, graph, pred)
}

fn build_engine(
    table: &Table,
    graph: Option<&causal::Dag>,
    pred: AttrId,
    shards: usize,
    index: bool,
) -> Engine {
    let features: Vec<AttrId> = table.schema().attr_ids().filter(|&a| a != pred).collect();
    let mut builder = Engine::builder(table.clone())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.5)
        .min_support(5)
        .shards(shards)
        .index(index);
    if let Some(g) = graph {
        builder = builder.graph(g);
    }
    builder.build().unwrap()
}

/// Every query kind, aimed at real rows plus one likely-unsupported
/// context so error parity is pinned too.
fn probe_requests(engine: &Engine, seed: u64) -> Vec<ExplainRequest> {
    let table = engine.table();
    let features = engine.features();
    let a = features[seed as usize % features.len()];
    let b = features[(seed as usize + 1) % features.len()];
    let row0 = table.row(seed as usize % table.n_rows()).unwrap();
    let row1 = table.row((seed as usize * 7 + 3) % table.n_rows()).unwrap();
    vec![
        ExplainRequest::Global,
        ExplainRequest::ContextualGlobal {
            k: Context::of([(a, row0[a.index()])]),
        },
        ExplainRequest::Contextual {
            attr: b,
            k: Context::of([(a, row1[a.index()])]),
        },
        ExplainRequest::Local { row: row0.clone() },
        ExplainRequest::Recourse {
            row: row1,
            actionable: vec![a, b],
            opts: RecourseOptions::default(),
        },
        // a deliberately tight context, likely unsupported
        ExplainRequest::Contextual {
            attr: b,
            k: Context::of(
                features
                    .iter()
                    .filter(|f| **f != b)
                    .map(|&f| (f, row0[f.index()])),
            ),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline property: for every shard count, every query kind
    /// answers byte-identically whether counting runs over bitmap
    /// popcounts or row scans — cold cache first, then warm.
    #[test]
    fn indexed_engines_answer_byte_identically(seed in 0u64..10_000) {
        let (table, graph, pred) = random_world(seed);
        let baseline = build_engine(&table, graph.as_ref(), pred, 1, false);
        prop_assert!(!baseline.index_enabled());
        let requests = probe_requests(&baseline, seed);
        let cold: Vec<String> = requests.iter().map(|r| response_bytes(&baseline.run(r))).collect();

        for &n_shards in &SHARD_COUNTS {
            let indexed = build_engine(&table, graph.as_ref(), pred, n_shards, true);
            prop_assert!(indexed.index_enabled());
            prop_assert!(indexed.index_memory_bytes() > 0);
            prop_assert_eq!(indexed.shards(), n_shards);
            for (i, request) in requests.iter().enumerate() {
                // cold: counts come off the index, then warm: served
                // from cache — both must equal the scan answer
                let first = response_bytes(&indexed.run(request));
                prop_assert_eq!(
                    &cold[i], &first,
                    "request #{} diverged cold at {} shards (seed {})",
                    i, n_shards, seed
                );
                let second = response_bytes(&indexed.run(request));
                prop_assert_eq!(
                    &cold[i], &second,
                    "request #{} diverged warm at {} shards (seed {})",
                    i, n_shards, seed
                );
            }
            // batch path too (recourse grouping + cache sharing)
            for (i, (b, s)) in baseline
                .run_batch(&requests)
                .iter()
                .zip(&indexed.run_batch(&requests))
                .enumerate()
            {
                prop_assert_eq!(
                    response_bytes(b),
                    response_bytes(s),
                    "batch slot #{} diverged at {} shards (seed {})",
                    i, n_shards, seed
                );
            }
        }
    }

    /// Snapshot/restore keeps the parity: a pack round-trip of an
    /// indexed engine answers exactly like the donor and like scans.
    #[test]
    fn packed_indexed_engines_keep_the_parity(seed in 0u64..10_000) {
        let (table, graph, pred) = random_world(seed);
        let scan = build_engine(&table, graph.as_ref(), pred, 2, false);
        let indexed = build_engine(&table, graph.as_ref(), pred, 2, true);
        let requests = probe_requests(&scan, seed);
        let want: Vec<String> = requests.iter().map(|r| response_bytes(&scan.run(r))).collect();

        let bytes = lewis_store::Pack::from_engine(&indexed, lewis_store::PackMeta::default()).to_bytes();
        let (restored, _) = lewis_store::Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        prop_assert!(restored.index_enabled(), "the index ships in the pack");
        for (i, request) in requests.iter().enumerate() {
            prop_assert_eq!(
                &want[i],
                &response_bytes(&restored.run(request)),
                "request #{} diverged after pack round-trip (seed {})",
                i, seed
            );
        }
    }
}
