//! Acceptance: a row-sharded engine is **byte-for-byte identical** to
//! the unsharded seed engine — for every query kind (global, contextual
//! global, contextual, local, set-sufficiency, recourse), for shard
//! counts {1, 2, 3, 7, 16}, over proptest-generated tables and seeds,
//! with the counting-pass cache cold *and* warm.
//!
//! The mechanism making this exact (not approximate): per-shard counts
//! are unsigned integers merged in shard-index order, so a sharded pass
//! produces literally the same `ArmTable` a contiguous scan would, and
//! every downstream f64 sum runs in the same order over the same values.
//! These tests are the fence around that argument.

use lewis_core::{Contrast, Engine, ExplainRequest, ExplainResponse, LewisError, RecourseOptions};
use lewis_serve::wire;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{AttrId, Context, Domain, Schema, Table, Value};

const SHARD_COUNTS: [usize; 5] = [1, 2, 3, 7, 16];

/// Render one engine answer into comparable bytes via the deterministic
/// wire codec; errors render too — a sharded engine must reproduce the
/// seed engine's failures exactly, not just its successes.
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
        // prediction leans on f0 so scores are non-degenerate
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

fn build_engine(table: &Table, graph: Option<&causal::Dag>, pred: AttrId, shards: usize) -> Engine {
    let features: Vec<AttrId> = table.schema().attr_ids().filter(|&a| a != pred).collect();
    let mut builder = Engine::builder(table.clone())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.5)
        .min_support(5)
        .shards(shards)
        // pinned to the scan path so sharded passes keep their coverage
        .index(false);
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
    /// answers byte-identically to the unsharded seed engine — cold
    /// cache first, then warm (the second sweep is all cache hits).
    #[test]
    fn sharded_engines_answer_byte_identically(seed in 0u64..10_000) {
        let (table, graph, pred) = random_world(seed);
        let baseline = build_engine(&table, graph.as_ref(), pred, 1);
        let requests = probe_requests(&baseline, seed);
        // cold sweep on the baseline, then a warm sweep: both recorded
        let cold: Vec<String> = requests.iter().map(|r| response_bytes(&baseline.run(r))).collect();
        let warm: Vec<String> = requests.iter().map(|r| response_bytes(&baseline.run(r))).collect();
        prop_assert_eq!(&cold, &warm, "seed engine must be cache-stable (seed {})", seed);

        for &n_shards in &SHARD_COUNTS[1..] {
            let sharded = build_engine(&table, graph.as_ref(), pred, n_shards);
            prop_assert_eq!(sharded.shards(), n_shards);
            for (i, request) in requests.iter().enumerate() {
                // cold: the pass is built sharded, then warm: served
                // from cache — both must equal the seed answer
                let first = response_bytes(&sharded.run(request));
                prop_assert_eq!(
                    &cold[i], &first,
                    "request #{} diverged cold at {} shards (seed {})",
                    i, n_shards, seed
                );
                let second = response_bytes(&sharded.run(request));
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
                .zip(&sharded.run_batch(&requests))
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

    /// Set-sufficiency (the recourse verifier's primitive) compares at
    /// the estimator level, down to the f64 bit patterns.
    #[test]
    fn set_sufficiency_is_bitwise_shard_invariant(seed in 0u64..10_000) {
        let (table, graph, pred) = random_world(seed);
        let baseline = build_engine(&table, graph.as_ref(), pred, 1);
        let features = baseline.features().to_vec();
        let a = features[0];
        let b = features[1 % features.len()];
        let hi = [(a, 1), (b, 1)];
        let lo = [(a, 0), (b, 0)];
        let want = baseline.estimator().scores_set(&hi, &lo, &Context::empty());
        for &n_shards in &SHARD_COUNTS[1..] {
            let sharded = build_engine(&table, graph.as_ref(), pred, n_shards);
            let got = sharded.estimator().scores_set(&hi, &lo, &Context::empty());
            match (&want, &got) {
                (Ok(w), Ok(g)) => {
                    prop_assert_eq!(w.necessity.to_bits(), g.necessity.to_bits());
                    prop_assert_eq!(w.sufficiency.to_bits(), g.sufficiency.to_bits());
                    prop_assert_eq!(w.nesuf.to_bits(), g.nesuf.to_bits());
                }
                (Err(w), Err(g)) => prop_assert_eq!(format!("{w}"), format!("{g}")),
                (w, g) => prop_assert!(false, "diverged at {} shards: {:?} vs {:?}", n_shards, w, g),
            }
        }
    }
}

/// Regression (satellite): `scores_batch` groups contrasts by
/// intervened-attribute set; with sharding on, a batch mixing duplicate
/// contrasts and `Unsupported` cases must preserve input order and
/// per-item error identity — each slot exactly what `scores_set` would
/// return for it.
#[test]
fn scores_batch_preserves_order_and_error_identity_with_sharding() {
    let (table, graph, pred) = random_world(77);
    for n_shards in SHARD_COUNTS {
        let engine = build_engine(&table, graph.as_ref(), pred, n_shards);
        let est = engine.estimator();
        let features = engine.features().to_vec();
        let a = features[0];
        let b = features[1 % features.len()];
        let k = Context::empty();
        let batch = vec![
            Contrast::single(a, 1, 0),
            // duplicate of the first (same pass, same slot-level answer)
            Contrast::single(a, 1, 0),
            // unsupported-by-construction: a code far outside any row
            // still validates against nothing here — use an identical
            // hi/lo pair instead, which is an Invalid error
            Contrast {
                hi: vec![(b, 0)],
                lo: vec![(b, 0)],
            },
            Contrast::set(&[(a, 1), (b, 1)], &[(a, 0), (b, 0)]),
            // duplicate of the set contrast
            Contrast::set(&[(a, 1), (b, 1)], &[(a, 0), (b, 0)]),
            // a contrast whose lo arm has no support in a tight context
            Contrast::single(b, 1, 0),
        ];
        // a context so tight the last contrast is typically unsupported
        let row0 = table.row(0).unwrap();
        let tight = Context::of(
            features
                .iter()
                .filter(|f| **f != b)
                .map(|&f| (f, row0[f.index()])),
        );
        for ctx in [&k, &tight] {
            let batched = est.scores_batch(&batch, ctx);
            assert_eq!(batched.len(), batch.len(), "positional alignment");
            for (i, (contrast, got)) in batch.iter().zip(&batched).enumerate() {
                let want = est.scores_set(&contrast.hi, &contrast.lo, ctx);
                match (&want, got) {
                    (Ok(w), Ok(g)) => {
                        assert_eq!(
                            w.nesuf.to_bits(),
                            g.nesuf.to_bits(),
                            "slot {i} at {n_shards} shards"
                        );
                        assert_eq!(w.necessity.to_bits(), g.necessity.to_bits());
                        assert_eq!(w.sufficiency.to_bits(), g.sufficiency.to_bits());
                    }
                    (Err(w), Err(g)) => {
                        // identity: same variant, same message
                        assert_eq!(
                            format!("{w}"),
                            format!("{g}"),
                            "slot {i} at {n_shards} shards"
                        );
                        assert_eq!(
                            std::mem::discriminant(w),
                            std::mem::discriminant(g),
                            "slot {i} at {n_shards} shards"
                        );
                    }
                    (w, g) => panic!("slot {i} diverged at {n_shards} shards: {w:?} vs {g:?}"),
                }
            }
            // duplicates agree with each other, bit for bit
            assert_eq!(
                response_like(&batched[0]),
                response_like(&batched[1]),
                "duplicate contrasts must answer identically"
            );
            assert_eq!(response_like(&batched[3]), response_like(&batched[4]));
        }
    }
}

fn response_like(r: &Result<lewis_core::Scores, LewisError>) -> String {
    match r {
        Ok(s) => format!(
            "{:x}/{:x}/{:x}",
            s.necessity.to_bits(),
            s.sufficiency.to_bits(),
            s.nesuf.to_bits()
        ),
        Err(e) => format!("err:{e}"),
    }
}
