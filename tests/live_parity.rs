//! Acceptance (lewis-live): a live table grown by replaying a random
//! append stream is **byte-for-byte identical** to an engine cold-built
//! over the concatenated table — for all six built-in datasets, shard
//! counts {1, 4}, bitmap index on and off, every query kind (global,
//! contextual global, contextual, local, recourse, batch), with the
//! counting-pass cache cold *and* warm, before and after compaction,
//! with cached passes and surrogate fits topped up batch after batch —
//! and a v5 pack saved mid-stream restores to an engine that resumes
//! the same stream and still converges to the cold answer.
//!
//! Why this is exact (not approximate): appends maintain counts as
//! integer base+delta sums merged in a fixed order, and a cached pass
//! (or a surrogate's grouped patterns) counted over the first `w` rows
//! is topped up with rows `w..` by integer addition into sorted vectors,
//! so the live engine materializes literally the same `ArmTable` a
//! contiguous scan of the concatenated table would, and compaction only
//! re-derives that table. These tests are the fence around that
//! argument.

use lewis_core::blackbox::label_table;
use lewis_core::snapshot::PassSnapshot;
use lewis_core::{Engine, ExplainRequest, ExplainResponse, LewisError, RecourseOptions};
use lewis_index::TableIndex;
use lewis_live::LiveEngine;
use lewis_serve::{wire, BUILTINS};
use lewis_store::{Pack, PackMeta};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use tabular::{AttrId, Context, Table, Value};

/// Generate a built-in dataset, oracle-labelled exactly the way the
/// serving registry labels it (favourable = `outcome ≥ pivot`).
fn builtin_world(name: &str, rows: usize, seed: u64) -> (Table, causal::Dag, AttrId, Vec<AttrId>) {
    let dataset = match name {
        "german_syn" => datasets::GermanSynDataset::standard().generate(rows, seed),
        "german_syn_scaled" => datasets::german_syn_scaled(rows, seed),
        "german" => datasets::GermanDataset::generate(rows, seed),
        "adult" => datasets::AdultDataset::generate(rows, seed),
        "compas" => datasets::CompasDataset::generate(rows, seed),
        "drug" => datasets::DrugDataset::generate(rows, seed),
        other => panic!("unknown built-in {other:?}"),
    };
    let pivot = BUILTINS
        .iter()
        .find(|&&(n, _)| n == name)
        .expect("every generated name is in BUILTINS")
        .1;
    let datasets::Dataset {
        table: mut t,
        scm,
        outcome,
        features,
        ..
    } = dataset;
    let oracle = move |row: &[Value]| u32::from(row[outcome.index()] >= pivot);
    let pred = label_table(&mut t, &oracle, "pred").unwrap();
    (t, scm.graph().clone(), pred, features)
}

fn build(
    table: Table,
    graph: &causal::Dag,
    pred: AttrId,
    features: &[AttrId],
    shards: usize,
    index: bool,
) -> Engine {
    Engine::builder(table)
        .graph(graph)
        .prediction(pred, 1)
        .features(features)
        .shards(shards)
        .index(index)
        .build()
        .unwrap()
}

/// The first `rows` rows of `table`, as a fresh table over the same
/// schema — the frozen base the append stream grows back to `table`.
fn prefix(table: &Table, rows: usize) -> Table {
    let mut out = Table::new(table.schema().clone());
    for i in 0..rows {
        out.push_row(&table.row(i).unwrap()).unwrap();
    }
    out
}

/// Render one engine answer into comparable bytes via the deterministic
/// wire codec; errors render too — a live table must reproduce the cold
/// build's failures exactly, not just its successes.
fn response_bytes(result: &Result<ExplainResponse, LewisError>) -> String {
    match result {
        Ok(response) => wire::response_to_json(response).to_json(),
        Err(e) => format!("err:{e}"),
    }
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

/// Run the probes cold, then again warm (all cache hits), asserting the
/// engine is cache-stable; returns the cold bytes.
fn sweep(engine: &Engine, requests: &[ExplainRequest]) -> Vec<String> {
    let cold: Vec<String> = requests
        .iter()
        .map(|r| response_bytes(&engine.run(r)))
        .collect();
    let warm: Vec<String> = requests
        .iter()
        .map(|r| response_bytes(&engine.run(r)))
        .collect();
    assert_eq!(cold, warm, "answers must be cache-stable");
    cold
}

/// Replay `full[base_rows..]` onto `live` in random-sized batches.
fn replay(live: &LiveEngine, full: &Table, base_rows: usize, rng: &mut StdRng) {
    let total = full.n_rows();
    let mut i = base_rows;
    while i < total {
        let batch = rng.gen_range(1..8usize).min(total - i);
        let rows: Vec<Vec<Value>> = (i..i + batch).map(|r| full.row(r).unwrap()).collect();
        let receipt = live.append_rows(&rows).unwrap();
        assert_eq!(receipt.appended, batch);
        i += batch;
    }
    assert_eq!(live.status().total_rows, total);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The headline property: replaying a random append stream over any
    /// built-in, any shard count, index on or off, answers every query
    /// kind byte-identically to the cold build over the concatenated
    /// table — before compaction, and again after.
    #[test]
    fn replayed_append_streams_match_cold_builds(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11FE);
        let (name, _) = BUILTINS[(seed as usize) % BUILTINS.len()];
        let shards = if seed % 2 == 0 { 1 } else { 4 };
        let index = (seed / 2) % 2 == 1;
        let total = rng.gen_range(120..200usize);
        let appended = rng.gen_range(10..40usize);
        let (full, graph, pred, features) = builtin_world(name, total, seed);
        let total = full.n_rows();
        let base_rows = total - appended;

        let base = build(prefix(&full, base_rows), &graph, pred, &features, shards, index);
        let live = LiveEngine::new(Arc::new(base));
        replay(&live, &full, base_rows, &mut rng);

        let cold = build(full.clone(), &graph, pred, &features, shards, index);
        let requests = probe_requests(&cold, seed);
        let want = sweep(&cold, &requests);
        let overlaid = live.engine();
        let got = sweep(&overlaid, &requests);
        prop_assert_eq!(
            &want, &got,
            "{} diverged at {} shards, index {} (seed {})",
            name, shards, index, seed
        );
        // the batch path shares passes across queries — same bytes
        for (i, (w, g)) in cold
            .run_batch(&requests)
            .iter()
            .zip(&overlaid.run_batch(&requests))
            .enumerate()
        {
            prop_assert_eq!(
                response_bytes(w),
                response_bytes(g),
                "batch slot #{} diverged ({}, seed {})",
                i, name, seed
            );
        }

        // compaction folds the delta without moving answers or the
        // watermark, and the table keeps accepting appends afterwards
        let version_before = live.status().version;
        let receipt = live.compact().unwrap();
        prop_assert!(!receipt.skipped);
        prop_assert_eq!(receipt.pending_delta_rows, 0);
        prop_assert_eq!(live.status().version, version_before);
        let folded = live.engine();
        prop_assert_eq!(folded.delta_rows(), 0, "compaction folded the delta");
        let after = sweep(&folded, &requests);
        prop_assert_eq!(
            &want, &after,
            "{} diverged after compaction (seed {})",
            name, seed
        );
    }

    /// The top-up property: with **every probe query warmed between
    /// batches**, each append finds the probes' passes and surrogate fits
    /// resident and tops them up with just the new rows — and a
    /// compaction mid-stream, right after an unwarmed batch, leaves
    /// passes to top up from inside the folded base. After every batch
    /// the answers equal a cold build over the rows appended so far, and
    /// at the end the live engine's current passes equal the cold
    /// engine's, key for key.
    #[test]
    fn warm_passes_topped_up_across_appends_and_a_compaction_match_cold_builds(
        seed in 0u64..10_000
    ) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x70B5);
        let (name, _) = BUILTINS[(seed as usize + 1) % BUILTINS.len()];
        let shards = if seed % 2 == 0 { 1 } else { 4 };
        let index = (seed / 2) % 2 == 0;
        let total = rng.gen_range(120..200usize);
        let appended = rng.gen_range(10..40usize);
        let (full, graph, pred, features) = builtin_world(name, total, seed);
        let total = full.n_rows();
        let base_rows = total - appended;
        let compact_at = base_rows + appended / 2;

        let cold = build(full.clone(), &graph, pred, &features, shards, index);
        let requests = probe_requests(&cold, seed);
        let base = build(prefix(&full, base_rows), &graph, pred, &features, shards, index);
        let live = LiveEngine::new(Arc::new(base));
        let _ = sweep(&live.engine(), &requests);
        let mut i = base_rows;
        let mut compacted = false;
        while i < total {
            let batch = rng.gen_range(1..8usize).min(total - i);
            let rows: Vec<Vec<Value>> = (i..i + batch).map(|r| full.row(r).unwrap()).collect();
            live.append_rows(&rows).unwrap();
            i += batch;
            if !compacted && i >= compact_at {
                prop_assert!(!live.compact().unwrap().skipped);
                compacted = true;
            }
            // the global passes are resident: they are topped up, which
            // counts as hits, never as full passes (other probes may
            // miss: a local probe's backed-off context moves with the
            // rows, and an unsupported context is never cached)
            let engine = live.engine();
            let before = engine.cache_stats();
            let _ = engine.run(&ExplainRequest::Global);
            prop_assert_eq!(engine.cache_stats().misses, before.misses);
            prop_assert!(engine.cache_stats().hits > before.hits);
            let got = sweep(&engine, &requests);
            let want = sweep(
                &build(prefix(&full, i), &graph, pred, &features, shards, index),
                &requests,
            );
            prop_assert_eq!(
                &want, &got,
                "{} diverged at {} rows, {} shards, index {} (seed {})",
                name, i, shards, index, seed
            );
        }
        let _ = sweep(&cold, &requests);
        let key = |p: &PassSnapshot| (p.xs.clone(), p.context.clone(), p.c_set.clone());
        let cold_passes = cold.snapshot().cache.passes;
        let live_passes = live.engine().snapshot().cache.passes;
        prop_assert!(!live_passes.is_empty(), "the warm probes leave passes resident");
        for pass in &live_passes {
            let twin = cold_passes.iter().find(|c| key(c) == key(pass));
            prop_assert_eq!(Some(pass), twin, "{} pass diverged (seed {})", name, seed);
        }
    }

    /// Batches that end mid-word (1, 63, 65, 300 rows) across two
    /// compactions, each fold landing right after an unwarmed batch: the
    /// warm probes top up through the popcount range walk on both sides
    /// of every fold, from watermarks inside a word of the delta and,
    /// after a fold, inside a word of the folded base. Every answer
    /// equals a cold build, and every folded index equals a rebuild over
    /// the folded table word for word.
    #[test]
    fn odd_sized_batches_top_up_and_fold_the_index_exactly(seed in 0u64..10_000) {
        let (name, _) = BUILTINS[(seed as usize + 2) % BUILTINS.len()];
        let batches = [1usize, 63, 65, 300, 1, 63];
        let fold_after = [1usize, 3];
        let base_rows = 150 + (seed as usize % 50);
        let (full, graph, pred, features) =
            builtin_world(name, base_rows + batches.iter().sum::<usize>(), seed);
        let base_rows = full.n_rows() - batches.iter().sum::<usize>();
        let requests = probe_requests(&build(full.clone(), &graph, pred, &features, 1, true), seed);
        let base = build(prefix(&full, base_rows), &graph, pred, &features, 1, true);
        let live = LiveEngine::new(Arc::new(base));
        let _ = sweep(&live.engine(), &requests);
        let mut i = base_rows;
        for (b, &batch) in batches.iter().enumerate() {
            let rows: Vec<Vec<Value>> = (i..i + batch).map(|r| full.row(r).unwrap()).collect();
            live.append_rows(&rows).unwrap();
            i += batch;
            if fold_after.contains(&b) {
                prop_assert!(!live.compact().unwrap().skipped);
                let folded = live.engine();
                let rebuilt = TableIndex::build(folded.table(), 1).unwrap();
                let index = folded.estimator().index().map(|index| &**index);
                prop_assert!(index == Some(&rebuilt), "{} index after batch #{}", name, b);
            }
            let engine = live.engine();
            let before = engine.cache_stats();
            let got = sweep(&engine, &requests);
            prop_assert!(engine.cache_stats().topped_up > before.topped_up);
            let cold = build(prefix(&full, i), &graph, pred, &features, 1, true);
            prop_assert_eq!(
                &sweep(&cold, &requests), &got,
                "{} diverged at {} rows (seed {})", name, i, seed
            );
        }
    }

    /// A pack written mid-stream (v5 layout, stamped with the current
    /// version) restores to an engine that picks the stream back up:
    /// the watermark survives the round-trip, the
    /// resumed table accepts the remaining appends, and the final
    /// answers are byte-identical to the cold build.
    #[test]
    fn a_v5_pack_saved_mid_stream_resumes_the_append_stream(seed in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xACED);
        let (name, _) = BUILTINS[(seed as usize + 3) % BUILTINS.len()];
        let shards = if seed % 2 == 0 { 4 } else { 1 };
        let index = (seed / 2) % 2 == 0;
        let total = rng.gen_range(120..200usize);
        let appended = rng.gen_range(12..40usize);
        let (full, graph, pred, features) = builtin_world(name, total, seed);
        let total = full.n_rows();
        let base_rows = total - appended;
        let pause_at = base_rows + appended / 2;

        // first half of the stream, then freeze to pack bytes
        let base = build(prefix(&full, base_rows), &graph, pred, &features, shards, index);
        let live = LiveEngine::new(Arc::new(base));
        replay(&live, &prefix(&full, pause_at), base_rows, &mut rng);
        let bytes = Pack::from_engine(&live.engine(), PackMeta::default()).to_bytes();
        let (version, watermark) = lewis_store::version_info(&bytes).unwrap();
        prop_assert_eq!(version, lewis_store::FORMAT_VERSION);
        prop_assert_eq!(watermark, Some(pause_at as u64), "watermark survives");

        // restore and resume the second half on the revived table
        let (restored, _) = Pack::from_bytes(&bytes).unwrap().restore_engine().unwrap();
        prop_assert_eq!(restored.total_rows(), pause_at, "mid-stream rows survive");
        let resumed = LiveEngine::new(Arc::new(restored));
        prop_assert_eq!(resumed.status().version, pause_at as u64);
        replay(&resumed, &full, pause_at, &mut rng);

        let cold = build(full.clone(), &graph, pred, &features, shards, index);
        let requests = probe_requests(&cold, seed);
        let want = sweep(&cold, &requests);
        let got = sweep(&resumed.engine(), &requests);
        prop_assert_eq!(
            &want, &got,
            "{} diverged after pack round-trip (seed {})",
            name, seed
        );
        // and the revived stream compacts cleanly too
        resumed.compact().unwrap();
        prop_assert_eq!(&want, &sweep(&resumed.engine(), &requests));
    }
}
