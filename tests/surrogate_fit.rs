//! Acceptance: the recourse surrogate fit is **multiset-determined**.
//! The fit groups the rows into their distinct patterns and sums over
//! those in lexicographic order with integer counts, so its bits depend
//! only on which rows the table holds — never on the shard layout or
//! the row order. An engine built with 7 shards, or over a shuffled
//! table, fits literally the same coefficients as the unsharded one.
//! These tests pin that property through the public engine path
//! (`prepare_surrogate` → snapshot), not just the ml-crate internals.

use lewis_core::Engine;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tabular::{AttrId, Domain, Schema, Table, Value};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 7];

/// A random labelled table: 2–4 feature attributes of cardinality 2–4
/// and a binary prediction correlated with the first feature.
fn random_world(seed: u64) -> (Table, AttrId) {
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
    let n_rows = rng.gen_range(40..300usize);
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
    (table, pred)
}

fn build_engine(table: &Table, pred: AttrId, shards: usize) -> Engine {
    let features: Vec<AttrId> = table.schema().attr_ids().filter(|&a| a != pred).collect();
    Engine::builder(table.clone())
        .prediction(pred, 1)
        .features(&features)
        .alpha(0.5)
        .min_support(5)
        .shards(shards)
        .build()
        .unwrap()
}

/// Fit surrogates for every probe set and export them as exact bit
/// patterns keyed by actionable set, via the public snapshot.
fn fitted_bits(engine: &Engine, probes: &[Vec<AttrId>]) -> Vec<(Vec<AttrId>, String)> {
    for actionable in probes {
        engine.prepare_surrogate(actionable).unwrap();
    }
    let mut fits: Vec<(Vec<AttrId>, String)> = engine
        .snapshot()
        .surrogates
        .fits
        .into_iter()
        .map(|f| {
            let coeffs: Vec<String> = f
                .coefficients
                .iter()
                .map(|c| format!("{:x}", c.to_bits()))
                .collect();
            (
                f.actionable,
                format!(
                    "i={:x} c=[{}] o={:?}",
                    f.intercept.to_bits(),
                    coeffs.join(","),
                    f.orders
                ),
            )
        })
        .collect();
    fits.sort();
    fits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline property: for shard counts {1, 2, 4, 7}, the
    /// surrogate fitted for any actionable set — singleton and pair —
    /// carries the same intercept, coefficients, and value orders down
    /// to the f64 bit patterns.
    #[test]
    fn surrogate_fits_are_bitwise_shard_invariant(seed in 0u64..10_000) {
        let (table, pred) = random_world(seed);
        let baseline = build_engine(&table, pred, 1);
        let features = baseline.features().to_vec();
        let mut probes: Vec<Vec<AttrId>> =
            features.iter().map(|&f| vec![f]).collect();
        probes.push(vec![features[0], features[1 % features.len()]]);
        let want = fitted_bits(&baseline, &probes);
        prop_assert_eq!(want.len(), probes.len(), "every probe set fitted");
        for &n_shards in &SHARD_COUNTS[1..] {
            let sharded = build_engine(&table, pred, n_shards);
            let got = fitted_bits(&sharded, &probes);
            prop_assert_eq!(
                &want, &got,
                "surrogate fits diverged at {} shards (seed {})",
                n_shards, seed
            );
        }
    }

    /// The same table with its rows shuffled fits the same surrogates
    /// down to the bits: the fit sees the multiset of rows, not their
    /// order.
    #[test]
    fn surrogate_fits_are_bitwise_row_order_invariant(seed in 0u64..10_000) {
        let (table, pred) = random_world(seed);
        let baseline = build_engine(&table, pred, 1);
        let features = baseline.features().to_vec();
        let mut probes: Vec<Vec<AttrId>> =
            features.iter().map(|&f| vec![f]).collect();
        probes.push(vec![features[0], features[1 % features.len()]]);
        let want = fitted_bits(&baseline, &probes);
        let mut rows: Vec<Vec<Value>> = (0..table.n_rows())
            .map(|r| table.row(r).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        let mut shuffled = Table::new(table.schema().clone());
        for row in &rows {
            shuffled.push_row(row).unwrap();
        }
        let got = fitted_bits(&build_engine(&shuffled, pred, 1), &probes);
        prop_assert_eq!(&want, &got, "row order changed the fit (seed {})", seed);
    }
}
